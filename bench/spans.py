"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``hsfpn`` package from the outside:
each wrapped function is replaced at every module attribute that names it, so
callers that look the name up at call time (``conv2d`` inside ``ConvLayer``,
``dct2`` inside ``highfreq_response``, ``read_pgm`` inside the CLI) go through
the wrapper. ``uninstall`` puts the originals back. No code of the package is
edited.

A span holds its name, start, end, parent span and op id, plus work counts
taken from the call's arguments (MACs, bytes, planes). Spans stay in memory
and are written out with the run's record. A layer's self time is its span
time minus the time its child spans cover.
"""

import functools
import importlib
import inspect
import statistics
import sys
import tracemalloc
from os import stat
from time import perf_counter

PACKAGE = "hsfpn"
F32 = 4  # bytes per float32 value


def _conv2d(a):
    x, spec = a["x"], a["spec"]
    n, c, h, w = x.shape
    kind = "k3" if spec.kernel == 3 else ("k1vec" if h * w == 1 else "k1")
    values = x.size + spec.weight_count + n * spec.out_channels * h * w
    if a.get("bias") is not None:
        values += spec.out_channels
    return kind, {"macs": n * spec.macs(h, w), "bytes": F32 * values}


def _matmul(a):
    (r, s), (_, t) = a["a"].shape, a["b"].shape
    return None, {"macs": r * s * t}


def _dct(a):
    *lead, h, w = a["x"].shape
    planes = 1
    for extent in lead:
        planes *= extent
    return None, {"macs": planes * (h * h * w + h * w * w), "planes": planes}


def _block_attention(a):
    hw, c = a["q"].shape
    return None, {"macs": 2 * hw * hw * c}


def _sdp_forward(a):
    from hsfpn.cost import CostModel, attention_cost

    n, c, h, w = a["c_low"].shape
    bh, bw = a["params"].block_h, a["params"].block_w
    model = CostModel(n=(h // bh) * (w // bw), h=bh, w=bw, c=c)
    return None, {"attention_macs": n * attention_cost(model, "sdp")}


def _read_pgm(a):
    return None, {"bytes": stat(a["path"]).st_size}


# Wrapped functions and how to count their work. ``memory`` marks the layers
# whose per-call tracemalloc peak is taken in the memory pass.
TARGETS = {
    "tensor.conv2d": {"info": _conv2d, "memory": True},
    "tensor.adaptive_pool": {},
    "tensor.softmax_rows": {},
    "tensor.matmul": {"info": _matmul},
    "tensor.upsample2x": {},
    "frequency.dct2": {"info": _dct},
    "frequency.idct2": {"info": _dct},
    "frequency.highfreq_response": {},
    "frequency.lowcut_mask": {},
    "frequency.scr": {},
    "hfp.hfp_forward": {},
    "hfp.channel_path": {},
    "hfp.spatial_path": {},
    "sdp.sdp_forward": {"info": _sdp_forward},
    "sdp.block_attention": {"info": _block_attention},
    "sdp.partition_blocks": {},
    "sdp.reassemble_blocks": {},
    "pyramid.hsfpn_forward": {},
    "pyramid.init_weights": {},
    "pyramid.random_pyramid": {},
    "io.read_pgm": {"info": _read_pgm},
    "cli.main": {},
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "error", "counts")

    def __init__(self, sid, name, parent, op):
        self.id, self.name, self.parent, self.op = sid, name, parent, op
        self.start = self.end = 0.0
        self.error = False
        self.counts = {}

    def to_json(self):
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "error": self.error, "counts": self.counts}


class Recorder:
    """Collects spans; ``op`` tags every span with the op that caused it."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.track_memory = False
        self.count_failures = {}
        self._stack = []
        self._origin = perf_counter()

    def wrap(self, name, fn, info=None, memory=False):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), name, self._stack[-1] if self._stack else None, self.op)
            if info is not None:
                try:
                    kind, span.counts = info(signature.bind(*args, **kwargs).arguments)
                except (ImportError, TypeError, AttributeError, KeyError, ValueError, OSError) as err:
                    kind = None
                    self.count_failures.setdefault(name, repr(err))
                if kind is not None:
                    span.name = f"{name}.{kind}"
            self.spans.append(span)
            self._stack.append(span.id)
            measure = memory and self.track_memory
            if measure:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span.start = perf_counter() - self._origin
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter() - self._origin
                self._stack.pop()
                if measure:
                    span.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1] - before

        return wrapper


def install(recorder):
    """Wrap every target at each package attribute bound to it.

    Returns ``(patches, missing)``: the (module, attribute, original) triples
    to restore, and the targets that no longer exist. A missing target is
    reported, not fatal, so the benchmark outlives renames in the package.
    """
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
    wrappers, missing = {}, []
    for target, how in TARGETS.items():
        module_name, attr = target.rsplit(".", 1)
        try:
            fn = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
        except (ImportError, AttributeError):
            missing.append(target)
            continue
        if not callable(fn):
            missing.append(target)
            continue
        wrappers[id(fn)] = (fn, recorder.wrap(target, fn, how.get("info"), how.get("memory", False)))
    patches = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patches.append((module, attr, value))
    return patches, missing


def uninstall(patches):
    """Restore the originals; returns True when every attribute is back."""
    for module, attr, original in patches:
        setattr(module, attr, original)
    return all(getattr(module, attr) is original for module, attr, original in patches)


def self_times(spans):
    """Span duration minus the time covered by its direct children, per span id."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def per_op_totals(spans):
    """{op: {name: {"calls", "total_s", "self_s", "errors", <count>...}}}."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    ops = {}

    def row(op, name):
        return ops.setdefault(op, {}).setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})

    for s in spans:
        r = row(s.op, s.name)
        r["calls"] += 1
        r["total_s"] += s.end - s.start
        r["self_s"] += own[s.id]
        r["errors"] += int(s.error)
        for key, value in s.counts.items():
            r[key] = r.get(key, 0) + value
        # planes a filtering call actually transformed: those of its forward DCTs
        parent = by_id.get(s.parent)
        if s.name == "frequency.dct2" and parent is not None and parent.name == "frequency.highfreq_response":
            r = row(s.op, parent.name)
            r["planes"] = r.get("planes", 0) + s.counts.get("planes", 0)
    return ops


def layer_metrics(totals, ops):
    """Per-layer metrics as medians over the given ops (zero for a layer an op skips)."""
    names = sorted({name for op in ops for name in totals.get(op, {})})
    metrics = {}
    for name in names:
        rows = [totals.get(op, {}).get(name, {}) for op in ops]

        def med(key):
            return statistics.median(row.get(key, 0) for row in rows)

        total = med("total_s")
        metrics[f"{name}.calls"] = med("calls")
        metrics[f"{name}.total_s"] = total
        metrics[f"{name}.self_s"] = med("self_s")
        metrics[f"{name}.errors"] = sum(row.get("errors", 0) for row in rows)
        if any("macs" in row for row in rows):
            gmac = med("macs") / 1e9
            metrics[f"{name}.gmac"] = gmac
            metrics[f"{name}.gmac_per_s"] = gmac / total if total > 0 else 0.0
        if any("bytes" in row for row in rows):
            metrics[f"{name}.bytes"] = med("bytes")
        if any("planes" in row for row in rows):
            metrics[f"{name}.planes"] = med("planes")
        if any("attention_macs" in row for row in rows):
            metrics["sdp.attention.gmac"] = med("attention_macs") / 1e9
    return metrics


def peak_mb(spans):
    """Largest per-call tracemalloc peak, in MB, for each layer measured in the memory pass."""
    out = {}
    for s in spans:
        if "peak_bytes" in s.counts:
            key = f"{s.name}.peak_mb"
            out[key] = max(out.get(key, 0.0), s.counts["peak_bytes"] / 1e6)
    return out
