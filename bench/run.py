"""hsfpn benchmark: closed-loop workloads, end-to-end metrics and a traced per-layer run.

    python3 bench/run.py --workload hsfpn-mid --seed 0 --seconds 30 --trace 0

One process, one client: each op starts when the previous one has finished.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json`` and ``--trace 1`` its per-layer
metrics. The full record (environment, samples, checks and, when traced,
every span) is written to ``bench/out/<workload>-seed<n>-trace<t>.json``.

``--self-test`` perturbs two outputs (one timed op, the reference op) and
exits 0 only if both are counted as failed.

The package is imported from ``src/`` of the checkout holding this file; the
benchmark exits non-zero without a result when it is not there.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_PROBES = 5  # fresh processes per run; setup_s is their median
MIN_SAMPLES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare():
    """Pin BLAS threads to the cores this process may use and import the checkout's package."""
    if not (SRC / "hsfpn" / "__init__.py").is_file():
        sys.exit(f"bench: no hsfpn package at {SRC.relative_to(ROOT)}/hsfpn; run from a full checkout")
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    return threads


def setup_probe(workload, seed):
    """Child process: seconds to import the package, build inputs and run one warm-up op."""
    import numpy  # noqa: F401  (numpy's own import time is not set-up work)

    start = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        wl.op(wl.setup(seed, workdir))
        return perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


class Tally:
    """Counts attempted and failed ops; an op fails if it raises or fails a check."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, state, baseline, tamper=False, reference=None):
        """Run one op; returns (seconds, output or None)."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = self.wl.op(state)
        except Exception as err:  # an op that raises is a failed op, not a crashed run
            seconds = perf_counter() - start
            self._fail([f"op raised {type(err).__name__}: {err}"])
            return seconds, None
        seconds = perf_counter() - start
        if tamper:
            out = self.wl.tamper(out)
        problems = self.wl.check(state, out, baseline)
        if reference is not None and not problems:
            problems = self.wl.compare(self.wl.summary(out), reference)
        if problems:
            self._fail(problems)
        return seconds, out

    def _fail(self, problems):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"op {self.attempted}: " + "; ".join(problems[:3]))


def latency_tail(samples):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it, or None."""
    n = len(samples)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return {"percentile": q, "value_s": statistics.quantiles(samples, n=100)[q - 1]}
    return None


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(np, threads, seed):
    digest = hashlib.sha256()
    for path in sorted((SRC / "hsfpn").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {"git_sha": git_sha(), "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": threads, "nproc": threads, "cpu_count": os.cpu_count(), "seed": seed}


CROSS_CHECK_TARGETS = ("tensor.conv2d", "sdp.block_attention", "sdp.sdp_forward")


def mac_cross_check(wl, state, totals, ops, gaps):
    """Traced conv + attention MACs of every traced op against the cost model.

    ``gaps`` names the targets that are missing or could not be counted; the
    check is then reported as unavailable rather than failed.
    """
    if gaps:
        return {"status": "unavailable", "reason": f"not counted: {gaps}"}
    try:
        expected = wl.expected_macs(state)
    except (AttributeError, KeyError, TypeError) as err:
        return {"status": "unavailable", "reason": repr(err)}
    seen = []
    for op in ops:
        rows = totals.get(op, {})
        conv = sum(r.get("macs", 0) for name, r in rows.items() if name.startswith("tensor.conv2d"))
        attention = rows.get("sdp.block_attention", {}).get("macs", 0)
        modelled = rows.get("sdp.sdp_forward", {}).get("attention_macs", 0)
        seen.append((conv + attention, attention, modelled))
    ok = all(total == expected and attention == modelled for total, attention, modelled in seen)
    return {"status": "ok" if ok else "mismatch", "expected_macs": expected,
            "traced_macs": sorted({s[0] for s in seen}),
            "block_attention_macs": sorted({s[1] for s in seen}),
            "attention_cost_macs": sorted({s[2] for s in seen})}


def trace_report(wl, workload, state, recorder, missing, latencies, traced_latencies):
    """Per-layer metrics, record entries and run-level problems of a traced run."""
    import spans
    import workloads

    ops = list(range(len(traced_latencies)))
    totals = spans.per_op_totals(recorder.spans)
    metrics = spans.layer_metrics(totals, ops)
    metrics.update(spans.peak_mb(s for s in recorder.spans if s.op == "memory"))
    setup_rows = totals.get("setup", {})
    for name in ("pyramid.init_weights", "pyramid.random_pyramid"):
        metrics[f"{name}.s"] = setup_rows.get(name, {}).get("total_s", 0.0)
    metrics["trace.overhead_s"] = statistics.median(traced_latencies) - statistics.median(latencies)

    problems = []
    called = {name for op in ops for name, row in totals.get(op, {}).items() if row["calls"]}
    for prefix in workloads.MUST_BYPASS[workload]:
        hits = sorted(name for name in called if name.startswith(prefix))
        if hits:
            problems.append(f"predicted bypass of {prefix}* broken by {hits}")
    gaps = [t for t in CROSS_CHECK_TARGETS if t in missing or t in recorder.count_failures]
    check = mac_cross_check(wl, state, totals, ops, gaps)
    if check["status"] == "mismatch":
        problems.append(f"MAC cross-check failed: {check}")
    record = {
        "missing_targets": missing,
        "predicted_idle": {prefix: sorted(name for name in called if name.startswith(prefix))
                           for prefix in workloads.PREDICTED_IDLE[workload]},
        "mac_cross_check": check,
        "count_failures": recorder.count_failures,
        "traced_latencies_s": traced_latencies,
        "spans": [s.to_json() for s in recorder.spans],
    }
    return metrics, record, problems


def run(args, threads):
    import numpy as np
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    references = json.loads((BENCH / "reference.json").read_text())
    wl = workloads.WORKLOADS[args.workload]
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "self_test": args.self_test, "env": environment(np, threads, args.seed)}
    recorder = spans.Recorder()
    restored, missing = True, []

    def traced(op, fn, *fn_args):
        nonlocal restored
        patches, missing[:] = spans.install(recorder)
        recorder.op = op
        try:
            return fn(*fn_args)
        finally:
            restored &= spans.uninstall(patches)

    workdir = OUT / f"work-{os.getpid()}"
    try:
        setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
        state = wl.setup(args.seed, workdir)
        tally = Tally(wl)
        _, baseline = tally.run(state, None)
        if tally.failed:
            sys.exit(f"bench: warm-up op failed: {tally.problems[0]}")
        if args.trace:
            traced("setup", wl.setup, args.seed, workdir / "traced-setup")

        latencies, traced_latencies, ok_ops = [], [], 0
        deadline = perf_counter() + args.seconds
        while perf_counter() < deadline or len(latencies) < MIN_SAMPLES:
            failed = tally.failed
            seconds, _ = tally.run(state, baseline, tamper=args.self_test and not latencies)
            latencies.append(seconds)
            ok_ops += tally.failed == failed
            if args.trace:
                seconds, _ = traced(len(traced_latencies), tally.run, state, baseline)
                traced_latencies.append(seconds)

        # untimed pass for memory: the whole op's peak, or (traced) each conv's
        tracemalloc.start()
        if args.trace:
            recorder.track_memory = True
            traced("memory", tally.run, state, baseline)
        else:
            tally.run(state, baseline)
        op_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        ref_state = wl.setup(workloads.DEFAULT_SEED, workdir / "reference")
        tally.run(ref_state, None, tamper=args.self_test, reference=references[args.workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = []
    if args.trace:
        metrics, extra, problems = trace_report(wl, args.workload, state, recorder, missing,
                                                latencies, traced_latencies)
        record.update(extra)
        if not restored:
            problems.append("wrapped functions were not all restored")
    else:
        metrics = {"throughput_per_s": ok_ops / sum(latencies),
                   "latency_p50_s": statistics.median(latencies),
                   "peak_mb": op_peak / 1e6,
                   "setup_s": statistics.median(setup_samples)}
    metrics["error_rate"] = tally.failed / tally.attempted

    correct = tally.failed == 0 and not problems
    record.update({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                   "problems": tally.problems + problems, "latencies_s": latencies,
                   "latency_samples": len(latencies), "latency_tail": latency_tail(latencies),
                   "setup_samples_s": setup_samples, "metrics": metrics})
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-selftest' if args.self_test else ''}.json"
    (OUT / name).write_text(json.dumps(record) + "\n")

    for problem in record["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    print("env " + json.dumps(record["env"]))
    print(f"error_rate {metrics['error_rate']:.6g} ({tally.failed}/{tally.attempted} ops), "
          f"{len(latencies)} untraced latency samples")
    result = {}
    for entry in wanted:
        value = float(metrics.get(entry["name"], 0.0))
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} {value:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    if args.self_test:
        return 0 if tally.failed >= 2 else 1
    return 0


def main(argv=None):
    args = parse_args(argv)
    threads = prepare()
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    return run(args, threads)


if __name__ == "__main__":
    sys.exit(main())
