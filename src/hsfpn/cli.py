"""Command-line surface: image filtering, saliency sweeps, pyramid runs, cost reports.

Exit codes: 0 success, 1 usage (bad flags or unreadable paths), 2 degenerate
input, 3 shape/config/content error. Every failure prints a single
machine-parseable line ``hsfpn: <category>: <message>`` on standard error.
"""

import argparse
import errno
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .cost import REPORT_FORMATS, CostModel, OpCostReport, cost_rows, cost_table_rows, count_params, render
from .errors import DegenerateBackgroundError, PgmParseError, ShapeError, ValidationError
from .frequency import ScrWindows, highpass_cut, lowcut_filter, scr, scr_filter_sweep
from .io import read_pgm, write_pgm
from .pyramid import (
    FUSION_MODES,
    LEVELS,
    PyramidConfig,
    hsfpn_forward,
    init_weights,
    level_file,
    read_pyramid_dir,
    write_pyramid_dir,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_center(text):
    try:
        r, c = text.split(",")
        return int(r), int(c)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected <row>,<col>, got {text!r}")


def _parse_cut(text):
    try:
        r, c = text.lower().split("x")
        r, c = int(r), int(c)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected <rows>x<cols>, got {text!r}")
    if r < 0 or c < 0:
        raise argparse.ArgumentTypeError("cut extents must be >= 0")
    return r, c


def _add_window_flags(p, center_required: bool = False) -> None:
    p.add_argument("--target-center", type=_parse_center, metavar="R,C", required=center_required)
    p.add_argument("--target-size", type=int, default=ScrWindows.target_extent)
    p.add_argument("--neighborhood-size", type=int, default=ScrWindows.neighborhood_extent)


def _add_groups_flag(p) -> None:
    p.add_argument("--groups", type=int, help=f"group count (default: gcd(channels, {PyramidConfig.groups}))")


def _groups(args, channels: int) -> int:
    """`--groups`, or by default gcd(channels, PyramidConfig.groups), which divides any channel count."""
    return args.groups if args.groups is not None else math.gcd(channels, PyramidConfig.groups)


def build_parser() -> _Parser:
    parser = _Parser(prog="hsfpn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="low-cut filter a PGM image")
    p.add_argument("image", help="input image (binary 8-bit PGM)")
    p.add_argument("-o", "--output", required=True, help="filtered PGM path")
    p.add_argument("--alpha", type=float, help="fractional cut-off in [0, 1]")
    p.add_argument("--cut", type=_parse_cut, metavar="RxC", help="absolute coefficient region")
    _add_window_flags(p)
    p.add_argument("--recenter", action="store_true",
                   help="add 0.5 before clamping (high-pass output is near zero-mean)")
    p.add_argument("--stats", help="stats JSON path (default: output with .stats.json)")

    p = sub.add_parser("scr-sweep", help="SCR versus expanding low-cut region")
    p.add_argument("image")
    p.add_argument("-o", "--output", required=True, help="CSV path")
    _add_window_flags(p, center_required=True)
    p.add_argument("--cut-max", type=int, required=True)
    p.add_argument("--cut-step", type=int, default=1)

    p = sub.add_parser("forward", help="run a pyramid directory through the network")
    p.add_argument("input_dir", help="directory with c2.pft..c5.pft")
    p.add_argument("-o", "--output-dir", required=True)
    p.add_argument("--mode", choices=["hsfpn", "fpn", "fpn_baseline"], default=PyramidConfig.mode)
    p.add_argument("--seed", type=int, default=PyramidConfig.seed)
    p.add_argument("--alpha", type=float, default=PyramidConfig.alpha)
    p.add_argument("--k", type=int, default=PyramidConfig.k)
    _add_groups_flag(p)
    p.add_argument("--fusion", choices=FUSION_MODES, default=PyramidConfig.fusion_mode)
    p.add_argument("--report", help="report JSON path (default: <output-dir>/report.json)")

    p = sub.add_parser("cost", help="attention-layout complexity table")
    p.add_argument("--n", type=int, required=True, help="block count")
    p.add_argument("--h", type=int, required=True, help="block rows")
    p.add_argument("--w", type=int, required=True, help="block cols")
    p.add_argument("--c", type=int, required=True, help="channels")
    p.add_argument("--format", choices=REPORT_FORMATS, default="table")

    p = sub.add_parser("params", help="added parameter/MAC accounting per module")
    p.add_argument("--channels", type=int, default=PyramidConfig.channels)
    p.add_argument("--k", type=int, default=PyramidConfig.k)
    _add_groups_flag(p)
    p.add_argument("--base-h", type=int, default=200, help="level-2 height")
    p.add_argument("--base-w", type=int, default=200, help="level-2 width")
    p.add_argument("--bias", action=argparse.BooleanOptionalAction, default=PyramidConfig.conv_bias)
    p.add_argument("--no-cp", action="store_true")
    p.add_argument("--no-sp", action="store_true")
    p.add_argument("--no-sdp", action="store_true")
    p.add_argument("--format", choices=REPORT_FORMATS, default="table")
    return parser


def _windows(args) -> ScrWindows:
    return ScrWindows(args.target_center, args.target_size, args.neighborhood_size)


def _require_dirs(*paths, made=None, reads=()) -> None:
    """Raise unless the output paths name distinct files, none a directory nor a file the
    run `reads`, each in an existing directory or in `made`; run first."""
    seen, inputs = set(), {Path(path).resolve() for path in reads}
    for path in paths:
        resolved = Path(path).resolve()
        if resolved in inputs:
            raise UsageError(f"output {str(path)!r} names a file the run reads")
        if resolved in seen:
            raise UsageError(f"two outputs of one run name the same file {str(path)!r}")
        seen.add(resolved)
        if Path(path).is_dir() or resolved == made:
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if not Path(path).parent.is_dir() and resolved.parent != made:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))


def cmd_filter(args) -> int:
    if (args.alpha is None) == (args.cut is None):
        raise UsageError("exactly one of --alpha or --cut is required")
    stats_path = args.stats or str(Path(args.output).with_suffix(".stats.json"))
    _require_dirs(args.output, stats_path, reads=[args.image])
    image = read_pgm(args.image)
    h, w = image.shape
    if args.alpha is not None:
        cut = highpass_cut(h, w, args.alpha)
        cut_desc = {"alpha": args.alpha}
    else:
        cut = args.cut
        cut_desc = {"cut_rows": args.cut[0], "cut_cols": args.cut[1]}
    filtered = lowcut_filter(image, *cut)

    stats = {"input": str(args.image), "output": str(args.output), **cut_desc,
             "recenter": bool(args.recenter), "degenerate": False}
    exit_code = 0
    if args.target_center is not None:
        windows = _windows(args)
        try:
            stats["scr_before"] = scr(image, windows)
            stats["scr_after"] = scr(filtered, windows)
        except DegenerateBackgroundError as err:
            stats["degenerate"] = True
            stats["scr_before"] = stats.get("scr_before")
            stats["scr_after"] = None
            stats["reason"] = str(err)
            exit_code = 2
    # written only now: a bad SCR window (ValidationError) must leave no file behind
    write_pgm(args.output, filtered + np.float32(0.5) if args.recenter else filtered)
    Path(stats_path).write_text(json.dumps(stats, indent=2) + "\n")
    if exit_code:
        print(f"hsfpn: degenerate: {stats['reason']}", file=sys.stderr)
    return exit_code


def cmd_scr_sweep(args) -> int:
    if args.cut_max < 0 or args.cut_step < 1:
        raise UsageError("--cut-max must be >= 0 and --cut-step >= 1")
    _require_dirs(args.output, reads=[args.image])
    image = read_pgm(args.image)
    # stop at the first cut covering the whole plane: it leaves the window zero to rounding, so scr raises there
    cuts = [(c, c) for c in range(0, min(args.cut_max, max(image.shape) + args.cut_step - 1) + 1, args.cut_step)]
    rows = [(str(r), str(c), f"{value:.9g}") for r, c, value in scr_filter_sweep(image, _windows(args), cuts)]
    Path(args.output).write_text(render([("cut_rows", "cut_cols", "scr")] + rows, "csv"))
    return 0


def cmd_forward(args) -> int:
    out = Path(args.output_dir)
    report_path = args.report or str(out / "report.json")
    written = [out / level_file("p", lv) for lv in LEVELS]
    read = [Path(args.input_dir) / level_file("c", lv) for lv in LEVELS]
    _require_dirs(report_path, *written, made=out.resolve(), reads=read)
    pyramid = read_pyramid_dir(args.input_dir, prefix="c")
    channels = pyramid.channels()
    mode = "fpn_baseline" if args.mode == "fpn" else args.mode
    config = PyramidConfig(channels=channels, alpha=args.alpha, k=args.k, groups=_groups(args, channels),
                           fusion_mode=args.fusion, mode=mode, seed=args.seed)
    weights = init_weights(config)
    outputs = hsfpn_forward(pyramid, weights)
    write_pyramid_dir(args.output_dir, outputs, prefix="p")

    added = count_params(config, pyramid.extents(LEVELS[0])) if mode == "hsfpn" else OpCostReport()
    report = {
        "mode": mode,
        "seed": args.seed,
        "alpha": args.alpha,
        "fusion": args.fusion,
        "channels": channels,
        "levels": {
            str(lv): {
                "shape": list(outputs[lv].shape),
                # numpy's own pairwise sum, not BLAS: the digits do not depend on the thread count
                "l2_norm": float(np.sqrt(np.square(outputs[lv], dtype=np.float64).sum())),
            }
            for lv in outputs
        },
        "added_params": added.to_dict(),
    }
    Path(report_path).write_text(json.dumps(report, indent=2) + "\n")
    return 0


def _print_report(fmt: str, data: dict, rows) -> None:  # JSON of `data`, or `rows` rendered
    print(json.dumps(data, indent=2) if fmt == "json" else render(rows, fmt).rstrip("\n"))


def cmd_cost(args) -> int:
    model = CostModel(n=args.n, h=args.h, w=args.w, c=args.c)
    _print_report(args.format, {"model": asdict(model), "rows": cost_rows(model)}, cost_table_rows(model))
    return 0


def cmd_params(args) -> int:
    config = PyramidConfig(channels=args.channels, k=args.k, groups=_groups(args, args.channels),
                           conv_bias=args.bias)
    report = count_params(config, (args.base_h, args.base_w), with_cp=not args.no_cp,
                          with_sp=not args.no_sp, with_sdp=not args.no_sdp)
    _print_report(args.format, report.to_dict(), report.rows())
    return 0


_COMMANDS = {
    "filter": cmd_filter,
    "scr-sweep": cmd_scr_sweep,
    "forward": cmd_forward,
    "cost": cmd_cost,
    "params": cmd_params,
}


# (exception, category, exit code) of each documented failure; the first match wins.
_FAILURES = (
    ((UsageError, FileNotFoundError), "usage", 1),
    (DegenerateBackgroundError, "degenerate", 2),
    (PgmParseError, "parse", 3),
    ((ShapeError, ValidationError), "config", 3),
    (OSError, "io", 1),
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(all="ignore"):  # overflow ends in a non-finite check, not a warning
            return _COMMANDS[args.command](args)
    except Exception as err:
        for kind, category, code in _FAILURES:
            if isinstance(err, kind):
                message = " ".join(str(err).split())
                print(f"hsfpn: {category}: {message}", file=sys.stderr)
                return code
        raise


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
