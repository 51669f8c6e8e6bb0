import argparse
import dataclasses
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hsfpn import (PyramidConfig, ScrWindows, blob_scene, count_params, random_pyramid,
                   read_pgm, read_pyramid_dir, read_tensor, scr, write_pgm, write_pyramid_dir, write_tensor)
from hsfpn import cli
from hsfpn.cli import build_parser, main
from hsfpn.cost import render
from hsfpn.pyramid import LEVELS, level_file

from test_pyramid import old_manifest

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture()
def scene_pgm(tmp_path):
    path = tmp_path / "scene.pgm"
    write_pgm(path, blob_scene())
    return path


@pytest.fixture()
def pyramid_dir(tmp_path):
    pyr = random_pyramid(8, base_hw=(32, 32), seed=4)
    path = tmp_path / "in"
    write_pyramid_dir(path, pyr, prefix="c")
    return path


def run_cli(*argv, **kwargs):
    """`python -m hsfpn.cli *argv` on this checkout's package, one BLAS thread, 30 s timeout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "hsfpn.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=30, **kwargs)


class TestFilter:
    def test_alpha_zero_identity_within_quantisation(self, scene_pgm, tmp_path):
        out = tmp_path / "out.pgm"
        code = main(["filter", str(scene_pgm), "-o", str(out), "--alpha", "0"])
        assert code == 0
        before = read_pgm(scene_pgm)
        after = read_pgm(out)
        assert np.abs(after - before).max() <= 1.0 / 255 + 1e-6

    def test_alpha_one_all_zeros(self, scene_pgm, tmp_path):
        out = tmp_path / "out.pgm"
        assert main(["filter", str(scene_pgm), "-o", str(out), "--alpha", "1"]) == 0
        assert read_pgm(out).max() == 0.0

    def test_alpha_one_recentre_mid_gray(self, scene_pgm, tmp_path):
        out = tmp_path / "out.pgm"
        assert main(["filter", str(scene_pgm), "-o", str(out), "--alpha", "1", "--recenter"]) == 0
        np.testing.assert_allclose(read_pgm(out), 0.5, atol=1.0 / 255)

    def test_stats_json_scr_improves(self, scene_pgm, tmp_path):
        out = tmp_path / "f.pgm"
        code = main(["filter", str(scene_pgm), "-o", str(out),
                     "--cut", "2x2", "--target-center", "50,50"])
        assert code == 0
        stats = json.loads((tmp_path / "f.stats.json").read_text())
        assert stats["scr_after"] > stats["scr_before"]
        assert stats["degenerate"] is False

    def test_alpha_and_cut_mutually_exclusive(self, scene_pgm, tmp_path, capsys):
        code = main(["filter", str(scene_pgm), "-o", str(tmp_path / "x.pgm"),
                     "--alpha", "0.1", "--cut", "2x2"])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_degenerate_background_exit_2(self, tmp_path, capsys):
        img = np.zeros((100, 100), np.float32)
        img[40:60, 40:60] = 1.0
        path = tmp_path / "flat.pgm"
        write_pgm(path, img)
        out = tmp_path / "out.pgm"
        code = main(["filter", str(path), "-o", str(out), "--alpha", "0",
                     "--target-center", "50,50", "--target-size", "20",
                     "--neighborhood-size", "40"])
        assert code == 2
        stats = json.loads((tmp_path / "out.stats.json").read_text())
        assert stats["degenerate"] is True
        assert "degenerate" in capsys.readouterr().err

    def test_target_off_image_config_error(self, scene_pgm, tmp_path, capsys):
        out = tmp_path / "o.pgm"
        code = main(["filter", str(scene_pgm), "-o", str(out), "--alpha", "0.25",
                     "--target-center=-1000,-1000"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("hsfpn: config: ")
        assert not out.exists() and not (tmp_path / "o.stats.json").exists()

    def test_window_without_annulus_writes_nothing(self, scene_pgm, tmp_path, capsys):
        # both windows clip to the whole 100x100 image, so no background is left
        out = tmp_path / "o.pgm"
        code = main(["filter", str(scene_pgm), "-o", str(out), "--alpha", "0.25",
                     "--target-center", "50,50", "--target-size", "200", "--neighborhood-size", "300"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("hsfpn: config: ")
        assert not out.exists() and not (tmp_path / "o.stats.json").exists()

    def test_invalid_pgm_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\n\x00")
        code = main(["filter", str(bad), "-o", str(tmp_path / "o.pgm"), "--alpha", "0"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "parse" in err

    def test_byte_above_maxval_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "over.pgm"
        bad.write_bytes(b"P5\n2 1\n100\n\xc8\x10")
        code = main(["filter", str(bad), "-o", str(tmp_path / "o.pgm"), "--alpha", "0"])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "hsfpn: parse: raster byte above maxval=100 (byte 11)\n"
        assert not (tmp_path / "o.pgm").exists()

    def test_missing_stats_directory_writes_nothing(self, tmp_path, capsys):
        scene = tmp_path / "s.pgm"
        write_pgm(scene, blob_scene(32, 32))
        code = main(["filter", str(scene), "-o", str(tmp_path / "f.pgm"), "--alpha", "0.25",
                     "--stats", str(tmp_path / "nodir" / "x.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("hsfpn: usage: ") and "nodir" in err
        assert [p.name for p in tmp_path.iterdir()] == ["s.pgm"]

    def test_missing_input_exit_1(self, tmp_path):
        assert main(["filter", str(tmp_path / "nope.pgm"),
                     "-o", str(tmp_path / "o.pgm"), "--alpha", "0"]) == 1


class TestScrSweep:
    def test_zero_cut_row_equals_unfiltered(self, scene_pgm, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["scr-sweep", str(scene_pgm), "-o", str(out),
                     "--target-center", "50,50", "--cut-max", "4", "--cut-step", "2"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "cut_rows,cut_cols,scr"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        reference = scr(read_pgm(scene_pgm), ScrWindows(target_center=(50, 50)))
        assert float(first[2]) == pytest.approx(reference, rel=1e-6)

    def test_byte_identical_reruns(self, scene_pgm, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["scr-sweep", str(scene_pgm), "--target-center", "50,50",
                "--cut-max", "12", "--cut-step", "2"]
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_blob_scene_interior_argmax(self, scene_pgm, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["scr-sweep", str(scene_pgm), "-o", str(out),
                     "--target-center", "50,50", "--cut-max", "60", "--cut-step", "2"]) == 0
        values = [float(line.split(",")[2]) for line in out.read_text().strip().splitlines()[1:]]
        peak = int(np.argmax(values))
        assert 0 < peak < len(values) - 1

    def test_monotone_grid_order(self, scene_pgm, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["scr-sweep", str(scene_pgm), "-o", str(out),
                     "--target-center", "50,50", "--cut-max", "9", "--cut-step", "3"]) == 0
        cuts = [int(line.split(",")[0]) for line in out.read_text().strip().splitlines()[1:]]
        assert cuts == [0, 3, 6, 9]

    def test_huge_cut_max_ends_degenerate_in_bounded_memory(self, scene_pgm, tmp_path):
        # A list of every cut up to --cut-max 1e9 exhausts the 1 GB address
        # space; the list ends at the first cut that covers the whole plane.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        out = tmp_path / "sweep.csv"
        proc = run_cli("scr-sweep", str(scene_pgm), "-o", str(out),
                       "--target-center", "50,50", "--cut-max", "1000000000", preexec_fn=limit_memory)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("hsfpn: degenerate: ")
        assert not out.exists()

    # 100x80 scene, --cut-step 7: cut 98 is the last below the 100 rows, and
    # 105 the first that covers the whole plane
    @pytest.mark.parametrize("cut_max, last", [(97, 91), (104, 98)])
    def test_cut_below_the_plane_ends_the_csv(self, cut_max, last, tmp_path):
        write_pgm(tmp_path / "s.pgm", blob_scene(100, 80))
        out = tmp_path / "s.csv"
        assert main(["scr-sweep", str(tmp_path / "s.pgm"), "-o", str(out), "--target-center", "50,40",
                     "--cut-max", str(cut_max), "--cut-step", "7"]) == 0
        cuts = [int(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
        assert cuts == list(range(0, last + 1, 7))

    @pytest.mark.parametrize("cut_max", [105, 10**9])
    def test_cut_covering_the_plane_is_degenerate(self, cut_max, tmp_path, capsys):
        write_pgm(tmp_path / "s.pgm", blob_scene(100, 80))
        out = tmp_path / "s.csv"
        assert main(["scr-sweep", str(tmp_path / "s.pgm"), "-o", str(out), "--target-center", "50,40",
                     "--cut-max", str(cut_max), "--cut-step", "7"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("hsfpn: degenerate: "), err
        assert not out.exists()


class TestForward:
    def test_bitwise_identical_reruns(self, pyramid_dir, tmp_path):
        argv = ["forward", str(pyramid_dir), "--seed", "9", "--alpha", "0.25", "--k", "2"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["-o", str(out_a)]) == 0
        assert main(argv + ["-o", str(out_b)]) == 0
        names = sorted(path.name for path in out_a.iterdir())
        assert names == ["p2.pft", "p3.pft", "p4.pft", "p5.pft", "report.json"]
        for name in names:  # the report too: it holds no wall-clock time
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_modes_differ_same_shapes(self, pyramid_dir, tmp_path):
        out_h, out_f = tmp_path / "h", tmp_path / "f"
        assert main(["forward", str(pyramid_dir), "-o", str(out_h), "--k", "2"]) == 0
        assert main(["forward", str(pyramid_dir), "-o", str(out_f), "--k", "2",
                     "--mode", "fpn"]) == 0
        differs = False
        for lv in (2, 3, 4, 5):
            a = read_tensor(out_h / f"p{lv}.pft")
            b = read_tensor(out_f / f"p{lv}.pft")
            assert a.shape == b.shape
            differs = differs or a.tobytes() != b.tobytes()
        assert differs

    def test_fpn_baseline_is_no_mode_flag(self, pyramid_dir, tmp_path, capsys):
        # `fpn` is the one spelling; report.json still names the mode "fpn_baseline"
        out = tmp_path / "out"
        assert main(["forward", str(pyramid_dir), "-o", str(out), "--k", "2", "--mode", "fpn_baseline"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("hsfpn: usage:"), err
        assert not out.exists()
        assert main(["forward", str(pyramid_dir), "-o", str(out), "--k", "2", "--mode", "fpn"]) == 0
        assert json.loads((out / "report.json").read_text())["mode"] == "fpn_baseline"

    def test_report_contents(self, pyramid_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["forward", str(pyramid_dir), "-o", str(out), "--k", "2"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert list(report) == ["mode", "seed", "alpha", "fusion", "channels", "levels", "added_params"]
        assert report["channels"] == 8
        assert report["levels"]["2"]["shape"] == [1, 8, 32, 32]
        for lv in (2, 3, 4, 5):
            norm = np.linalg.norm(read_tensor(out / f"p{lv}.pft").astype(np.float64))
            assert report["levels"][str(lv)]["l2_norm"] == pytest.approx(norm, rel=1e-12, abs=0)
        assert report["added_params"]["total"]["params"] > 0

    def test_param_delta_between_modes_matches_analytic_count(self, pyramid_dir, tmp_path):
        from hsfpn import PyramidConfig, count_params

        out_h, out_f = tmp_path / "h", tmp_path / "f"
        assert main(["forward", str(pyramid_dir), "-o", str(out_h), "--k", "2"]) == 0
        assert main(["forward", str(pyramid_dir), "-o", str(out_f), "--k", "2",
                     "--mode", "fpn"]) == 0
        added_h = json.loads((out_h / "report.json").read_text())["added_params"]["total"]["params"]
        added_f = json.loads((out_f / "report.json").read_text())["added_params"]["total"]["params"]
        config = PyramidConfig(channels=8, k=2, groups=8)
        expected = count_params(config, base_hw=(32, 32)).total.params
        assert added_f == 0
        assert added_h - added_f == expected

    @pytest.mark.parametrize("manifest", ["parent", "stale", "not-json"])
    def test_directory_with_a_manifest_runs(self, manifest, pyramid_dir, tmp_path):
        # a manifest.json that earlier versions wrote beside c2..c5.pft is never opened
        assert main(["forward", str(pyramid_dir), "-o", str(tmp_path / "a"), "--k", "2"]) == 0
        pyr = read_pyramid_dir(pyramid_dir, prefix="c")
        (pyramid_dir / "manifest.json").write_text(old_manifest(manifest, pyr))
        assert main(["forward", str(pyramid_dir), "-o", str(tmp_path / "b"), "--k", "2"]) == 0
        files = [{path.name: path.read_bytes() for path in (tmp_path / run).iterdir()} for run in "ab"]
        assert files[0] == files[1] and len(files[0]) == 5

    def test_negative_seed_config_error(self, pyramid_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["forward", str(pyramid_dir), "-o", str(out), "--seed", "-1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("hsfpn: config: seed must be an integer >= 0")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_levels_disagreeing_on_channels_config_error(self, tmp_path, capsys):
        write_pyramid_dir(tmp_path / "in", random_pyramid(8, base_hw=(32, 32), seed=4), prefix="c")
        write_tensor(tmp_path / "in" / "c4.pft", np.zeros((1, 6, 8, 8), np.float32))
        assert main(["forward", str(tmp_path / "in"), "-o", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("hsfpn: config: pyramid levels (2, 3, 4, 5) must share one (N, C), got [(1, 8)")
        assert len(err.splitlines()) == 1 and not (tmp_path / "out").exists()

    def test_overflow_ends_in_one_line_and_no_output(self, pyramid_dir, tmp_path):
        # finite inputs near the float32 limit overflow inside the network; run
        # as a subprocess so numpy's warnings reach stderr as they would in a shell
        c5 = read_tensor(pyramid_dir / "c5.pft")
        write_tensor(pyramid_dir / "c5.pft", c5 * np.float32(3e37))
        out = tmp_path / "out"
        proc = run_cli("forward", str(pyramid_dir), "-o", str(out), "--k", "2")
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stderr.startswith("hsfpn: config: output level ")
        assert "non-finite" in proc.stderr
        assert not out.exists()

    def test_missing_report_directory_writes_nothing(self, tmp_path, capsys):
        write_pyramid_dir(tmp_path / "in", random_pyramid(8, base_hw=(16, 16), seed=1), prefix="c")
        code = main(["forward", str(tmp_path / "in"), "-o", str(tmp_path / "out"), "--k", "2",
                     "--groups", "4", "--report", str(tmp_path / "nodir" / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("hsfpn: usage: ") and "nodir" in err
        assert [p.name for p in tmp_path.iterdir()] == ["in"]

    def test_report_inside_new_output_dir(self, pyramid_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["forward", str(pyramid_dir), "-o", str(out), "--k", "2",
                     "--report", str(out / "r.json")]) == 0
        assert json.loads((out / "r.json").read_text())["mode"] == "hsfpn"

    def test_missing_level_config_error(self, pyramid_dir, tmp_path, capsys):
        (pyramid_dir / "c4.pft").unlink()
        code = main(["forward", str(pyramid_dir), "-o", str(tmp_path / "out"), "--k", "2"])
        assert code == 1  # missing file is reported as unusable input
        assert "c4.pft" in capsys.readouterr().err


class TestCost:
    def test_table_multipliers_exact(self, capsys):
        assert main(["cost", "--n", "4", "--h", "8", "--w", "8", "--c", "16"]) == 0
        out = capsys.readouterr().out
        lines = [line.split() for line in out.strip().splitlines()[1:]]
        assert [row[0] for row in lines] == ["vit", "sdp", "global"]
        assert [row[2] for row in lines] == ["1", "hw/n", "hw"]

    def test_n1_sdp_equals_global(self, capsys):
        assert main(["cost", "--n", "1", "--h", "4", "--w", "4", "--c", "8",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        macs = {r["method"]: r["macs"] for r in rows}
        assert macs["sdp"] == macs["global"]

    def test_doubling_c_doubles_macs(self, capsys):
        assert main(["cost", "--n", "3", "--h", "2", "--w", "5", "--c", "7",
                     "--format", "json"]) == 0
        one = {r["method"]: r["macs"] for r in json.loads(capsys.readouterr().out)["rows"]}
        assert main(["cost", "--n", "3", "--h", "2", "--w", "5", "--c", "14",
                     "--format", "json"]) == 0
        two = {r["method"]: r["macs"] for r in json.loads(capsys.readouterr().out)["rows"]}
        assert all(two[m] == 2 * one[m] for m in one)

    def test_csv_format(self, capsys):
        assert main(["cost", "--n", "2", "--h", "2", "--w", "2", "--c", "2",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "method,complexity,multiplier,macs"
        assert len(lines) == 4


class TestParams:
    def test_reference_fuse_count(self, capsys):
        assert main(["params", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["per_level"]["2"]["hfp_fuse"]["params"] == 256 * 256 * 9 + 256 == 590080

    def test_csv_sdp_rows(self, capsys):
        assert main(["params", "--channels", "256", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "2,sdp,196608,16732160000" in lines
        assert lines[-1] == "total,all,3019780,53309025536"

    def test_table_format(self, capsys):
        assert main(["params", "--channels", "32", "--groups", "4", "--base-h", "64", "--base-w", "64"]) == 0
        out = capsys.readouterr().out
        assert "hfp_fuse" in out and "total" in out

    def test_defaults_are_the_library_defaults(self, capsys):
        assert main(["params"]) == 0
        assert capsys.readouterr().out == render(count_params(PyramidConfig(), (200, 200)).rows(), "table") + "\n"

    def test_default_groups_follow_the_channels_as_in_forward(self, capsys):
        # forward and params share one default: gcd(channels, 16)
        assert main(["params", "--channels", "24"]) == 0
        config = PyramidConfig(channels=24, groups=8)
        assert capsys.readouterr().out == render(count_params(config, (200, 200)).rows(), "table") + "\n"

    def test_k_is_not_a_params_flag(self, capsys):
        # the pooling extent enters no parameter or MAC count; it is a forward flag only
        assert main(["params", "--k", "4"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("hsfpn: usage:"), err

    @pytest.mark.parametrize("flag", ["--no-cp", "--no-sp", "--no-sdp", "--bias", "--no-bias"])
    def test_no_module_switch(self, flag, capsys):
        # params counts the network forward runs: a network without a module costs the full report minus
        # its rows, so no switch leaves them out, and every HFP and output convolution has its bias
        assert main(["params", flag]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("hsfpn: usage:"), err

    def test_invalid_groups_config_error(self, pyramid_dir, tmp_path, capsys):
        for argv in (["params", "--channels", "30", "--groups", "16"],
                     ["params", "--groups", "0"],
                     ["forward", str(pyramid_dir), "-o", str(tmp_path / "out"), "--groups", "0"]):
            code = main(argv)
            assert code == 3, argv
            err = capsys.readouterr().err
            assert err.startswith("hsfpn: config:"), argv
            assert len(err.splitlines()) == 1, argv


# The non-default argv tokens each flag of forward and params is tried with. Path flags
# and --format only choose where and how a result is written, so they have no row.
SETTING_FLAGS = {
    "forward": {"--mode": ["--mode", "fpn"], "--seed": ["--seed", "3"], "--alpha": ["--alpha", "0.5"],
                "--k": ["--k", "2"], "--groups": ["--groups", "2"], "--fusion": ["--fusion", "sdp_plus_add"]},
    "params": {"--channels": ["--channels", "64"], "--groups": ["--groups", "2"], "--base-h": ["--base-h", "64"],
               "--base-w": ["--base-w", "64"]},
}
# PyramidConfig fields no flag sets yet: ROADMAP item 2 deletes both
PENDING_FIELDS = {"squash", "filter_levels"}


class TestEverySettingCounts:
    """Each setting of forward and params changes a result: every flag in SETTING_FLAGS
    changes the level files forward writes or the report params prints, every params
    flag changes the network params counts (its config or its level-2 extents), and every
    PyramidConfig field is set by one of those flags or is in PENDING_FIELDS."""

    @pytest.fixture()
    def run(self, tmp_path, capsys, monkeypatch):
        """`run(command, tokens)`: the bytes the command computes, the config it built and
        the `(config, base_hw)` of its last count_params call (None if it made none)."""
        write_pyramid_dir(tmp_path / "in", random_pyramid(4, base_hw=(16, 16), seed=2), prefix="c")
        built, counted = [], []

        class Recorded(PyramidConfig):
            def __post_init__(self):
                super().__post_init__()
                built.append(self)

        def recorded_count_params(config, base_hw):
            counted.append((config, tuple(base_hw)))
            return count_params(config, base_hw)

        monkeypatch.setattr(cli, "PyramidConfig", Recorded)
        monkeypatch.setattr(cli, "count_params", recorded_count_params)

        def run(command, tokens):
            out = tmp_path / f"out{len(built)}"
            argv = [command, str(tmp_path / "in"), "-o", str(out)] if command == "forward" else [command]
            counted.clear()
            assert main(argv + tokens) == 0, tokens
            printed = capsys.readouterr().out.encode()
            written = b"".join((out / level_file("p", lv)).read_bytes() for lv in LEVELS) if out.exists() else b""
            return printed + written, built[-1], counted[-1] if counted else None
        return run

    @pytest.mark.parametrize("command", sorted(SETTING_FLAGS))
    def test_every_flag_has_a_row(self, command):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {next(o for o in action.option_strings if o.startswith("--"))
                 for action in subparsers.choices[command]._actions if action.option_strings}
        assert flags - {"--help", "--format", *PATH_FLAGS} == set(SETTING_FLAGS[command])

    def test_every_flag_changes_the_result_and_every_field_is_set(self, run):
        set_fields = set()
        for command, rows in SETTING_FLAGS.items():
            default, default_config, default_counted = run(command, [])
            for flag, tokens in rows.items():
                result, config, counted = run(command, tokens)
                assert result != default, (command, flag)
                if command == "params":  # a report-only switch would leave both the same
                    assert counted[0] == config and counted != default_counted, flag
                set_fields |= {f.name for f in dataclasses.fields(PyramidConfig)
                               if getattr(config, f.name) != getattr(default_config, f.name)}
        assert set_fields | PENDING_FIELDS == {f.name for f in dataclasses.fields(PyramidConfig)}
        assert not set_fields & PENDING_FIELDS

    @pytest.mark.parametrize("groups", [[], ["--groups", "2"]], ids=["default-groups", "groups-2"])
    def test_params_counts_the_network_forward_runs(self, run, groups):
        # the input pyramid has 4 channels: at the same channels and groups, both commands build one config
        _, forward_config, _ = run("forward", groups)
        _, params_config, counted = run("params", ["--channels", "4", *groups])
        assert params_config == forward_config and counted[0] == forward_config


class TestOutputPathIsDirectory:
    """An output file path that names a directory fails before any work and writes nothing."""

    @pytest.mark.parametrize("argv", [
        ("forward", "in", "-o", "out", "--k", "2", "--groups", "4", "--report", "adir"),
        ("forward", "in", "-o", "adir", "--k", "2", "--groups", "4", "--report", "adir"),
        ("filter", "s.pgm", "-o", "f.pgm", "--alpha", "0.25", "--stats", "adir"),
        ("filter", "s.pgm", "-o", "adir", "--alpha", "0.25"),
        ("scr-sweep", "s.pgm", "-o", "adir", "--target-center", "50,50", "--cut-max", "4"),
    ], ids=["forward-report", "forward-report-is-output-dir", "filter-stats", "filter-output", "scr-sweep"])
    def test_writes_nothing(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_pyramid_dir("in", random_pyramid(8, base_hw=(16, 16), seed=1), prefix="c")
        write_pgm("s.pgm", blob_scene())
        Path("adir").mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert main(list(argv)) == 1
        assert capsys.readouterr().err == "hsfpn: io: [Errno 21] Is a directory: 'adir'\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_report_naming_the_new_output_dir_writes_nothing(self, pyramid_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["forward", str(pyramid_dir), "-o", str(out), "--k", "2", "--report", str(out)]) == 1
        assert capsys.readouterr().err == f"hsfpn: io: [Errno 21] Is a directory: '{out}'\n"
        assert not out.exists()


class TestOutputsNameOneFile:
    """Two outputs of one run that name the same file fail before any work and write nothing."""

    def test_filter_output_and_stats(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_pgm("s.pgm", blob_scene())
        before = sorted(tmp_path.rglob("*"))
        assert main(["filter", "s.pgm", "-o", "x.pgm", "--alpha", "0.25", "--stats", "./x.pgm"]) == 1
        assert capsys.readouterr().err == "hsfpn: usage: two outputs of one run name the same file './x.pgm'\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("name", ["p2.pft", "p5.pft"])
    def test_forward_report_names_an_output_file(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_pyramid_dir("in", random_pyramid(8, base_hw=(16, 16), seed=1), prefix="c")
        before = sorted(tmp_path.rglob("*"))
        assert main(["forward", "in", "-o", "out", "--k", "2", "--report", f"out/{name}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("hsfpn: usage: two outputs of one run name the same file") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before


def tree_bytes(root: Path) -> dict:
    """Every path under `root`, with the bytes of each file."""
    return {path: path.is_file() and path.read_bytes() for path in root.rglob("*")}


class TestForwardKeepsItsInputs:
    """`forward` never writes over a file it reads: an output naming one fails before any work."""

    OUTPUTS = ["p2.pft", "p3.pft", "p4.pft", "p5.pft", "report.json"]

    @pytest.mark.parametrize("argv, code", [
        (("-o", "in"), 0),
        (("-o", "in/../in"), 0),
        (("-o", "out", "--report", "in/c2.pft"), 1),
        (("-o", "out", "--report", "in/../in/c5.pft"), 1),
    ], ids=["output-is-input-dir", "output-resolves-to-input-dir", "report-is-input-level",
            "report-resolves-to-input-level"])
    def test_writes_nothing(self, argv, code, tmp_path, monkeypatch, capsys):
        # nothing over an input: -o naming the input directory puts p2..p5.pft and
        # report.json beside c2..c5.pft, and a report naming an input fails before any work
        monkeypatch.chdir(tmp_path)
        write_pyramid_dir("in", random_pyramid(8, base_hw=(16, 16), seed=1), prefix="c")
        before = tree_bytes(tmp_path)
        assert main(["forward", "in", "--k", "2", *argv]) == code
        after = tree_bytes(tmp_path)
        assert {path: after[path] for path in before} == before
        if code:
            err = capsys.readouterr().err
            assert re.fullmatch(r"hsfpn: usage: output '.*' names a file the run reads\n", err), err
            assert after == before
        else:
            assert sorted(path.name for path in after.keys() - before.keys()) == self.OUTPUTS

    def test_second_run_reads_the_inputs(self, tmp_path, monkeypatch):
        # c2..c5.pft are left as they were by -o in, so a later run reads them and gives the same outputs
        monkeypatch.chdir(tmp_path)
        write_pyramid_dir("in", random_pyramid(8, base_hw=(16, 16), seed=1), prefix="c")
        assert main(["forward", "in", "-o", "in", "--k", "2"]) == 0
        assert main(["forward", "in", "-o", "out", "--k", "2"]) == 0
        for name in self.OUTPUTS:
            assert Path("out", name).read_bytes() == Path("in", name).read_bytes(), name

    def test_earlier_output_is_not_read_as_input(self, tmp_path, monkeypatch, capsys):
        # out/ holds p2..p5.pft; forward reads c2..c5.pft, and out/ has none
        monkeypatch.chdir(tmp_path)
        write_pyramid_dir("in", random_pyramid(8, base_hw=(16, 16), seed=1), prefix="c")
        assert main(["forward", "in", "-o", "out", "--k", "2"]) == 0
        capsys.readouterr()
        before = tree_bytes(tmp_path)
        assert main(["forward", "out", "-o", "out2", "--k", "2"]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"hsfpn: usage: .*'out/c2\.pft'\n", err), err
        assert tree_bytes(tmp_path) == before


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
@pytest.mark.parametrize("argv", [
    ("filter", "/dev/zero", "-o", "x.pgm", "--alpha", "0.1"),
    ("scr-sweep", "/dev/zero", "-o", "s.csv", "--target-center", "1,1", "--cut-max", "2"),
], ids=["filter", "scr-sweep"])
def test_endless_device_input_ends_in_one_config_line(argv, tmp_path):
    # /dev/zero reports size 0 and never ends: read to its end, it exhausts the 1 GB address space
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = run_cli(*argv, cwd=tmp_path, preexec_fn=limit_memory)
    assert proc.returncode == 3, proc.stderr
    assert re.fullmatch(r"hsfpn: config: /dev/zero: .*\n", proc.stderr), proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, big", [
    (("filter", "big.pgm", "-o", "x.pgm", "--alpha", "0.1"), "big.pgm"),
    (("scr-sweep", "big.pgm", "-o", "s.csv", "--target-center", "1,1", "--cut-max", "2"), "big.pgm"),
    (("forward", "in", "-o", "out"), "in/c2.pft"),
], ids=["filter", "scr-sweep", "forward"])
def test_input_too_large_for_memory_ends_in_one_config_line(argv, big, tmp_path):
    # a sparse 3 GB file holds no data on disk, but one buffer of its size does not fit a 1 GB address space
    write_pyramid_dir(tmp_path / "in", random_pyramid(4, base_hw=(16, 16), seed=1), prefix="c")
    (tmp_path / big).touch()
    os.truncate(tmp_path / big, 3 << 30)
    before = sorted(tmp_path.rglob("*"))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = run_cli(*argv, cwd=tmp_path, preexec_fn=limit_memory)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == f"hsfpn: config: {big}: the {3 << 30} bytes its size reports do not fit in memory\n"
    assert sorted(tmp_path.rglob("*")) == before


class TestImageCommandsKeepTheirInput:
    """An output of `filter` or `scr-sweep` that names its input image fails before any work."""

    @pytest.mark.parametrize("argv", [
        ("filter", "a.pgm", "-o", "a.pgm", "--alpha", "0.25"),
        ("filter", "a.pgm", "-o", "f.pgm", "--alpha", "0.25", "--stats", "./a.pgm"),
        ("scr-sweep", "a.pgm", "-o", "a.pgm", "--target-center", "50,50", "--cut-max", "4"),
    ], ids=["filter-output", "filter-stats", "scr-sweep-output"])
    def test_writes_nothing(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_pgm("a.pgm", blob_scene())
        before = tree_bytes(tmp_path)
        assert main(list(argv)) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"hsfpn: usage: output '.*a\.pgm' names a file the run reads\n", err), err
        assert tree_bytes(tmp_path) == before


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


PARAMS_FLAGS = ("--channels", "64", "--groups", "8", "--base-h", "64", "--base-w", "128")


class TestReportBytes:
    """Every report's bytes are pinned, so a change in how reports are rendered cannot move them."""

    @pytest.mark.parametrize("argv, digest", [
        (("cost", "--n", "625", "--h", "8", "--w", "8", "--c", "256"),
         "b27c6cd2f643b3dd226482f66d7a8bf0cb5c08cf8e706b836c7d021a35ebaac7"),
        (("cost", "--n", "625", "--h", "8", "--w", "8", "--c", "256", "--format", "json"),
         "835d04fa588bf3d2a1bb776659fb276761ad569cbe27655549cf9043c98e592f"),
        (("cost", "--n", "625", "--h", "8", "--w", "8", "--c", "256", "--format", "csv"),
         "1eace4326aabe880e8a37db421eac4951b6e4289763787c758b0003ddbd75769"),
        (("params",), "21866fb1f2fe6178c490add0ab7d37acb9d67a9b72b1e307dcdc973e43b6d0c9"),
        (("params", "--format", "json"), "a2a9887c63db5b67df5a22f445a5b52b90cd761fbd6d18f22134c385e7b2c110"),
        (("params", "--format", "csv"), "0169b7dde4770d97388ea3c7f33ca81e9e42e9dd1543764c1f5467531ee5feb3"),
        (("params", *PARAMS_FLAGS), "9eddd77b3e080570c579feb7c5fee5711fe1ab7cad891a6ed5e930c5fe2199e9"),
        (("params", *PARAMS_FLAGS, "--format", "json"),
         "5976612c683d834ca88a8c68fc2cf75ea23b4b5c94dcc71d6b703e31e52b2619"),
        (("params", *PARAMS_FLAGS, "--format", "csv"),
         "35ba631ab22d539d88225f7112778f1e43bd721c8113d54531dca8d11f4b173f"),
    ], ids=["cost", "cost-json", "cost-csv", "params", "params-json", "params-csv",
            "params-flags", "params-flags-json", "params-flags-csv"])
    def test_stdout_pinned(self, argv, digest, capsys):
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        assert sha256(out.encode()) == digest, out

    @pytest.mark.parametrize("flags, digest", [
        ((), "5a7701a2a742293f898104de0e484bd0631c6ba9787f09bdfd622579cbe12a20"),
        (("--mode", "fpn"), "0e9188e649fd7b514b5bc949e6d387de091cf72f2614699026c6e6ed3703d88a"),
        (("--seed", "9", "--alpha", "0.5", "--fusion", "sdp_plus_add"),
         "e71a6f33dec46e1d26124ed292bfc162a63fc3a9aa37ef48e863f4eafd071d17"),
    ], ids=["hsfpn", "fpn", "sdp-plus-add"])
    def test_forward_report_pinned(self, flags, digest, pyramid_dir, tmp_path):
        assert main(["forward", str(pyramid_dir), "-o", str(tmp_path / "out"), "--k", "2", *flags]) == 0
        report = (tmp_path / "out" / "report.json").read_bytes()
        assert sha256(report) == digest, report

    def test_scr_sweep_csv_pinned(self, tmp_path):
        write_pgm(tmp_path / "s.pgm", blob_scene(64, 64))
        assert main(["scr-sweep", str(tmp_path / "s.pgm"), "-o", str(tmp_path / "s.csv"),
                     "--target-center", "32,32", "--cut-max", "32", "--cut-step", "4"]) == 0
        csv = (tmp_path / "s.csv").read_bytes()
        assert sha256(csv) == "7102248f66fe4a4270dc4a910831ac111a215f62e91f800dd4a78452922aecdf", csv


class TestReadme:
    def test_shared_flag_defaults_match_parser(self):
        # every "default N" the README's "Shared flags" line documents is the
        # default of that flag in each subcommand that defines it
        text = README.read_text()
        shared = text[text.index("Shared flags:"):]
        shared = shared[:shared.index("\n\n")]
        documented = re.findall(r"`(--[\w-]+)[^`]*`\s*\([^)]*\bdefault ([^)\s]+)\)", shared)
        assert len(documented) >= 3, shared
        parser = build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for flag, default in documented:
            defaults = {name: action.default for name, sub in subparsers.choices.items()
                        for action in sub._actions if flag in action.option_strings}
            assert defaults, flag
            assert all(str(value) == default for value in defaults.values()), (flag, default, defaults)

    def test_every_documented_flag_is_an_option(self):
        # the "Command line" section names no flag the parser lacks; the benchmark's own
        # flags (`bench/run.py`) belong to that script, not to hsfpn
        text = README.read_text()
        section = text[text.index("## Command line"):]
        section = section[:section.index("\n## ", 1)]
        documented = set(re.findall(r"--[a-z][\w-]*", re.sub(r"`[^`]*bench/run\.py[^`]*`", "", section)))
        parser = build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {o for sub in subparsers.choices.values() for action in sub._actions for o in action.option_strings}
        assert len(documented) >= 10 and documented <= options, documented - options


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["no-such-command"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_bad_flag_value(self, scene_pgm, tmp_path, capsys):
        code = main(["filter", str(scene_pgm), "-o", str(tmp_path / "o.pgm"),
                     "--cut", "nonsense"])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_negative_cut_usage_error(self, scene_pgm, tmp_path, capsys):
        # only the attached form reaches the cut's own check: in "--cut -1x2", -1x2 reads as a flag
        assert main(["filter", str(scene_pgm), "-o", str(tmp_path / "o.pgm"), "--cut=-1x2"]) == 1
        assert "cut extents must be >= 0" in capsys.readouterr().err

    def test_alpha_out_of_range_config_error(self, scene_pgm, tmp_path):
        assert main(["filter", str(scene_pgm), "-o", str(tmp_path / "o.pgm"),
                     "--alpha", "1.5"]) == 3


class TestOneParserPerProcess:
    """`main` builds its parser on its first call and reuses it; `build_parser` builds a new one per call."""

    @pytest.fixture()
    def fresh(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_built_once_across_two_calls(self, fresh, monkeypatch, capsys):
        built = []

        def counted():
            built.append(build_parser())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", counted)
        assert main(["cost", "--n", "4", "--h", "2", "--w", "2", "--c", "8"]) == 0
        assert main(["params", "--channels", "32"]) == 0
        assert len(built) == 1

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_usage_error_leaves_nothing_for_the_next_call(self, fresh, tmp_path, capsys):
        write_pgm(tmp_path / "s.pgm", blob_scene(64, 64))
        csv = tmp_path / "s.csv"
        valid = ["scr-sweep", str(tmp_path / "s.pgm"), "-o", str(csv), "--target-center", "32,32",
                 "--cut-max", "32"]
        assert main(valid) == 0
        alone = csv.read_bytes()
        csv.unlink()
        cli._parser.cache_clear()
        # every flag the valid call leaves at its default is set here, before the bad value
        assert main(valid[:4] + ["--target-center", "9,9", "--target-size", "4", "--neighborhood-size", "9",
                                 "--cut-max", "8", "--cut-step", "2", "--cut-step", "x"]) == 1
        assert not csv.exists()
        assert main(valid) == 0
        assert csv.read_bytes() == alone


# Exit code of each stderr category, as the README's exit-code table gives it.
EXIT_OF = {"usage": 1, "io": 1, "degenerate": 2, "parse": 3, "config": 3}
# Negative, zero, huge, float, non-numeric and empty stand-ins for a flag's value.
HOSTILE_VALUES = ("-3", "-1", "0", "1" + "0" * 30, "2.5", "-0.5", "nan", "abc", "")
PATH_FLAGS = {"--output", "--output-dir", "--stats", "--report"}


def mutate(rng, options):
    """Apply 1-3 edits (most often one) to a list of (flag, value) options.

    An edit replaces a value with a hostile one (most often), or drops,
    duplicates or misspells a flag. Paths are never replaced, and a
    misspelling inserts a "z" after the dashes, so it never spells --help.
    """
    options = list(options)
    for _ in range(rng.choice([1, 2, 3], p=[0.7, 0.2, 0.1])):
        values = [i for i, (flag, value) in enumerate(options)
                  if value is not None and flag not in PATH_FLAGS]
        edit = rng.choice(["value", "drop", "duplicate", "misspell"], p=[0.7, 0.1, 0.1, 0.1])
        if edit == "value" and values:
            i = values[rng.integers(len(values))]
            options[i] = (options[i][0], HOSTILE_VALUES[rng.integers(len(HOSTILE_VALUES))])
            continue
        i = rng.integers(len(options))
        if edit == "drop":
            del options[i]
        elif edit == "duplicate":
            options.insert(i, options[i])
        elif edit == "misspell":
            flag, value = options[i]
            at = rng.integers(2, len(flag) + 1)
            options[i] = (flag[:at] + "z" + flag[at:], value)
    return options


class TestHostileFlags:
    """Seeded mutants of valid argvs for every subcommand end in an exit code
    and one documented stderr line, never in a traceback."""

    @pytest.fixture()
    def valid_argvs(self, tmp_path):
        pgm = tmp_path / "scene.pgm"
        write_pgm(pgm, blob_scene(32, 32))
        write_pyramid_dir(tmp_path / "in", random_pyramid(8, base_hw=(16, 16), seed=1), prefix="c")
        window = [("--target-center", "16,16"), ("--target-size", "8"), ("--neighborhood-size", "16")]
        return [
            (["filter", str(pgm)], [("--output", str(tmp_path / "f.pgm")), ("--alpha", "0.25"),
                                    *window, ("--recenter", None)]),
            (["filter", str(pgm)], [("--output", str(tmp_path / "g.pgm")), ("--cut", "2x3"),
                                    ("--stats", str(tmp_path / "g.json")), *window]),
            (["scr-sweep", str(pgm)], [("--output", str(tmp_path / "s.csv")), *window,
                                       ("--cut-max", "8"), ("--cut-step", "2")]),
            (["forward", str(tmp_path / "in")], [
                ("--output-dir", str(tmp_path / "out")), ("--seed", "3"),
                ("--alpha", "0.25"), ("--k", "4"), ("--groups", "8"), ("--fusion", "sdp_plus_add"),
                ("--report", str(tmp_path / "r.json"))]),
            (["cost"], [("--n", "4"), ("--h", "8"), ("--w", "8"), ("--c", "16"), ("--format", "json")]),
            (["params"], [("--channels", "32"), ("--groups", "4"), ("--base-h", "64"),
                          ("--base-w", "64"), ("--format", "csv")]),
        ]

    def test_mutated_flags_end_in_one_documented_line(self, valid_argvs, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # a relative path a mutant makes up lands here
        rng = np.random.default_rng(7)
        for i in range(300):
            positional, options = valid_argvs[i % len(valid_argvs)]
            argv = positional + [t for option in mutate(rng, options) for t in option if t is not None]
            code = main(argv)
            err = capsys.readouterr().err
            if code == 0:
                assert err == "", argv
                continue
            lines = err.splitlines()
            assert len(lines) == 1, (argv, err)
            category = re.match(r"hsfpn: (\w+): ", lines[0])
            assert category and EXIT_OF.get(category[1]) == code, (argv, code, err)
