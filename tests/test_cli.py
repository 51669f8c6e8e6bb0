import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hsfpn import blob_scene, random_pyramid, read_pgm, read_tensor, scr, ScrWindows, write_pgm, write_pyramid_dir
from hsfpn.cli import main


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
        # A cut list built up front for --cut-max 1e9 exhausts the 1 GB address
        # space; a lazy one reaches the first cut that removes the whole plane.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "sweep.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "hsfpn.cli", "scr-sweep", str(scene_pgm), "-o", str(out),
             "--target-center", "50,50", "--cut-max", "1000000000"],
            env=env, preexec_fn=limit_memory, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("hsfpn: degenerate: ")
        assert not out.exists()


class TestForward:
    def test_bitwise_identical_reruns(self, pyramid_dir, tmp_path):
        argv = ["forward", str(pyramid_dir), "--seed", "9", "--alpha", "0.25", "--k", "2"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["-o", str(out_a)]) == 0
        assert main(argv + ["-o", str(out_b)]) == 0
        for lv in (2, 3, 4, 5):
            a = read_tensor(out_a / f"p{lv}.pft")
            b = read_tensor(out_b / f"p{lv}.pft")
            assert a.tobytes() == b.tobytes()

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

    def test_report_contents(self, pyramid_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["forward", str(pyramid_dir), "-o", str(out), "--k", "2"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["channels"] == 8
        assert report["levels"]["2"]["shape"] == [1, 8, 32, 32]
        assert report["levels"]["2"]["l2_norm"] > 0
        assert set(report["timing_s"]) >= {"hfp", "sdp", "output_conv"}
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

    def test_invalid_manifest_config_error(self, pyramid_dir, tmp_path, capsys):
        (pyramid_dir / "manifest.json").write_text("{not json")
        code = main(["forward", str(pyramid_dir), "-o", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("hsfpn: config: ") and "manifest.json" in err
        assert len(err.splitlines()) == 1

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
        assert main(["params", "--no-bias", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["per_level"]["2"]["hfp_fuse"]["params"] == 589824

    def test_csv_sdp_rows(self, capsys):
        assert main(["params", "--channels", "256", "--no-bias", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "2,sdp,196608,16732160000" in lines
        assert lines[-1] == "total,all,3015680,53309025536"

    def test_table_format(self, capsys):
        assert main(["params", "--channels", "32", "--groups", "4", "--k", "4",
                     "--base-h", "64", "--base-w", "64"]) == 0
        out = capsys.readouterr().out
        assert "hfp_fuse" in out and "total" in out

    def test_invalid_groups_config_error(self, pyramid_dir, tmp_path, capsys):
        for argv in (["params", "--channels", "30", "--groups", "16"],
                     ["params", "--groups", "0"],
                     ["forward", str(pyramid_dir), "-o", str(tmp_path / "out"), "--groups", "0"]):
            code = main(argv)
            assert code == 3, argv
            err = capsys.readouterr().err
            assert err.startswith("hsfpn: config:"), argv
            assert len(err.splitlines()) == 1, argv


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["no-such-command"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_bad_flag_value(self, scene_pgm, tmp_path, capsys):
        code = main(["filter", str(scene_pgm), "-o", str(tmp_path / "o.pgm"),
                     "--cut", "nonsense"])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_alpha_out_of_range_config_error(self, scene_pgm, tmp_path):
        assert main(["filter", str(scene_pgm), "-o", str(tmp_path / "o.pgm"),
                     "--alpha", "1.5"]) == 3
