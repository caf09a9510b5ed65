import json

import numpy as np
import pytest

from fidreg.cli import main
from fidreg.markers import MarkerSet, read_marker_csv, write_marker_csv
from fidreg.volume import Volume, write_volume


@pytest.fixture
def phantom_volume(tmp_path):
    """Three small bright cubes plus one oversized blob in soft tissue."""
    vox = np.full((32, 32, 32), 40, dtype=np.int16)  # soft-tissue background
    for corner in [(2, 2, 2), (20, 4, 10), (8, 22, 18)]:
        i, j, k = corner
        vox[i : i + 3, j : j + 3, k : k + 3] = 3000
    vox[24:31, 24:31, 24:31] = 3000  # 343 voxels: filtered by size
    path = tmp_path / "phantom.vol"
    write_volume(
        Volume(dims=(32, 32, 32), spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0), voxels=vox),
        path,
    )
    return path


@pytest.fixture
def seg_config(tmp_path):
    path = tmp_path / "seg.cfg"
    path.write_text("expected_mm3 = 27\nhu_min = 300\n")
    return path


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "segment" in capsys.readouterr().out


def test_unknown_subcommand_exits_two(capsys):
    assert main(["transmogrify"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_segment_writes_markers_and_reports(phantom_volume, seg_config, tmp_path, capsys):
    out = tmp_path / "markers.csv"
    assert main(["segment", str(phantom_volume), str(seg_config), str(out)]) == 0
    err = capsys.readouterr().err
    assert "segmented 3 markers" in err
    assert err.count("27 voxels") == 3
    markers = read_marker_csv(out)
    assert markers.frame == "ct" and len(markers) == 3
    np.testing.assert_allclose(
        sorted(map(tuple, markers.points)), [(3, 3, 3), (9, 23, 19), (21, 5, 11)], atol=1e-12
    )


def test_segment_without_markers_is_a_domain_error(tmp_path, seg_config, capsys):
    vox = np.full((8, 8, 8), 40, dtype=np.int16)
    path = tmp_path / "soft.vol"
    write_volume(Volume((8, 8, 8), (1, 1, 1), (0, 0, 0), vox), path)
    assert main(["segment", str(path), str(seg_config), str(tmp_path / "out.csv")]) == 1
    assert "error: insufficient markers: found 0" in capsys.readouterr().err


def test_mesh_writes_stl_and_obj(phantom_volume, tmp_path, capsys):
    stl = tmp_path / "skin.stl"
    assert main(["mesh", str(phantom_volume), str(stl), "--iso", "1500"]) == 0
    blob = stl.read_bytes()
    n_faces = int.from_bytes(blob[80:84], "little")
    assert len(blob) == 84 + 50 * n_faces and n_faces > 0
    assert "meshed" in capsys.readouterr().err

    obj = tmp_path / "skin.obj"
    assert main(["mesh", str(phantom_volume), str(obj), "--iso", "1500"]) == 0
    assert obj.read_text().startswith("#")

    assert main(["mesh", str(phantom_volume), str(tmp_path / "skin.ply")]) == 2
    assert "must end in .stl or .obj" in capsys.readouterr().err


def test_mesh_rejects_bad_suffix_before_reading(tmp_path, capsys, monkeypatch):
    def no_read(path):
        raise AssertionError("the volume was read before the suffix check")

    monkeypatch.setattr("fidreg.cli.read_volume", no_read)
    out = tmp_path / "skin.ply"
    # The volume does not exist either: the suffix is what gets reported.
    assert main(["mesh", str(tmp_path / "missing.vol"), str(out)]) == 2
    assert capsys.readouterr().err == f"error: {out}: mesh output must end in .stl or .obj\n"
    assert not out.exists()


def write_spec(tmp_path, text):
    path = tmp_path / "scene.spec"
    path.write_text(text)
    return path


def test_simulate_register_round_trip(tmp_path, capsys):
    spec = write_spec(tmp_path, "n_markers = 6\nseed = 77\n")
    prefix = tmp_path / "scene"
    assert main(["simulate", str(spec), str(prefix)]) == 0
    assert "simulated 6 ct markers -> 6 device markers (seed 77)" in capsys.readouterr().err

    out = tmp_path / "result.json"
    rc = main(
        ["register", f"{prefix}_ct.csv", f"{prefix}_device.csv", str(out)]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert err.startswith("registered: rmsd ")
    result = json.loads(out.read_text())
    assert result["flipped"] is False
    assert result["rmsd"] < 1e-6
    truth = json.loads((tmp_path / "scene_truth.json").read_text())
    np.testing.assert_allclose(
        result["transform"]["rotation"], truth["rotation"], atol=1e-6
    )
    np.testing.assert_allclose(
        result["transform"]["translation"], truth["translation"], atol=1e-4
    )


def test_simulate_is_byte_identical_across_runs(tmp_path):
    spec = write_spec(
        tmp_path, "n_markers = 5\nnoise_sigma_mm = 1.0\ndecoy_count = 2\nseed = 3\n"
    )
    for prefix in ("a", "b"):
        assert main(["simulate", str(spec), str(tmp_path / prefix)]) == 0
    for suffix in ("_ct.csv", "_device.csv", "_truth.json"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def test_icp_on_identity_scene(tmp_path, capsys):
    spec = write_spec(
        tmp_path, "n_markers = 8\nnoise_sigma_mm = 0.1\nseed = 5\ntrue_transform = identity\n"
    )
    prefix = tmp_path / "near"
    assert main(["simulate", str(spec), str(prefix)]) == 0
    capsys.readouterr()
    out = tmp_path / "icp.json"
    assert main(["icp", f"{prefix}_ct.csv", f"{prefix}_device.csv", str(out)]) == 0
    assert "converged true" in capsys.readouterr().err
    assert json.loads(out.read_text())["converged"] is True


def test_register_rejects_too_few_markers(tmp_path, capsys):
    write_marker_csv(MarkerSet("ct", np.array([[0.0, 0, 0], [1.0, 0, 0]])), tmp_path / "ct.csv")
    write_marker_csv(
        MarkerSet("device", np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 2, 0]])),
        tmp_path / "dev.csv",
    )
    rc = main(["register", str(tmp_path / "ct.csv"), str(tmp_path / "dev.csv"), str(tmp_path / "o.json")])
    assert rc == 1
    assert "error: insufficient markers: found 2" in capsys.readouterr().err


def test_register_checks_frames(tmp_path, capsys):
    pts = np.array([[0.0, 0, 0], [5.0, 0, 0], [0.0, 5, 0], [1.0, 1, 4]])
    write_marker_csv(MarkerSet("device", pts), tmp_path / "wrong.csv")
    write_marker_csv(MarkerSet("device", pts), tmp_path / "dev.csv")
    rc = main(["register", str(tmp_path / "wrong.csv"), str(tmp_path / "dev.csv"), str(tmp_path / "o.json")])
    assert rc == 2
    assert "expected frame 'ct'" in capsys.readouterr().err


def test_missing_input_exits_two(tmp_path, capsys):
    assert main(["register", "nope_ct.csv", "nope_dev.csv", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_malformed_marker_csv_names_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("frame,id,x_mm,y_mm,z_mm\nct,,1.0,2.0,banana\n")
    dev = tmp_path / "dev.csv"
    write_marker_csv(
        MarkerSet("device", np.array([[0.0, 0, 0], [5.0, 0, 0], [0.0, 5, 0]])), dev
    )
    assert main(["register", str(bad), str(dev), str(tmp_path / "o.json")]) == 2
    assert "line 2" in capsys.readouterr().err


def test_bench_end_to_end(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text(
        "n_markers = 4\nseed = 10\n\nn_markers = 5\nnoise_sigma_mm = 1.0\nseed = 20\n"
    )
    csv_out = tmp_path / "records.csv"
    json_out = tmp_path / "summary.json"
    rc = main(
        ["bench", str(grid), str(csv_out), str(json_out), "--trials", "3"]
    )
    assert rc == 0
    assert "bench: 12 trials over 2 scene(s), 0 failure(s)" in capsys.readouterr().err
    lines = csv_out.read_text().splitlines()
    assert len(lines) == 1 + 12
    summary = json.loads(json_out.read_text())
    assert len(summary["cells"]) == 4  # 2 scenes x 2 methods

    rc = main(
        [
            "bench", str(grid), str(csv_out), str(json_out),
            "--trials", "2", "--methods", "triangle",
        ]
    )
    assert rc == 0
    assert all(
        line.startswith("triangle,") for line in csv_out.read_text().splitlines()[1:]
    )


def test_bench_rejects_unknown_method(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("n_markers = 4\n")
    rc = main(["bench", str(grid), str(tmp_path / "r.csv"), str(tmp_path / "s.json"), "--methods", "horn"])
    assert rc == 2
    assert "unknown method" in capsys.readouterr().err


def test_register_accepts_config_file(tmp_path):
    spec = write_spec(tmp_path, "n_markers = 6\nseed = 41\n")
    prefix = tmp_path / "s"
    assert main(["simulate", str(spec), str(prefix)]) == 0
    cfg = tmp_path / "reg.cfg"
    cfg.write_text("k = 2\nscale_tolerance_mm = 8\n")
    rc = main(
        [
            "register", f"{prefix}_ct.csv", f"{prefix}_device.csv",
            str(tmp_path / "o.json"), "--config", str(cfg),
        ]
    )
    assert rc == 0
    assert json.loads((tmp_path / "o.json").read_text())["rmsd"] < 1e-6


@pytest.mark.parametrize("iso", ["nan", "inf", "NaN", "1e999", "-inf", "-1e999"])
def test_mesh_rejects_non_finite_iso(phantom_volume, tmp_path, capsys, iso):
    stl = tmp_path / "skin.stl"
    assert main(["mesh", str(phantom_volume), str(stl), "--iso", iso]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "finite" in err
    assert repr(iso) in err
    assert not stl.exists()


@pytest.mark.parametrize("iso", ["-300", "-1e3", "-0.5"])
def test_mesh_takes_negative_iso(phantom_volume, tmp_path, capsys, iso):
    # The phantom lies above every negative level: no cell crosses it.
    stl = tmp_path / "skin.stl"
    assert main(["mesh", str(phantom_volume), str(stl), "--iso", iso]) == 0
    assert "meshed 0 vertices, 0 faces" in capsys.readouterr().err
    assert stl.stat().st_size == 84


def test_segment_rejects_non_finite_hu_min(phantom_volume, tmp_path, capsys):
    config = tmp_path / "seg.cfg"
    config.write_text("expected_mm3 = 27\nhu_min = nan\n")
    out = tmp_path / "out.csv"
    assert main(["segment", str(phantom_volume), str(config), str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error: hu_min must be finite" in err
    assert not out.exists()
