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


def far_origin_volume(tmp_path):
    """Three 27-voxel markers in a volume whose origin lies 2e6 mm out on x."""
    vox = np.full((12, 8, 8), 40, dtype=np.int16)
    for i in (1, 5, 9):
        vox[i : i + 3, 2 : 2 + 3, (i % 4) : (i % 4) + 3] = 3000
    path = tmp_path / "far.vol"
    write_volume(Volume(vox.shape, (1.0, 1.0, 1.0), (2e6, 0.0, 0.0), vox), path)
    return path


def test_segment_beyond_the_coordinate_bound_exits_two_and_writes_nothing(
    tmp_path, seg_config, capsys
):
    # its centroids are no marker CSV fidreg reads, so segment writes none
    out = tmp_path / "far.csv"
    assert main(["segment", str(far_origin_volume(tmp_path)), str(seg_config), str(out)]) == 2
    assert "error: CT marker coordinate beyond 1e+06 mm" in assert_one_error_line(capsys)
    assert not out.exists()


def test_mesh_writes_stl_and_obj(phantom_volume, tmp_path, capsys):
    stl = tmp_path / "skin.stl"
    assert main(["mesh", str(phantom_volume), str(stl), "--iso", "1500"]) == 0
    blob = stl.read_bytes()
    n_faces = int.from_bytes(blob[80:84], "little")
    assert len(blob) == 84 + 50 * n_faces and n_faces > 0
    assert "meshed" in capsys.readouterr().err

    obj = tmp_path / "skin.obj"
    assert main(["mesh", str(phantom_volume), str(obj), "--iso", "1500"]) == 0
    text = obj.read_text()
    assert text.startswith("#")
    assert sum(line.startswith("f ") for line in text.splitlines()) == n_faces

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


def test_segment_rejects_bad_config_before_reading(tmp_path, capsys, monkeypatch):
    def no_read(path):
        raise AssertionError("the volume was read before the config was parsed")

    monkeypatch.setattr("fidreg.cli.read_volume", no_read)
    config = tmp_path / "seg.cfg"
    config.write_text("expected_mm3 = 27\nhu_min = lots\n")
    out = tmp_path / "markers.csv"
    # The volume does not exist either: the config is what gets reported.
    assert main(["segment", str(tmp_path / "missing.vol"), str(config), str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "hu_min" in err
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


@pytest.mark.parametrize("methods", [",", ""])
def test_bench_rejects_empty_methods(tmp_path, capsys, methods):
    grid = tmp_path / "grid.txt"
    grid.write_text("n_markers = 4\n")
    csv_out, json_out = tmp_path / "r.csv", tmp_path / "s.json"
    rc = main(["bench", str(grid), str(csv_out), str(json_out), "--methods", methods])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "no method" in err[0]
    assert not csv_out.exists() and not json_out.exists()


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


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("register", "tie_epsilon_mm", "0.5"),
        ("register", "degeneracy_ratio", "1e-06"),
        ("segment", "intensity_weighted", "false"),
        ("segment", "connectivity", "26"),
    ],
)
def test_retired_config_keys_exit_two(phantom_volume, tmp_path, capsys, command, key, value):
    # every vertex pairing is fitted, one fixed area ratio gates thin
    # triangles, centroids are binary and labelling is 26-connected, so
    # none of these keys is read
    cfg = tmp_path / "old.cfg"
    out = tmp_path / "out"
    if command == "register":
        spec = write_spec(tmp_path, "n_markers = 6\nseed = 41\n")
        prefix = tmp_path / "s"
        assert main(["simulate", str(spec), str(prefix)]) == 0
        capsys.readouterr()
        cfg.write_text(f"k = 2\n{key} = {value}\n")
        inputs = [f"{prefix}_ct.csv", f"{prefix}_device.csv"]
        argv = ["register", *inputs, str(out), "--config", str(cfg)]
    else:
        cfg.write_text(f"expected_mm3 = 27\n{key} = {value}\n")
        argv = ["segment", str(phantom_volume), str(cfg), str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: config has unknown key {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("iso",["nan", "inf", "NaN", "1e999", "-inf", "-1e999", "1_0", "\u0663"])
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


def test_parser_is_built_once_and_shared():
    from fidreg.cli import build_parser

    assert build_parser() is build_parser()


@pytest.mark.parametrize("argv", [["--help"], ["register", "--help"]])
def test_help_exits_zero_twice_in_a_row(capsys, argv):
    texts = []
    for _ in range(2):
        assert main(argv) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and "usage: fidreg" in texts[0]


def test_options_do_not_leak_between_calls(phantom_volume, tmp_path, monkeypatch):
    import fidreg.cli
    from fidreg.triangles import RegistrationConfig

    spec = write_spec(tmp_path, "n_markers = 6\nseed = 41\n")
    prefix = tmp_path / "s"
    assert main(["simulate", str(spec), str(prefix)]) == 0
    cfg = tmp_path / "reg.cfg"
    cfg.write_text("k = 2\nscale_tolerance_mm = 8\n")
    configs, levels = [], []
    register, marching_cubes = fidreg.cli.register, fidreg.cli.marching_cubes

    def spy_register(ct, table, config):
        configs.append(config)
        return register(ct, table, config)

    def spy_marching_cubes(volume, iso):
        levels.append(iso)
        return marching_cubes(volume, iso)

    monkeypatch.setattr(fidreg.cli, "register", spy_register)
    monkeypatch.setattr(fidreg.cli, "marching_cubes", spy_marching_cubes)
    argv = ["register", f"{prefix}_ct.csv", f"{prefix}_device.csv", str(tmp_path / "o.json")]
    assert main(argv + ["--config", str(cfg)]) == 0
    assert main(argv) == 0
    assert configs == [RegistrationConfig(k=2, scale_tolerance_mm=8.0), RegistrationConfig()]
    stl = str(tmp_path / "skin.stl")
    assert main(["mesh", str(phantom_volume), stl, "--iso", "-500"]) == 0
    assert main(["mesh", str(phantom_volume), stl]) == 0
    assert levels == [-500.0, -300.0]


def test_rebinding_after_the_first_call_takes_effect(phantom_volume, tmp_path, capsys, monkeypatch):
    import fidreg.cli
    from fidreg.errors import NoMatchError

    spec = write_spec(tmp_path, "n_markers = 5\nseed = 9\n")
    prefix = tmp_path / "s"
    assert main(["simulate", str(spec), str(prefix)]) == 0  # the parser now exists
    argv = ["register", f"{prefix}_ct.csv", f"{prefix}_device.csv", str(tmp_path / "o.json")]
    assert main(argv) == 0
    capsys.readouterr()

    def no_match(ct, table, config):
        raise NoMatchError("stubbed register")

    def no_read(path):
        raise OSError("stubbed read_volume")

    monkeypatch.setattr(fidreg.cli, "register", no_match)
    monkeypatch.setattr(fidreg.cli, "read_volume", no_read)
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: stubbed register\n"
    assert main(["mesh", str(phantom_volume), str(tmp_path / "skin.stl")]) == 2
    assert capsys.readouterr().err == "error: stubbed read_volume\n"


def assert_one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("command", ["register", "icp"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_marker_csv_exits_two(tmp_path, capsys, command, value):
    ct = tmp_path / "ct.csv"
    ct.write_text(f"frame,id,x_mm,y_mm,z_mm\nct,,0,0,0\nct,,5,0,0\nct,,{value},0,0\nct,,0,5,1\n")
    dev = tmp_path / "dev.csv"
    write_marker_csv(MarkerSet("device", np.array([[0.0, 0, 0], [5.0, 0, 0], [0.0, 5, 0]])), dev)
    out = tmp_path / "o.json"
    assert main([command, str(ct), str(dev), str(out)]) == 2
    assert "line 4: non-finite coordinate" in assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "line", ["noise_sigma_mm = nan", "noise_sigma_mm = inf", "placement_extent = nan 1 1",
             "translation_extent = 1 1 inf"]
)
def test_non_finite_scene_spec_exits_two(tmp_path, capsys, line):
    spec = write_spec(tmp_path, f"n_markers = 5\n{line}\n")
    assert main(["simulate", str(spec), str(tmp_path / "scene")]) == 2
    assert line.split()[0] in assert_one_error_line(capsys)
    assert not (tmp_path / "scene_ct.csv").exists()
    csv_out, json_out = tmp_path / "r.csv", tmp_path / "s.json"
    assert main(["bench", str(spec), str(csv_out), str(json_out), "--trials", "1"]) == 2
    assert line.split()[0] in assert_one_error_line(capsys)
    assert not csv_out.exists()


def _device_csv(tmp_path):
    dev = tmp_path / "dev.csv"
    write_marker_csv(MarkerSet("device", np.array([[0.0, 0, 0], [5.0, 0, 0], [0.0, 5, 0]])), dev)
    return dev


@pytest.mark.parametrize("command", ["register", "icp"])
@pytest.mark.parametrize("row", [b"ct,,1\xe9,0,0", b"ct,,1_0,0,0", b"ct,\xd9\xa3,0,0,0"])
def test_non_ascii_or_grouped_marker_csv_exits_two(tmp_path, capsys, command, row):
    ct = tmp_path / "ct.csv"
    ct.write_bytes(b"frame,id,x_mm,y_mm,z_mm\nct,,0,0,0\n" + row + b"\nct,,0,5,1\n")
    out = tmp_path / "o.json"
    assert main([command, str(ct), str(_device_csv(tmp_path)), str(out)]) == 2
    assert "marker csv line 3" in assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command", ["register", "icp"])
@pytest.mark.parametrize("side", ["ct", "device"])
def test_marker_coordinates_that_would_overflow_exit_two(tmp_path, capsys, command, side):
    big = tmp_path / "big.csv"
    big.write_text(
        f"frame,id,x_mm,y_mm,z_mm\n{side},,0,0,0\n{side},,1e154,0,0\n{side},,0,1e154,0\n"
        f"{side},,0,0,1e154\n"
    )
    ct = tmp_path / "ct.csv"
    write_marker_csv(MarkerSet("ct", np.array([[0.0, 0, 0], [5.0, 0, 0], [0.0, 5, 0]])), ct)
    inputs = [big, _device_csv(tmp_path)] if side == "ct" else [ct, big]
    out = tmp_path / "o.json"
    assert main([command, *map(str, inputs), str(out)]) == 2
    assert "marker csv line 3: coordinate beyond" in assert_one_error_line(capsys)
    assert not out.exists()


def test_undecodable_text_inputs_exit_two(phantom_volume, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"n_markers = 5\n# \xff\n")
    ct = tmp_path / "ct.csv"
    write_marker_csv(MarkerSet("ct", np.array([[0.0, 0, 0], [5.0, 0, 0], [0.0, 5, 0]])), ct)
    out = tmp_path / "out"
    for argv, message in (
        (["segment", str(phantom_volume), str(bad), str(out)], "not UTF-8 text"),
        (["register", str(ct), str(_device_csv(tmp_path)), str(out), "--config", str(bad)],
         "not UTF-8 text"),
        # ICP has no settings, so argparse refuses the flag before any file is read.
        (["icp", str(ct), str(_device_csv(tmp_path)), str(out), "--config", str(bad)],
         "unrecognized arguments: --config"),
        (["simulate", str(bad), str(out)], "not UTF-8 text"),
        (["bench", str(bad), str(out), str(tmp_path / "s.json"), "--trials", "1"], "not UTF-8 text"),
    ):
        assert main(argv) == 2
        assert message in assert_one_error_line(capsys)
        assert not list(tmp_path.glob("out*")) and not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_simulate_rejects_a_seed_outside_the_rng_range(tmp_path, capsys, seed):
    spec = write_spec(tmp_path, f"n_markers = 5\nseed = {seed}\n")
    assert main(["simulate", str(spec), str(tmp_path / "scene")]) == 2
    assert "seed must lie in [0, 2**64)" in assert_one_error_line(capsys)
    assert not list(tmp_path.glob("scene_*"))


def without_column(csv_bytes, column):
    rows = [line.split(",") for line in csv_bytes.decode().splitlines()]
    drop = rows[0].index(column)
    return [row[:drop] + row[drop + 1:] for row in rows]


@pytest.mark.parametrize("command", ["simulate", "bench", "segment", "register"])
def test_text_inputs_with_a_byte_order_mark_read_like_without(phantom_volume, tmp_path, command):
    # Some editors save UTF-8 with a byte-order mark; it must not become
    # part of the first key.
    scene = "n_markers = 5\nnoise_sigma_mm = 1.0\nseed = 20\n"
    prefix = tmp_path / "s"
    assert main(["simulate", str(write_spec(tmp_path, scene)), str(prefix)]) == 0
    text, argv, output = {
        "simulate": (scene, ["simulate", "{input}", "{out}"], "{out}_ct.csv"),
        "bench": (
            scene + "\nn_markers = 4\nseed = 10\n",
            ["bench", "{input}", "{out}.csv", "{out}.json", "--trials", "1"],
            "{out}.csv",
        ),
        "segment": (
            "expected_mm3 = 27\nhu_min = 300\n",
            ["segment", str(phantom_volume), "{input}", "{out}.csv"],
            "{out}.csv",
        ),
        "register": (
            "k = 2\nscale_tolerance_mm = 8\n",
            ["register", f"{prefix}_ct.csv", f"{prefix}_device.csv", "{out}.json", "--config", "{input}"],
            "{out}.json",
        ),
    }[command]
    written = []
    for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        path = tmp_path / f"{name}.txt"
        path.write_bytes(data)
        fill = {"input": str(path), "out": str(tmp_path / name)}
        assert main([arg.format(**fill) for arg in argv]) == 0
        written.append((tmp_path / output.format(**fill)).read_bytes())
    if command == "bench":  # the records hold each trial's wall time
        written = [without_column(blob, "time_us") for blob in written]
    assert written[0] == written[1]


def test_a_fidreg_error_outside_both_branches_exits_two(tmp_path, capsys, monkeypatch):
    import fidreg.cli
    from fidreg.errors import FidregError

    class NewError(FidregError):
        """Neither a FormatError nor a DomainError."""

    def fail(ct, table, config):
        raise NewError("stubbed failure")

    spec = write_spec(tmp_path, "n_markers = 5\nseed = 9\n")
    prefix = tmp_path / "s"
    assert main(["simulate", str(spec), str(prefix)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(fidreg.cli, "register", fail)
    out = tmp_path / "o.json"
    assert main(["register", f"{prefix}_ct.csv", f"{prefix}_device.csv", str(out)]) == 2
    assert capsys.readouterr().err == "error: stubbed failure\n"
    assert not out.exists()


def test_a_scene_beyond_the_coordinate_bound_exits_two_and_writes_nothing(tmp_path, capsys):
    spec = write_spec(tmp_path, "n_markers = 4\nseed = 3\nplacement_extent = 4000000.0 4000000.0 4000000.0\n")
    assert main(["simulate", str(spec), str(tmp_path / "scene")]) == 2
    err = assert_one_error_line(capsys)
    assert "scene seed 3: CT marker coordinate beyond 1e+06 mm" in err
    assert not list(tmp_path.glob("scene_*"))
    csv_out, json_out = tmp_path / "r.csv", tmp_path / "s.json"
    assert main(["bench", str(spec), str(csv_out), str(json_out), "--trials", "1"]) == 2
    assert assert_one_error_line(capsys) == err
    assert not csv_out.exists() and not json_out.exists()


def test_register_with_no_scale_tolerance_exits_one_and_writes_nothing(tmp_path, capsys):
    spec = write_spec(tmp_path, "n_markers = 6\nnoise_sigma_mm = 0.5\nseed = 7\n")
    prefix = tmp_path / "s"
    assert main(["simulate", str(spec), str(prefix)]) == 0
    capsys.readouterr()
    cfg = tmp_path / "strict.cfg"
    cfg.write_text("scale_tolerance_mm = 0\n")
    out = tmp_path / "o.json"
    argv = ["register", f"{prefix}_ct.csv", f"{prefix}_device.csv", str(out), "--config", str(cfg)]
    assert main(argv) == 1
    assert assert_one_error_line(capsys).startswith(
        "error: no device triangle passed scale verification; best rejected candidate: "
    )
    assert not out.exists()


def test_simulate_refuses_a_fractional_marker_count(tmp_path, capsys):
    spec = write_spec(tmp_path, "n_markers = 6.5\nseed = 7\n")
    assert main(["simulate", str(spec), str(tmp_path / "scene")]) == 2
    assert capsys.readouterr().err == "error: config key 'n_markers': not an integer: '6.5'\n"
    assert not list(tmp_path.glob("scene_*"))


def reject_constant(name):
    raise ValueError(f"JSON holds {name}")


def test_json_outputs_hold_only_finite_numbers(tmp_path):
    spec = write_spec(tmp_path, "n_markers = 6\nnoise_sigma_mm = 0.5\nseed = 7\n")
    prefix = tmp_path / "s"
    inputs = [f"{prefix}_ct.csv", f"{prefix}_device.csv"]
    for argv in (
        ["simulate", str(spec), str(prefix)],
        ["register", *inputs, str(tmp_path / "register.json")],
        ["icp", *inputs, str(tmp_path / "icp.json")],
        # one trial per cell: each summary std is the single-trial fallback
        ["bench", str(spec), str(tmp_path / "r.csv"), str(tmp_path / "summary.json"), "--trials", "1"],
    ):
        assert main(argv) == 0
    for name in ("s_truth.json", "register.json", "icp.json", "summary.json"):
        json.loads((tmp_path / name).read_text(), parse_constant=reject_constant)


@pytest.mark.parametrize("fails", [False, True], ids=["success", "error"])
@pytest.mark.parametrize("command", ["segment", "mesh", "register", "icp", "simulate", "bench"])
def test_stdout_stays_clean(phantom_volume, seg_config, tmp_path, capsys, command, fails):
    # notes and errors go to stderr, so stdout can be redirected
    spec = write_spec(tmp_path, "n_markers = 5\nseed = 9\n")
    prefix = tmp_path / "s"
    assert main(["simulate", str(spec), str(prefix)]) == 0
    capsys.readouterr()
    inputs = [f"{prefix}_ct.csv", f"{prefix}_device.csv"]
    out = str(tmp_path / "out")
    argvs = {  # (success, error) arguments; each error is a malformed input
        "segment": ([phantom_volume, seg_config, out], [phantom_volume, spec, out]),
        "mesh": ([phantom_volume, out + ".stl"], [phantom_volume, out + ".ply"]),
        "register": ([*inputs, out], [*inputs[::-1], out]),
        "icp": ([*inputs, out], [*inputs[::-1], out]),
        "simulate": ([spec, out], [seg_config, out]),
        "bench": ([spec, out + ".csv", out + ".json", "--trials", "1"],
                  [spec, out + ".csv", out + ".json", "--trials", "0"]),
    }[command]
    assert main([command, *map(str, argvs[fails])]) == (2 if fails else 0)
    assert capsys.readouterr().out == ""
