import dataclasses
import json
import math
import statistics
import warnings

import numpy as np
import pytest

import fidreg.bench
from fidreg.bench import (
    CSV_HEADER,
    SceneSpec,
    TrialRecord,
    _record_row,
    _status_token,
    generate_scene,
    parse_scene_grid,
    run_benchmark,
    summarize,
    target_registration_error,
    write_records_csv,
    write_summary_json,
)
from fidreg.config import ConfigError
from fidreg.errors import (
    DegenerateTriangleError,
    InsufficientMarkersError,
    NoMatchError,
)
from fidreg.rigid import RigidTransform, axis_angle_rotation
from fidreg.rng import SplitMix64

from reference_impls import loop_run_benchmark, per_metric_summarize, row_tuple_generate_scene


def test_generate_scene_is_deterministic():
    spec = SceneSpec(n_markers=7, noise_sigma_mm=1.0, dropout_count=2, decoy_count=3, seed=42)
    ct_a, dev_a, truth_a = generate_scene(spec)
    ct_b, dev_b, truth_b = generate_scene(spec)
    np.testing.assert_array_equal(ct_a.points, ct_b.points)
    np.testing.assert_array_equal(dev_a.points, dev_b.points)
    assert dev_a.ids == dev_b.ids
    assert truth_a == truth_b


def test_noiseless_scene_maps_ids_exactly():
    spec = SceneSpec(n_markers=6, seed=9)
    ct, device, truth = generate_scene(spec)
    mapped = truth.apply(ct.points)
    for row, marker_id in enumerate(device.ids):
        assert marker_id is not None
        np.testing.assert_array_equal(device.points[row], mapped[marker_id])


def test_device_ids_track_dropout_and_decoys():
    spec = SceneSpec(n_markers=8, dropout_count=3, decoy_count=4, seed=4)
    ct, device, _ = generate_scene(spec)
    assert len(ct) == 8 and ct.ids == tuple(range(8))
    assert len(device) == 8 - 3 + 4
    real = [i for i in device.ids if i is not None]
    assert len(real) == 5 and len(set(real)) == 5
    assert set(real) <= set(range(8))
    assert device.ids.count(None) == 4


def test_noise_sigma_matches_request():
    spec = SceneSpec(n_markers=10000, noise_sigma_mm=5.0, seed=123)
    ct, device, truth = generate_scene(spec)
    mapped = truth.apply(ct.points)
    residuals = np.array(
        [device.points[row] - mapped[i] for row, i in enumerate(device.ids)]
    )
    for axis in range(3):
        assert residuals[:, axis].std() == pytest.approx(5.0, rel=0.03)
        assert abs(residuals[:, axis].mean()) < 0.2


def test_placement_extent_bounds_ct_points():
    spec = SceneSpec(n_markers=500, seed=3, placement_extent=(100.0, 40.0, 10.0))
    ct, _, _ = generate_scene(spec)
    for axis, half in enumerate((50.0, 20.0, 5.0)):
        assert np.all(np.abs(ct.points[:, axis]) <= half)
        assert ct.points[:, axis].max() > half * 0.9  # actually fills the box


def test_draw_order_contract_replicated_from_the_raw_stream():
    # Full independent replication of the documented stream layout.
    spec = SceneSpec(
        n_markers=8, noise_sigma_mm=1.5, dropout_count=2, decoy_count=3, seed=77
    )
    ct, device, truth = generate_scene(spec)

    rng = SplitMix64(77)
    extent = np.array(spec.placement_extent)
    ct_expected = (rng.uniforms(24).reshape(8, 3) - 0.5) * extent
    rotation = rng.rotation()
    translation = (rng.uniforms(3) - 0.5) * np.array(spec.translation_extent)
    noise = rng.normals(24).reshape(8, 3)
    device_expected = ct_expected @ rotation.T + translation + 1.5 * noise
    order = list(range(8))
    rng.shuffle(order)
    survivors = [i for i in range(8) if i not in set(order[:2])]
    corners = np.array(
        [
            [sx * extent[0] / 2, sy * extent[1] / 2, sz * extent[2] / 2]
            for sx in (-1, 1)
            for sy in (-1, 1)
            for sz in (-1, 1)
        ]
    )
    moved = corners @ rotation.T + translation
    lo, hi = moved.min(axis=0), moved.max(axis=0)
    decoys = lo + rng.uniforms(9).reshape(3, 3) * (hi - lo)
    rows = [(device_expected[i], i) for i in survivors] + [(p, None) for p in decoys]
    rng.shuffle(rows)

    np.testing.assert_array_equal(ct.points, ct_expected)
    np.testing.assert_array_equal(truth.rotation, rotation)
    np.testing.assert_array_equal(truth.translation, translation)
    assert device.ids == tuple(i for _, i in rows)
    np.testing.assert_array_equal(device.points, np.array([p for p, _ in rows]))


def test_identity_and_explicit_transforms_skip_the_pose_draws():
    base = SceneSpec(n_markers=5, noise_sigma_mm=0.5, seed=11, true_transform="identity")
    ct, device, truth = generate_scene(base)
    assert truth == RigidTransform.identity()
    rng = SplitMix64(11)
    ct_expected = (rng.uniforms(15).reshape(5, 3) - 0.5) * np.array(base.placement_extent)
    noise = rng.normals(15).reshape(5, 3)
    np.testing.assert_array_equal(ct.points, ct_expected)
    # same seed, explicit transform: identical ct points and noise stream
    explicit = RigidTransform(axis_angle_rotation([0, 0, 1], 0.3), np.array([1.0, 2.0, 3.0]))
    spec = SceneSpec(n_markers=5, noise_sigma_mm=0.5, seed=11, true_transform=explicit)
    ct2, device2, truth2 = generate_scene(spec)
    assert truth2 == explicit
    np.testing.assert_array_equal(ct2.points, ct_expected)
    rows = [(p, i) for i, p in enumerate(explicit.apply(ct_expected) + 0.5 * noise)]
    rng.shuffle(rows)  # device rows always get one final shuffle
    assert device2.ids == tuple(i for _, i in rows)
    np.testing.assert_array_equal(device2.points, np.array([p for p, _ in rows]))


def test_spec_validation():
    with pytest.raises(ConfigError, match="n_markers"):
        SceneSpec(n_markers=2)
    with pytest.raises(ConfigError, match="at least 3 device markers"):
        SceneSpec(n_markers=5, dropout_count=3)
    with pytest.raises(ConfigError, match="noise_sigma_mm"):
        SceneSpec(n_markers=4, noise_sigma_mm=-0.1)
    with pytest.raises(ConfigError, match="true_transform"):
        SceneSpec(n_markers=4, true_transform="mirror")
    with pytest.raises(ConfigError, match="placement_extent"):
        SceneSpec(n_markers=4, placement_extent=(10.0, 0.0, 10.0))
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="noise_sigma_mm"):
            SceneSpec(n_markers=4, noise_sigma_mm=value)
        with pytest.raises(ConfigError, match="placement_extent"):
            SceneSpec(n_markers=4, placement_extent=(value, 1.0, 1.0))
        with pytest.raises(ConfigError, match="translation_extent"):
            SceneSpec(n_markers=4, translation_extent=(1.0, 1.0, value))
        with pytest.raises(ConfigError, match="noise_sigma_mm"):
            SceneSpec.from_text(f"n_markers = 4\nnoise_sigma_mm = {value}\n")
        with pytest.raises(ConfigError, match="placement_extent"):
            SceneSpec.from_text(f"n_markers = 4\nplacement_extent = 1 {value} 1\n")
    assert SceneSpec(n_markers=4, seed=-1).seed == (1 << 64) - 1  # wraps like the rng


@pytest.mark.parametrize("value", ["mirror", "Identity", "", 7, np.eye(3)])
def test_spec_rejects_any_other_true_transform_without_a_warning(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            SceneSpec(n_markers=4, true_transform=value)
    assert str(err.value) == "true_transform must be 'random', 'identity', or a transform"


def test_spec_text_round_trip():
    spec = SceneSpec(
        n_markers=9,
        noise_sigma_mm=2.5,
        dropout_count=1,
        decoy_count=2,
        seed=314,
        placement_extent=(250.0, 250.0, 100.0),
    )
    assert SceneSpec.from_text(spec.to_text()) == spec
    identity = SceneSpec(n_markers=4, true_transform="identity")
    again = SceneSpec.from_text(identity.to_text())
    assert again.true_transform == RigidTransform.identity()
    explicit = SceneSpec(
        n_markers=4,
        true_transform=RigidTransform(axis_angle_rotation([1, 0, 0], 0.1), np.zeros(3)),
    )
    with pytest.raises(ConfigError, match="text form"):
        explicit.to_text()


def test_parse_scene_grid_blocks_and_errors():
    grid = parse_scene_grid(
        "n_markers = 4\nseed = 1\n\n\nn_markers = 6\nnoise_sigma_mm = 2.0\n"
    )
    assert [s.n_markers for s in grid] == [4, 6]
    with pytest.raises(ConfigError, match="scene block 2"):
        parse_scene_grid("n_markers = 4\n\nn_markers = 2\n")
    with pytest.raises(ConfigError, match="no scene blocks"):
        parse_scene_grid("\n\n")


def test_tre_pure_translation():
    truth = RigidTransform.identity()
    estimate = RigidTransform(np.eye(3), np.array([2.0, 0.0, 0.0]))
    targets = np.array([[0.0, 0.0, 0.0], [50.0, -20.0, 10.0]])
    assert target_registration_error(estimate, truth, targets) == 2.0


def test_tre_lever_arm():
    theta = 0.005
    truth = RigidTransform.identity()
    estimate = RigidTransform(axis_angle_rotation([0, 0, 1], theta), np.zeros(3))
    targets = np.array([[100.0, 0.0, 0.0]])
    expected = 2.0 * 100.0 * math.sin(theta / 2.0)
    assert target_registration_error(estimate, truth, targets) == pytest.approx(
        expected, abs=1e-9
    )
    with pytest.raises(ValueError, match="at least one"):
        target_registration_error(estimate, truth, np.zeros((0, 3)))


def test_status_tokens_are_kebab_case():
    assert _status_token(NoMatchError("x")) == "no-match"
    assert _status_token(InsufficientMarkersError(found=2)) == "insufficient-markers"
    assert _status_token(DegenerateTriangleError("x")) == "degenerate-triangle"


def test_record_row_golden_line():
    record = TrialRecord(
        method="triangle",
        seed=5,
        n_markers=8,
        noise_sigma_mm=2.0,
        dropout=1,
        decoys=2,
        tre_mm=1.5,
        rot_err_rad=0.001,
        trans_err_mm=0.25,
        time_us=123.0,
        flipped=False,
        status="ok",
    )
    assert _record_row(record) == "triangle,5,8,2.0,1,2,1.5,0.001,0.25,123.0,false,ok"
    failed = dataclasses.replace(
        record,
        status="no-match",
        tre_mm=float("nan"),
        rot_err_rad=float("nan"),
        trans_err_mm=float("nan"),
        flipped=True,
    )
    assert _record_row(failed) == "triangle,5,8,2.0,1,2,nan,nan,nan,123.0,true,no-match"
    with pytest.raises(ValueError, match="tre_mm"):
        dataclasses.replace(record, tre_mm=float("nan"))


def test_csv_header_and_file_shape(tmp_path):
    assert CSV_HEADER == (
        "method,seed,n_markers,noise_sigma_mm,dropout,decoys,"
        "tre_mm,rot_err_rad,trans_err_mm,time_us,flipped,status"
    )
    records = run_benchmark([SceneSpec(n_markers=4, seed=2)], trials_per_cell=2)
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(records)
    assert all(line.count(",") == 11 for line in lines)


def test_run_benchmark_ordering_and_seeds():
    grid = [SceneSpec(n_markers=4, seed=100), SceneSpec(n_markers=5, seed=200)]
    records = run_benchmark(grid, trials_per_cell=3)
    assert len(records) == 2 * 2 * 3
    assert [r.method for r in records[:6]] == ["triangle"] * 3 + ["icp"] * 3
    assert [r.seed for r in records[:3]] == [100, 101, 102]
    assert [r.n_markers for r in records[6:]] == [5] * 6
    # methods subset and canonical ordering regardless of request order
    icp_only = run_benchmark(grid, methods=("icp",), trials_per_cell=1)
    assert [r.method for r in icp_only] == ["icp", "icp"]
    reordered = run_benchmark([grid[0]], methods=("icp", "triangle"), trials_per_cell=1)
    assert [r.method for r in reordered] == ["triangle", "icp"]
    with pytest.raises(ConfigError, match="unknown method"):
        run_benchmark(grid, methods=("horn",))
    with pytest.raises(ConfigError, match="trials_per_cell"):
        run_benchmark(grid, trials_per_cell=0)


def test_run_benchmark_reproducible_except_timing():
    grid = [SceneSpec(n_markers=5, noise_sigma_mm=1.0, seed=50)]
    a = run_benchmark(grid, trials_per_cell=4)
    b = run_benchmark(grid, trials_per_cell=4)
    for ra, rb in zip(a, b):
        da, db = dataclasses.asdict(ra), dataclasses.asdict(rb)
        da.pop("time_us"), db.pop("time_us")
        assert (da == db) or (
            math.isnan(da["tre_mm"])
            and math.isnan(db["tre_mm"])
            and da["status"] == db["status"]
        )


def test_noiseless_trials_recover_truth_to_float_precision():
    grid = [SceneSpec(n_markers=n, seed=1000 + n) for n in range(3, 8)]
    records = run_benchmark(grid, methods=("triangle",), trials_per_cell=2)
    assert all(r.status == "ok" for r in records)
    assert max(r.tre_mm for r in records) < 1e-9
    assert not any(r.flipped for r in records)


def test_overwhelming_noise_becomes_a_status_not_an_exception():
    # noise far beyond the scale tolerance: the run must carry on
    bad = SceneSpec(n_markers=3, noise_sigma_mm=150.0, seed=880)
    good = SceneSpec(n_markers=6, seed=12)
    records = run_benchmark([bad, good], methods=("triangle",), trials_per_cell=1)
    assert records[0].status == "no-match"
    assert math.isnan(records[0].tre_mm)
    assert records[1].status == "ok" and records[1].tre_mm < 1e-9


def test_summarize_means_and_failures(tmp_path):
    def rec(method, seed, tre, status="ok"):
        nan = float("nan")
        ok = status == "ok"
        return TrialRecord(
            method=method,
            seed=seed,
            n_markers=4,
            noise_sigma_mm=1.0,
            dropout=0,
            decoys=0,
            tre_mm=tre if ok else nan,
            rot_err_rad=0.01 if ok else nan,
            trans_err_mm=0.5 if ok else nan,
            time_us=100.0,
            flipped=ok and seed % 2 == 1,
            status=status,
        )

    records = [
        rec("triangle", 1, 2.0),
        rec("triangle", 2, 4.0),
        rec("triangle", 3, 0.0, status="no-match"),
        rec("icp", 1, 0.0, status="degenerate-geometry"),
    ]
    summary = summarize(records)
    assert len(summary) == 2
    tri = summary[0]
    assert tri["method"] == "triangle"
    assert tri["trials"] == 3 and tri["failures"] == 1 and tri["flipped"] == 1
    assert tri["tre_mm"]["mean"] == pytest.approx(3.0)
    assert tri["tre_mm"]["std"] == pytest.approx(statistics.stdev([2.0, 4.0]))
    icp = summary[1]
    assert icp["failures"] == 1 and icp["tre_mm"] is None

    path = tmp_path / "summary.json"
    write_summary_json(summary, path)
    loaded = json.loads(path.read_text())
    assert loaded["cells"][0]["tre_mm"]["mean"] == pytest.approx(3.0)


def test_gross_error_rate_counts_successful_trials_above_ten_mm_over_all_trials():
    def rec(tre, status="ok"):
        ok = status == "ok"
        return TrialRecord("triangle", 1, 6, 2.0, 1, 2, tre if ok else math.nan, 0.1, 0.1, 10.0,
                           False, status)

    records = [rec(9.9), rec(10.0), rec(10.5), rec(250.0), rec(0.0, status="no-match")]
    (cell,) = summarize(records)
    # 10.0 mm is not gross; a failed trial is not a gross error but counts as a trial
    assert cell["gross_error_rate"] == 2 / 5


GOLDEN_SUMMARY = """\
{
  "cells": [
    {
      "method": "triangle",
      "n_markers": 5,
      "noise_sigma_mm": 0.5,
      "dropout": 1,
      "decoys": 2,
      "trials": 4,
      "failures": 1,
      "flipped": 1,
      "gross_error_rate": 0.0,
      "tre_mm": {
        "mean": 2.0,
        "std": 1.0
      },
      "rot_err_rad": {
        "mean": 0.5,
        "std": 0.25
      },
      "trans_err_mm": {
        "mean": 1.0,
        "std": 0.5
      },
      "time_us": {
        "mean": 200.0,
        "std": 100.0
      }
    },
    {
      "method": "icp",
      "n_markers": 5,
      "noise_sigma_mm": 0.5,
      "dropout": 1,
      "decoys": 2,
      "trials": 2,
      "failures": 2,
      "flipped": 0,
      "gross_error_rate": 0.0,
      "tre_mm": null,
      "rot_err_rad": null,
      "trans_err_mm": null,
      "time_us": null
    }
  ]
}
"""


def test_summary_json_golden_bytes(tmp_path):
    nan = float("nan")

    def rec(method, seed, tre, time_us, flipped=False, status="ok"):
        ok = status == "ok"
        return TrialRecord(
            method=method,
            seed=seed,
            n_markers=5,
            noise_sigma_mm=0.5,
            dropout=1,
            decoys=2,
            tre_mm=tre if ok else nan,
            rot_err_rad=tre / 4.0 if ok else nan,
            trans_err_mm=tre / 2.0 if ok else nan,
            time_us=time_us,
            flipped=flipped,
            status=status,
        )

    # The icp cell is first seen between triangle trials: cells keep
    # first-seen order, and a failed trial's flip and time do not count.
    records = [
        rec("triangle", 10, 1.0, 100.0),
        rec("triangle", 11, 2.0, 200.0, flipped=True),
        rec("icp", 10, 0.0, 50.0, status="degenerate-geometry"),
        rec("triangle", 12, 0.0, 900.0, flipped=True, status="no-match"),
        rec("triangle", 13, 3.0, 300.0),
        rec("icp", 11, 0.0, 70.0, status="no-match"),
    ]
    path = tmp_path / "summary.json"
    write_summary_json(summarize(records), path)
    assert path.read_bytes() == GOLDEN_SUMMARY.encode("ascii")
    write_summary_json(summarize([]), path)
    assert path.read_bytes() == b'{\n  "cells": []\n}\n'


def test_csv_header_is_the_record_fields_in_order():
    assert CSV_HEADER.split(",") == [f.name for f in dataclasses.fields(TrialRecord)]


def test_single_trial_std_is_zero():
    records = run_benchmark([SceneSpec(n_markers=4, seed=7)], methods=("triangle",))
    (cell,) = summarize(records[:1])
    assert cell["tre_mm"]["std"] == 0.0


def _rows_without_time(records):
    column = CSV_HEADER.split(",").index("time_us")
    return [
        [v for i, v in enumerate(_record_row(r).split(",")) if i != column] for r in records
    ]


# sigma 0 and 1, 0/0 and 1/2 dropouts/decoys, an identity truth, and a
# spec whose triangle trials end in no-match (noise far past the scale gate).
ORACLE_GRID = [
    SceneSpec(n_markers=6, noise_sigma_mm=sigma, dropout_count=d, decoy_count=c, seed=seed)
    for seed, (sigma, (d, c)) in enumerate(
        ((sigma, dc) for sigma in (0.0, 1.0) for dc in ((0, 0), (1, 2))), start=300
    )
] + [
    SceneSpec(n_markers=5, noise_sigma_mm=0.5, true_transform="identity", seed=410),
    SceneSpec(n_markers=3, noise_sigma_mm=150.0, seed=880),
]


@pytest.mark.parametrize("trials", [1, 2, 3])
@pytest.mark.parametrize("methods", [("triangle", "icp"), ("icp", "triangle")])
def test_run_benchmark_matches_the_per_cell_draw_loop(trials, methods):
    got = run_benchmark(ORACLE_GRID, methods=methods, trials_per_cell=trials)
    want = loop_run_benchmark(ORACLE_GRID, methods=methods, trials_per_cell=trials)
    assert _rows_without_time(got) == _rows_without_time(want)
    assert "no-match" in {r.status for r in got if r.method == "triangle"}


def _count_calls(monkeypatch):
    """Count scene draws and registrations; keep each registration's CT set."""
    calls = {"generate_scene": 0, "register": 0, "icp_register": 0}
    cts = {"register": [], "icp_register": []}

    def counted(name):
        original = getattr(fidreg.bench, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name in cts:
                cts[name].append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(fidreg.bench, name, wrapper)

    for name in calls:
        counted(name)
    return calls, cts


_METHOD_CALLS = (("triangle", "register"), ("icp", "icp_register"))


@pytest.mark.parametrize(
    "methods", [("triangle",), ("icp",), ("triangle", "icp"), ("icp", "triangle")]
)
def test_each_scene_is_drawn_once_and_warm_ups_only_register(monkeypatch, methods):
    calls, cts = _count_calls(monkeypatch)
    grid = ORACLE_GRID[:3]
    trials = 3
    records = run_benchmark(grid, methods=methods, trials_per_cell=trials)
    assert len(records) == len(grid) * len(methods) * trials
    assert calls["generate_scene"] == len(grid) * trials
    # one discarded warm-up registration per method per call, on the first
    # spec's trial-0 scene, which trial 0 then registers again
    for method, name in _METHOD_CALLS:
        assert calls[name] == (len(grid) * trials + 1 if method in methods else 0)
        if method in methods:
            assert cts[name][0] is cts[name][1]
            assert len({id(ct) for ct in cts[name]}) == len(grid) * trials


def test_a_failed_warm_up_is_still_the_methods_only_warm_up(monkeypatch):
    # The first spec's triangle trials all end in no-match, warm-up included.
    calls, _ = _count_calls(monkeypatch)
    grid = [ORACLE_GRID[-1], *ORACLE_GRID[:2]]
    trials = 2
    records = run_benchmark(grid, trials_per_cell=trials)
    assert [r.status for r in records[:trials]] == ["no-match"] * trials
    for _, name in _METHOD_CALLS:
        assert calls[name] == len(grid) * trials + 1


def test_each_call_makes_its_own_warm_ups(monkeypatch):
    calls, _ = _count_calls(monkeypatch)
    grid = ORACLE_GRID[:2]
    trials = 2
    first = run_benchmark(grid, trials_per_cell=trials)
    second = run_benchmark(grid, trials_per_cell=trials)
    assert _rows_without_time(first) == _rows_without_time(second)
    assert calls["generate_scene"] == 2 * len(grid) * trials
    for _, name in _METHOD_CALLS:
        assert calls[name] == 2 * (len(grid) * trials + 1)


def test_spec_text_seed_lies_in_the_rng_range():
    top = (1 << 64) - 1
    assert SceneSpec.from_text(f"n_markers = 4\nseed = {top}\n").seed == top
    assert SceneSpec.from_text("n_markers = 4\nseed = 0\n").seed == 0
    for seed in ("-1", str(1 << 64), "-18446744073709551615"):
        with pytest.raises(ConfigError, match=r"seed must lie in \[0, 2\*\*64\)"):
            SceneSpec.from_text(f"n_markers = 4\nseed = {seed}\n")
    with pytest.raises(ConfigError, match="scene block 2: config key 'seed'"):
        parse_scene_grid("n_markers = 4\n\nn_markers = 4\nseed = -1\n")


@pytest.mark.parametrize("dropouts", [0, 1, 2])
@pytest.mark.parametrize("decoys", [0, 1, 3])
def test_generate_scene_matches_the_row_tuple_copy(dropouts, decoys):
    for n, sigma, seed in [(3 + dropouts, 0.0, 11), (5, 1.0, 12), (8, 2.5, 13), (20, 3.0, 14)]:
        spec = SceneSpec(n_markers=n, noise_sigma_mm=sigma, dropout_count=dropouts,
                         decoy_count=decoys, seed=seed + 100 * dropouts + 1000 * decoys)
        ct, device, truth = generate_scene(spec)
        ref_ct, ref_device, ref_truth = row_tuple_generate_scene(spec)
        assert ct == ref_ct and truth == ref_truth
        assert device.ids == ref_device.ids
        assert np.array_equal(device.points, ref_device.points)
        assert device.points.shape == ref_device.points.shape == (n - dropouts + decoys, 3)


@pytest.mark.parametrize(
    "extents, role",
    [
        ({"placement_extent": (4e6, 4e6, 4e6)}, "CT marker"),
        ({"translation_extent": (4e6, 4e6, 4e6)}, "device marker"),
    ],
)
def test_a_scene_beyond_the_coordinate_bound_is_a_config_error(extents, role):
    spec = SceneSpec(n_markers=4, seed=3, **extents)
    with pytest.raises(ConfigError, match=f"scene seed 3: {role} coordinate beyond 1e\\+06 mm"):
        generate_scene(spec)
    with pytest.raises(ConfigError, match="scene seed 4: "):
        run_benchmark([dataclasses.replace(spec, seed=4)])


def test_a_decoy_beyond_the_coordinate_bound_is_a_config_error():
    # The markers sit inside the bound, but the decoys' box, which bounds the
    # turned placement box, reaches past it.
    turn = RigidTransform(axis_angle_rotation([0.0, 0.0, 1.0], math.pi / 4), np.zeros(3))
    spec = SceneSpec(n_markers=4, decoy_count=20, seed=5, placement_extent=(1.6e6, 1.6e6, 1.0),
                     true_transform=turn)
    ct, device, _ = row_tuple_generate_scene(spec)
    markers = [row for row, i in enumerate(device.ids) if i is not None]
    assert np.abs(ct.points).max() <= 1e6 and np.abs(device.points[markers]).max() <= 1e6
    with pytest.raises(ConfigError, match="scene seed 5: device marker coordinate beyond"):
        generate_scene(spec)


@pytest.mark.parametrize("count", [1, 2, 3, 7, 8, 9, 16, 40])
def test_tre_reduces_like_the_norm_mean(count):
    rng = np.random.default_rng(count)
    for _ in range(50):
        truth = RigidTransform(axis_angle_rotation(rng.normal(size=3), rng.uniform(0, 3)),
                               rng.normal(size=3) * 100)
        estimate = RigidTransform(axis_angle_rotation(rng.normal(size=3), rng.uniform(0, 0.1))
                                  @ truth.rotation, truth.translation + rng.normal(size=3))
        targets = rng.uniform(-150, 150, size=(count, 3)) * 10.0 ** rng.uniform(-3, 3, size=(count, 1))
        want = float(np.linalg.norm(estimate.apply(targets) - truth.apply(targets), axis=1).mean())
        assert target_registration_error(estimate, truth, targets) == want


@pytest.mark.parametrize("trials", [1, 2, 7, 8, 9, 17, 50])
def test_summarize_matches_the_per_metric_form(trials, tmp_path):
    # Pairwise summation starts at 8 values, so these counts cover both sides.
    rng = np.random.default_rng(trials)
    records = []
    for method, n, failures in [("triangle", 4, 0), ("icp", 4, 1), ("triangle", 6, trials)]:
        for t in range(trials):
            ok = t >= failures
            values = rng.uniform(0, 1, size=4) * 10.0 ** rng.uniform(-9, 6, size=4)
            tre, rot, trans = values[:3] if ok else (math.nan,) * 3
            records.append(TrialRecord(method, t, n, 1.0, 0, 0, float(tre), float(rot), float(trans),
                                       float(values[3]), bool(t % 3 == 0) and ok,
                                       "ok" if ok else "no-match"))
    got, want = summarize(records), per_metric_summarize(records)
    assert got == want
    assert got[2]["tre_mm"] is None
    assert all(type(v) is float for cell in got if cell["tre_mm"] for m in ("tre_mm", "time_us")
               for v in cell[m].values())
    write_summary_json(got, tmp_path / "got.json")
    write_summary_json(want, tmp_path / "want.json")
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
