"""End-to-end acceptance checks for the registration toolkit.

Each test covers one numbered acceptance criterion and prints a single
``criterion NN [...]: PASS`` / ``FAIL`` line (run pytest with ``-s`` to see
the lines for passing tests; failures surface through pytest either way).
Scene seeds are frozen so the checks are reproducible run to run.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fidreg.bench import SceneSpec, generate_scene, run_benchmark, summarize
from fidreg.cli import main
from fidreg.icp import icp_register
from fidreg.markers import MarkerSet, read_marker_csv
from fidreg.mesh import marching_cubes, write_stl
from fidreg.rigid import (
    PointCorrespondences,
    RigidTransform,
    absolute_orientation,
    axis_angle_rotation,
    compose,
    inverse,
    rotation_angle,
)
from fidreg.rng import SplitMix64
from fidreg.segmentation import SegmentationConfig, segment_markers
from fidreg.triangles import (
    TriangleTable,
    align_with_flip,
    register,
    triangle_key,
    _canonical_perm,
    _edge_lengths,
)
from fidreg.volume import Volume, write_volume

from reference_impls import kabsch_svd


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} [{label}]: FAIL", flush=True)
        raise
    print(f"criterion {number:02d} [{label}]: PASS", flush=True)


def pose_errors(estimated, truth):
    rot = rotation_angle(compose(estimated, inverse(truth)).rotation)
    trans = float(np.linalg.norm(estimated.translation - truth.translation))
    return rot, trans


def register_scene(spec):
    ct, device, truth = generate_scene(spec)
    table = TriangleTable()
    for point in device.points:
        table.insert_marker(point)
    return register(ct, table), truth


def test_criterion_01_zero_noise_exact_recovery():
    with criterion(1, "zero-noise exact recovery"):
        worst_rot = worst_trans = 0.0
        flips = 0
        for seed in range(1000):
            result, truth = register_scene(SceneSpec(n_markers=3, seed=seed))
            rot, trans = pose_errors(result.transform, truth)
            worst_rot = max(worst_rot, rot)
            worst_trans = max(worst_trans, trans)
            flips += result.flipped
        assert worst_rot < 1e-6, f"worst rotation error {worst_rot:g} rad"
        assert worst_trans < 1e-6, f"worst translation error {worst_trans:g} mm"
        assert flips == 0


def test_criterion_02_tre_improves_with_marker_count():
    with criterion(2, "mean TRE decreases from 4 to 10 markers"):
        grid = [
            SceneSpec(n_markers=n, noise_sigma_mm=2.0, seed=2000 + 1000 * n)
            for n in (4, 6, 8, 10)
        ]
        records = run_benchmark(grid, methods=("triangle",), trials_per_cell=200)
        cells = summarize(records)
        assert [c["n_markers"] for c in cells] == [4, 6, 8, 10]
        assert all(c["failures"] == 0 for c in cells)
        means = [c["tre_mm"]["mean"] for c in cells]
        errs = [c["tre_mm"]["std"] / math.sqrt(c["trials"]) for c in cells]
        assert means[-1] < means[0], f"10-marker mean {means[-1]:g} !< 4-marker {means[0]:g}"
        for i in range(3):
            step_se = math.hypot(errs[i], errs[i + 1])
            assert means[i + 1] <= means[i] + step_se, (
                f"mean TRE rose from {means[i]:g} to {means[i + 1]:g} "
                f"(allowed slack {step_se:g})"
            )


def test_criterion_03_registration_speed():
    with criterion(3, "3-marker < 50 ms, 10-marker < 200 ms"):
        grid = [
            SceneSpec(n_markers=3, noise_sigma_mm=1.0, seed=300),
            SceneSpec(n_markers=10, noise_sigma_mm=1.0, seed=310),
        ]
        records = run_benchmark(grid, methods=("triangle",), trials_per_cell=50)
        cells = summarize(records)
        assert all(cell["failures"] == 0 for cell in cells)
        mean_us = {cell["n_markers"]: cell["time_us"]["mean"] for cell in cells}
        assert mean_us[3] < 50_000, f"3-marker mean {mean_us[3] / 1000:.1f} ms"
        assert mean_us[10] < 200_000, f"10-marker mean {mean_us[10] / 1000:.1f} ms"


def test_criterion_04_segmentation_budget():
    with criterion(4, "256^3 phantom segmented < 5 s, centroids on target"):
        spacing = (0.8, 0.8, 1.5)
        origin = (-102.4, -102.4, -192.0)
        vox = np.full((256, 256, 256), 40, dtype=np.int16)
        corners = [(60, 70, 80), (180, 90, 140), (100, 200, 200)]
        for i, j, k in corners:
            vox[i : i + 3, j : j + 3, k : k + 3] = 3000
        volume = Volume((256, 256, 256), spacing, origin, vox)
        config = SegmentationConfig(expected_mm3=27 * 0.8 * 0.8 * 1.5)
        start = time.perf_counter()
        markers = segment_markers(volume, config)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"segmentation took {elapsed:.2f} s"
        assert len(markers) == 3
        expected = np.array(
            [np.array(origin) + (np.array(c) + 1.0) * spacing for c in corners]
        )
        tolerance = 0.5 * max(spacing)
        for point, target in zip(markers.points, expected):
            assert np.linalg.norm(point - target) < tolerance


def test_criterion_05_closed_form_fit_matches_svd_reference():
    with criterion(5, "closed-form fit == SVD reference, det always +1"):
        rng = np.random.default_rng(505)
        worst = 0.0
        for _ in range(500):
            n = int(rng.integers(4, 12))
            src = rng.uniform(-100, 100, (n, 3))
            rotation = axis_angle_rotation(rng.normal(size=3), rng.uniform(0, np.pi))
            dst = src @ rotation.T + rng.uniform(-50, 50, 3)
            dst = dst + rng.normal(0.0, 0.5, (n, 3))
            transform, _ = absolute_orientation(PointCorrespondences(src, dst))
            ref_rotation, ref_translation = kabsch_svd(src, dst)
            worst = max(
                worst,
                float(np.abs(transform.rotation - ref_rotation).max()),
                float(np.abs(transform.translation - ref_translation).max()),
            )
            assert np.linalg.det(transform.rotation) == pytest.approx(1.0, abs=1e-9)
        assert worst < 1e-9, f"worst disagreement {worst:g}"
        # mirrored targets must still come back proper
        for _ in range(100):
            src = rng.uniform(-100, 100, (8, 3))
            mirrored = src * np.array([1.0, 1.0, -1.0]) + rng.normal(0.0, 0.5, (8, 3))
            transform, _ = absolute_orientation(PointCorrespondences(src, mirrored))
            assert np.linalg.det(transform.rotation) == pytest.approx(1.0, abs=1e-9)


def test_criterion_06_flip_detection_on_mirrored_scenes():
    with criterion(6, "mirrored scenes: flipped, proper, brute-force optimal"):
        rng = np.random.default_rng(606)
        done = 0
        while done < 200:
            points = rng.uniform(-50, 50, (3, 3))
            edges = _edge_lengths(points)
            area = 0.5 * np.linalg.norm(
                np.cross(points[1] - points[0], points[2] - points[0])
            )
            if area < 1e-3 * edges.max() ** 2:
                continue
            source = points[list(_canonical_perm(edges))]
            motion = RigidTransform(
                axis_angle_rotation(rng.normal(size=3), rng.uniform(0.1, 3.0)),
                rng.uniform(-100, 100, 3),
            )
            # reverse the ordered triple's orientation: the mirrored pairing
            target = motion.apply(source)[[0, 2, 1]]
            transform, rmsd, flipped = align_with_flip(
                PointCorrespondences(source, target)
            )
            assert flipped
            assert np.linalg.det(transform.rotation) == pytest.approx(1.0, abs=1e-9)
            brute = min(
                absolute_orientation(PointCorrespondences(source, target[list(p)]))[1]
                for p in itertools.permutations(range(3))
            )
            assert rmsd == pytest.approx(brute, abs=1e-9)
            done += 1


def test_criterion_07_icp_properties_and_triangle_advantage():
    with criterion(7, "ICP monotone + exact on small moves, beaten at 30 deg"):
        rng = np.random.default_rng(707)
        for _ in range(100):
            src = rng.uniform(-100, 100, (10, 3))
            truth = RigidTransform(
                axis_angle_rotation(rng.normal(size=3), rng.uniform(0, 0.6)),
                rng.uniform(-20, 20, 3),
            )
            history = icp_register(
                MarkerSet("ct", src), MarkerSet("device", truth.apply(src))
            ).rmsd_history
            for previous, current in zip(history, history[1:]):
                assert current <= previous + 1e-12

        for _ in range(100):
            src = rng.uniform(-100, 100, (8, 3))
            truth = RigidTransform(
                axis_angle_rotation(rng.normal(size=3), rng.uniform(0, np.deg2rad(10))),
                rng.normal(size=3) * (5.0 / math.sqrt(3)),
            )
            result = icp_register(
                MarkerSet("ct", src), MarkerSet("device", truth.apply(src))
            )
            rot, trans = pose_errors(result.transform, truth)
            assert rot < 1e-6 and trans < 1e-6

        base = 31000
        pose_rng = SplitMix64(base)
        grid = []
        for trial in range(200):
            axis = pose_rng.normals(3)
            axis /= np.linalg.norm(axis)
            translation = (pose_rng.uniforms(3) - 0.5) * 200.0
            truth = RigidTransform(axis_angle_rotation(axis, np.deg2rad(30.0)), translation)
            grid.append(
                SceneSpec(
                    n_markers=6,
                    noise_sigma_mm=2.0,
                    seed=base + trial,
                    true_transform=truth,
                )
            )
        records = run_benchmark(grid, trials_per_cell=1)
        tre = {
            method: [r.tre_mm for r in records if r.method == method and r.status == "ok"]
            for method in ("triangle", "icp")
        }
        assert len(tre["triangle"]) >= 190 and len(tre["icp"]) >= 190
        tri_mean = float(np.mean(tre["triangle"]))
        icp_mean = float(np.mean(tre["icp"]))
        assert tri_mean <= icp_mean, f"triangle {tri_mean:g} mm vs icp {icp_mean:g} mm"


def test_criterion_08_table_combinatorics_and_exact_queries():
    with criterion(8, "C(n,3) table growth, queries == brute-force scan"):
        rng = np.random.default_rng(808)
        for n in range(3, 13):
            table = TriangleTable()
            for point in rng.uniform(-150, 150, (n, 3)):
                table.insert_marker(point)
            assert table.n_triangles == math.comb(n, 3)
            assert table.degenerate_skipped == 0

        markers = rng.uniform(-150, 150, (12, 3))
        table = TriangleTable()
        for point in markers:
            table.insert_marker(point)
        assert table.n_triangles == 220  # plenty past the 200 mark

        # replicate storage order (triples completed by each new marker) and
        # the tree's own distance arithmetic, then demand exact agreement
        stored = []
        for new in range(12):
            for a, b in itertools.combinations(range(new), 2):
                triple = (a, b, new)
                points = markers[list(triple)]
                key = triangle_key(*points)
                perm = _canonical_perm(_edge_lengths(points))
                stored.append((tuple(triple[i] for i in perm), key))
        for _ in range(50):
            probe = triangle_key(*rng.uniform(-150, 150, (3, 3)))
            query = np.array([probe.r2, probe.r3])
            ranked = []
            for seq, (indices, key) in enumerate(stored):
                delta = query - np.array([key.r2, key.r3])
                ranked.append((float(np.sqrt(float(delta @ delta))), seq, indices))
            ranked.sort(key=lambda entry: (entry[0], entry[1]))
            got = table.query_nearest(probe, k=7)
            assert [(c.marker_indices, d) for c, d in got] == [
                (indices, distance) for distance, _, indices in ranked[:7]
            ]


def test_criterion_09_sphere_mesh_validity(tmp_path):
    with criterion(9, "watertight sphere mesh, area on budget, STL sized"):
        n = 52
        center = (n - 1) / 2.0
        idx = np.indices((n, n, n), dtype=np.float64)
        distance = np.sqrt(sum((idx[a] - center) ** 2 for a in range(3)))
        vox = np.clip((20.0 - distance) * 100.0, -30000, 30000).astype(np.int16)
        volume = Volume((n, n, n), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), vox)
        mesh = marching_cubes(volume, iso_hu=0.0)
        edges = {}
        for a, b, c in mesh.faces:
            for u, v in ((a, b), (b, c), (c, a)):
                edges[frozenset((u, v))] = edges.get(frozenset((u, v)), 0) + 1
        assert all(count == 2 for count in edges.values()), "mesh is not watertight"
        assert mesh.n_vertices - len(edges) + mesh.n_faces == 2  # sphere topology
        analytic = 4.0 * np.pi * 20.0**2
        assert abs(mesh.surface_area() / analytic - 1.0) < 0.05
        stl = tmp_path / "sphere.stl"
        write_stl(mesh, stl)
        assert stl.stat().st_size == 84 + 50 * mesh.n_faces


def _strip_timing(records_csv, summary_json):
    rows = []
    for line_number, line in enumerate(records_csv.read_text().splitlines()):
        fields = line.split(",")
        if line_number > 0:
            fields[9] = "-"  # time_us
        rows.append(",".join(fields))
    summary = json.loads(summary_json.read_text())
    for cell in summary["cells"]:
        cell.pop("time_us")
    return "\n".join(rows), json.dumps(summary, sort_keys=True)


def test_criterion_10_end_to_end_determinism(tmp_path):
    with criterion(10, "byte-identical outputs across two runs"):
        vox = np.full((48, 48, 48), 40, dtype=np.int16)
        for i, j, k in [(4, 4, 4), (30, 8, 20), (12, 34, 30)]:
            vox[i : i + 3, j : j + 3, k : k + 3] = 3000
        volume_path = tmp_path / "phantom.vol"
        write_volume(Volume((48, 48, 48), (1, 1, 1), (0, 0, 0), vox), volume_path)
        seg_config = tmp_path / "seg.cfg"
        seg_config.write_text("expected_mm3 = 27\n")
        scene_spec = tmp_path / "scene.spec"
        scene_spec.write_text("n_markers = 7\nnoise_sigma_mm = 1.0\ndecoy_count = 1\nseed = 99\n")
        grid = tmp_path / "grid.txt"
        grid.write_text("n_markers = 4\nseed = 10\n\nn_markers = 6\nnoise_sigma_mm = 2.0\nseed = 60\n")

        outputs = {}
        for run in ("a", "b"):
            root = tmp_path / run
            root.mkdir()
            assert main(["segment", str(volume_path), str(seg_config), str(root / "markers.csv")]) == 0
            assert main(["mesh", str(volume_path), str(root / "skin.stl"), "--iso", "1500"]) == 0
            assert main(["mesh", str(volume_path), str(root / "skin.obj"), "--iso", "1500"]) == 0
            assert main(["simulate", str(scene_spec), str(root / "scene")]) == 0
            assert main([
                "register",
                str(root / "scene_ct.csv"),
                str(root / "scene_device.csv"),
                str(root / "reg.json"),
            ]) == 0
            assert main([
                "icp",
                str(root / "scene_ct.csv"),
                str(root / "scene_device.csv"),
                str(root / "icp.json"),
            ]) == 0
            assert main([
                "bench", str(grid),
                str(root / "records.csv"), str(root / "summary.json"),
                "--trials", "2",
            ]) == 0
            fixed = [
                (root / name).read_bytes()
                for name in (
                    "markers.csv", "skin.stl", "skin.obj",
                    "scene_ct.csv", "scene_device.csv", "scene_truth.json",
                    "reg.json", "icp.json",
                )
            ]
            outputs[run] = (fixed, _strip_timing(root / "records.csv", root / "summary.json"))
        assert outputs["a"] == outputs["b"]
