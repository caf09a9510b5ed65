"""register() against its per-candidate formulation (reference_impls).

Both sides see the same CT markers and device markers in the same insertion
order. The winning triangle, the flip flag, the shape distance, the inlier
count and the number of triples scored must be identical; the transform and
rmsd must agree within 1e-9; failures must raise the same error with the
same message.
"""

import itertools

import numpy as np
import pytest

from fidreg.bench import SceneSpec, generate_scene
from fidreg.errors import DomainError
from fidreg.markers import SCAN_BLOCK, MarkerSet, nearest_markers
from fidreg.rigid import apply_rigid_stack, axis_angle_rotation
from fidreg.triangles import (
    _TRIPLE_BLOCK,
    RegistrationConfig,
    TriangleTable,
    _nearest_device,
    _scores,
    register,
)

from reference_impls import loop_register


def outcome(ct_points, device_points, config):
    """(package result or error, loop result or error) for one scene."""
    table = TriangleTable()
    for point in device_points:
        table.insert_marker(point)
    try:
        got = register(MarkerSet("ct", ct_points), table, config)
    except DomainError as exc:
        got = exc
    try:
        want = loop_register(ct_points, device_points, config)
    except DomainError as exc:
        want = exc
    return got, want


def assert_same(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want), f"got {got!r}, want {want!r}"
        assert str(got) == str(want)
        return
    assert not isinstance(got, Exception), f"got {got!r}, want a registration"
    assert list(got.matched_triangle.marker_indices) == want["matched_marker_indices"]
    assert got.flipped == want["flipped"]
    assert got.shape_distance == want["shape_distance"]
    assert (got.inliers, got.triples_scored) == (want["inliers"], want["triples_scored"])
    assert abs(got.rmsd - want["rmsd"]) <= 1e-9
    np.testing.assert_allclose(got.transform.rotation, want["transform"].rotation, rtol=0, atol=1e-9)
    np.testing.assert_allclose(
        got.transform.translation, want["transform"].translation, rtol=0, atol=1e-9
    )


def check(ct_points, device_points, config=None):
    got, want = outcome(ct_points, device_points, config or RegistrationConfig())
    assert_same(got, want)
    return got


@pytest.mark.parametrize("sigma", [0.0, 1.0, 2.0])
def test_generated_scenes_with_dropouts_and_decoys(sigma):
    cases = itertools.product(range(3, 9), [(0, 0), (1, 2), (2, 1)], range(4))
    for n, (dropout, decoys), seed in cases:
        if n - dropout < 3:
            continue
        spec = SceneSpec(
            n_markers=n,
            noise_sigma_mm=sigma,
            dropout_count=dropout,
            decoy_count=decoys,
            seed=9000 + 100 * n + 10 * dropout + seed,
        )
        ct, device, _ = generate_scene(spec)
        check(ct.points, device.points)


def polygon(sides, radius, lift=0.0):
    angles = 2.0 * np.pi * np.arange(sides) / sides
    return np.stack([radius * np.cos(angles), radius * np.sin(angles), lift * np.cos(3 * angles)], axis=1)


@pytest.mark.parametrize("stretch_mm", [0.0, 0.5, 5.0])
def test_symmetric_layouts_with_edge_ties(stretch_mm):
    # regular polygons give isosceles and equilateral triangles whose edges
    # tie exactly (noise 0) or nearly (noise 0.05 mm); pushing the first
    # vertex out by stretch_mm leaves the ties among the other vertices and
    # opens a gap of about stretch_mm in the edges that meet it
    rng = np.random.default_rng(4242)
    layouts = [polygon(3, 60.0), polygon(4, 60.0), polygon(5, 70.0, 8.0), polygon(6, 50.0)]
    layouts.append(np.vstack([polygon(3, 60.0), polygon(3, 30.0, 5.0) + [0.0, 0.0, 40.0]]))
    for layout in layouts:
        layout[0, :2] *= 1.0 + stretch_mm / np.linalg.norm(layout[0, :2])
    for layout, noise, mirrored in itertools.product(layouts, [0.0, 0.05], [False, True]):
        rotation = axis_angle_rotation(rng.normal(size=3), rng.uniform(0.1, 3.0))
        device = layout @ rotation.T + rng.uniform(-50.0, 50.0, 3)
        if mirrored:
            device = device * np.array([1.0, 1.0, -1.0])
        device = device + rng.normal(0.0, noise, device.shape)
        check(layout, device[rng.permutation(len(device))])


def test_k_larger_than_the_table():
    rng = np.random.default_rng(77)
    for n_device, k in [(3, 5), (4, 50), (5, 10)]:
        ct = rng.uniform(-80.0, 80.0, (5, 3))
        device = ct[:n_device] @ axis_angle_rotation([0.3, 1.0, 0.2], 1.1).T + 12.0
        device = device + rng.normal(0.0, 0.5, device.shape)
        check(ct, device, RegistrationConfig(k=k))


def test_degenerate_ct_triples_are_skipped_or_reported():
    rng = np.random.default_rng(91)
    # three collinear CT markers: their triple is degenerate, the rest are not
    ct = np.vstack([[[0.0, 0.0, 0.0], [40.0, 0.0, 0.0], [80.0, 0.0, 0.0]], rng.uniform(-60, 60, (3, 3))])
    device = ct @ axis_angle_rotation([1.0, 0.0, 1.0], 0.7).T - 20.0
    got = check(ct, device)
    assert got.rmsd < 1e-9
    # all CT triples degenerate
    line = np.outer(np.arange(5.0), [3.0, 1.0, 2.0])
    got = check(line, device)
    assert "every CT marker triple is degenerate" in str(got)


def test_a_device_table_of_degenerate_triples_is_reported():
    ct = np.random.default_rng(92).uniform(-60.0, 60.0, (5, 3))
    for count in (3, 4):  # collinear device markers: not a missing table
        got = check(ct, np.outer(np.arange(float(count)), [3.0, 1.0, 2.0]))
        assert "every device marker triple is degenerate" in str(got)
    # two copies of one marker and a third: every triple is degenerate
    got = check(ct, np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [9.0, 0.0, 4.0]]))
    assert "every device marker triple is degenerate" in str(got)


def test_no_match_reports_the_same_best_rejected_candidate():
    for seed in range(5):
        spec = SceneSpec(n_markers=6, noise_sigma_mm=2.0, decoy_count=2, seed=700 + seed)
        ct, device, _ = generate_scene(spec)
        got = check(ct.points, device.points * 1.5, RegistrationConfig(scale_tolerance_mm=0.01))
        assert "best rejected candidate" in str(got)


def test_insufficient_and_empty_inputs():
    ct = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
    check(ct[:2], ct)
    check(ct, ct[:2])


INTEGER_LAYOUTS = [
    np.array([[0, 0, 0], [40, 0, 0], [40, 40, 0], [0, 40, 0]]),  # square
    np.array([[0, 0, 0], [30, 0, 0], [30, 40, 0], [0, 40, 0]]),  # 3-4-5 rectangle
    np.array([[0, 30, 0], [-20, 0, 0], [20, 0, 0], [0, 0, 25]]),  # isosceles, long base
    np.array([[0, 40, 0], [-10, 0, 0], [10, 0, 0], [0, 10, 30]]),  # isosceles, short base
    np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) * 20,  # equilateral faces
    np.array([[0, 0, 0], [40, 0, 0], [40, 40, 0], [0, 40, 0], [20, 20, 30]]),  # pyramid
]
EXACT_MOTIONS = [
    np.eye(3),
    np.diag([-1.0, -1.0, 1.0]),  # half-turn about z
    np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),  # quarter-turn
    np.diag([1.0, 1.0, -1.0]),  # mirror: no proper motion fits
]


@pytest.mark.parametrize("config", [
    RegistrationConfig(),
    RegistrationConfig(k=1),
    RegistrationConfig(k=2),
])
def test_exact_ties_in_noise_free_integer_scenes(config):
    # integer coordinates under exact motions make fit residuals and shape
    # distances tie exactly, so each tie-break rule decides the winner:
    # insertion order in the shape kNN, the first best vertex pairing, then
    # the rank's (inliers, reach, inlier RMS, shape distance, indices)
    for layout, motion in itertools.product(INTEGER_LAYOUTS, EXACT_MOTIONS):
        layout = layout.astype(np.float64)
        device = layout @ motion.T + np.array([7.0, -3.0, 11.0])
        check(layout, device, config)
        check(layout, device[::-1], config)


def test_scale_gate_boundary_and_rejected_ties():
    ct = np.array([[0.0, 0.0, 0.0], [30.0, 0.0, 0.0], [30.0, 40.0, 0.0]])
    # longest edges 50 and 55 mm: a gap of exactly the 5 mm tolerance passes
    got = check(ct, ct * 1.1)
    assert got.shape_distance == 0.0
    # two rejected candidates with the same shape distance (power-of-two
    # scales keep the key bit-identical): the first in shape order is named
    device = np.vstack([ct * 2.0, ct * 4.0 + 1000.0])
    got = check(ct, device, RegistrationConfig(scale_tolerance_mm=1.0))
    assert "longest-edge gap 50 mm" in str(got)


def test_scenes_large_enough_to_span_several_scan_blocks():
    # the shape kNN takes the _TRIPLE_BLOCK CT triples of a block and scans
    # their distances to the stored keys in chunks of at most SCAN_BLOCK
    # entries; 21 device markers store 1330 triangles, so a block takes two
    spec = SceneSpec(n_markers=20, noise_sigma_mm=1.0, dropout_count=1, decoy_count=2, seed=2001)
    ct, device, _ = generate_scene(spec)
    table = TriangleTable()
    table.insert_marker(device.points)
    assert SCAN_BLOCK // table.n_triangles < _TRIPLE_BLOCK
    check(ct.points, device.points)


@pytest.mark.parametrize("dropout, decoys", [(1, 2), (2, 4)])
def test_the_stop_rule_holds_after_a_block_that_rejects_every_candidate(dropout, decoys):
    # the first block's best candidate has 33 (or 32) inliers of 40, a bound
    # of 16.8 (or 19.3) triples; every candidate of the second block fails
    # the scale gate, and scoring stops right after it
    spec = SceneSpec(
        n_markers=40, noise_sigma_mm=2.0, dropout_count=dropout, decoy_count=decoys, seed=110003
    )
    ct, device, _ = generate_scene(spec)
    got = check(ct.points, device.points)
    assert got.triples_scored == 2 * _TRIPLE_BLOCK


def test_candidate_scores_do_not_depend_on_the_block_they_fall_in():
    rng = np.random.default_rng(31)
    ct, device = rng.uniform(-100, 100, (9, 3)), rng.uniform(-100, 100, (11, 3))
    device[:2] = [[10.0, 20.0, 26.0], [10.0, 20.0, 34.0]]
    block = SCAN_BLOCK // (len(ct) * len(device))
    count = 3 * block + 5
    rotation = np.stack([axis_angle_rotation(axis, 0.7) for axis in rng.normal(size=(count, 3))])
    translation = rng.uniform(-20, 20, (count, 3))
    nearest_sq, partner = _nearest_device(rotation, translation, ct, device)
    assert (partner >= 0).any() and (partner < 0).any()
    for row in [0, 1, count // 2, count - 1]:
        single = _nearest_device(rotation[row : row + 1], translation[row : row + 1], ct, device)
        np.testing.assert_array_equal(single[0][0], nearest_sq[row])
        np.testing.assert_array_equal(single[1][0], partner[row])

    # The shared scan: each set's results alone and inside the stack. In the
    # tie sets, marker 0 lies 4 mm from device markers 0 and 1 (its nearest
    # is the first), and marker 1 lies 4 mm from device marker 0 (whose
    # nearest in the set is marker 0, the first).
    sets = apply_rigid_stack(rotation, translation, ct)
    ties = [0, block - 1, block, count - 1]
    sets[ties, :2] = [[10.0, 20.0, 30.0], [10.0, 20.0, 22.0]]
    stacked = nearest_markers(sets, device)
    for row in range(count):
        for alone, within in zip(nearest_markers(sets[row : row + 1], device), stacked):
            np.testing.assert_array_equal(alone[0], within[row])
    stacked_sq, index, mutual = stacked
    assert stacked_sq[ties, :2].tolist() == [[16.0, 16.0]] * 4
    assert index[ties, :2].tolist() == [[0, 0]] * 4
    assert mutual[ties, :2].tolist() == [[True, False]] * 4


def test_refit_pairs_are_mutual_first_on_ties_and_within_the_refit_gate():
    # the identity maps integer CT markers exactly, so every distance is exact
    identity, zero = np.eye(3)[None], np.zeros((1, 3))
    ct = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0], [200.0, 0.0, 0.0], [300.0, 0.0, 0.0]])
    device = np.array([
        [5.0, 0.0, 0.0], [-5.0, 0.0, 0.0],  # tie for CT 0: the first is its nearest
        [112.0, 0.0, 0.0],  # exactly at the 12 mm refit gate from CT 1
        [200.0, np.nextafter(12.0, np.inf), 0.0],  # just past it from CT 2
        [350.0, 0.0, 0.0],  # CT 3's mutual nearest, 50 mm off
    ])
    nearest_sq, partner = _nearest_device(identity, zero, ct, device)
    assert nearest_sq[0, [0, 1, 3]].tolist() == [25.0, 144.0, 2500.0]
    assert partner[0].tolist() == [0, 2, -1, -1]
    # two CT markers tie for one device marker: it pairs with the first
    nearest_sq, partner = _nearest_device(
        identity, zero, np.array([[0.0, 0.0, 0.0], [12.0, 0.0, 0.0]]), np.array([[6.0, 0.0, 0.0]])
    )
    assert nearest_sq[0].tolist() == [36.0, 36.0] and partner[0].tolist() == [0, -1]


def test_a_marker_exactly_at_the_gate_is_an_inlier():
    scores = _scores(np.array([[36.0, np.nextafter(36.0, np.inf), 1.0, 0.0]]))
    assert scores.inliers.tolist() == [3]
    assert scores.inlier_sq.tolist() == [37.0]
    assert scores.rmsd.tolist() == [np.sqrt((73.0 + np.nextafter(36.0, np.inf) - 36.0) / 4)]


CUBE = np.array(list(itertools.product((0.0, 40.0), repeat=3)))


@pytest.mark.parametrize("dropped", [(0, 4), (1, 3), (0, 6)])
def test_rank_ties_across_blocks_keep_the_first_visited(dropped):
    # two corners of a noise-free cube missing on the device side: w = 6/8
    # needs a second block, and congruent triples in both blocks tie exactly
    keep = [i for i in range(8) if i not in dropped]
    for motion in EXACT_MOTIONS[:3]:
        device = CUBE[keep] @ motion.T + np.array([7.0, -3.0, 11.0])
        for order in (device, device[::-1]):
            got = check(CUBE, order)
            assert got.triples_scored > _TRIPLE_BLOCK and got.inliers == 6


def test_best_rejected_candidate_is_the_first_ct_triple_among_equal_shape_distances():
    # two 3-4-5 CT triangles (longest edges 5 and 10 mm) both key exactly like
    # the device's 12-16-20 triangle; the first in combinations order is named
    small = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    ct = np.vstack([small, small * 2.0 + [100.0, 0.0, 0.0]])
    got = check(ct, small * 4.0, RegistrationConfig(scale_tolerance_mm=1.0))
    assert "shape distance 0, longest-edge gap 15 mm" in str(got)


def test_no_refit_when_the_winners_own_triple_is_not_all_paired():
    # an extra CT marker sits beside marker 0 with no device partner, and
    # marker 0's device partner lies nearer to it than to marker 0: marker 0
    # has no refit pair, so a winning triple that holds it keeps its own fit
    rng = np.random.default_rng(1)
    ct = rng.uniform(-80, 80, (6, 3))
    extra = ct[0] + rng.normal(0, 1, 3) * rng.uniform(1, 4)
    rotation = axis_angle_rotation(rng.normal(size=3), rng.uniform(0.2, 2.5))
    translation = rng.uniform(-50, 50, 3)
    device = ct @ rotation.T + translation + rng.normal(0, rng.uniform(0, 1.5), (6, 3))
    device[0] = (ct[0] + rng.uniform(0.5, 0.9) * (extra - ct[0])) @ rotation.T + translation
    check(np.vstack([ct, extra]), device[rng.permutation(6)])


@pytest.mark.parametrize("seed", [9489, 9495])
def test_reach_breaks_ties_in_the_inlier_count(seed):
    # sigma = 3 mm: candidates with three inliers each differ in reach
    ct, device, _ = generate_scene(SceneSpec(n_markers=4, noise_sigma_mm=3.0, seed=seed))
    check(ct.points, device.points)


def test_refit_pairs_only_mutual_nearest_markers():
    # CT marker 6 sits 3 mm from marker 0 and has no device partner: its
    # nearest device marker is marker 0's, within the gate but not mutual,
    # so the refit leaves it out and recovers the motion exactly
    rng = np.random.default_rng(12)
    ct = rng.uniform(-80.0, 80.0, (7, 3))
    ct[6] = ct[0] + [3.0, 0.0, 0.0]
    rotation = axis_angle_rotation([0.2, 1.0, -0.4], 0.9)
    device = ct[:6] @ rotation.T + [4.0, 5.0, -6.0]
    got = check(ct, device)
    assert got.inliers == 7
    np.testing.assert_allclose(got.transform.rotation, rotation, rtol=0, atol=1e-12)
