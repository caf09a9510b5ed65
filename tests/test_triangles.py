import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fidreg.triangles

from fidreg.config import ConfigError
from fidreg.errors import (
    DegenerateTriangleError,
    InsufficientMarkersError,
    NoMatchError,
)
from fidreg.markers import MarkerSet
from fidreg.rigid import (
    COLLINEARITY_RATIO,
    PointCorrespondences,
    RigidTransform,
    _collinear,
    absolute_orientation,
    axis_angle_rotation,
    center_points,
)
from fidreg.triangles import (
    _PLANE_AREA_RATIO,
    _PLANE_OFFSET_RATIO,
    RegistrationConfig,
    TriangleKey,
    TriangleTable,
    align_with_flip,
    canonical_correspondence,
    register,
    triangle_key,
    _all_triples,
    _canonical_perm,
    _completed_triples,
    _edge_lengths,
    _spans_plane,
    _tie_permutations,
    _triangle_shapes,
)

from reference_impls import loop_register


def key_of(points):
    return triangle_key(points[0], points[1], points[2])


def canonical_order(points):
    return points[list(_canonical_perm(_edge_lengths(points)))]


def test_3_4_5_key_is_exact():
    key = triangle_key(
        np.array([0.0, 0.0, 0.0]), np.array([3.0, 0.0, 0.0]), np.array([3.0, 4.0, 0.0])
    )
    assert key.r2 == 0.6
    assert key.r3 == 0.8
    assert key.e1 == 5.0


vertex = st.tuples(
    st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)
)


def nondegenerate(tri):
    p = np.array(tri, dtype=np.float64)
    area = 0.5 * np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0]))
    longest = max(np.linalg.norm(p[i] - p[j]) for i, j in [(0, 1), (1, 2), (2, 0)])
    return longest > 0 and area > 1e-3 * longest**2


@given(st.tuples(vertex, vertex, vertex).filter(nondegenerate))
def test_key_invariants_and_vertex_order_independence(tri):
    points = np.array(tri, dtype=np.float64)
    key = key_of(points)
    assert 0 < key.r2 <= key.r3 <= 1
    assert key.r2 + key.r3 > 1
    pairwise = [np.linalg.norm(points[i] - points[j]) for i, j in [(0, 1), (1, 2), (2, 0)]]
    assert key.e1 == max(pairwise)
    # same floats, same divisions: every vertex order gives the identical key
    for perm in itertools.permutations(range(3)):
        assert key_of(points[list(perm)]) == key


def test_key_rigid_motion_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        points = rng.uniform(-100, 100, (3, 3))
        if not nondegenerate(points):
            continue
        key = key_of(points)
        rotation = axis_angle_rotation(rng.normal(size=3), rng.uniform(0, np.pi))
        moved = points @ rotation.T + rng.uniform(-50, 50, 3)
        moved_key = key_of(moved)
        assert moved_key.r2 == pytest.approx(key.r2, rel=1e-12)
        assert moved_key.r3 == pytest.approx(key.r3, rel=1e-12)
        assert moved_key.e1 == pytest.approx(key.e1, rel=1e-12)


def test_shape_part_is_scale_invariant():
    points = np.array([[0.0, 0.0, 0.0], [7.0, 1.0, 0.0], [2.0, 5.0, 3.0]])
    key = key_of(points)
    # power-of-two scale: ratios are bit-identical, e1 scales exactly
    scaled_key = key_of(points * 8.0)
    assert (scaled_key.r2, scaled_key.r3) == (key.r2, key.r3)
    assert scaled_key.e1 == 8.0 * key.e1
    # arbitrary scale: ratios agree to rounding
    general = key_of(points * 1.37)
    assert general.r2 == pytest.approx(key.r2, rel=1e-12)
    assert general.r3 == pytest.approx(key.r3, rel=1e-12)


def test_degenerate_triangles_are_rejected():
    a, b = np.array([0.0, 0.0, 0.0]), np.array([10.0, 0.0, 0.0])
    with pytest.raises(DegenerateTriangleError, match="too thin"):
        triangle_key(a, b, np.array([5.0, 0.0, 0.0]))
    with pytest.raises(DegenerateTriangleError):
        triangle_key(a, a, a)
    # sliver below the area ratio gate
    with pytest.raises(DegenerateTriangleError):
        triangle_key(a, b, np.array([5.0, 1e-7, 0.0]))
    # same sliver passes with a looser gate
    key = triangle_key(a, b, np.array([5.0, 1e-7, 0.0]), degeneracy_ratio=1e-12)
    assert key.e1 == 10.0


def test_key_validation():
    with pytest.raises(ValueError, match="e1"):
        TriangleKey(r2=0.6, r3=0.8, e1=0.0)
    with pytest.raises(ValueError, match="r2"):
        TriangleKey(r2=0.9, r3=0.8, e1=1.0)
    with pytest.raises(ValueError, match="triangle inequality"):
        TriangleKey(r2=0.3, r3=0.5, e1=1.0)


def test_insert_counts_match_combinations():
    rng = np.random.default_rng(1)
    table = TriangleTable()
    counts = [table.insert_marker(rng.uniform(0, 100, 3)) for _ in range(6)]
    # the i-th marker completes C(i, 2) new triangles
    assert counts == [0, 0, 1, 3, 6, 10]
    assert table.n_triangles == 20  # C(6, 3)
    assert table.degenerate_skipped == 0


def test_degenerate_triples_are_counted_not_stored():
    table = TriangleTable()
    table.insert_marker(np.array([0.0, 0.0, 0.0]))
    table.insert_marker(np.array([5.0, 0.0, 0.0]))
    assert table.insert_marker(np.array([10.0, 0.0, 0.0])) == 0  # collinear
    assert table.degenerate_skipped == 1
    assert table.insert_marker(np.array([0.0, 8.0, 0.0])) == 3
    assert table.n_triangles == 3


# Device markers for the batch tests: a few grid positions (so coincident
# and collinear triples are common) and free points.
_grid_point = st.tuples(*[st.sampled_from([0.0, 10.0, 20.0])] * 3)
_free_point = st.tuples(*[st.floats(-100, 100, allow_nan=False)] * 3)
_marker_lists = st.lists(st.one_of(_grid_point, _free_point), max_size=14)


@given(_marker_lists, st.lists(st.integers(0, 14), max_size=5))
def test_batch_inserts_match_one_point_at_a_time(markers, cuts):
    points = np.array(markers, dtype=np.float64).reshape(-1, 3)
    single = TriangleTable()
    single_total = sum(single.insert_marker(p) for p in points)
    batched = TriangleTable()
    bounds = [0, *sorted(min(c, len(points)) for c in cuts), len(points)]
    batched_total = sum(batched.insert_marker(points[a:b]) for a, b in zip(bounds, bounds[1:]))
    assert batched_total == single_total == batched.n_triangles
    assert np.array_equal(batched.keys, single.keys)
    assert np.array_equal(batched.e1, single.e1)
    assert np.array_equal(batched.indices, single.indices)
    assert batched.degenerate_skipped == single.degenerate_skipped
    assert np.array_equal(batched.marker_array(), single.marker_array())


def test_triple_indices_follow_their_documented_orders():
    # register ranks tied candidates by CT triple in combinations order;
    # a table stores triples by newest marker, then combinations order.
    for count in range(12):
        assert _all_triples(count).tolist() == [list(t) for t in itertools.combinations(range(count), 3)]
        for start in range(count + 1):
            expected = [[a, b, c] for c in range(start, count) for a, b in itertools.combinations(range(c), 2)]
            assert _completed_triples(start, count).tolist() == expected


def test_batch_inserts_match_on_a_larger_table():
    points = np.random.default_rng(3).uniform(-50, 50, (40, 3))
    single = TriangleTable()
    for p in points:
        single.insert_marker(p)
    batched = TriangleTable()
    for a, b in zip([0, 1, 15, 17, 33], [1, 15, 17, 33, 40]):
        batched.insert_marker(points[a:b])
    assert np.array_equal(batched.indices, single.indices)
    assert np.array_equal(batched.keys, single.keys)
    assert batched.n_triangles == 9880  # C(40, 3)


def test_batch_insert_rejects_bad_points_and_leaves_the_table_alone():
    table = TriangleTable()
    table.insert_marker(np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 7.0, 2.0]]))
    before = (table.keys.copy(), table.e1.copy(), table.indices.copy(), table.degenerate_skipped)
    assert before[3] == 2  # the two triples holding both copies of the origin
    for bad in (
        np.array([[1.0, 2.0, 3.0], [np.nan, 0.0, 0.0]]),
        np.array([[np.inf, 0.0, 0.0]]),
        np.zeros((2, 2)),
        np.zeros(4),
        np.zeros((1, 1, 3)),
    ):
        with pytest.raises(ValueError):
            table.insert_marker(bad)
    with pytest.raises(ValueError, match="finite"):
        table.insert_marker(np.array([0.0, -np.inf, 0.0]))
    assert len(table.markers) == 4
    assert np.array_equal(table.keys, before[0])
    assert np.array_equal(table.e1, before[1])
    assert np.array_equal(table.indices, before[2])
    assert table.degenerate_skipped == before[3]
    assert table.insert_marker(np.zeros((0, 3))) == 0
    # C(4, 2) = 6 new triples, one of them holding both copies of the origin
    assert table.insert_marker(np.array([[3.0, 3.0, 9.0]])) == 5
    assert table.degenerate_skipped == 3


def test_query_nearest_matches_exhaustive_shape_distance():
    rng = np.random.default_rng(7)
    table = TriangleTable()
    markers = rng.uniform(0, 200, (8, 3))
    for m in markers:
        table.insert_marker(m)
    probe = triangle_key(*rng.uniform(0, 200, (3, 3)))
    got = table.query_nearest(probe, k=table.n_triangles)
    assert len(got) == table.n_triangles
    brute = []
    for triple in itertools.combinations(range(8), 3):
        key = triangle_key(*markers[list(triple)])
        brute.append(float(np.hypot(key.r2 - probe.r2, key.r3 - probe.r3)))
    brute.sort()
    np.testing.assert_allclose([d for _, d in got], brute, rtol=1e-12)
    # returned shape distances really are distances to the candidate's own key
    for candidate, distance in got[:5]:
        assert distance == pytest.approx(
            np.hypot(candidate.key.r2 - probe.r2, candidate.key.r3 - probe.r3), rel=1e-12
        )


def test_query_nearest_ties_break_by_insertion_order():
    table = TriangleTable()
    probe = triangle_key(np.zeros(3), np.array([40.0, 0.0, 0.0]), np.array([40.0, 40.0, 0.0]))
    assert table.query_nearest(probe, k=3) == []
    for corner in [[0.0, 0.0, 0.0], [40.0, 0.0, 0.0], [40.0, 40.0, 0.0], [0.0, 40.0, 0.0]]:
        table.insert_marker(np.array(corner))
    # a square's four triangles are congruent: identical keys, tied distances
    stored = [tuple(int(i) for i in row) for row in table.indices]
    got = table.query_nearest(probe, k=10)
    assert [d for _, d in got] == [0.0] * 4
    assert [c.marker_indices for c, _ in got] == stored
    assert [c.marker_indices for c, _ in table.query_nearest(probe, k=2)] == stored[:2]
    with pytest.raises(ValueError, match="k must be"):
        table.query_nearest(probe, k=0)


def test_sliver_whose_edge_ratios_round_to_a_line_is_degenerate():
    # legs of exactly 0.5 and a longest edge of 1: r2 + r3 rounds to 1, so the
    # key would describe no triangle even though the area gate passes
    a, b, c = np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([0.5, 1e-9, 0.0])
    with pytest.raises(DegenerateTriangleError, match="too thin"):
        triangle_key(a, b, c, degeneracy_ratio=1e-12)
    table = TriangleTable(degeneracy_ratio=1e-12)
    assert [table.insert_marker(p) for p in (a, b, c)] == [0, 0, 0]
    assert table.degenerate_skipped == 1


def test_stored_indices_are_canonically_ordered():
    rng = np.random.default_rng(11)
    table = TriangleTable()
    markers = rng.uniform(0, 100, (5, 3))
    for m in markers:
        table.insert_marker(m)
    probe = triangle_key(*markers[:3])
    for candidate, _ in table.query_nearest(probe, k=table.n_triangles):
        points = table.triangle_points(candidate)
        assert _canonical_perm(_edge_lengths(points)) == (0, 1, 2)


def test_canonical_correspondence_unscrambles_vertex_order():
    rng = np.random.default_rng(5)
    ct = rng.uniform(0, 100, (3, 3))
    rotation = axis_angle_rotation([1.0, 1.0, 0.0], 0.8)
    dev = ct @ rotation.T + np.array([10.0, 20.0, 30.0])
    for ct_perm in itertools.permutations(range(3)):
        for dev_perm in itertools.permutations(range(3)):
            corr = canonical_correspondence(ct[list(ct_perm)], dev[list(dev_perm)])
            _, rmsd = absolute_orientation(corr)
            assert rmsd < 1e-9


def test_canonical_correspondence_errors():
    tri = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 7.0, 0.0]])
    line = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [20.0, 0.0, 0.0]])
    with pytest.raises(DegenerateTriangleError, match="no alignable vertex pairing"):
        canonical_correspondence(line, tri)
    # a malformed input is an error of its own, not a degenerate pairing
    broken = tri.copy()
    broken[1, 0] = np.nan
    for ct, dev in ((broken, tri), (tri, broken)):
        with pytest.raises(ValueError, match="finite"):
            canonical_correspondence(ct, dev)


def test_equilateral_ties_try_all_six_pairings():
    eq = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, np.sqrt(3.0) / 2.0, 0.0]])
    assert len(_tie_permutations(eq, eq, None)) == 6
    rotated = eq @ axis_angle_rotation([0.0, 0.0, 1.0], 2.0).T
    corr = canonical_correspondence(eq, rotated)
    _, rmsd = absolute_orientation(corr)
    assert rmsd < 1e-9


def test_align_with_flip_plain_case():
    rng = np.random.default_rng(13)
    for _ in range(20):
        source = rng.uniform(-50, 50, (3, 3))
        if not nondegenerate(source):
            continue
        rotation = axis_angle_rotation(rng.normal(size=3), rng.uniform(0.1, 3.0))
        translation = rng.uniform(-100, 100, 3)
        target = source @ rotation.T + translation
        transform, rmsd, flipped = align_with_flip(PointCorrespondences(source, target))
        assert not flipped
        assert rmsd < 1e-9
        assert np.linalg.det(transform.rotation) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(transform.rotation, rotation, atol=1e-9)


def test_align_with_flip_recovers_reversed_pairing():
    rng = np.random.default_rng(17)
    for _ in range(20):
        points = rng.uniform(-50, 50, (3, 3))
        if not nondegenerate(points):
            continue
        source = canonical_order(points)
        motion = RigidTransform(
            axis_angle_rotation(rng.normal(size=3), rng.uniform(0.1, 3.0)),
            rng.uniform(-100, 100, 3),
        )
        # exchange the two vertices adjacent to the longest edge: the pairing a
        # mirror-ambiguous detection hands us
        target = motion.apply(source)[[0, 2, 1]]
        transform, rmsd, flipped = align_with_flip(PointCorrespondences(source, target))
        assert flipped
        assert rmsd < 1e-9
        assert np.linalg.det(transform.rotation) == pytest.approx(1.0, abs=1e-12)
        brute = min(
            absolute_orientation(PointCorrespondences(source, target[list(p)]))[1]
            for p in itertools.permutations(range(3))
        )
        assert rmsd == pytest.approx(brute, abs=1e-9)


def test_align_with_flip_requires_three_points():
    quad = np.zeros((4, 3))
    quad[1, 0] = quad[2, 1] = quad[3, 2] = 1.0
    with pytest.raises(ValueError, match="exactly 3"):
        align_with_flip(PointCorrespondences(quad, quad))


def make_scene(seed, n=6):
    rng = np.random.default_rng(seed)
    ct_points = rng.uniform(-100, 100, (n, 3))
    rotation = axis_angle_rotation(rng.normal(size=3), rng.uniform(0.1, 3.0))
    translation = rng.uniform(-80, 80, 3)
    dev_points = ct_points @ rotation.T + translation
    table = TriangleTable()
    for p in dev_points[rng.permutation(n)]:
        table.insert_marker(p)
    return MarkerSet("ct", ct_points), table, rotation, translation, dev_points


def test_register_recovers_exact_transform():
    ct_markers, table, rotation, translation, dev_points = make_scene(23)
    result = register(ct_markers, table)
    assert result.rmsd < 1e-9
    assert not result.flipped
    np.testing.assert_allclose(result.transform.rotation, rotation, atol=1e-9)
    np.testing.assert_allclose(result.transform.translation, translation, atol=1e-7)
    # reported rmsd is the all-marker nearest-neighbour RMS, recomputed here
    mapped = result.transform.apply(ct_markers.points)
    nearest = np.sqrt(
        np.min(np.sum((mapped[:, None] - dev_points[None]) ** 2, axis=2), axis=1)
    )
    assert result.rmsd == pytest.approx(float(np.sqrt(np.mean(nearest**2))), rel=1e-12)


def test_register_scale_gate_rejects_same_shape_larger_triangle():
    ct_points = np.array(
        [[0.0, 0.0, 0.0], [30.0, 0.0, 0.0], [30.0, 40.0, 0.0]], dtype=np.float64
    )
    table = TriangleTable()
    for p in ct_points * 1.5:  # identical shape key, longest edge 25 mm larger
        table.insert_marker(p)
    with pytest.raises(NoMatchError, match="longest-edge gap"):
        register(MarkerSet("ct", ct_points), table)
    # widening the tolerance lets the same candidate through
    result = register(
        MarkerSet("ct", ct_points), table, RegistrationConfig(scale_tolerance_mm=30.0)
    )
    assert result.shape_distance < 1e-12


def test_register_prefers_true_match_over_scaled_decoy():
    ct_markers, table, rotation, _, _ = make_scene(29, n=5)
    for p in ct_markers.points[:3] * 3.0 + 500.0:  # decoy triangle, same shape
        table.insert_marker(p)
    result = register(ct_markers, table)
    assert result.rmsd < 1e-9
    np.testing.assert_allclose(result.transform.rotation, rotation, atol=1e-9)


def test_register_error_cases():
    ct_markers, table, *_ = make_scene(31)
    with pytest.raises(InsufficientMarkersError, match="found 2"):
        register(MarkerSet("ct", ct_markers.points[:2]), table)
    with pytest.raises(NoMatchError, match="no device triangles stored"):
        register(ct_markers, TriangleTable())
    collinear = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]]
    )
    with pytest.raises(DegenerateTriangleError, match="every CT marker triple"):
        register(MarkerSet("ct", collinear), table)


def test_registration_result_json_is_serializable():
    ct_markers, table, *_ = make_scene(37)
    result = register(ct_markers, table)
    payload = json.loads(json.dumps(result.to_json_dict()))
    assert set(payload) == {
        "transform",
        "matched_marker_indices",
        "shape_distance",
        "rmsd",
        "flipped",
    }
    assert payload["flipped"] is False
    assert len(payload["matched_marker_indices"]) == 3
    assert payload["rmsd"] == result.rmsd


def test_config_round_trip_and_validation():
    config = RegistrationConfig(k=7, scale_tolerance_mm=2.5, tie_epsilon_mm=0.1)
    assert RegistrationConfig.from_text(config.to_text()) == config
    assert RegistrationConfig.from_text("") == RegistrationConfig()
    with pytest.raises(ConfigError, match="k must be"):
        RegistrationConfig(k=0)
    with pytest.raises(ConfigError, match="non-negative"):
        RegistrationConfig(scale_tolerance_mm=-1.0)
    with pytest.raises(ConfigError, match="unknown key"):
        RegistrationConfig.from_text("knn = 3\n")


def thin_triangles(rng, count, scale, offset):
    """Triangles whose area / e1**2 spreads over 0.05 .. 8 * COLLINEARITY_RATIO."""
    a = rng.normal(size=(count, 3))
    b = rng.normal(size=(count, 3))
    base = b - a
    length = np.linalg.norm(base, axis=1)[:, None]
    normal = np.cross(base, rng.normal(size=(count, 3)))
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    ratio = COLLINEARITY_RATIO * np.exp(rng.uniform(np.log(0.05), np.log(8.0), size=(count, 1)))
    t = rng.uniform(0.0, 1.0, size=(count, 1))
    # area = length * height / 2 = ratio * length**2 while e1 is the base
    c = a + t * base + 2.0 * ratio * length * normal
    shift = offset * rng.normal(size=(count, 1, 3))
    return np.stack([a, b, c], axis=1) * scale + shift


@given(
    seed=st.integers(0, 2**32 - 1),
    scale_exp=st.floats(-3.0, 3.0),
    offset_exp=st.floats(-3.0, 6.0),
)
def test_area_bound_clears_only_triangles_that_span_a_plane(seed, scale_exp, offset_exp):
    scale = 10.0**scale_exp
    points = thin_triangles(np.random.default_rng(seed), 64, scale, scale * 10.0**offset_exp)
    shapes = _triangle_shapes(points, 1e-15)
    centroid, centered = center_points(points)
    cleared = (shapes.area > _PLANE_AREA_RATIO * shapes.e1**2) & (
        np.abs(centroid).max(axis=-1) < _PLANE_OFFSET_RATIO * shapes.e1
    )
    assert cleared.any() and not cleared.all()
    assert not _collinear(centered[cleared]).any()
    assert np.array_equal(
        _spans_plane(centroid, centered, shapes.area, shapes.e1), ~_collinear(centered)
    )


def sliver_scene(seed):
    """Eight CT markers and their device image.

    Triple (0, 1, 7) has area 1.5e-9 * e1**2, which the area bound leaves to
    the SVD; so do some of the other triples through 0 and 7.
    """
    rng = np.random.default_rng(seed)
    ct = rng.uniform(-50.0, 50.0, size=(8, 3))
    base = ct[1] - ct[0]
    length = np.linalg.norm(base)
    normal = np.cross(base, [0.0, 0.0, 1.0])
    normal /= np.linalg.norm(normal)
    ct[7] = ct[0] + 1e-9 * base + 3e-9 * length * normal
    rotation = axis_angle_rotation(np.array([1.0, 2.0, 3.0]), 0.4)
    return ct, RigidTransform(rotation, np.array([5.0, -3.0, 2.0])).apply(ct)


@pytest.mark.parametrize("seed", [0, 2])  # seed 2: a sliver the SVD finds collinear
def test_register_asks_the_svd_about_uncleared_slivers(seed):
    ct, device = sliver_scene(seed)
    config = RegistrationConfig(degeneracy_ratio=1e-15)
    table = TriangleTable(degeneracy_ratio=1e-15)
    table.insert_marker(device)
    shapes = _triangle_shapes(ct[_all_triples(len(ct))], 1e-15)
    uncleared = int(np.count_nonzero(~(shapes.area > _PLANE_AREA_RATIO * shapes.e1**2)))
    assert uncleared > 0
    with mock.patch.object(fidreg.triangles, "_collinear", wraps=_collinear) as svd:
        try:
            got = register(MarkerSet("ct", ct), table, config)
        except DegenerateTriangleError as exc:
            got = exc
    assert [len(call.args[0]) for call in svd.call_args_list] == [uncleared]
    try:
        want = loop_register(
            ct, device, config, table_degeneracy_ratio=1e-15, align_degeneracy_ratio=1e-15
        )
    except DegenerateTriangleError as exc:
        assert isinstance(got, DegenerateTriangleError) and str(got) == str(exc)
        assert seed == 2
        return
    assert seed == 0
    assert got.transform.rotation.tobytes() == want["transform"].rotation.tobytes()
    assert got.transform.translation.tobytes() == want["transform"].translation.tobytes()
    assert list(got.matched_triangle.marker_indices) == want["matched_marker_indices"]
    assert (got.shape_distance, got.rmsd, got.flipped) == (
        want["shape_distance"],
        want["rmsd"],
        want["flipped"],
    )
