import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fidreg.triangles

from fidreg.bench import SceneSpec, generate_scene, target_registration_error
from fidreg.config import ConfigError, write_json
from fidreg.errors import (
    DegenerateTriangleError,
    InsufficientMarkersError,
    NoMatchError,
)
from fidreg.markers import MAX_COORDINATE_MM, MarkerSet
from fidreg.rigid import (
    PointCorrespondences,
    RigidTransform,
    _collinear,
    absolute_orientation,
    axis_angle_rotation,
    center_points,
)
from fidreg.triangles import (
    DEGENERACY_RATIO,
    _TRIPLE_BLOCK,
    RegistrationConfig,
    TriangleKey,
    TriangleTable,
    align_with_flip,
    register,
    triangle_key,
    _all_triples,
    _canonical_perm,
    _canonical_perms,
    _completed_triples,
    _edge_lengths,
    _solve_pairings,
    _spread_order,
    _triples_needed,
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


def test_degenerate_triangles_are_rejected(monkeypatch):
    a, b = np.array([0.0, 0.0, 0.0]), np.array([10.0, 0.0, 0.0])
    with pytest.raises(DegenerateTriangleError, match="too thin"):
        triangle_key(a, b, np.array([5.0, 0.0, 0.0]))
    with pytest.raises(DegenerateTriangleError):
        triangle_key(a, a, a)
    # sliver below the area ratio gate
    with pytest.raises(DegenerateTriangleError):
        triangle_key(a, b, np.array([5.0, 1e-7, 0.0]))
    # same sliver passes with a looser gate
    monkeypatch.setattr(fidreg.triangles, "DEGENERACY_RATIO", 1e-12)
    key = triangle_key(a, b, np.array([5.0, 1e-7, 0.0]))
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
    assert np.array_equal(batched.markers, single.markers)


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


TETRAHEDRON = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_insert_marker_bounds_coordinates_and_leaves_the_table_alone():
    table = TriangleTable()
    assert table.insert_marker(TETRAHEDRON * -MAX_COORDINATE_MM) == 4  # at the bound
    for bad in (TETRAHEDRON * 1e300, [0.0, np.nextafter(MAX_COORDINATE_MM, np.inf), 0.0]):
        with pytest.raises(ValueError, match=r"device marker coordinate beyond 1e\+06 mm"):
            table.insert_marker(bad)
    assert (len(table.markers), table.n_triangles, table.degenerate_skipped) == (4, 4, 0)


def test_register_bounds_ct_coordinates_before_any_arithmetic():
    table = TriangleTable()
    table.insert_marker(TETRAHEDRON * 50.0)
    # unbounded, this overflows and blames degenerate CT triples
    with pytest.raises(ValueError, match=r"CT marker coordinate beyond 1e\+06 mm"):
        register(MarkerSet("ct", TETRAHEDRON * 1e154), table)
    # two CT markers beyond the bound: the bound is named, not the count
    with pytest.raises(ValueError, match="beyond"):
        register(MarkerSet("ct", TETRAHEDRON[:2] * 1e7), table)
    far = TETRAHEDRON * 50.0 + MAX_COORDINATE_MM - 50.0
    result = register(MarkerSet("ct", far), table)
    assert result.inliers == 4
    assert np.allclose(result.transform.translation, 50.0 - MAX_COORDINATE_MM, rtol=0, atol=1e-6)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [
    lambda tri: triangle_key(*tri),
    lambda tri: align_with_flip(PointCorrespondences(tri, tri)),
    lambda tri: absolute_orientation(PointCorrespondences(tri, tri)),
], ids=["triangle_key", "align_with_flip", "absolute_orientation"])
def test_public_fits_bound_coordinates_before_any_arithmetic(entry):
    # unbounded, the squared edges of this 3-4-5 triangle overflow
    tri = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    with pytest.raises(ValueError, match=r"coordinate beyond 1e\+06 mm"):
        entry(tri * 1e154)
    far = tri * 50.0 + MAX_COORDINATE_MM - 250.0
    entry(far)
    # a non-finite vertex is a bad input, not a degenerate triangle
    for bad in (np.nan, np.inf, -np.inf):
        broken = tri.copy()
        broken[1, 2] = bad
        with pytest.raises(ValueError, match="coordinates must be finite") as raised:
            entry(broken)
        assert not isinstance(raised.value, DegenerateTriangleError)


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


@pytest.mark.parametrize("k", [2.5, True, "2", None])
def test_query_nearest_refuses_a_k_that_is_not_an_integer(k):
    corners = np.array([[0.0, 0.0, 0.0], [40.0, 0.0, 0.0], [40.0, 40.0, 0.0]])
    table = TriangleTable()
    table.insert_marker(corners)
    probe = triangle_key(*corners)
    with pytest.raises(ValueError, match=f"^k must be an integer, got {k!r}$"):
        table.query_nearest(probe, k)
    assert len(table.query_nearest(probe, np.int64(1))) == 1


def test_stored_indices_are_canonically_ordered():
    rng = np.random.default_rng(11)
    table = TriangleTable()
    markers = rng.uniform(0, 100, (5, 3))
    for m in markers:
        table.insert_marker(m)
    probe = triangle_key(*markers[:3])
    for candidate, _ in table.query_nearest(probe, k=table.n_triangles):
        points = table.markers[list(candidate.marker_indices)]
        assert _canonical_perm(_edge_lengths(points)) == (0, 1, 2)


def ring(sides, radius, lift=0.0):
    angle = 2 * np.pi * np.arange(sides) / sides
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle), np.full(sides, lift)])


@pytest.mark.parametrize(
    "markers",
    [
        np.random.default_rng(4).uniform(-80, 80, (14, 3)),
        # integer grids repeat edge lengths exactly
        np.random.default_rng(6).integers(0, 4, (40, 3)).astype(np.float64),
        np.array(list(itertools.product((0.0, 10.0, 20.0), repeat=3))),
        # isosceles: an apex over a regular ring
        np.vstack([ring(9, 30.0), [[0.0, 0.0, 25.0]]]),
        # equilateral: a regular tetrahedron and a unit corner triangle
        np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float),
    ],
    ids=["random", "integer-grid", "cube-grid", "isosceles", "equilateral"],
)
def test_resorted_ties_are_the_rows_a_canonical_re_sort_swaps(markers):
    # A stored triangle is in canonical order, so its edges by position run
    # (e1, e2, e3). Re-sorting them keeps that order except where e3 == e2:
    # the tie then goes by position, which swaps vertices 1 and 2.
    table = TriangleTable()
    table.insert_marker(np.unique(markers, axis=0))
    edges = _edge_lengths(table.markers[table.indices])
    expected = np.tile([0, 1, 2], (len(edges), 1))
    tied = edges[:, 1] == edges[:, 2]
    expected[tied] = (0, 2, 1)
    np.testing.assert_array_equal(_canonical_perms(edges), expected)


def test_register_unscrambles_vertex_order():
    # One scalene triangle on each side: register pairs the vertices by edge
    # role whatever order either side lists them in.
    rng = np.random.default_rng(5)
    ct = rng.uniform(0, 100, (3, 3))
    rotation = axis_angle_rotation([1.0, 1.0, 0.0], 0.8)
    translation = np.array([10.0, 20.0, 30.0])
    dev = ct @ rotation.T + translation
    for dev_perm in itertools.permutations(range(3)):
        table = TriangleTable()
        table.insert_marker(dev[list(dev_perm)])
        for ct_perm in itertools.permutations(range(3)):
            result = register(MarkerSet("ct", ct[list(ct_perm)]), table)
            assert result.rmsd < 1e-9
            np.testing.assert_allclose(result.transform.rotation, rotation, atol=1e-12)
            np.testing.assert_allclose(result.transform.translation, translation, atol=1e-9)


def test_equilateral_ties_try_all_six_pairings():
    # every pairing of an equilateral triangle fits exactly; one closed-form
    # solve of the one candidate settles them all, with no Horn fit
    eq = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, np.sqrt(3.0) / 2.0, 0.0]])
    rotated = eq @ axis_angle_rotation([0.0, 0.0, 1.0], 2.0).T
    table = TriangleTable()
    table.insert_marker(rotated)
    calls = []
    solve = fidreg.triangles._solve_pairings

    def spy_solve(source, target):
        calls.append(("candidates", len(target)))
        return solve(source, target)

    with mock.patch.object(fidreg.triangles, "_solve_pairings", spy_solve), mock.patch.object(
        fidreg.triangles, "horn_solve", side_effect=AssertionError("no Horn fit expected")
    ):
        result = register(MarkerSet("ct", eq), table)
    assert calls == [("candidates", 1)]
    assert result.rmsd < 1e-9


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
    line = TriangleTable()
    line.insert_marker(collinear)
    with pytest.raises(DegenerateTriangleError, match="every device marker triple"):
        register(ct_markers, line)
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
        "inliers",
        "triples_scored",
    }
    assert (payload["inliers"], payload["triples_scored"]) == (6, 16)
    assert payload["flipped"] is False
    assert len(payload["matched_marker_indices"]) == 3
    assert payload["rmsd"] == result.rmsd


def test_config_round_trip_and_validation():
    config = RegistrationConfig(k=7, scale_tolerance_mm=2.5)
    assert RegistrationConfig.from_text("k = 7\nscale_tolerance_mm = 2.5\n") == config
    assert RegistrationConfig.from_text("") == RegistrationConfig()
    with pytest.raises(ConfigError, match="k must be"):
        RegistrationConfig(k=0)
    with pytest.raises(ConfigError, match="non-negative"):
        RegistrationConfig(scale_tolerance_mm=-1.0)
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match="scale_tolerance_mm"):
            RegistrationConfig(scale_tolerance_mm=float(value))
        with pytest.raises(ConfigError, match="scale_tolerance_mm"):
            RegistrationConfig.from_text(f"scale_tolerance_mm = {value}\n")
    with pytest.raises(ConfigError, match="unknown key"):
        RegistrationConfig.from_text("knn = 3\n")


@pytest.mark.parametrize("k", [2.5, True, "3", None])
def test_config_refuses_a_k_that_is_not_an_integer(k):
    # register needs an integer shape-neighbour count; refuse others when built.
    with pytest.raises(ConfigError, match="k must be an integer"):
        RegistrationConfig(k=k)


def test_config_takes_a_numpy_integer_k():
    assert RegistrationConfig(k=np.int64(3)).k == 3


def thin_triangles(rng, count, scale, offset, spread=(0.05, 20.0)):
    """Triangles whose area / e1**2 spreads over ``spread`` times DEGENERACY_RATIO."""
    a = rng.normal(size=(count, 3))
    b = rng.normal(size=(count, 3))
    base = b - a
    length = np.linalg.norm(base, axis=1)[:, None]
    normal = np.cross(base, rng.normal(size=(count, 3)))
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    ratio = DEGENERACY_RATIO * np.exp(rng.uniform(*np.log(spread), size=(count, 1)))
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
    # the fit trusts the shape gate: a shaped triangle, area at least
    # DEGENERACY_RATIO * e1**2, is one rigid._collinear finds spans a plane,
    # and the fit maps it by a proper rotation, as register's refit needs
    scale = 10.0**scale_exp
    rng = np.random.default_rng(seed)
    points = thin_triangles(rng, 64, scale, scale * 10.0**offset_exp)
    shaped = _triangle_shapes(points).shaped
    assert shaped.any() and not shaped.all()
    assert not _collinear(center_points(points[shaped])[1]).any()
    motion = RigidTransform(axis_angle_rotation(rng.normal(size=3), 1.0), rng.normal(size=3))
    rotation, translation, _ = _solve_pairings(points[shaped], motion.apply(points[shaped]))
    for rot, trans in zip(rotation, translation):
        RigidTransform(rot, trans)  # orthonormal and proper within 1e-9


def test_the_area_gate_alone_keeps_every_shaped_key_a_triangle():
    # an apex at height h >= 2 * DEGENERACY_RATIO * e1 puts r2 + r3 - 1 at
    # (h / e1)**2 = 4e-12 or more, so no shaped key rounds to a straight line
    rng = np.random.default_rng(33)
    for scale, offset in itertools.product(10.0 ** np.arange(-3, 6), (0.0, 1e3, 2e5)):
        shapes = _triangle_shapes(thin_triangles(rng, 4000, scale, offset, spread=(0.5, 2.0)))
        assert shapes.shaped.any() and not shapes.shaped.all()
        r2, r3 = shapes.key[shapes.shaped].T
        assert (r2 + r3 > 1.0).all()


def test_three_markers_return_the_winners_own_fit():
    # the refit pairs would be just the matched triangle, so there is no refit
    ct_markers, table, *_ = make_scene(23, n=3)
    got = register(ct_markers, table)
    want = loop_register(ct_markers.points, table.markers)
    assert got.transform.rotation.tobytes() == want["transform"].rotation.tobytes()
    assert got.transform.translation.tobytes() == want["transform"].translation.tobytes()
    assert got.inliers == 3


def test_register_runs_no_svd_when_the_area_bound_clears_every_triple():
    ct_markers, table, *_ = make_scene(23)
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        register(ct_markers, table)
    assert svd.call_count == 0


def test_spread_order_visits_every_triple_once_and_spreads_the_first_block():
    for count in range(1, 300):
        assert sorted(_spread_order(count).tolist()) == list(range(count))
    # combinations order puts marker 0 in the first 55 of 220 triples; the
    # spread order puts it in few of the first block, and reaches every marker
    first = _all_triples(12)[_spread_order(220)[:_TRIPLE_BLOCK]]
    assert np.count_nonzero(first == 0) <= 6
    assert set(first.ravel().tolist()) == set(range(12))


def test_stop_bound_guards_its_ends():
    assert _triples_needed(12, 12) == 0.0
    assert _triples_needed(0, 12) == np.inf
    # one dropout of twelve: w = 11/12 needs about 9.4 triples at eta = 1e-6
    assert _triples_needed(11, 12) == pytest.approx(np.log(1e-6) / np.log(1 - (11 / 12) ** 3))
    assert 9 < _triples_needed(11, 12) < 10


def scene_registration(spec):
    ct, device, truth = generate_scene(spec)
    table = TriangleTable()
    table.insert_marker(device.points)
    result = register(ct, table)
    return result, target_registration_error(result.transform, truth, ct.points)


def test_noise_free_forty_markers_are_recovered_after_one_block():
    result, tre = scene_registration(SceneSpec(n_markers=40, seed=4040))
    assert result.triples_scored <= _TRIPLE_BLOCK
    assert result.inliers == 40
    assert result.rmsd < 1e-9 and tre < 1e-9


def test_a_dropped_marker_zero_still_registers():
    rng = np.random.default_rng(8)
    ct = rng.uniform(-150.0, 150.0, (12, 3))
    motion = RigidTransform(axis_angle_rotation(rng.normal(size=3), 1.3), rng.uniform(-80, 80, 3))
    device = motion.apply(ct[1:]) + rng.normal(0.0, 1.0, (11, 3))
    device = np.vstack([device, rng.uniform(-150.0, 150.0, (2, 3))])[rng.permutation(13)]
    table = TriangleTable()
    table.insert_marker(device)
    result = register(MarkerSet("ct", ct), table)
    assert result.inliers == 11
    assert target_registration_error(result.transform, motion, ct) < 2.0


def test_a_dropout_scene_stops_before_scoring_every_triple():
    spec = SceneSpec(n_markers=12, noise_sigma_mm=1.0, dropout_count=1, decoy_count=2, seed=1212)
    result, tre = scene_registration(spec)
    assert result.triples_scored < 220
    assert tre < 3.0


def test_consensus_fixes_a_dropout_scene_that_all_marker_rms_got_wrong():
    # ranked by RMS over all CT markers this scene's winner was off by 214 mm:
    # the dropped marker's CT point paid its distance to a decoy
    spec = SceneSpec(n_markers=6, noise_sigma_mm=2.0, dropout_count=1, decoy_count=2, seed=1021)
    result, tre = scene_registration(spec)
    assert result.inliers == 5
    assert tre < 10.0


def test_reach_keeps_a_true_triangle_whose_fourth_marker_lies_past_the_gate():
    # a clean scene: every candidate's three-point fit holds just its own
    # three markers inside the 6 mm gate, and the true triangles' fits put
    # the fourth 6.03 mm off. Ranked by inlier RMS alone a wrong triangle won
    # (15.4 mm off); the true ones reach four mutual pairs within the refit
    # gate, win on reach, and the refit brings the fourth marker in
    result, tre = scene_registration(SceneSpec(n_markers=4, noise_sigma_mm=2.0, seed=1041))
    assert result.inliers == 4
    assert tre < 2.0


def test_registration_json_is_byte_identical_across_runs(tmp_path):
    spec = SceneSpec(n_markers=20, noise_sigma_mm=2.0, dropout_count=2, decoy_count=4, seed=2020)
    blobs = []
    for run in range(2):
        result, _ = scene_registration(spec)
        write_json(result.to_json_dict(), tmp_path / f"run{run}.json")
        blobs.append((tmp_path / f"run{run}.json").read_bytes())
    assert blobs[0] == blobs[1]
    assert json.loads(blobs[0])["triples_scored"] < math.comb(20, 3)
