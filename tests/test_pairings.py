"""Tie pairings and flips: the two-stage solve against the every-flip oracle.

``_solve_pairings`` solves a candidate's flip only where ``_flip_floor``, an
edge-length lower bound on the flip's rmsd, does not already exceed the kept
pairing's rmsd. ``reference_impls.every_flip_solve_pairings`` solves every
flip; the two must agree bit for bit, errors included.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fidreg.triangles
import reference_impls
from fidreg.bench import SceneSpec, generate_scene
from fidreg.errors import DegenerateTriangleError
from fidreg.rigid import (
    PointCorrespondences,
    RigidTransform,
    _collinear,
    axis_angle_rotation,
    center_points,
    fit_rmsd,
    horn_solve,
)
from fidreg.triangles import (
    _FLIP_ORDER,
    RegistrationConfig,
    TriangleTable,
    _edge_lengths,
    _flip_floor,
    _permute_rows,
    _solve_pairings,
    _triangle_shapes,
    align_with_flip,
    register,
)

from reference_impls import every_flip_solve_pairings


def random_motion(rng, scale):
    rotation = axis_angle_rotation(rng.normal(size=3), rng.uniform(0.0, np.pi))
    return RigidTransform(rotation, rng.normal(size=3) * 100.0 * scale)


def pairing_case(rng, scale, offset, noise=0.05):
    """Arguments for _solve_pairings, with targets of every kind.

    Sources are random, near-isosceles (their flip gap is tiny, so the bound
    cannot rule the flip out) or, in a separate case below, collinear.
    Targets are a moved source with a little noise, the same with the two
    vertices adjacent to its longest edge exchanged (the flip wins), a
    moved mirror image, or an unrelated triangle; tie codes run over 0..3.
    """
    sources, candidates = 6, 40
    source = rng.normal(size=(sources, 3, 3))
    for row in range(0, sources, 3):  # near-isosceles on its longest edge a-b
        a, b = source[row, 1], source[row, 2]
        axis = np.cross(b - a, rng.normal(size=3))
        axis *= 0.3 * np.linalg.norm(b - a) / np.linalg.norm(axis)
        source[row, 0] = (a + b) / 2.0 + axis + 1e-4 * rng.normal(size=3)
    source = source * scale + offset * rng.normal(size=(sources, 1, 3))
    shapes = _triangle_shapes(source, 1e-15)
    source_of = rng.integers(0, sources, size=candidates)
    target = np.empty((candidates, 3, 3))
    for row, of in enumerate(source_of):
        points = source[of]
        kind = row % 4
        if kind == 1:
            points = points[_FLIP_ORDER[np.argmax(shapes.edges[of])]]
        elif kind == 2:
            points = points * np.array([1.0, 1.0, -1.0])
        elif kind == 3:
            points = rng.normal(size=(3, 3)) * scale
        moved = random_motion(rng, scale).apply(points)
        target[row] = moved + noise * scale * rng.normal(size=(3, 3))
    codes = rng.integers(0, 4, size=candidates)
    return source, shapes.edges, shapes.area, source_of, target, codes


def solve_both(args):
    """(package outcome, oracle outcome): the five arrays or the error."""
    outcomes = []
    for solve in (_solve_pairings, every_flip_solve_pairings):
        try:
            outcomes.append(solve(*args))
        except DegenerateTriangleError as exc:
            outcomes.append(exc)
    return outcomes


def assert_identical(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), f"got {got!r}"
    for mine, theirs in zip(got, want, strict=True):
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("scale_exp", [-3, -1, 0, 1, 3])
@pytest.mark.parametrize("offset_exp", [None, 0, 3, 6])
def test_two_stage_solve_matches_every_flip_solve(scale_exp, offset_exp):
    scale = 10.0**scale_exp
    offset = 0.0 if offset_exp is None else scale * 10.0**offset_exp
    rng = np.random.default_rng([scale_exp + 10, 9 if offset_exp is None else offset_exp])
    flips = skipped = 0
    for noise in (0.0, 1e-9, 0.05, 0.3):
        args = pairing_case(rng, scale, offset, noise=noise)
        got, want = solve_both(args)
        assert_identical(got, want)
        flips += int(np.count_nonzero(got[4]))
        source, edges, _, source_of, _, _ = args
        exchanged = _permute_rows(got[0], _FLIP_ORDER[np.argmax(edges[source_of], axis=-1)])
        floor = _flip_floor(source[source_of], edges[source_of], exchanged)
        skipped += int(np.count_nonzero(floor > got[3]))
    assert flips > 0  # the second stage ran and changed results
    if offset_exp is None or offset_exp < 6:
        assert skipped > 0  # and the bound spared some flips


def test_collinear_sources_raise_the_same_error():
    rng = np.random.default_rng(3)
    source, edges, area, source_of, target, codes = pairing_case(rng, 1.0, 0.0)
    line = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [3.0, 6.0, 9.0]])
    source[source_of[7]] = line
    shapes = _triangle_shapes(source, 1e-15)
    args = (source, shapes.edges, shapes.area, source_of, target, codes)
    got, want = solve_both(args)
    assert isinstance(want, DegenerateTriangleError)
    assert_identical(got, want)
    # a collinear source no candidate uses is harmless to both
    kept = source_of != source_of[7]
    args = (source, shapes.edges, shapes.area, source_of[kept], target[kept], codes[kept])
    got, want = solve_both(args)
    assert not isinstance(want, Exception)
    assert_identical(got, want)


def solved_rmsd(source, target):
    """rmsd of the solved fit of each source triangle onto its target."""
    centroid, centered = center_points(source)
    assert not _collinear(centered).any()
    rotation, translation = horn_solve(centroid, centered, target)
    return fit_rmsd(rotation, translation, source, target)


@given(
    seed=st.integers(0, 2**32 - 1),
    scale_exp=st.floats(-3.0, 3.0),
    offset_exp=st.floats(-3.0, 6.0),
    noise=st.sampled_from([0.0, 1e-6, 0.05, 1.0]),
)
def test_flip_floor_never_exceeds_a_solved_flip(seed, scale_exp, offset_exp, noise):
    scale = 10.0**scale_exp
    rng = np.random.default_rng(seed)
    args = pairing_case(rng, scale, scale * 10.0**offset_exp, noise=noise)
    source, edges, _, source_of, _, _ = args
    paired, _, _, rmsd, flipped = _solve_pairings(*args)
    exchanged = _permute_rows(paired, _FLIP_ORDER[np.argmax(edges[source_of], axis=-1)])
    floor = _flip_floor(source[source_of], edges[source_of], exchanged)
    flip_rmsd = solved_rmsd(source[source_of], exchanged)
    assert (flip_rmsd >= floor).all()
    skipped = floor > rmsd
    assert (flip_rmsd[skipped] >= rmsd[skipped]).all()
    assert not flipped[skipped].any()


def test_flip_floor_on_known_triangles():
    base = np.array([[[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 4.0, 0.0]]])
    target = base[:, [0, 2, 1]]
    # edge gaps (0, 1, -1): sqrt(2 / 12), less margins of a few 1e-9
    assert 0.4082 < _flip_floor(base, _edge_lengths(base), target)[0] < np.sqrt(2.0 / 12.0)
    for points in (base * 1e-101, base + 1e100):  # outside the proven range
        assert _flip_floor(points, _edge_lengths(points), target) == -np.inf

    # An equilateral triangle against a scaled copy: every gap is d, the
    # best fit leaves d / sqrt(3) at each vertex, and the bound is d / 2.
    rng = np.random.default_rng(23)
    unit = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, np.sqrt(0.75), 0.0]])
    for scale in (1e-3, 1.0, 1e3):
        source = random_motion(rng, scale).apply(unit * scale)[None]
        target = random_motion(rng, scale).apply(unit * scale * 1.01)[None]
        floor = _flip_floor(source, _edge_lengths(source), target)
        rmsd = solved_rmsd(source, target)
        assert floor <= rmsd <= floor * 1.1548


def count_horn_fits(monkeypatch, ct, table, solve):
    """Rows handed to horn_solve by one register() with ``solve`` pairing."""
    rows = []
    horn_solve = fidreg.triangles.horn_solve

    def counting(centroid, centered, target):
        rows.append(len(target))
        return horn_solve(centroid, centered, target)

    with monkeypatch.context() as patch:
        patch.setattr(fidreg.triangles, "horn_solve", counting)
        patch.setattr(reference_impls, "horn_solve", counting)
        patch.setattr(fidreg.triangles, "_solve_pairings", solve)
        result = register(ct, table, RegistrationConfig())
    return sum(rows), result


def test_register_solves_about_half_the_horn_fits(monkeypatch):
    new_fits = old_fits = 0
    for seed in range(11, 19):
        spec = SceneSpec(12, noise_sigma_mm=1.0, dropout_count=1, decoy_count=2, seed=seed)
        ct, device, _ = generate_scene(spec)
        table = TriangleTable()
        table.insert_marker(device.points)
        fits, got = count_horn_fits(monkeypatch, ct, table, _solve_pairings)
        new_fits += fits
        fits, want = count_horn_fits(monkeypatch, ct, table, every_flip_solve_pairings)
        old_fits += fits
        assert got.transform == want.transform
        assert (got.rmsd, got.flipped, got.shape_distance) == (
            want.rmsd, want.flipped, want.shape_distance
        )
    assert old_fits % 2 == 0
    assert old_fits // 2 <= new_fits <= 0.55 * old_fits


def test_an_empty_second_stage_is_not_solved():
    rng = np.random.default_rng(19)
    source = np.array([[0.0, 0.0, 0.0], [30.0, 0.0, 0.0], [5.0, 12.0, 0.0]])
    target = random_motion(rng, 1.0).apply(source)
    with mock.patch.object(
        fidreg.triangles, "horn_solve", wraps=fidreg.triangles.horn_solve
    ) as horn:
        _, rmsd, flipped = align_with_flip(PointCorrespondences(source, target))
    assert rmsd < 1e-9 and not flipped
    assert [len(call.args[2]) for call in horn.call_args_list] == [1]
