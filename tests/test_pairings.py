"""Tie pairings and flips: the one-stack solve against a per-candidate loop.

``_solve_pairings`` fits every tie pairing of every candidate, and each
pairing's flip, in one stacked Horn solve.
``reference_impls.loop_solve_pairings`` runs one ``absolute_orientation``
per pairing and per flip; the two must agree bit for bit, errors included.
"""

import numpy as np
import pytest

from fidreg.errors import DegenerateTriangleError
from fidreg.rigid import RigidTransform, axis_angle_rotation
from fidreg.triangles import _FLIP_ORDER, _solve_pairings, _triangle_shapes

from reference_impls import loop_solve_pairings


def random_motion(rng, scale):
    rotation = axis_angle_rotation(rng.normal(size=3), rng.uniform(0.0, np.pi))
    return RigidTransform(rotation, rng.normal(size=3) * 100.0 * scale)


def pairing_case(rng, scale, offset, noise=0.05):
    """Arguments for _solve_pairings, with targets of every kind.

    Sources are random, near-isosceles (their flip fits almost as well as
    the pairing) or, in a separate case below, collinear.
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
    """(package outcome, oracle outcome): the four arrays or the error."""
    outcomes = []
    for solve in (_solve_pairings, loop_solve_pairings):
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
    # Named for the two-stage solve it once checked; the ids stay stable.
    scale = 10.0**scale_exp
    offset = 0.0 if offset_exp is None else scale * 10.0**offset_exp
    rng = np.random.default_rng([scale_exp + 10, 9 if offset_exp is None else offset_exp])
    flips = 0
    for noise in (0.0, 1e-9, 0.05, 0.3):
        got, want = solve_both(pairing_case(rng, scale, offset, noise=noise))
        assert_identical(got, want)
        flips += int(np.count_nonzero(got[3]))
    assert flips > 0  # some flips won


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


def test_a_flip_that_only_ties_does_not_win():
    # An isosceles triangle on its longest edge, fitted onto itself: every
    # code's kept pairing and its flip both fit with rmsd exactly 0.
    source = np.array([[[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [2.0, 3.0, 0.0]]])
    shapes = _triangle_shapes(source, 1e-15)
    targets = np.repeat(source, 4, axis=0)
    args = (source, shapes.edges, shapes.area, np.zeros(4, dtype=np.intp), targets, np.arange(4))
    got, want = solve_both(args)
    assert_identical(got, want)
    assert (got[2] == 0.0).all() and not got[3].any()
