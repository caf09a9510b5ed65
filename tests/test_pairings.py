"""The closed-form pairing fit: the stack against a loop, and against Horn.

``_solve_pairings`` fits all six vertex pairings of every candidate in one
elementwise pass. ``reference_impls.loop_solve_pairings`` computes the same
closed form one candidate at a time in Python floats; the two must agree
bit for bit. Brute-force ``absolute_orientation`` over the
six pairings checks that the closed form is the least-squares fit.
"""

import numpy as np
import pytest

from fidreg.rigid import (
    PointCorrespondences,
    RigidTransform,
    absolute_orientation,
    axis_angle_rotation,
    fit_rmsd,
)
from fidreg.triangles import _ODD_PAIRING, _PAIRINGS, _permute_rows, _solve_pairings

from reference_impls import LOOP_PAIRINGS, loop_is_odd, loop_solve_pairings


def random_motion(rng, scale):
    rotation = axis_angle_rotation(rng.normal(size=3), rng.uniform(0.0, np.pi))
    return RigidTransform(rotation, rng.normal(size=3) * 100.0 * scale)


def pairing_case(rng, scale, offset, noise=0.05, candidates=40):
    """Arguments for _solve_pairings, with targets of every kind.

    Sources are random or near-isosceles (a second pairing fits almost as
    well). Targets are a moved source with a little noise, the same with its
    vertices in a random order, a moved mirror image, or an unrelated
    triangle.
    """
    sources = 6
    source = rng.normal(size=(sources, 3, 3))
    for row in range(0, sources, 3):  # near-isosceles on its edge a-b
        a, b = source[row, 1], source[row, 2]
        axis = np.cross(b - a, rng.normal(size=3))
        axis *= 0.3 * np.linalg.norm(b - a) / np.linalg.norm(axis)
        source[row, 0] = (a + b) / 2.0 + axis + 1e-4 * rng.normal(size=3)
    source = source * scale + offset * rng.normal(size=(sources, 1, 3))
    source = source[rng.integers(0, sources, size=candidates)]
    target = np.empty((candidates, 3, 3))
    for row, points in enumerate(source):
        kind = row % 4
        if kind == 1:
            points = points[rng.permutation(3)]
        elif kind == 2:
            points = points * np.array([1.0, 1.0, -1.0])
        elif kind == 3:
            points = rng.normal(size=(3, 3)) * scale
        moved = random_motion(rng, scale).apply(points)
        target[row] = moved + noise * scale * rng.normal(size=(3, 3))
    return source, target


def solve_both(args):
    """(package fit, oracle fit), each the three arrays."""
    return _solve_pairings(*args), loop_solve_pairings(*args)


def assert_identical(got, want):
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
        flips += int(np.count_nonzero(_ODD_PAIRING[got[2]]))
    assert flips > 0  # some odd pairings won


def test_a_flip_that_only_ties_does_not_win():
    # An isosceles triangle fitted onto itself: the given pairing and the
    # one exchanging the ends of its base both fit exactly, and the first of
    # them in _PAIRINGS order is kept.
    source = np.array([[[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [2.0, 3.0, 0.0]]])
    got, want = solve_both((source, source.copy()))
    assert_identical(got, want)
    assert got[2].tolist() == [0]
    assert fit_rmsd(got[0], got[1], source, source).tolist() == [0.0]


def brute_force(source, target):
    """(transform, rmsd, odd, runner-up rmsd) of the best of the six pairings by Horn."""
    fits = []
    for perm in LOOP_PAIRINGS:
        transform, rmsd = absolute_orientation(PointCorrespondences(source, target[list(perm)]))
        fits.append((rmsd, transform, loop_is_odd(perm)))
    fits.sort(key=lambda fit: fit[0])
    (rmsd, transform, odd), runner_up = fits[0], fits[1][0]
    return transform, rmsd, odd, runner_up


def triangle_kinds(rng):
    """Random, near-isosceles, exactly equilateral and far-off triangles."""
    random = rng.normal(size=(3, 3)) * 50.0
    apex = np.array([rng.uniform(0.05, 1.0), 40.0, 0.0])
    near_isosceles = np.array([[-30.0, 0.0, 0.0], [30.0, 0.0, 0.0], apex])
    equilateral = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0]]) * 20.0
    far = rng.normal(size=(3, 3)) * 30.0 + 1e5
    return [random, near_isosceles, equilateral, far]


def test_closed_form_is_the_best_of_six_horn_fits():
    rng = np.random.default_rng(2024)
    sources, targets = [], []
    for _ in range(40):
        for source in triangle_kinds(rng):
            motion = random_motion(rng, 1.0)
            target = motion.apply(source)[rng.permutation(3)]
            if rng.uniform() < 0.5:
                target = target * np.array([1.0, -1.0, 1.0])  # a mirror image
            sources.append(source)
            targets.append(target + rng.normal(0.0, rng.choice([0.0, 0.5, 3.0]), (3, 3)))
    sources, targets = np.array(sources), np.array(targets)
    rotation, translation, pairing = _solve_pairings(sources, targets)
    rmsd = fit_rmsd(rotation, translation, sources, _permute_rows(targets, _PAIRINGS[pairing]))
    flipped = _ODD_PAIRING[pairing]
    np.testing.assert_allclose(np.linalg.det(rotation), 1.0, rtol=0, atol=1e-12)
    decided = 0
    for row, (source, target) in enumerate(zip(sources, targets)):
        transform, best, odd, runner_up = brute_force(source, target)
        assert abs(rmsd[row] - best) <= 1e-9
        # an equilateral source fits every pairing equally well: any may be kept
        if runner_up - best > 1e-6:
            np.testing.assert_allclose(rotation[row], transform.rotation, rtol=0, atol=1e-9)
            np.testing.assert_allclose(translation[row], transform.translation, rtol=0, atol=1e-6)
            assert flipped[row] == odd
            decided += 1
    assert decided > 100


def test_a_row_solves_alike_alone_and_in_a_stack():
    rng = np.random.default_rng(64)
    source, target = pairing_case(rng, 10.0, 100.0, noise=0.3, candidates=64)
    stacked = _solve_pairings(source, target)
    for row in range(len(source)):
        alone = _solve_pairings(source[row : row + 1], target[row : row + 1])
        for whole, single in zip(stacked, alone, strict=True):
            assert whole[row : row + 1].tobytes() == single.tobytes()
