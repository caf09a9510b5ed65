import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fidreg.errors import DegenerateGeometryError
from fidreg.rigid import (
    PointCorrespondences,
    RigidTransform,
    _collinear,
    absolute_orientation,
    axis_angle_rotation,
    center_points,
    compose,
    fit_rmsd,
    horn_solve,
    inverse,
    reorthonormalize,
    rotation_angle,
    transform_from_json_dict,
    transform_to_json_dict,
)
from fidreg.rng import SplitMix64

from reference_impls import kabsch_svd


def random_transform(rng: SplitMix64) -> RigidTransform:
    return RigidTransform(rng.rotation(), (rng.uniforms(3) - 0.5) * 200.0)


def random_points(rng: SplitMix64, n: int) -> np.ndarray:
    return (rng.uniforms(3 * n).reshape(n, 3) - 0.5) * 100.0


def test_exact_recovery_machine_precision():
    rng = SplitMix64(11)
    for _ in range(50):
        truth = random_transform(rng)
        src = random_points(rng, 5)
        est, rmsd = absolute_orientation(PointCorrespondences(src, truth.apply(src)))
        assert rmsd < 1e-10
        assert np.allclose(est.rotation, truth.rotation, atol=1e-12)
        assert np.allclose(est.translation, truth.translation, atol=1e-10)


def test_agrees_with_kabsch_oracle_under_noise():
    rng = SplitMix64(12)
    for trial in range(100):
        truth = random_transform(rng)
        n = 3 + trial % 6
        src = random_points(rng, n)
        dst = truth.apply(src) + rng.normals(3 * n).reshape(n, 3) * 2.0
        est, _ = absolute_orientation(PointCorrespondences(src, dst))
        R_ref, t_ref = kabsch_svd(src, dst)
        assert np.abs(est.rotation - R_ref).max() < 1e-9
        assert np.abs(est.translation - t_ref).max() < 1e-9


def test_mirrored_targets_still_proper():
    rng = SplitMix64(13)
    for _ in range(50):
        src = random_points(rng, 6)
        dst = src @ np.diag([-1.0, 1.0, 1.0]).T  # reflected, not rigid
        est, _ = absolute_orientation(PointCorrespondences(src, dst))
        assert abs(np.linalg.det(est.rotation) - 1.0) < 1e-12


def test_returned_fit_is_a_local_optimum():
    # nudging the solution in random directions must not reduce the rmsd
    rng = SplitMix64(14)
    src = random_points(rng, 8)
    truth = random_transform(rng)
    dst = truth.apply(src) + rng.normals(24).reshape(8, 3) * 3.0
    est, rmsd = absolute_orientation(PointCorrespondences(src, dst))

    def rms(transform):
        return float(
            np.sqrt(((transform.apply(src) - dst) ** 2).sum(axis=1).mean())
        )

    assert abs(rms(est) - rmsd) < 1e-12
    for k in range(40):
        axis = rng.normals(3)
        axis /= np.linalg.norm(axis)
        wobble = axis_angle_rotation(axis, 1e-4)
        shift = rng.normals(3) * 1e-4
        worse = RigidTransform(wobble @ est.rotation, est.translation + shift)
        assert rms(worse) >= rmsd - 1e-15


def test_rmsd_value_matches_residuals():
    src = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    est, rmsd = absolute_orientation(PointCorrespondences(src, src))
    assert rmsd == pytest.approx(0.0, abs=1e-14)
    assert est == RigidTransform.identity()


def test_equivariance_under_target_motion():
    rng = SplitMix64(15)
    src = random_points(rng, 5)
    dst = random_points(rng, 5)
    base, _ = absolute_orientation(PointCorrespondences(src, dst))
    extra = random_transform(rng)
    moved, _ = absolute_orientation(PointCorrespondences(src, extra.apply(dst)))
    expected = compose(extra, base)
    assert np.allclose(moved.rotation, expected.rotation, atol=1e-9)
    assert np.allclose(moved.translation, expected.translation, atol=1e-8)


def test_collinear_sources_rejected():
    line = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
    with pytest.raises(DegenerateGeometryError):
        absolute_orientation(PointCorrespondences(line, line))


def test_horn_fits_match_absolute_orientation_bit_for_bit():
    rng = SplitMix64(19)
    for m in (3, 9, 40):
        src = random_points(rng, 6 * m).reshape(6, m, 3)
        dst = src @ random_transform(rng).rotation.T + rng.normals(18 * m).reshape(6, m, 3)
        src[4] = np.outer(np.arange(m), [1.0, 2.0, 3.0])  # collinear: no unique fit
        stack_centroid, stack_centered = center_points(src)
        fits = []
        for i in range(6):
            centroid, centered = center_points(src[i])
            # a set alone gets the bits it gets inside a stack
            assert np.array_equal(centroid, stack_centroid[i])
            assert np.array_equal(centered, stack_centered[i])
            assert bool(_collinear(centered)) == (i == 4)
            rotation, translation = horn_solve(centroid, centered, dst[i])
            RigidTransform(rotation, translation)  # a proper rotation, the collinear fit too
            fits.append((rotation, translation, fit_rmsd(rotation, translation, src[i], dst[i])))
        rotations, translations, rmsds = (np.array(column) for column in zip(*fits))
        assert np.array_equal(fit_rmsd(rotations, translations, src, dst), rmsds)
        for i in (0, 3, 5):
            single, single_rmsd = absolute_orientation(PointCorrespondences(src[i], dst[i]))
            assert np.array_equal(single.rotation, rotations[i])
            assert np.array_equal(single.translation, translations[i])
            assert single_rmsd == rmsds[i]


def test_minimum_three_points():
    with pytest.raises(ValueError):
        PointCorrespondences(np.zeros((2, 3)), np.zeros((2, 3)))


def test_correspondences_must_be_finite():
    tri = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 7.0, 0.0]])
    broken = tri.copy()
    broken[1, 0] = np.nan
    for src, dst in ((broken, tri), (tri, broken)):
        with pytest.raises(ValueError, match="finite"):
            PointCorrespondences(src, dst)


def test_compose_and_inverse_laws():
    rng = SplitMix64(16)
    for _ in range(30):
        a, b = random_transform(rng), random_transform(rng)
        pts = random_points(rng, 4)
        assert np.allclose(compose(a, b).apply(pts), a.apply(b.apply(pts)), atol=1e-9)
        round_trip = compose(inverse(a), a)
        assert np.allclose(round_trip.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(round_trip.translation, 0.0, atol=1e-9)


def test_long_compose_chain_stays_orthonormal():
    rng = SplitMix64(17)
    acc = RigidTransform.identity()
    for _ in range(2000):
        acc = compose(random_transform(rng), acc)
    assert np.allclose(acc.rotation @ acc.rotation.T, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(acc.rotation) - 1.0) < 1e-12


def test_relative_rotation_matches_compose_bit_for_bit():
    # bench._run_trial reads the rotation error without building transforms.
    rng = SplitMix64(18)
    for _ in range(200):
        estimated, truth = random_transform(rng), random_transform(rng)
        direct = reorthonormalize(estimated.rotation @ truth.rotation.T)
        composed = compose(estimated, inverse(truth)).rotation
        assert direct.tobytes() == composed.tobytes()
        assert rotation_angle(direct) == rotation_angle(composed)


def test_reorthonormalize_projects_only_past_the_drift_tolerance():
    exact = axis_angle_rotation(np.array([1.0, 2.0, 2.0]), 0.7)
    assert reorthonormalize(exact) is exact
    drifted = exact * (1.0 + 1e-9)
    projected = reorthonormalize(drifted)
    assert np.abs(projected.T @ projected - np.eye(3)).max() < 1e-15
    assert abs(np.linalg.det(projected) - 1.0) < 1e-15
    assert np.allclose(projected, exact, atol=1e-14)


@given(st.floats(min_value=0.0, max_value=np.pi))
@example(1e-10)
@example(np.pi - 1e-9)
def test_rotation_angle_round_trip(angle):
    R = axis_angle_rotation(np.array([0.0, 0.6, 0.8]), angle)
    assert rotation_angle(R) == pytest.approx(angle, rel=1e-12, abs=1e-15)


def test_rotation_validation():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(ValueError):
        RigidTransform(np.diag([-1.0, 1.0, 1.0]), np.zeros(3))  # reflection
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3), np.array([np.nan, 0, 0]))


def test_json_round_trip():
    rng = SplitMix64(18)
    t = random_transform(rng)
    data = transform_to_json_dict(t)
    assert len(data["rotation"]) == 9 and len(data["translation"]) == 3
    assert transform_from_json_dict(data) == t


def test_apply_shape_and_frozen():
    t = RigidTransform.identity()
    out = t.apply(np.zeros((4, 3)))
    assert out.shape == (4, 3)
    with pytest.raises(Exception):
        t.rotation[0, 0] = 5.0
