import numpy as np
import pytest

import fidreg.icp
from fidreg.bench import SceneSpec, generate_scene
from fidreg.config import ConfigError
from fidreg.errors import DegenerateGeometryError, InsufficientMarkersError
from fidreg.icp import IcpConfig, icp_register
from fidreg.markers import MarkerSet
from fidreg.rigid import RigidTransform, axis_angle_rotation, rotation_angle

from reference_impls import brute_force_icp, loop_icp


def scene(seed, n, angle, shift_mm):
    rng = np.random.default_rng(seed)
    src = rng.uniform(-100, 100, (n, 3))
    rotation = axis_angle_rotation(rng.normal(size=3), angle)
    translation = rng.normal(size=3)
    translation *= shift_mm / np.linalg.norm(translation)
    truth = RigidTransform(rotation, translation)
    return MarkerSet("ct", src), MarkerSet("device", truth.apply(src)), truth


def test_identity_scene_is_an_exact_fixed_point():
    source, target, _ = scene(0, 8, 0.0, 0.0)
    result = icp_register(source, MarkerSet("device", source.points))
    assert result.rmsd == 0.0
    assert result.converged
    assert result.iterations_used == 2
    assert result.rmsd_history == [0.0, 0.0]
    np.testing.assert_allclose(result.transform.rotation, np.eye(3), atol=1e-15)


def test_small_misalignment_converges_to_truth():
    for seed in range(10):
        source, target, truth = scene(seed, 10, 0.05, 2.0)
        result = icp_register(source, target)
        assert result.converged
        assert result.rmsd < 1e-6
        err = rotation_angle(result.transform.rotation @ truth.rotation.T)
        assert err < 1e-6
        assert np.linalg.norm(result.transform.translation - truth.translation) < 1e-5


def test_history_is_non_increasing():
    for seed in range(100):
        source, target, _ = scene(seed, 12, 0.6, 20.0)
        history = icp_register(source, target).rmsd_history
        for previous, current in zip(history, history[1:]):
            assert current <= previous + 1e-12


def test_reported_transform_matches_final_rmsd():
    def rmsd_of(transform, source, target):
        mapped = transform.apply(source.points)
        d2 = np.min(
            np.sum((mapped[:, None] - target.points[None]) ** 2, axis=2), axis=1
        )
        return float(np.sqrt(np.mean(d2)))

    # converged exit
    source, target, _ = scene(3, 10, 0.3, 10.0)
    result = icp_register(source, target)
    assert result.rmsd == result.rmsd_history[-1]
    assert rmsd_of(result.transform, source, target) == pytest.approx(result.rmsd, abs=1e-12)

    # iteration-cap exit: the transform must still be the one the last
    # history entry describes, not one re-solve ahead of it
    capped = icp_register(source, target, IcpConfig(max_iterations=3))
    assert not capped.converged
    assert capped.iterations_used == 3
    assert len(capped.rmsd_history) == 3
    assert rmsd_of(capped.transform, source, target) == pytest.approx(capped.rmsd, abs=1e-12)


def test_tree_path_agrees_with_brute_force_reference():
    # a 40-marker scene: the exact scan must match the reference at this size too
    n = 40
    source, target, _ = scene(11, n, 0.4, 15.0)
    config = IcpConfig(max_iterations=50)
    result = icp_register(source, target, config)

    history, transform = brute_force_icp(source.points, target.points, config)

    assert result.rmsd_history == history
    np.testing.assert_allclose(result.transform.rotation, transform.rotation, atol=1e-15)
    np.testing.assert_allclose(result.transform.translation, transform.translation, atol=1e-15)


def test_large_sorted_target_set_matches_brute_force_reference():
    # 4000 targets on a curve increasing in x, y and z, in that order: sorted
    # input, the worst case for an unbalanced search tree
    x = np.arange(4000.0) * 0.25
    targets = np.stack([x, x * x / 400.0, 10.0 * np.sqrt(x)], axis=1)
    motion = RigidTransform(axis_angle_rotation([0.2, 0.1, 1.0], 0.01), np.array([0.4, -0.3, 0.2]))
    source = motion.apply(targets[::160])
    config = IcpConfig(max_iterations=30)
    result = icp_register(MarkerSet("ct", source), MarkerSet("device", targets), config)
    history, transform = brute_force_icp(source, targets, config)
    assert len(history) > 2
    assert result.rmsd_history == history
    np.testing.assert_allclose(result.transform.rotation, transform.rotation, atol=1e-15)
    np.testing.assert_allclose(result.transform.translation, transform.translation, atol=1e-15)


def assert_same_bits(got, want):
    assert np.array_equal(got.transform.rotation, want.transform.rotation)
    assert np.array_equal(got.transform.translation, want.transform.translation)
    assert got.rmsd_history == want.rmsd_history
    assert got.rmsd == want.rmsd
    assert got.iterations_used == want.iterations_used
    assert got.converged == want.converged


# The scene whose first matching sends all eight sources to two targets, so
# the fit's cross-covariance is rank-deficient and the rotation is one of a
# family of equal optima, picked by rounding.
RANK_DEFICIENT = SceneSpec(n_markers=8, noise_sigma_mm=1, dropout_count=1, decoy_count=2, seed=13)


@pytest.mark.parametrize(
    "spec",
    [RANK_DEFICIENT]
    + [
        SceneSpec(n_markers=n, noise_sigma_mm=sigma, dropout_count=drop, decoy_count=2 * drop, seed=seed)
        for n, sigma, drop, seed in [(3, 0, 0, 1), (4, 1, 1, 2), (6, 1, 0, 3), (8, 0, 1, 4), (40, 1, 0, 5)]
    ],
)
@pytest.mark.parametrize("max_iterations", [1, 2, 100])
def test_loop_matches_per_iteration_fit_bit_for_bit(spec, max_iterations):
    ct, device, _ = generate_scene(spec)
    config = IcpConfig(max_iterations=max_iterations)
    assert_same_bits(icp_register(ct, device, config), loop_icp(ct, device, config))


def test_initial_transform_is_followed_bit_for_bit():
    source, target, truth = scene(4, 9, 0.3, 12.0)
    start = RigidTransform(axis_angle_rotation([1.0, -2.0, 0.5], 0.2), np.array([3.0, -1.0, 2.0]))
    for max_iterations in (1, 2, 100):
        config = IcpConfig(max_iterations=max_iterations, initial_transform=start)
        got = icp_register(source, target, config)
        assert_same_bits(got, loop_icp(source, target, config))
    assert icp_register(source, target, IcpConfig(max_iterations=1, initial_transform=start)).transform is start


def test_insufficient_markers_either_side():
    source, target, _ = scene(5, 6, 0.1, 1.0)
    with pytest.raises(InsufficientMarkersError, match="found 2"):
        icp_register(MarkerSet("ct", source.points[:2]), target)
    with pytest.raises(InsufficientMarkersError, match="found 2"):
        icp_register(source, MarkerSet("device", target.points[:2]))


@pytest.mark.parametrize("huge_side", [0, 1])
def test_coordinates_beyond_the_bound_raise_on_either_side(huge_side):
    # unbounded, a source at 1e154 gives rmsd inf, which JSON cannot hold
    sides = list(scene(5, 6, 0.1, 1.0)[:2])
    huge = sides[huge_side]
    sides[huge_side] = MarkerSet(huge.frame, huge.points * 1e154)
    role = ("source", "target")[huge_side]
    with pytest.raises(ValueError, match=rf"{role} marker coordinate beyond 1e\+06 mm"):
        icp_register(*sides)


def test_collinear_source_is_degenerate():
    line = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    target = MarkerSet("device", np.random.default_rng(0).uniform(0, 10, (4, 3)))
    with pytest.raises(DegenerateGeometryError):
        icp_register(MarkerSet("ct", line), target)


def test_config_round_trip_and_validation():
    config = IcpConfig(max_iterations=25, rmsd_delta_tolerance=1e-4)
    assert IcpConfig.from_text(config.to_text()).max_iterations == 25
    assert IcpConfig.from_text("") == IcpConfig()
    with pytest.raises(ConfigError, match="max_iterations"):
        IcpConfig(max_iterations=0)
    with pytest.raises(ConfigError, match="rmsd_delta_tolerance"):
        IcpConfig(rmsd_delta_tolerance=0.0)
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match="rmsd_delta_tolerance"):
            IcpConfig(rmsd_delta_tolerance=float(value))
        with pytest.raises(ConfigError, match="rmsd_delta_tolerance"):
            IcpConfig.from_text(f"rmsd_delta_tolerance = {value}\n")
    with pytest.raises(ConfigError, match="unknown key"):
        IcpConfig.from_text("iterations = 5\n")


def test_json_dict_shape():
    source, target, _ = scene(7, 8, 0.2, 5.0)
    result = icp_register(source, target)
    payload = result.to_json_dict()
    assert set(payload) == {"transform", "rmsd", "iterations_used", "converged"}
    assert isinstance(payload["converged"], bool)
    assert payload["iterations_used"] == result.iterations_used


# Scenes for the fixed-point stop: every marker count from 3 to 40 once,
# with noise from 0 to 3 mm and some dropouts and decoys.
FIXED_POINT_SCENES = [
    SceneSpec(n_markers=n, noise_sigma_mm=(0.0, 0.5, 1.0, 2.0, 3.0)[n % 5],
              dropout_count=n % 2 if n > 3 else 0, decoy_count=n % 3, seed=2500 + n)
    for n in range(3, 41)
]


@pytest.mark.parametrize("max_iterations", [1, 2, 3, 5])
def test_fixed_point_stop_matches_the_full_iteration_at_small_caps(max_iterations):
    # At tolerance 1e-300 only a repeated rmsd converges, so a run stops at
    # its fixed point unless the cap comes first; at a cap of 1 or 2 the
    # stop can never be reached.
    config = IcpConfig(max_iterations=max_iterations, rmsd_delta_tolerance=1e-300)
    for spec in FIXED_POINT_SCENES:
        ct, device, _ = generate_scene(spec)
        assert_same_bits(icp_register(ct, device, config), loop_icp(ct, device, config))


def test_a_run_stopped_at_its_fixed_point_skips_the_last_fit(monkeypatch):
    fits = []
    solve = fidreg.icp.horn_solve

    def counted(*args):
        fits.append(None)
        return solve(*args)

    monkeypatch.setattr(fidreg.icp, "horn_solve", counted)
    stopped = capped = 0
    for spec in FIXED_POINT_SCENES:
        ct, device, _ = generate_scene(spec)
        for config in (IcpConfig(rmsd_delta_tolerance=1e-300), IcpConfig(max_iterations=3)):
            fits.clear()
            result = icp_register(ct, device, config)
            assert_same_bits(result, loop_icp(ct, device, config))
            if not result.converged:
                # Capped: one fit per history entry but the last, as before.
                assert len(fits) == result.iterations_used - 1
                capped += 1
            elif config.rmsd_delta_tolerance == 1e-300:
                # Only a repeated rmsd converges here, and it repeats at the
                # fixed point: the full iteration would fit once more.
                assert len(fits) == result.iterations_used - 2
                stopped += 1
    assert stopped >= 30 and capped >= 1
