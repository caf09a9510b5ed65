"""The generator algorithm is an external interface; these tests pin it bit-exactly."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fidreg.rng import SplitMix64, rotation_from_quaternion

from reference_impls import UnbufferedSplitMix64, loop_shuffle, splitmix64_reference

# First outputs for seed 0, straight from the published splitmix64 stream.
SEED0_HEAD = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_seed_zero_vector_frozen():
    raw = SplitMix64(0).raw(3)
    assert tuple(int(v) for v in raw) == SEED0_HEAD


@given(st.integers(min_value=0, max_value=(1 << 64) - 1), st.integers(1, 200))
def test_raw_matches_integer_reference(seed, n):
    assert list(SplitMix64(seed).raw(n)) == splitmix64_reference(seed, n)


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_stream_is_chunking_invariant(seed):
    whole = SplitMix64(seed).raw(7)
    rng = SplitMix64(seed)
    parts = np.concatenate([rng.raw(2), rng.raw(0), rng.raw(5)])
    assert np.array_equal(whole, parts)


def test_negative_seed_wraps_to_uint64():
    assert np.array_equal(SplitMix64(-1).raw(4), SplitMix64((1 << 64) - 1).raw(4))


def test_uniforms_unit_interval_and_derivation():
    rng = SplitMix64(123)
    u = rng.uniforms(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    # uniform i is raw i >> 11 scaled by 2**-53, nothing more
    raw = SplitMix64(123).raw(10_000)
    assert np.array_equal(u, (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53)


def test_normals_moments():
    z = SplitMix64(7).normals(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std(ddof=1) - 1.0) < 0.01


def test_normals_consume_two_raws_each():
    # each normal burns one Box-Muller pair; the next raw continues from there
    rng = SplitMix64(99)
    rng.normals(3)
    assert int(rng.raw(1)[0]) == splitmix64_reference(99, 7)[6]


def test_integer_bounds_and_determinism():
    rng = SplitMix64(5)
    draws = [rng.integer(10) for _ in range(2000)]
    assert min(draws) == 0 and max(draws) == 9
    replay = SplitMix64(5)
    assert draws == [replay.integer(10) for _ in range(2000)]
    with pytest.raises(ValueError):
        rng.integer(0)


def test_shuffle_is_a_permutation_and_seeded():
    items = list(range(20))
    a, b = items[:], items[:]
    SplitMix64(42).shuffle(a)
    SplitMix64(42).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items  # 20 elements: identity shuffle would be astonishing


@given(st.integers(min_value=0, max_value=(1 << 64) - 1), st.integers(0, 50))
def test_shuffle_matches_one_draw_per_step_reference(seed, n):
    got, want = list(range(n)), list(range(n))
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    rng.shuffle(got)
    loop_shuffle(ref, want)
    assert got == want
    assert rng.raw(1)[0] == ref.raw(1)[0]  # both consumed the same draws


def test_shuffle_small_lists_noop():
    for items in ([], [1]):
        rng = SplitMix64(1)
        rng.shuffle(items)
        assert int(rng.raw(1)[0]) == splitmix64_reference(1, 1)[0]  # consumed nothing


def test_rotation_is_special_orthogonal():
    for seed in range(20):
        R = SplitMix64(seed).rotation()
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_rotation_from_quaternion_identity_and_halves():
    assert np.allclose(rotation_from_quaternion(np.array([1.0, 0, 0, 0])), np.eye(3))
    # 180 degrees about z
    Rz = rotation_from_quaternion(np.array([0.0, 0, 0, 1.0]))
    assert np.allclose(Rz, np.diag([-1.0, -1.0, 1.0]))


def test_rotation_statistics_cover_so3():
    # column-z direction should spread over the sphere, not cluster
    zs = np.array([SplitMix64(s).rotation()[:, 2] for s in range(500)])
    assert abs(zs.mean(axis=0)).max() < 0.1


_DRAWS = st.one_of(
    st.tuples(st.just("raw"), st.integers(0, 1500)),
    st.tuples(st.just("uniforms"), st.integers(0, 700)),
    st.tuples(st.just("normals"), st.integers(0, 400)),
    st.tuples(st.just("integer"), st.integers(1, 1 << 40)),
    st.tuples(st.just("shuffle"), st.integers(0, 60)),
    st.tuples(st.just("rotation"), st.just(0)),
)


@given(st.integers(min_value=0, max_value=(1 << 64) - 1), st.lists(_DRAWS, max_size=25))
def test_buffered_draws_match_unbuffered_reference(seed, calls):
    # Raw counts reach past the block computed ahead, and zero-length draws
    # sit between the others, so block refills land everywhere in a draw.
    rng, ref = SplitMix64(seed), UnbufferedSplitMix64(seed)
    for name, arg in calls:
        if name == "shuffle":
            got, want = list(range(arg)), list(range(arg))
            rng.shuffle(got)
            ref.shuffle(want)
        elif name == "rotation":
            got, want = rng.rotation(), ref.rotation()
        elif name == "integer":
            got, want = rng.integer(arg), ref.integer(arg)
        else:
            got, want = getattr(rng, name)(arg), getattr(ref, name)(arg)
        assert np.array_equal(got, want), name
    assert np.array_equal(rng.raw(3), ref.raw(3))


def test_raw_returns_a_private_array():
    rng = SplitMix64(8)
    first = rng.raw(4)
    first[:] = 0
    assert int(rng.raw(1)[0]) == splitmix64_reference(8, 5)[4]
    assert list(SplitMix64(8).raw(4)) == splitmix64_reference(8, 4)
