import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fidreg.config import ConfigError
from fidreg.errors import InsufficientMarkersError
from fidreg.segmentation import (
    BinaryMask,
    SegmentationConfig,
    component_centroid,
    connected_components,
    filter_by_size,
    segment_markers,
    threshold_volume,
)
from fidreg.volume import Volume

from reference_impls import flood_fill_partition


def make_volume(voxels, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    vox = np.asarray(voxels, dtype=np.int16)
    return Volume(dims=vox.shape, spacing=spacing, origin=origin, voxels=vox)


def mask_from_sets(components):
    """Back-convert a component list to {frozenset of ijk} for comparison."""
    return {frozenset(map(tuple, c.voxel_indices.tolist())) for c in components}


def test_threshold_is_inclusive():
    vox = np.zeros((3, 1, 1), dtype=np.int16)
    vox[0, 0, 0] = 299
    vox[1, 0, 0] = 300
    vox[2, 0, 0] = 301
    mask = threshold_volume(make_volume(vox), hu_min=300.0)
    assert mask.bits[:, 0, 0].tolist() == [False, True, True]


# Every int16 extreme and the values around a few grid levels.
_THRESHOLD_VOXELS = np.array(
    [-32768, -32767, -1001, -1000, -999, -1, 0, 1, 299, 300, 301, 32766, 32767], dtype=np.int16
).reshape(13, 1, 1)
_grid_offsets = st.builds(
    lambda level, offset: float(level) + offset,
    st.sampled_from([int(v) for v in _THRESHOLD_VOXELS.ravel()]),
    st.sampled_from([-0.5, -1e-9, 0.0, 1e-9, 0.5]),
)


@given(
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(-40000, 40000),
        _grid_offsets,
        st.integers(-(1 << 70), 1 << 70),
    )
)
def test_threshold_matches_float_comparison(hu_min):
    mask = threshold_volume(make_volume(_THRESHOLD_VOXELS), hu_min)
    assert np.array_equal(mask.bits, _THRESHOLD_VOXELS >= hu_min)


@pytest.mark.parametrize(
    "connectivity,expected_count",
    [(6, 2), (18, 2), (26, 1)],
)
def test_corner_touching_pair(connectivity, expected_count):
    # voxels at (0,0,0) and (1,1,1) share only a corner
    bits = np.zeros((2, 2, 2), dtype=bool)
    bits[0, 0, 0] = True
    bits[1, 1, 1] = True
    comps = connected_components(BinaryMask((2, 2, 2), bits), connectivity)
    assert len(comps) == expected_count


@pytest.mark.parametrize("connectivity,expected_count", [(6, 2), (18, 1), (26, 1)])
def test_edge_touching_pair(connectivity, expected_count):
    # voxels at (0,0,0) and (1,1,0) share an edge
    bits = np.zeros((2, 2, 1), dtype=bool)
    bits[0, 0, 0] = True
    bits[1, 1, 0] = True
    comps = connected_components(BinaryMask((2, 2, 1), bits), connectivity)
    assert len(comps) == expected_count


def test_face_touching_pair_joins_everywhere():
    bits = np.zeros((2, 1, 1), dtype=bool)
    bits[:, 0, 0] = True
    for connectivity in (6, 18, 26):
        comps = connected_components(BinaryMask((2, 1, 1), bits), connectivity)
        assert len(comps) == 1
        assert comps[0].voxel_count == 2


@settings(max_examples=30)
@given(
    st.integers(0, 2**48 - 1),
    st.sampled_from([6, 18, 26]),
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
)
def test_partition_matches_flood_fill_reference(seed_bits, connectivity, dims):
    rng = np.random.default_rng(seed_bits)
    bits = rng.random(dims) < 0.4
    comps = connected_components(BinaryMask(dims, bits), connectivity)
    assert mask_from_sets(comps) == flood_fill_partition(bits, connectivity)
    # components partition the set voxels
    assert sum(c.voxel_count for c in comps) == int(bits.sum())


def test_labels_follow_x_fastest_first_encounter():
    # three isolated voxels; x-fastest scan meets them in this order
    bits = np.zeros((5, 3, 3), dtype=bool)
    bits[4, 0, 0] = True  # linear index 4
    bits[0, 2, 0] = True  # linear index 10
    bits[2, 0, 2] = True  # linear index 32
    comps = connected_components(BinaryMask((5, 3, 3), bits), 26)
    assert [c.label for c in comps] == [1, 2, 3]
    firsts = [tuple(c.voxel_indices[0]) for c in comps]
    assert firsts == [(4, 0, 0), (0, 2, 0), (2, 0, 2)]


def test_size_filter_interval_is_closed():
    bits_small = np.ones((1, 1, 1), dtype=bool)
    comps = connected_components(BinaryMask((1, 1, 1), bits_small), 26)
    # expected 2 mm^3, tolerance 0.5 -> closed interval [1, 3]
    assert filter_by_size(comps, (1, 1, 1), expected_mm3=2.0, tolerance_fraction=0.5)
    assert not filter_by_size(comps, (1, 1, 1), expected_mm3=2.0 + 1e-9, tolerance_fraction=0.5)
    bits_big = np.ones((3, 1, 1), dtype=bool)
    comps3 = connected_components(BinaryMask((3, 1, 1), bits_big), 26)
    assert filter_by_size(comps3, (1, 1, 1), expected_mm3=2.0, tolerance_fraction=0.5)
    assert not filter_by_size(comps3, (1, 1, 1), expected_mm3=2.0 - 1e-9, tolerance_fraction=0.5)


def test_size_filter_uses_physical_spacing():
    comps = connected_components(BinaryMask((1, 1, 1), np.ones((1, 1, 1), bool)), 26)
    # one voxel at 0.5 x 0.5 x 2.0 mm = 0.5 mm^3
    assert filter_by_size(comps, (0.5, 0.5, 2.0), expected_mm3=0.5, tolerance_fraction=0.1)
    assert not filter_by_size(comps, (1.0, 1.0, 1.0), expected_mm3=0.5, tolerance_fraction=0.1)


def rasterize_sphere(center_idx, radius_vox, dims, inside=3000, outside=0):
    idx = np.indices(dims).astype(np.float64)
    d2 = sum((idx[a] - center_idx[a]) ** 2 for a in range(3))
    return np.where(d2 <= radius_vox**2, inside, outside).astype(np.int16)


def test_sphere_centroid_is_exact_by_symmetry():
    vox = rasterize_sphere((8, 9, 10), 4.0, (20, 20, 20))
    volume = make_volume(vox, spacing=(0.7, 0.8, 0.9), origin=(-3.0, 2.0, 11.0))
    comps = connected_components(threshold_volume(volume, 300.0), 26)
    assert len(comps) == 1
    centroid = component_centroid(comps[0], volume)
    expected = np.array([-3.0 + 8 * 0.7, 2.0 + 9 * 0.8, 11.0 + 10 * 0.9])
    np.testing.assert_allclose(centroid, expected, atol=1e-12)


def test_intensity_weighted_centroid_hand_case():
    vox = np.zeros((2, 1, 1), dtype=np.int16)
    vox[0, 0, 0] = 1000
    vox[1, 0, 0] = 3000
    volume = make_volume(vox)
    comps = connected_components(threshold_volume(volume, 300.0), 26)
    (comp,) = comps
    plain = component_centroid(comp, volume)
    weighted = component_centroid(comp, volume, intensity_weighted=True)
    np.testing.assert_allclose(plain, [0.5, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(weighted, [0.75, 0.0, 0.0], atol=1e-15)


def test_intensity_weighting_rejects_nonpositive_hu():
    vox = np.zeros((2, 1, 1), dtype=np.int16)
    vox[0, 0, 0] = -5
    vox[1, 0, 0] = 3000
    volume = make_volume(vox)
    comps = connected_components(BinaryMask((2, 1, 1), np.ones((2, 1, 1), bool)), 26)
    with pytest.raises(ValueError, match="positive"):
        component_centroid(comps[0], volume, intensity_weighted=True)


def test_translation_equivariance_of_centroids():
    vox = rasterize_sphere((6, 6, 6), 3.2, (13, 13, 13))
    config = SegmentationConfig(expected_mm3=140.0, tolerance_fraction=0.5)
    base = segment_markers(make_volume(np.tile(vox, (3, 1, 1))), config)
    shifted = segment_markers(
        make_volume(np.tile(vox, (3, 1, 1)), origin=(10.0, -4.0, 2.5)), config
    )
    np.testing.assert_allclose(shifted.points - base.points, [[10.0, -4.0, 2.5]] * 3, atol=1e-12)


def test_full_pipeline_filters_decoy_blob():
    vox = np.zeros((40, 20, 20), dtype=np.int16)
    vox[2:5, 2:5, 2:5] = 3000  # 27 voxels
    vox[10:13, 10:13, 10:13] = 3000  # 27 voxels
    vox[20:23, 2:5, 10:13] = 3000  # 27 voxels
    vox[28:38, 5:15, 5:15] = 3000  # 1000 voxels, too big
    markers = segment_markers(make_volume(vox), SegmentationConfig(expected_mm3=27.0))
    assert markers.frame == "ct"
    assert len(markers) == 3
    # scan order: the (21, 3, 11) blob starts at a smaller y than (11, 11, 11)
    np.testing.assert_allclose(
        markers.points, [[3, 3, 3], [21, 3, 11], [11, 11, 11]], atol=1e-12
    )


def test_insufficient_markers_message():
    vox = np.zeros((5, 5, 5), dtype=np.int16)
    vox[1:3, 1:3, 1:3] = 3000
    with pytest.raises(InsufficientMarkersError, match="found 1, need at least 3"):
        segment_markers(make_volume(vox), SegmentationConfig(expected_mm3=8.0))


def test_config_round_trip_and_validation():
    config = SegmentationConfig(
        expected_mm3=65.4,
        hu_min=250.0,
        connectivity=18,
        tolerance_fraction=0.25,
        intensity_weighted=True,
    )
    assert SegmentationConfig.from_text(config.to_text()) == config
    with pytest.raises(ConfigError, match="expected_mm3"):
        SegmentationConfig.from_text("hu_min = 300\n")
    with pytest.raises(ConfigError, match="unknown key"):
        SegmentationConfig.from_text("expected_mm3 = 27\nhu_max = 2\n")
    with pytest.raises(ConfigError, match="connectivity"):
        SegmentationConfig(expected_mm3=27.0, connectivity=8)
    with pytest.raises(ConfigError, match="tolerance_fraction"):
        SegmentationConfig(expected_mm3=27.0, tolerance_fraction=1.0)
    with pytest.raises(ConfigError, match="positive"):
        SegmentationConfig(expected_mm3=0.0)


def test_config_rejects_non_finite_values():
    for value in ("inf", "nan"):
        with pytest.raises(ConfigError, match="expected_mm3"):
            SegmentationConfig(expected_mm3=float(value))
        with pytest.raises(ConfigError, match="hu_min"):
            SegmentationConfig(expected_mm3=27.0, hu_min=float(value))
        with pytest.raises(ConfigError, match="expected_mm3"):
            SegmentationConfig.from_text(f"expected_mm3 = {value}\n")
        with pytest.raises(ConfigError, match="hu_min"):
            SegmentationConfig.from_text(f"expected_mm3 = 27\nhu_min = {value}\n")
    with pytest.raises(ConfigError, match="hu_min"):
        SegmentationConfig(expected_mm3=27.0, hu_min=float("-inf"))


def test_intensity_weighting_needs_a_positive_hu_min():
    # Voxels are integers >= hu_min, so hu_min > 0 makes every weight >= 1.
    for hu_min in (0.0, -500.0):
        with pytest.raises(ConfigError, match="intensity_weighted needs hu_min > 0"):
            SegmentationConfig(expected_mm3=27.0, hu_min=hu_min, intensity_weighted=True)
        with pytest.raises(ConfigError, match="intensity_weighted needs hu_min > 0"):
            SegmentationConfig.from_text(
                f"expected_mm3 = 27\nhu_min = {hu_min}\nintensity_weighted = true\n"
            )
        SegmentationConfig(expected_mm3=27.0, hu_min=hu_min)
    SegmentationConfig(expected_mm3=27.0, hu_min=0.5, intensity_weighted=True)


def test_bone_block_segments_within_budget():
    # Criterion 04's volume with a 64^3 block above hu_min: one large
    # component that must neither slow labelling down nor pass the size filter.
    spacing = (0.8, 0.8, 1.5)
    origin = (-102.4, -102.4, -192.0)
    vox = np.full((256, 256, 256), 40, dtype=np.int16)
    vox[96:160, 100:164, 90:154] = 1200
    corners = [
        (20, 30, 40), (200, 40, 60), (40, 210, 30), (180, 200, 220),
        (60, 60, 200), (220, 120, 120), (120, 20, 180), (30, 140, 100),
    ]
    for i, j, k in corners:
        vox[i : i + 3, j : j + 3, k : k + 3] = 3000
    volume = Volume((256, 256, 256), spacing, origin, vox)
    del vox
    config = SegmentationConfig(expected_mm3=27 * 0.8 * 0.8 * 1.5)
    start = time.perf_counter()
    markers = segment_markers(volume, config)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"segmentation took {elapsed:.2f} s"
    # Labels follow scan order: ascending k, then j, then i of the first voxel.
    expected = [
        np.array(origin) + (np.array(c) + 1.0) * spacing
        for c in sorted(corners, key=lambda c: (c[2], c[1], c[0]))
    ]
    assert len(markers) == 8
    np.testing.assert_allclose(markers.points, expected, rtol=0, atol=1e-9)
