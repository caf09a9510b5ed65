"""Radio-opaque marker segmentation.

Pipeline: threshold the volume at a Hounsfield floor, label 3D connected
components, keep components whose physical volume is near the expected marker
volume, and return component centroids as a ``ct``-frame MarkerSet.

Connected-component labels are assigned 1..K in first-encounter scan order,
where the scan runs in x-fastest linear order (``i + nx * (j + ny * k)``), and
each component lists its voxels in that same scan order, so identical inputs
always produce the identical labeling, marker ordering and centroid rounding.
Labelling is whole-array union-find over runs of consecutive set voxels along
x, not a per-voxel flood fill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import BOOL, FLOAT, INT, ConfigError, read_fields, write_fields
from .errors import InsufficientMarkersError
from .markers import MarkerSet
from .volume import Volume

# Largest Manhattan step |di| + |dj| + |dk| between neighbours, per
# connectivity (faces, plus edges, plus corners).
_MAX_STEP = {6: 1, 18: 2, 26: 3}

_SEG_FIELDS = {
    "hu_min": FLOAT,
    "connectivity": INT,
    "expected_mm3": FLOAT,
    "tolerance_fraction": FLOAT,
    "intensity_weighted": BOOL,
}


@dataclass
class SegmentationConfig:
    """Tuning for segment_markers. ``expected_mm3`` has no sensible default
    and must always be supplied (it is the marker's physical volume)."""

    expected_mm3: float
    hu_min: float = 300.0
    connectivity: int = 26
    tolerance_fraction: float = 0.5
    intensity_weighted: bool = False

    def __post_init__(self):
        if not (0 < self.expected_mm3 < math.inf):
            raise ConfigError(
                f"expected_mm3 must be positive and finite, got {self.expected_mm3!r}"
            )
        if not math.isfinite(self.hu_min):
            raise ConfigError(f"hu_min must be finite, got {self.hu_min!r}")
        if self.intensity_weighted and not self.hu_min > 0:
            raise ConfigError(
                f"intensity_weighted needs hu_min > 0 (positive voxel weights), got {self.hu_min!r}"
            )
        if self.connectivity not in (6, 18, 26):
            raise ConfigError(f"connectivity must be 6, 18 or 26, got {self.connectivity!r}")
        if not (0.0 < self.tolerance_fraction < 1.0):
            raise ConfigError(
                f"tolerance_fraction must be in (0, 1), got {self.tolerance_fraction!r}"
            )

    @classmethod
    def from_text(cls, text: str) -> "SegmentationConfig":
        return cls(**read_fields(text, _SEG_FIELDS, required=("expected_mm3",)))

    def to_text(self) -> str:
        return write_fields(self, _SEG_FIELDS)


@dataclass(eq=False)
class BinaryMask:
    """Boolean voxel grid sharing the owning volume's index convention."""

    dims: tuple[int, int, int]
    bits: np.ndarray  # (nx, ny, nz) bool

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        bits = np.asarray(self.bits, dtype=bool)
        if bits.shape != self.dims:
            raise ValueError(f"bits shape {bits.shape} != dims {self.dims}")
        self.bits = bits


@dataclass(eq=False)
class Component:
    """One connected component of set voxels."""

    label: int
    voxel_indices: np.ndarray  # (m, 3) int64 (i, j, k), x-fastest scan order

    @property
    def voxel_count(self) -> int:
        return len(self.voxel_indices)

    def volume_mm3(self, spacing) -> float:
        sx, sy, sz = spacing
        return float(self.voxel_count) * float(sx) * float(sy) * float(sz)


def threshold_volume(volume: Volume, hu_min: float) -> BinaryMask:
    """Voxels with HU >= hu_min.

    An integer voxel reaches a finite ``hu_min`` exactly when it reaches
    ``ceil(hu_min)``, so the comparison stays in int16 rather than casting
    every voxel to float64.
    """
    try:
        bound = math.ceil(hu_min)
    except (OverflowError, ValueError):  # infinite or nan: compare as given
        bound = hu_min
    return BinaryMask(dims=volume.dims, bits=volume.voxels >= bound)


def connected_components(mask: BinaryMask, connectivity: int = 26) -> list[Component]:
    """Label connected set-voxel regions.

    Components are maximal and disjoint; labels follow first-encounter scan
    order and voxels within a component follow scan order.

    Two-pass union-find over x-runs (Wu, Otoo & Suzuki 2009): set voxels are
    compressed into runs of consecutive x, runs in neighbouring rows that
    touch are joined, and each component is labelled by its first run.
    """
    if connectivity not in _MAX_STEP:
        raise ValueError(f"connectivity must be 6, 18 or 26, got {connectivity!r}")
    nx, ny, nz = mask.dims
    # x-fastest linearization: C-order ravel of the (nz, ny, nx) transpose.
    linear = np.flatnonzero(mask.bits.transpose(2, 1, 0).ravel())
    if len(linear) == 0:
        return []
    # A run starts where the index is not one past its predecessor or a row starts.
    is_start = np.empty(len(linear), dtype=bool)
    is_start[0] = True
    np.not_equal(linear[1:], linear[:-1] + 1, out=is_start[1:])
    is_start |= linear % nx == 0
    starts = np.flatnonzero(is_start)
    run_first = linear[starts]
    run_last = linear[np.append(starts[1:], len(linear)) - 1]
    run_len = run_last - run_first + 1

    parent = _union_runs(
        _run_pairs(run_first, run_last, mask.dims, connectivity), len(starts)
    )
    # Roots are each component's smallest run, so ascending roots are
    # ascending first voxels: the first-encounter label order.
    roots, run_label = np.unique(parent, return_inverse=True)
    # Concatenate each component's runs in scan order.  A run stays within
    # its row, so its voxels share j and k and step by one in i.
    run_order = np.argsort(run_label, kind="stable")
    first, length = run_first[run_order], run_len[run_order]
    row = first // nx
    idx = np.empty((len(linear), 3), dtype=np.int64)
    idx[:, 0] = _concat_ranges(first % nx, length)
    idx[:, 1] = np.repeat(row % ny, length)
    idx[:, 2] = np.repeat(row // ny, length)
    sizes = np.zeros(len(roots), dtype=np.int64)
    np.add.at(sizes, run_label, run_len)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    return [
        Component(label=label + 1, voxel_indices=idx[bounds[label] : bounds[label + 1]])
        for label in range(len(roots))
    ]


def _run_pairs(run_first, run_last, dims, connectivity: int) -> np.ndarray:
    """(P, 2) pairs of run ids whose voxels are neighbours, each pair once.

    Runs in one row never touch, so only the forward row offsets (dj, dk)
    matter, and each offset meets a different target row.  A row is a
    neighbour when |dj| + |dk| is within the connectivity's Manhattan step.
    A run covering x0..x1 reaches x0-reach..x1+reach of the target row, where
    reach is 1 when the step leaves room for one more in x.
    """
    nx, ny, nz = dims
    row = run_first // nx
    j, k = row % ny, row // ny
    max_step = _MAX_STEP[connectivity]
    pairs = [np.empty((0, 2), dtype=np.int64)]
    for dj, dk in ((-1, 1), (0, 1), (1, 0), (1, 1)):
        if abs(dj) + abs(dk) > max_step:
            continue
        reach = 1 if abs(dj) + abs(dk) < max_step else 0
        ok = (j + dj >= 0) & (j + dj < ny) & (k + dk < nz)
        src = np.flatnonzero(ok)
        target_row_first = (row[src] + dj + ny * dk) * nx
        shift = nx * (dj + ny * dk)
        lo = np.maximum(run_first[src] + shift - reach, target_row_first)
        hi = np.minimum(run_last[src] + shift + reach, target_row_first + nx - 1)
        # Runs are sorted and disjoint: those meeting [lo, hi] are a slice.
        first = np.searchsorted(run_last, lo, side="left")
        count = np.searchsorted(run_first, hi, side="right") - first
        hit = count > 0
        src, first, count = src[hit], first[hit], count[hit]
        pairs.append(np.column_stack((np.repeat(src, count), _concat_ranges(first, count))))
    return np.concatenate(pairs)


def _concat_ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``concatenate([arange(f, f + c) for f, c in zip(first, count)])``."""
    ends = np.cumsum(count)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(first - (ends - count), count)


def _union_runs(pairs: np.ndarray, n_runs: int) -> np.ndarray:
    """Root run id per run: min-label hooking plus pointer jumping.

    Every root hooks onto the smallest root it shares an edge with, so
    parents only ever decrease and each component ends rooted at its
    smallest run id.
    """
    parent = np.arange(n_runs)
    a, b = pairs[:, 0], pairs[:, 1]
    while True:
        ra, rb = parent[a], parent[b]
        differ = ra != rb
        if not differ.any():
            return parent
        # Edges already inside one tree stay joined; drop them.
        a, b, ra, rb = a[differ], b[differ], ra[differ], rb[differ]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def filter_by_size(
    components: list[Component],
    spacing,
    expected_mm3: float,
    tolerance_fraction: float = 0.5,
) -> list[Component]:
    """Keep components whose physical volume lies in the closed interval
    [expected*(1-tol), expected*(1+tol)], preserving order."""
    lo = expected_mm3 * (1.0 - tolerance_fraction)
    hi = expected_mm3 * (1.0 + tolerance_fraction)
    return [c for c in components if lo <= c.volume_mm3(spacing) <= hi]


def component_centroid(
    component: Component, volume: Volume, intensity_weighted: bool = False
) -> np.ndarray:
    """Centroid (mm) of a component's voxel centers.

    Unweighted geometric mean by default; with intensity weighting, voxel HU
    values are the weights (all member voxels must then have positive HU).
    """
    world = volume.world_coords(component.voxel_indices)
    if not intensity_weighted:
        return world.mean(axis=0)
    idx = component.voxel_indices
    weights = volume.voxels[idx[:, 0], idx[:, 1], idx[:, 2]].astype(np.float64)
    if np.any(weights <= 0):
        raise ValueError("intensity-weighted centroid needs positive HU on all member voxels")
    return (world * weights[:, None]).sum(axis=0) / weights.sum()


def segment_components(volume: Volume, config: SegmentationConfig) -> list[Component]:
    """Threshold + label + size-filter; the shared front half of segment_markers."""
    mask = threshold_volume(volume, config.hu_min)
    components = connected_components(mask, config.connectivity)
    return filter_by_size(
        components, volume.spacing, config.expected_mm3, config.tolerance_fraction
    )


def markers_from_components(
    components: list[Component], volume: Volume, config: SegmentationConfig
) -> MarkerSet:
    if len(components) < 3:
        raise InsufficientMarkersError(found=len(components))
    centroids = [
        component_centroid(c, volume, intensity_weighted=config.intensity_weighted)
        for c in components
    ]
    return MarkerSet(frame="ct", points=np.array(centroids, dtype=np.float64))


def segment_markers(volume: Volume, config: SegmentationConfig) -> MarkerSet:
    """Full pipeline: threshold -> components -> size filter -> centroids.

    Raises InsufficientMarkersError when fewer than 3 components survive.
    """
    return markers_from_components(segment_components(volume, config), volume, config)
