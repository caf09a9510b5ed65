"""Triangle-shape registration of sparse marker sets.

Every 3-subset of detected device markers is stored as a scale-normalized
shape key in a columnar table. To register, the keys of all CT-side triangles
are computed at once, and the CT triples are then taken in a fixed,
spread-out order, in blocks. Each triple of a block takes its k
shape-nearest stored keys from one exact distance matrix; candidates failing
the absolute-scale check are masked out. Every survivor is aligned by a
closed-form coplanar fit that scores all six vertex pairings of its two
triangles at once and keeps the best (see _solve_pairings). Each candidate
is scored by consensus: the CT markers whose nearest device marker lies
within the inlier gate. After each block the adaptive RANSAC bound on the
best consensus so far decides whether enough triples have been scored.
Every candidate scored is then ranked once, and the winner is refit on its
mutual-nearest pairs (see register).

Shape keys: with edge lengths e1 >= e3 >= e2 (e1 longest, e2 shortest), the
key is (r2, r3) = (e2/e1, e3/e1), which is invariant to rigid motion and
uniform scale; e1 itself is kept so absolute size can be verified separately.
Canonical vertex order is (opposite e1, opposite e2, opposite e3).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import FLOAT, INT, ConfigError, read_fields, write_fields
from .errors import DegenerateTriangleError, InsufficientMarkersError, NoMatchError
from .markers import SCAN_BLOCK, MarkerSet, check_coordinates, nearest_markers
from .rigid import (
    COLLINEARITY_RATIO,
    PointCorrespondences,
    RigidTransform,
    apply_rigid_stack,
    center_points,
    fit_rmsd,
    horn_solve,
)

# A triangle with area below this fraction of e1^2 has no stable shape key.
# The one thin-triangle gate: device and CT triangles are keyed alike.
DEGENERACY_RATIO = 1e-6

_REG_FIELDS = {
    "k": INT,
    "scale_tolerance_mm": FLOAT,
}


@dataclass
class RegistrationConfig:
    """Candidate search and verification knobs for register()."""

    k: int = 4
    scale_tolerance_mm: float = 5.0

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k!r}")
        if not (0 <= self.scale_tolerance_mm < math.inf):
            raise ConfigError("scale_tolerance_mm must be non-negative and finite")

    @classmethod
    def from_text(cls, text: str) -> "RegistrationConfig":
        return cls(**read_fields(text, _REG_FIELDS))

    def to_text(self) -> str:
        return write_fields(self, _REG_FIELDS)


@dataclass(frozen=True)
class TriangleKey:
    """Scale-invariant shape descriptor plus the absolute longest edge."""

    r2: float  # shortest / longest edge
    r3: float  # middle / longest edge
    e1: float  # longest edge, mm

    def __post_init__(self):
        if not (self.e1 > 0):
            raise ValueError(f"e1 must be positive, got {self.e1!r}")
        if not (0 < self.r2 <= self.r3 <= 1):
            raise ValueError(f"need 0 < r2 <= r3 <= 1, got r2={self.r2!r} r3={self.r3!r}")
        if not (self.r2 + self.r3 > 1):
            raise ValueError(f"triangle inequality violated: r2 + r3 = {self.r2 + self.r3!r}")


@dataclass(frozen=True)
class IndexedTriangle:
    """Shape key plus the marker indices it came from, in canonical order."""

    marker_indices: tuple[int, int, int]
    key: TriangleKey


def _edge_lengths(points: np.ndarray) -> np.ndarray:
    """Edge lengths where edge i is opposite vertex i; (..., 3, 3) -> (..., 3).

    ``vecdot`` takes the same scalar dot product as ``np.linalg.norm`` of
    one edge vector, so every length is bit-identical to that norm.
    """
    diff = points[..., [1, 2, 0], :] - points[..., [2, 0, 1], :]
    return np.sqrt(np.vecdot(diff, diff))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis (length 3), summed left to right."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis, term for term as np.cross evaluates it."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def _canonical_perms(edges: np.ndarray) -> np.ndarray:
    """Vertex order (opp-longest, opp-shortest, opp-middle) per row; ties by index."""
    descending = np.argsort(-edges, axis=-1, kind="stable")
    return descending[..., [0, 2, 1]]


def _canonical_perm(edges: np.ndarray) -> tuple[int, int, int]:
    """Canonical vertex order of one triangle's edge lengths."""
    a, b, c = _canonical_perms(np.asarray(edges)[None])[0]
    return (int(a), int(b), int(c))


class _Shapes(NamedTuple):
    """Shape data of a stack of triangles (N, 3, 3), one row per triangle."""

    edges: np.ndarray  # (N, 3), edge i opposite vertex i
    perm: np.ndarray  # (N, 3), canonical vertex order
    e1: np.ndarray  # (N,), longest edge
    area: np.ndarray  # (N,)
    key: np.ndarray  # (N, 2), (r2, r3); meaningless where not shaped
    shaped: np.ndarray  # (N,), False for degenerate rows


def _triangle_shapes(points: np.ndarray) -> _Shapes:
    """Shape keys of a stack of triangles (N, 3, 3).

    A row is degenerate (``shaped`` False) for coincident points, area below
    ``DEGENERACY_RATIO * e1**2``, or edge ratios that round to no triangle
    (r2 + r3 <= 1).
    """
    edges = _edge_lengths(points)
    e1 = edges.max(axis=-1)
    normal = _cross(points[:, 1] - points[:, 0], points[:, 2] - points[:, 0])
    area = 0.5 * np.sqrt(np.vecdot(normal, normal))
    perm = _canonical_perms(edges)
    with np.errstate(divide="ignore", invalid="ignore"):
        key = edges[np.arange(len(edges))[:, None], perm[:, 1:]] / e1[:, None]
    shaped = (e1 > 0.0) & ~(area < DEGENERACY_RATIO * e1 * e1) & (key[:, 0] + key[:, 1] > 1.0)
    return _Shapes(edges, perm, e1, area, key, shaped)


def triangle_key(p1: np.ndarray, p2: np.ndarray, p3: np.ndarray) -> TriangleKey:
    """Shape key of the triangle (p1, p2, p3).

    Raises ValueError for a NaN coordinate or one beyond MAX_COORDINATE_MM,
    and DegenerateTriangleError when the triangle's area is below
    ``DEGENERACY_RATIO * e1**2`` (collinear points included).
    """
    points = np.array([p1, p2, p3], dtype=np.float64)
    check_coordinates(points, "triangle vertex")
    shapes = _triangle_shapes(points[None])
    longest = float(shapes.e1[0])
    if not shapes.shaped[0]:
        if not longest > 0.0:
            raise DegenerateTriangleError("coincident points have no triangle shape")
        area = float(shapes.area[0])
        raise DegenerateTriangleError(
            f"triangle too thin: area {area:.6g} < {DEGENERACY_RATIO:g} * e1^2"
            if area < DEGENERACY_RATIO * longest * longest
            else "triangle too thin: its edge ratios round to a straight line"
        )
    r2, r3 = shapes.key[0].tolist()
    return TriangleKey(r2=r2, r3=r3, e1=longest)


def _nearest_keys(
    queries: np.ndarray, keys: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest stored keys per query row, by (distance, insertion order).

    Returns ``(index (Q, k'), distance (Q, k'))`` with k' = min(k, len(keys)).
    Distances are ``sqrt(delta @ delta)`` bit for bit. A quick elementwise
    squared distance picks, per row, every key within a relative 1e-9 of the
    k'-th smallest; only those are measured exactly and ranked, so rounding
    in the quick pass cannot change the result.
    """
    count = min(k, len(keys))
    index = np.empty((len(queries), count), dtype=np.intp)
    distance = np.empty((len(queries), count), dtype=np.float64)
    if count == 0:
        return index, distance
    block = max(1, SCAN_BLOCK // len(keys))
    for start in range(0, len(queries), block):
        chunk = queries[start : start + block]
        quick = chunk[:, 0, None] - keys[:, 0]
        quick *= quick
        dy = chunk[:, 1, None] - keys[:, 1]
        dy *= dy
        quick += dy
        kth = np.partition(quick, count - 1, axis=1)[:, count - 1]
        rows, cols = np.nonzero(quick <= kth[:, None] * (1.0 + 1e-9))
        delta = chunk[rows] - keys[cols]
        exact = np.sqrt(np.vecdot(delta, delta))
        order = np.lexsort((cols, exact, rows))
        per_row = np.bincount(rows, minlength=len(chunk))
        rank = np.arange(len(order)) - (np.cumsum(per_row) - per_row)[rows[order]]
        keep = order[rank < count]
        index[start : start + block] = cols[keep].reshape(-1, count)
        distance[start : start + block] = exact[keep].reshape(-1, count)
    return index, distance


def _completed_triples(start: int, stop: int) -> np.ndarray:
    """Triples (a, b, c), a < b < c, that markers ``start .. stop - 1`` complete.

    Ordered by the newest marker c, then (a, b) in combinations order: the
    order in which inserting the markers one at a time stores them.
    """
    index = np.arange(stop)
    c, a, b = np.nonzero((index[:, None] < index) & (index < index[start:, None, None]))
    return np.stack([a, b, c + start], axis=1)


def _all_triples(count: int) -> np.ndarray:
    """Every triple (a, b, c), a < b < c < count, in combinations order."""
    index = np.arange(count)
    a, b, c = np.nonzero((index[:, None, None] < index[:, None]) & (index[:, None] < index))
    return np.stack([a, b, c], axis=1)


class TriangleTable:
    """All triangles over the device markers seen so far, searchable by shape.

    Columnar storage: ``markers`` (n, 3) holds the device markers in
    insertion order, read-only; the triangles follow in the order each new
    marker completes them, with ``keys`` (T, 2) holding (r2, r3), ``e1``
    (T,) the longest edges and ``indices`` (T, 3) the marker indices in
    canonical order. Shape distance is Euclidean in (r2, r3).
    """

    def __init__(self):
        self.markers = np.zeros((0, 3), dtype=np.float64)
        self.markers.setflags(write=False)
        self.degenerate_skipped = 0
        self.keys = np.zeros((0, 2), dtype=np.float64)
        self.e1 = np.zeros(0, dtype=np.float64)
        self.indices = np.zeros((0, 3), dtype=np.intp)

    @property
    def n_triangles(self) -> int:
        return len(self.e1)

    def _triangle(self, row: int) -> IndexedTriangle:
        """The stored triangle at ``row`` (insertion order)."""
        a, b, c = (int(i) for i in self.indices[row])
        r2, r3 = (float(v) for v in self.keys[row])
        key = TriangleKey(r2=r2, r3=r3, e1=float(self.e1[row]))
        return IndexedTriangle(marker_indices=(a, b, c), key=key)

    def insert_marker(self, points: np.ndarray) -> int:
        """Add one detected marker (3,), or a run of them (n, 3) in order.

        Indexes every new triangle the markers complete. A run stores the
        same table, in the same order, as inserting its points one at a time,
        but keys all the new triples in one pass. Returns the number of
        triangles inserted (degenerate triples are skipped and tallied in
        ``degenerate_skipped``). Raises ValueError, leaving the table
        unchanged, unless the points are finite, within MAX_COORDINATE_MM
        and shaped (3,) or (n, 3).
        """
        pts = np.array(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[None]
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"markers must be a (3,) or (n, 3) array, got shape {np.shape(points)}")
        check_coordinates(pts, "device marker")
        start = len(self.markers)
        self.markers = _extend(self.markers, pts)
        self.markers.setflags(write=False)
        triples = _completed_triples(start, len(self.markers))
        if len(triples) == 0:
            return 0
        shapes = _triangle_shapes(self.markers[triples])
        shaped = shapes.shaped
        canonical = _permute_rows(triples, shapes.perm)
        self.degenerate_skipped += int(np.count_nonzero(~shaped))
        self.keys = _extend(self.keys, shapes.key[shaped])
        self.e1 = _extend(self.e1, shapes.e1[shaped])
        self.indices = _extend(self.indices, canonical[shaped])
        return int(np.count_nonzero(shaped))

    def query_nearest(self, key: TriangleKey, k: int) -> list[tuple[IndexedTriangle, float]]:
        """k shape-nearest stored triangles as (triangle, shape distance).

        Ordered by (distance, insertion order); fewer than ``k`` when the
        table is smaller.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        index, distance = _nearest_keys(np.array([[key.r2, key.r3]]), self.keys, k)
        return [(self._triangle(row), float(d)) for row, d in zip(index[0], distance[0])]


def _extend(stored: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``stored`` followed by the rows of ``new``, which an empty ``stored`` adopts."""
    return np.concatenate([stored, new]) if len(stored) else new


def _permute_rows(rows: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """rows[i][perm[i]] for stacks (N, 3, ...) and orders (N, 3)."""
    return rows[np.arange(len(perm))[:, None], perm]


# The device vertex orders every candidate is fitted under, in
# itertools.permutations order, and which of them are odd.
_PAIRINGS = np.array(list(itertools.permutations(range(3))))
_ODD_PAIRING = np.linalg.det(np.eye(3)[_PAIRINGS]) < 0.0


def _solve_pairings(
    source: np.ndarray, target: np.ndarray, source_e1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit ``source[i]`` onto ``target[i]`` (C, 3, 3) under the best vertex pairing.

    Two triangles are coplanar point sets, so each pairing has a closed-form
    least-squares fit (Horn 1987). Each triangle gets a plane frame: n along
    (p1 - p0) x (p2 - p0), e2 along n x (p1 - p0) and e1 = e2 x n, with
    in-plane coordinates (x, y) of its centered vertices. For each of the
    six device vertex orders of _PAIRINGS, with the source on the same side
    of its plane (+) and turned over (-), C = sum(x u +- y v) and
    S = sum(x v -+ y u) over the paired vertices, where (u, v) are the target
    coordinates. The first largest C**2 + S**2, in that order, is the
    least-squares pairing; its rotation maps the source frame onto the
    target frame turned by the angle whose cosine and sine are C and S over
    sqrt(C**2 + S**2). Every step is elementwise, so a row's bits do not
    depend on the stack.

    ``source_e1`` (C,) holds each source's longest edge. Returns
    ``(rotation, translation, pairing)``, the kept pairing as an index into
    _PAIRINGS. Raises DegenerateTriangleError when a source's area is at
    most 2 * COLLINEARITY_RATIO * e1**2, or a target's normal has no length.
    """
    count = len(target)
    points = np.concatenate([source, target])
    edge = points[:, 1] - points[:, 0]
    normal = _cross(edge, points[:, 2] - points[:, 0])
    length = np.sqrt(_dot(normal, normal))  # twice the area
    floor = np.zeros(2 * count)
    np.multiply(4.0 * COLLINEARITY_RATIO * source_e1, source_e1, out=floor[:count])
    if not (length > floor).all():
        raise DegenerateTriangleError("no alignable vertex pairing (degenerate triangle)")
    n = normal / length[:, None]
    e2 = _cross(n, edge)
    e2 /= np.sqrt(_dot(e2, e2))[:, None]
    e1 = _cross(e2, n)
    centroid, centered = center_points(points)
    xy = np.empty((2 * count, 2, 3))
    xy[:, 0] = _dot(centered, e1[:, None])
    xy[:, 1] = _dot(centered, e2[:, None])

    # sums[:, i, j, p]: sum over source vertices k of (x, y)[i] of vertex k
    # times (u, v)[j] of the target vertex that pairing p puts against it
    products = xy[:count, :, None, None, :] * xy[count:, None, :, _PAIRINGS]
    sums = products[..., 0] + products[..., 1] + products[..., 2]
    xu, xv, yu, yv = sums[:, 0, 0], sums[:, 0, 1], sums[:, 1, 0], sums[:, 1, 1]
    # Columns 2p and 2p + 1: pairing p, source on its side and turned over.
    c_sum = np.empty((count, 6, 2))
    s_sum = np.empty((count, 6, 2))
    np.add(xu, yv, out=c_sum[:, :, 0])
    np.subtract(xu, yv, out=c_sum[:, :, 1])
    np.subtract(xv, yu, out=s_sum[:, :, 0])
    np.add(xv, yu, out=s_sum[:, :, 1])
    c_sum, s_sum = c_sum.reshape(count, 12), s_sum.reshape(count, 12)
    best = np.argmax(c_sum * c_sum + s_sum * s_sum, axis=1)
    rows = np.arange(count)
    c_sum, s_sum = c_sum[rows, best], s_sum[rows, best]
    scale = np.sqrt(c_sum * c_sum + s_sum * s_sum)
    cos, sin = (c_sum / scale)[:, None], (s_sum / scale)[:, None]
    side = np.where(best % 2 == 1, -1.0, 1.0)[:, None]

    first = cos * e1[count:] + sin * e2[count:]
    second = side * (cos * e2[count:] - sin * e1[count:])
    third = side * n[count:]
    rotation = first[:, :, None] * e1[:count, None, :] + second[:, :, None] * e2[:count, None, :]
    rotation += third[:, :, None] * n[:count, None, :]
    translation = centroid[count:] - _dot(rotation, centroid[:count, None, :])
    return rotation, translation, best // 2


def align_with_flip(corr: PointCorrespondences) -> tuple[RigidTransform, float, bool]:
    """Align a 3-point correspondence under its best vertex pairing.

    Fits all six pairings of the target vertices to the source vertices
    (see _solve_pairings) and returns the best as (transform, rmsd,
    flipped). ``flipped`` is True when the kept pairing is an odd
    permutation of the one given, such as the mirrored pairing that a
    reflection through the triangle's own plane induces; the rotation is
    proper either way. Raises ValueError for a coordinate beyond
    MAX_COORDINATE_MM and DegenerateTriangleError when either triangle
    carries no shape.
    """
    if len(corr) != 3:
        raise ValueError(f"align_with_flip needs exactly 3 correspondences, got {len(corr)}")
    source_e1 = triangle_key(*corr.source).e1
    triangle_key(*corr.target)
    source, target = corr.source[None], corr.target[None]
    rotation, translation, pairing = _solve_pairings(source, target, np.array([source_e1]))
    rmsd = fit_rmsd(rotation, translation, source, _permute_rows(target, _PAIRINGS[pairing]))
    transform = RigidTransform(rotation=rotation[0], translation=translation[0])
    return transform, float(rmsd[0]), bool(_ODD_PAIRING[pairing[0]])


@dataclass(eq=False)
class RegistrationResult:
    """Winning alignment of register().

    ``matched_triangle``, ``shape_distance`` and ``flipped`` describe the
    winning candidate; ``flipped`` is True when its fit paired the device
    triangle's vertices in an odd permutation of the canonical order.
    ``transform`` is its refit on its mutual-nearest pairs, or its own fit
    when it had no refit; ``rmsd`` and ``inliers`` score the transform
    returned.
    """

    transform: RigidTransform
    matched_triangle: IndexedTriangle
    shape_distance: float
    rmsd: float  # RMS nearest-device-marker distance over all CT markers, mm
    flipped: bool
    inliers: int  # CT markers whose nearest device marker lies within the gate
    triples_scored: int  # CT triples scored before the stop rule held

    def to_json_dict(self) -> dict:
        from .rigid import transform_to_json_dict

        return {
            "transform": transform_to_json_dict(self.transform),
            "matched_marker_indices": list(self.matched_triangle.marker_indices),
            "shape_distance": float(self.shape_distance),
            "rmsd": float(self.rmsd),
            "flipped": bool(self.flipped),
            "inliers": int(self.inliers),
            "triples_scored": int(self.triples_scored),
        }


# A CT marker is an inlier of a transform when its nearest device marker lies
# within this distance: 3 sigma per axis of 2 mm device noise.
_INLIER_GATE_MM = 6.0
# The refit pairs CT markers with their mutual-nearest device markers within
# this wider gate. A three-point fit magnifies the noise at markers far from
# its triangle, so a true partner can lie just past the inlier gate until the
# refit, fitted to every pair, pulls it in.
_REFIT_GATE_MM = 2.0 * _INLIER_GATE_MM


class _Scores(NamedTuple):
    """Consensus scores of one or more transforms."""

    rmsd: np.ndarray  # RMS nearest-device-marker distance over all CT markers
    inliers: np.ndarray  # CT markers whose nearest device marker is within the gate
    inlier_sq: np.ndarray  # sum of those inliers' squared distances


def _scores(nearest_sq: np.ndarray) -> _Scores:
    """Scores from squared nearest-device-marker distances, (..., n) CT markers.

    A CT marker is an inlier when its squared distance is at most
    ``_INLIER_GATE_MM**2``.
    """
    inside = nearest_sq <= _INLIER_GATE_MM * _INLIER_GATE_MM
    return _Scores(
        rmsd=np.sqrt(np.add.reduce(nearest_sq, axis=-1) / nearest_sq.shape[-1]),
        inliers=np.add.reduce(inside, axis=-1),
        inlier_sq=np.add.reduce(np.where(inside, nearest_sq, 0.0), axis=-1),
    )


def _nearest_device(
    rotation: np.ndarray,
    translation: np.ndarray,
    ct_points: np.ndarray,
    dev_points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each mapped CT marker's nearest device marker, per transform.

    Takes a stack of transforms, (C, 3, 3) and (C, 3), and returns two
    (C, n) arrays: the squared distance ``dx*dx + dy*dy + dz*dz`` to the
    nearest device marker, and the refit partner: that marker's index where
    the CT marker is in turn its nearest and the distance is within
    _REFIT_GATE_MM, -1 elsewhere. Ties go to the first marker. Each
    transform's mapped CT markers are one set of ``nearest_markers``.
    """
    mapped = apply_rigid_stack(rotation, translation, ct_points)
    nearest_sq, nearest, mutual = nearest_markers(mapped, dev_points)
    paired = mutual & (nearest_sq <= _REFIT_GATE_MM * _REFIT_GATE_MM)
    return nearest_sq, np.where(paired, nearest, -1)


# CT triples are scored in blocks of this many, in _spread_order; after each
# block the stop rule decides whether to score another.
_TRIPLE_BLOCK = 16
# The stop rule's eta: the chance, under RANSAC's model of independent
# draws, that none of the triples scored was three inliers.
_MISS_PROBABILITY = 1e-6
# 1 / golden ratio: the stride of _spread_order, as a fraction of the count.
_SPREAD_STRIDE = (math.sqrt(5.0) - 1.0) / 2.0


def _spread_order(count: int) -> np.ndarray:
    """0 .. count - 1 in steps of a stride near count / golden ratio, mod count.

    The stride is the first integer from round(count / golden ratio) up that
    is coprime to count, so every index comes once. Neighbours in
    combinations order share their first markers; the stride spreads the
    first triples scored over all the markers, with no random draws.
    """
    stride = max(1, round(count * _SPREAD_STRIDE))
    while math.gcd(stride, count) != 1:
        stride += 1
    return np.arange(count) * stride % count


def _triples_needed(inliers: int, markers: int) -> float:
    """RANSAC's adaptive bound log(eta) / log(1 - w**3), w = inliers / markers.

    The number of triples to score for one of them to have been three
    inliers with probability 1 - eta: 0 when every marker is an inlier,
    infinite when none is.
    """
    w = inliers / markers
    if w >= 1.0:
        return 0.0
    if w <= 0.0:
        return math.inf
    return math.log(_MISS_PROBABILITY) / math.log1p(-(w**3))


class _Scored(NamedTuple):
    """Candidates that passed the scale gate, one row each, in visit order."""

    ct_row: np.ndarray  # (C,), CT triple row
    triangle: np.ndarray  # (C,), stored device triangle row
    distance: np.ndarray  # (C,), shape distance
    rotation: np.ndarray  # (C, 3, 3)
    translation: np.ndarray  # (C, 3)
    flipped: np.ndarray  # (C,)
    rmsd: np.ndarray  # (C,)
    inliers: np.ndarray  # (C,)
    inlier_sq: np.ndarray  # (C,)
    partner: np.ndarray  # (C, n), refit partner per CT marker (see _nearest_device)


def _score_block(
    rows: np.ndarray,
    triples: np.ndarray,
    shapes: _Shapes,
    ct_points: np.ndarray,
    table: TriangleTable,
    config: RegistrationConfig,
) -> _Scored | tuple[float, int, float]:
    """Score the candidates of the shaped CT triples ``triples[rows]``.

    Returns every candidate that passes the scale gate, in the order
    (position in ``rows``, shape rank). When none passes, returns the one
    with the lowest (shape distance, CT triple, shape rank) as
    ``(shape distance, CT triple row, longest-edge gap)``.
    """
    nearest, distance = _nearest_keys(shapes.key[rows], table.keys, config.k)
    cand_row = np.repeat(rows, nearest.shape[1])
    cand_tri = nearest.ravel()
    cand_distance = distance.ravel()
    scale_gap = np.abs(shapes.e1[cand_row] - table.e1[cand_tri])
    passed = ~(scale_gap > config.scale_tolerance_mm)
    if not passed.any():
        first = int(np.lexsort((cand_row, cand_distance))[0])
        return float(cand_distance[first]), int(cand_row[first]), float(scale_gap[first])
    cand_row, cand_tri, cand_distance = cand_row[passed], cand_tri[passed], cand_distance[passed]

    ct = _permute_rows(ct_points[triples[cand_row]], shapes.perm[cand_row])
    dev_points = table.markers
    rotation, translation, pairing = _solve_pairings(
        ct, dev_points[table.indices[cand_tri]], shapes.e1[cand_row]
    )
    nearest_sq, partner = _nearest_device(rotation, translation, ct_points, dev_points)
    score = _scores(nearest_sq)
    return _Scored(
        cand_row, cand_tri, cand_distance, rotation, translation, _ODD_PAIRING[pairing],
        score.rmsd, score.inliers, score.inlier_sq, partner,
    )


def register(
    ct_markers: MarkerSet,
    table: TriangleTable,
    config: RegistrationConfig | None = None,
) -> RegistrationResult:
    """Register CT markers against the device triangle table.

    The shaped CT triples are scored in blocks of _TRIPLE_BLOCK, in the
    fixed order of _spread_order. In each block, every CT triple queries its
    k shape-nearest device triangles; candidates failing the absolute-scale
    check |e1_ct - e1_dev| <= scale_tolerance_mm are rejected. Each survivor
    is aligned under the best of all six vertex pairings of its canonically
    ordered triangles (see _solve_pairings; ``flipped`` marks an odd
    pairing), and scored by consensus: its inliers are the CT markers whose
    nearest device marker lies within _INLIER_GATE_MM, and its reach is the
    CT markers whose nearest device marker lies within _REFIT_GATE_MM and
    has them as its nearest in turn (the pairs its refit would fit).

    After each block, with w the best inlier count so far over the number
    of CT markers, scoring stops once the triples scored reach the RANSAC
    bound log(eta) / log(1 - w**3), eta = _MISS_PROBABILITY. Every
    candidate scored, over all blocks, is then ranked once: by inlier count
    (highest first), then reach (highest first), then inlier RMS (compared
    as the inliers' sum of squared distances, which orders equal counts
    alike), shape distance and device marker indices, then the order they
    were visited in. The winner is refit by one Horn solve on the pairs of
    its reach, when those include its own CT triple and at least one marker
    more. The result's rmsd and inliers score the transform returned: rmsd
    is its RMS nearest-device-marker distance over all CT markers.

    Raises ValueError (a CT coordinate beyond MAX_COORDINATE_MM),
    InsufficientMarkersError (< 3 CT markers), NoMatchError (fewer than 3
    device markers stored, or no candidate survives, which only shows once
    every triple has been visited) or DegenerateTriangleError (no device or
    no CT triple carries a shape).
    """
    if config is None:
        config = RegistrationConfig()
    ct_points = ct_markers.points
    check_coordinates(ct_points, "CT marker")
    if len(ct_points) < 3:
        raise InsufficientMarkersError(found=len(ct_points))
    if table.n_triangles == 0:
        if len(table.markers) >= 3:
            raise DegenerateTriangleError("every device marker triple is degenerate")
        raise NoMatchError("no device triangles stored (need at least 3 device markers)")

    triples = _all_triples(len(ct_points))
    shapes = _triangle_shapes(ct_points[triples])
    if not shapes.shaped.any():
        raise DegenerateTriangleError("every CT marker triple is degenerate")
    order = _spread_order(len(triples))
    order = order[shapes.shaped[order]]

    blocks: list[_Scored] = []
    rejected: list[tuple[float, int, float]] = []
    most_inliers = 0
    scored = 0
    for start in range(0, len(order), _TRIPLE_BLOCK):
        rows = order[start : start + _TRIPLE_BLOCK]
        scored += len(rows)
        found = _score_block(rows, triples, shapes, ct_points, table, config)
        if isinstance(found, _Scored):
            blocks.append(found)
            most_inliers = max(most_inliers, int(found.inliers.max()))
        else:
            rejected.append(found)
        if scored >= _triples_needed(most_inliers, len(ct_points)):
            break
    if not blocks:
        distance, _, scale_gap = min(rejected)
        raise NoMatchError(
            "no device triangle passed scale verification"
            f"; best rejected candidate: shape distance {distance:.6g}, "
            f"longest-edge gap {scale_gap:.6g} mm exceeds tolerance "
            f"{config.scale_tolerance_mm:g} mm"
        )
    cand = blocks[0] if len(blocks) == 1 else _Scored(*map(np.concatenate, zip(*blocks)))
    indices = table.indices[cand.triangle]
    reach = np.add.reduce(cand.partner >= 0, axis=1)
    best = int(np.lexsort((
        indices[:, 2], indices[:, 1], indices[:, 0], cand.distance, cand.inlier_sq, -reach,
        -cand.inliers,
    ))[0])
    rotation, translation = cand.rotation[best], cand.translation[best]
    rmsd, inliers = float(cand.rmsd[best]), int(cand.inliers[best])
    partner = cand.partner[best]
    pairs = np.flatnonzero(partner >= 0)
    # The refit pairs must include the winner's own CT triple, which spans a
    # plane, and at least one marker more.
    if len(pairs) > 3 and (partner[triples[cand.ct_row[best]]] >= 0).all():
        centroid, centered = center_points(ct_points[pairs])
        rotation, translation = horn_solve(centroid, centered, table.markers[partner[pairs]])
        score = _scores(_nearest_device(rotation[None], translation[None], ct_points, table.markers)[0][0])
        rmsd, inliers = float(score.rmsd), int(score.inliers)
    return RegistrationResult(
        transform=RigidTransform(rotation=rotation, translation=translation),
        matched_triangle=table._triangle(int(cand.triangle[best])),
        shape_distance=float(cand.distance[best]),
        rmsd=rmsd,
        flipped=bool(cand.flipped[best]),
        inliers=inliers,
        triples_scored=scored,
    )
