"""Triangle-shape registration of sparse marker sets.

Every 3-subset of detected device markers is stored as a scale-normalized
shape key in a columnar table. To register, the keys of all CT-side triangles
are computed at once and each takes its k shape-nearest stored keys from one
exact distance matrix. Candidates failing the absolute-scale check are masked
out. Every survivor's vertex pairings (the permutations its edge-length ties
allow, each with its normal-flip variant) are solved in one stacked
closed-form fit, and the candidate whose transform best explains *all* CT
markers wins.

Shape keys: with edge lengths e1 >= e3 >= e2 (e1 longest, e2 shortest), the
key is (r2, r3) = (e2/e1, e3/e1), which is invariant to rigid motion and
uniform scale; e1 itself is kept so absolute size can be verified separately.
Canonical vertex order is (opposite e1, opposite e2, opposite e3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import (
    ConfigError,
    format_float,
    format_kv,
    kv_float,
    kv_int,
    parse_kv_text,
    require_keys,
)
from .errors import DegenerateTriangleError, InsufficientMarkersError, NoMatchError
from .markers import MarkerSet
from .rigid import (
    COLLINEARITY_RATIO,
    PointCorrespondences,
    RigidTransform,
    _collinear,
    apply_rigid_stack,
    center_points,
    check_proper,
    fit_rmsd,
    horn_solve,
)

# A triangle with area below this fraction of e1^2 has no stable shape key.
DEGENERACY_RATIO = 1e-6

_REG_KEYS = ("k", "scale_tolerance_mm", "tie_epsilon_mm", "degeneracy_ratio")


@dataclass
class RegistrationConfig:
    """Candidate search and verification knobs for register()."""

    k: int = 4
    scale_tolerance_mm: float = 5.0
    tie_epsilon_mm: float = 0.5
    degeneracy_ratio: float = DEGENERACY_RATIO

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k!r}")
        if self.scale_tolerance_mm < 0 or self.tie_epsilon_mm < 0:
            raise ConfigError("tolerances must be non-negative")
        if not (0 < self.degeneracy_ratio < 1):
            raise ConfigError(f"degeneracy_ratio must be in (0, 1), got {self.degeneracy_ratio!r}")

    @classmethod
    def from_text(cls, text: str) -> "RegistrationConfig":
        kv = parse_kv_text(text)
        require_keys(kv, required=(), known=_REG_KEYS)
        out = cls()
        if "k" in kv:
            out.k = kv_int(kv, "k")
        if "scale_tolerance_mm" in kv:
            out.scale_tolerance_mm = kv_float(kv, "scale_tolerance_mm")
        if "tie_epsilon_mm" in kv:
            out.tie_epsilon_mm = kv_float(kv, "tie_epsilon_mm")
        if "degeneracy_ratio" in kv:
            out.degeneracy_ratio = kv_float(kv, "degeneracy_ratio")
        out.__post_init__()
        return out

    def to_text(self) -> str:
        return format_kv(
            {
                "k": str(self.k),
                "scale_tolerance_mm": format_float(self.scale_tolerance_mm),
                "tie_epsilon_mm": format_float(self.tie_epsilon_mm),
                "degeneracy_ratio": format_float(self.degeneracy_ratio),
            }
        )


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


def _triangle_shapes(points: np.ndarray, degeneracy_ratio: float) -> _Shapes:
    """Shape keys of a stack of triangles (N, 3, 3).

    A row is degenerate (``shaped`` False) for coincident points, area below
    ``degeneracy_ratio * e1**2``, or edge ratios that round to no triangle
    (r2 + r3 <= 1).
    """
    edges = _edge_lengths(points)
    e1 = edges.max(axis=-1)
    u = points[:, 1] - points[:, 0]
    v = points[:, 2] - points[:, 0]
    # u x v, term for term as np.cross evaluates it
    normal = u[:, [1, 2, 0]] * v[:, [2, 0, 1]] - u[:, [2, 0, 1]] * v[:, [1, 2, 0]]
    area = 0.5 * np.sqrt(np.vecdot(normal, normal))
    perm = _canonical_perms(edges)
    with np.errstate(divide="ignore", invalid="ignore"):
        key = edges[np.arange(len(edges))[:, None], perm[:, 1:]] / e1[:, None]
    shaped = (e1 > 0.0) & ~(area < degeneracy_ratio * e1 * e1) & (key[:, 0] + key[:, 1] > 1.0)
    return _Shapes(edges, perm, e1, area, key, shaped)


def triangle_key(
    p1: np.ndarray,
    p2: np.ndarray,
    p3: np.ndarray,
    degeneracy_ratio: float = DEGENERACY_RATIO,
) -> TriangleKey:
    """Shape key of the triangle (p1, p2, p3).

    Raises DegenerateTriangleError when the triangle's area is below
    ``degeneracy_ratio * e1**2`` (collinear points included).
    """
    points = np.array([p1, p2, p3], dtype=np.float64)
    shapes = _triangle_shapes(points[None], degeneracy_ratio)
    longest = float(shapes.e1[0])
    if not shapes.shaped[0]:
        if not longest > 0.0:
            raise DegenerateTriangleError("coincident points have no triangle shape")
        area = 0.5 * float(np.linalg.norm(np.cross(points[1] - points[0], points[2] - points[0])))
        raise DegenerateTriangleError(
            f"triangle too thin: area {area:.6g} < {degeneracy_ratio:g} * e1^2"
            if area < degeneracy_ratio * longest * longest
            else "triangle too thin: its edge ratios round to a straight line"
        )
    r2, r3 = shapes.key[0].tolist()
    return TriangleKey(r2=r2, r3=r3, e1=longest)


# Entries per block when scanning shape distances and scoring candidates;
# bounds the temporaries when both marker sets are large.
_SCAN_BLOCK = 1 << 14


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
    block = max(1, _SCAN_BLOCK // len(keys))
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

    Columnar storage in insertion order (the triples completed by each new
    marker): ``keys`` (T, 2) holds (r2, r3), ``e1`` (T,) the longest edges
    and ``indices`` (T, 3) the marker indices in canonical order. Shape
    distance is Euclidean in (r2, r3).
    """

    def __init__(self, degeneracy_ratio: float = DEGENERACY_RATIO):
        self.markers: list[np.ndarray] = []
        self.degeneracy_ratio = float(degeneracy_ratio)
        self.degenerate_skipped = 0
        self.keys = np.zeros((0, 2), dtype=np.float64)
        self.e1 = np.zeros(0, dtype=np.float64)
        self.indices = np.zeros((0, 3), dtype=np.intp)

    @property
    def n_triangles(self) -> int:
        return len(self.e1)

    def marker_array(self) -> np.ndarray:
        if not self.markers:
            return np.zeros((0, 3), dtype=np.float64)
        return np.array(self.markers, dtype=np.float64)

    def _triangle(self, row: int) -> IndexedTriangle:
        """The stored triangle at ``row`` (insertion order)."""
        a, b, c = (int(i) for i in self.indices[row])
        r2, r3 = (float(v) for v in self.keys[row])
        key = TriangleKey(r2=r2, r3=r3, e1=float(self.e1[row]))
        return IndexedTriangle(marker_indices=(a, b, c), key=key)

    def triangle_points(self, triangle: IndexedTriangle) -> np.ndarray:
        return np.array([self.markers[i] for i in triangle.marker_indices], dtype=np.float64)

    def insert_marker(self, points: np.ndarray) -> int:
        """Add one detected marker (3,), or a run of them (n, 3) in order.

        Indexes every new triangle the markers complete. A run stores the
        same table, in the same order, as inserting its points one at a time,
        but keys all the new triples in one pass. Returns the number of
        triangles inserted (degenerate triples are skipped and tallied in
        ``degenerate_skipped``). Raises ValueError, leaving the table
        unchanged, unless the points are finite and shaped (3,) or (n, 3).
        """
        pts = np.array(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[None]
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"markers must be a (3,) or (n, 3) array, got shape {np.shape(points)}")
        if not np.isfinite(pts).all():
            raise ValueError("marker must be finite")
        start = len(self.markers)
        self.markers.extend(pts)
        triples = _completed_triples(start, len(self.markers))
        if len(triples) == 0:
            return 0
        shapes = _triangle_shapes(self.marker_array()[triples], self.degeneracy_ratio)
        shaped = shapes.shaped
        canonical = _permute_rows(triples, shapes.perm)
        self.degenerate_skipped += int(np.count_nonzero(~shaped))
        self.keys = np.concatenate([self.keys, shapes.key[shaped]])
        self.e1 = np.concatenate([self.e1, shapes.e1[shaped]])
        self.indices = np.concatenate([self.indices, canonical[shaped]])
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


# Device-side position permutations consistent with edge-length ties, in the
# order they are tried, by tie code: +1 when e1 and e3 tie, +2 when e3 and e2
# tie (chained, so both flags tie all three). Positions are canonical:
# (opp-longest, opp-shortest, opp-middle).
_TIE_PERMUTATIONS = (
    ((0, 1, 2),),
    ((0, 1, 2), (2, 1, 0)),
    ((0, 1, 2), (0, 2, 1)),
    tuple(itertools.permutations(range(3))),
)
_TIE_COUNT = np.array([len(p) for p in _TIE_PERMUTATIONS])
_TIE_TABLE = np.array([p + ((0, 1, 2),) * (6 - len(p)) for p in _TIE_PERMUTATIONS])


def _tie_codes(ct_edges: np.ndarray, dev_edges: np.ndarray, tie_epsilon: float | None) -> np.ndarray:
    """Tie code per candidate from both sides' canonical edges (e1, e2, e3).

    Edges tie within ``tie_epsilon``, by default 1e-6 * e1 of their own
    triangle (exact-arithmetic ties only). A tie on either side counts.
    """
    first = np.zeros(len(ct_edges), dtype=bool)
    second = np.zeros(len(ct_edges), dtype=bool)
    for edges in (ct_edges, dev_edges):
        eps = 1e-6 * edges[:, 0] if tie_epsilon is None else tie_epsilon
        first |= np.abs(edges[:, 0] - edges[:, 2]) <= eps
        second |= np.abs(edges[:, 2] - edges[:, 1]) <= eps
    return first.astype(np.intp) + 2 * second.astype(np.intp)


def _permute_rows(rows: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """rows[i][perm[i]] for stacks (N, 3, ...) and orders (N, 3)."""
    return rows[np.arange(len(perm))[:, None], perm]


def _canonical_triangles(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triangles (N, 3, 3) reordered canonically, with their edges by position."""
    edges = _edge_lengths(points)
    perm = _canonical_perms(edges)
    return _permute_rows(points, perm), _permute_rows(edges, perm)


# Target order that exchanges the two vertices adjacent to the longest
# source edge, by the index of the vertex opposite that edge.
_FLIP_ORDER = np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]])

# A triangle whose area exceeds this fraction of e1**2, and whose centroid
# lies within _PLANE_OFFSET_RATIO * e1 of the origin, spans a plane by
# rigid._collinear's test; see _spans_plane.
_PLANE_AREA_RATIO = 2.0 * COLLINEARITY_RATIO
_PLANE_OFFSET_RATIO = 1e12


def _spans_plane(
    centroid: np.ndarray, centered: np.ndarray, area: np.ndarray, e1: np.ndarray
) -> np.ndarray:
    """``~rigid._collinear(centered)`` for centered triangles (N, 3, 3).

    Rows the area bound clears skip the SVD; only the rest are handed to
    ``_collinear``. The bound: let x0, x1, x2 be a triangle's vertices less
    their centroid and s0 >= s1 >= s2 = 0 the singular values of the matrix
    they form. Then s0**2 + s1**2 = |x0|**2 + |x1|**2 + |x2|**2 =
    (e1**2 + e2**2 + e3**2) / 3 <= e1**2, and by Cauchy-Binet s0**2 * s1**2
    is the sum of the squared |xi x xj|, each twice the area of a third of
    the triangle, so s0 * s1 = (2 / sqrt(3)) * area. Hence
    s1 / s0 = s0 * s1 / s0**2 >= (2 / sqrt(3)) * area / e1**2, and
    area > 2 * COLLINEARITY_RATIO * e1**2 gives s1 / s0 > 2.3 *
    COLLINEARITY_RATIO: _collinear returns False with a factor 2.3 to spare.

    The spare factor covers rounding. The computed area and e1 are off by a
    few units of 1e-16 * e1**2 and 1e-16 * e1, and the SVD's singular values
    by about 1e-15 * s0. The computed centroid is off by a few units of
    1e-16 times the largest coordinate, which shifts all three centered rows
    alike; with the centroid within 1e12 * e1 of the origin that shift stays
    below 1e-3 * e1, so it raises s0 (at least e1 / sqrt(6)) by under 1e-5
    of itself and cannot lower s1. Rows outside that range go to the SVD.
    """
    spans = (area > _PLANE_AREA_RATIO * e1 * e1) & (
        np.abs(centroid).max(axis=-1) < _PLANE_OFFSET_RATIO * e1
    )
    unsure = np.flatnonzero(~spans)
    spans[unsure] = ~_collinear(centered[unsure])
    return spans


def _solve_pairings(
    source: np.ndarray,
    source_edges: np.ndarray,
    source_area: np.ndarray,
    source_of: np.ndarray,
    target: np.ndarray,
    codes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fit every tie pairing of every candidate, and its flip, in one stack.

    ``source`` holds triangles (S, 3, 3), ``source_edges`` their edge
    lengths by vertex and ``source_area`` their areas; candidate i pairs
    ``source[source_of[i]]`` with ``target[i]`` (C, 3, 3) under tie code
    ``codes[i]``. Per candidate, keeps the first tie pairing with the lowest
    fit rmsd, then its flip variant (the two vertices adjacent to the longest
    source edge exchanged, the pairing a reflection through the triangle's
    own plane induces) where that fits strictly better. Each source is
    centered and tested for collinearity (:func:`_spans_plane`) once, however
    many fits share it.

    Returns ``(paired, rotation, translation, rmsd, flipped)``: the kept
    pairing's target points (before any flip) and the kept fit. Raises
    DegenerateTriangleError when a candidate's source triangle is collinear.
    """
    counts = _TIE_COUNT[codes]
    first = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(codes)), counts)
    slot = np.arange(len(owner)) - first[owner]
    paired = _permute_rows(target[owner], _TIE_TABLE[codes[owner], slot])
    pair_source = source_of[owner]
    exchanged = _permute_rows(paired, _FLIP_ORDER[np.argmax(source_edges, axis=-1)[pair_source]])
    centroid, centered = center_points(source)
    aligned = _spans_plane(centroid, centered, source_area, source_edges.max(axis=-1))
    fits = np.concatenate([pair_source, pair_source])  # every pairing, then every flip
    targets = np.concatenate([paired, exchanged])
    rotation, translation = horn_solve(centroid[fits], centered[fits], targets)
    check_proper(rotation, aligned[fits])
    if not aligned[source_of].all():
        raise DegenerateTriangleError("no alignable vertex pairing (degenerate triangle)")
    rmsd = fit_rmsd(rotation, translation, source[fits], targets)
    by_slot = np.full((len(codes), 6), np.inf)
    by_slot[owner, slot] = rmsd[: len(owner)]
    chosen = first + np.argmin(by_slot, axis=1)
    flipped = rmsd[chosen + len(owner)] < rmsd[chosen]
    kept = np.where(flipped, chosen + len(owner), chosen)
    return paired[chosen], rotation[kept], translation[kept], rmsd[kept], flipped


def _tie_permutations(
    ct_points: np.ndarray, dev_points: np.ndarray, tie_epsilon: float | None
) -> list[tuple[int, int, int]]:
    """Device-side position permutations consistent with edge-length ties.

    Both triangles are already in canonical order. With no ties this is just
    the identity; an equilateral pair yields all 6 permutations.
    """
    ct_edges = _edge_lengths(np.asarray(ct_points, dtype=np.float64))[None]
    dev_edges = _edge_lengths(np.asarray(dev_points, dtype=np.float64))[None]
    return list(_TIE_PERMUTATIONS[int(_tie_codes(ct_edges, dev_edges, tie_epsilon)[0])])


def canonical_correspondence(
    ct_triangle: np.ndarray,
    dev_triangle: np.ndarray,
    tie_epsilon: float | None = None,
) -> PointCorrespondences:
    """Pair triangle vertices by edge role (opp-longest <-> opp-longest, ...).

    When edge lengths tie within ``tie_epsilon`` (default 1e-6 * e1, i.e.
    exact-arithmetic ties only), every permutation consistent with the tie is
    tried and the one with the lowest alignment rmsd wins. Raises
    DegenerateTriangleError when the CT triangle is collinear and ValueError
    on non-finite points.
    """
    pair = PointCorrespondences(
        np.asarray(ct_triangle, dtype=np.float64).reshape(3, 3),
        np.asarray(dev_triangle, dtype=np.float64).reshape(3, 3),
    )
    shapes = _triangle_shapes(pair.source[None], DEGENERACY_RATIO)
    ct = _permute_rows(pair.source[None], shapes.perm)
    ct_edges = _permute_rows(shapes.edges, shapes.perm)
    dev, dev_edges = _canonical_triangles(pair.target[None])
    codes = _tie_codes(ct_edges, dev_edges, tie_epsilon)
    paired, _, _, _, _ = _solve_pairings(
        ct, ct_edges, shapes.area, np.zeros(1, dtype=np.intp), dev, codes
    )
    return PointCorrespondences(ct[0], paired[0])


def align_with_flip(corr: PointCorrespondences) -> tuple[RigidTransform, float, bool]:
    """Align a 3-point correspondence, correcting a mirrored pairing.

    Solves the correspondence as given and with the two vertices adjacent to
    the source triangle's longest edge exchanged (the pairing a reflection
    through the triangle's own plane induces), and returns whichever variant
    has the lower rmsd: (transform, rmsd, flipped). ``flipped`` is True when
    the exchanged variant won; the returned rotation is proper either way.
    """
    if len(corr) != 3:
        raise ValueError(f"align_with_flip needs exactly 3 correspondences, got {len(corr)}")
    # Validate both triangles carry a shape (raises DegenerateTriangleError).
    triangle_key(*corr.source)
    triangle_key(*corr.target)

    source = corr.source[None]
    shapes = _triangle_shapes(source, DEGENERACY_RATIO)
    first = np.zeros(1, dtype=np.intp)  # one candidate, source 0, no ties
    _, rotation, translation, rmsd, flipped = _solve_pairings(
        source, shapes.edges, shapes.area, first, corr.target[None], first
    )
    transform = RigidTransform(rotation=rotation[0], translation=translation[0])
    return transform, float(rmsd[0]), bool(flipped[0])


@dataclass(eq=False)
class RegistrationResult:
    """Winning alignment of register()."""

    transform: RigidTransform
    matched_triangle: IndexedTriangle
    shape_distance: float
    rmsd: float  # RMS nearest-device-marker distance over all CT markers, mm
    flipped: bool

    def to_json_dict(self) -> dict:
        from .rigid import transform_to_json_dict

        return {
            "transform": transform_to_json_dict(self.transform),
            "matched_marker_indices": list(self.matched_triangle.marker_indices),
            "shape_distance": float(self.shape_distance),
            "rmsd": float(self.rmsd),
            "flipped": bool(self.flipped),
        }


def _all_marker_rmsd(
    rotation: np.ndarray, translation: np.ndarray, ct_points: np.ndarray, dev_points: np.ndarray
) -> np.ndarray:
    """RMS nearest-device-marker distance over all CT markers, per transform.

    Takes a stack of transforms, (C, 3, 3) and (C, 3). Scores them in blocks
    and scans one device marker at a time, so the temporaries stay near
    _SCAN_BLOCK entries rather than (C, n, m).
    """
    rmsd = np.empty(len(rotation))
    block = max(1, _SCAN_BLOCK // len(ct_points))
    for start in range(0, len(rotation), block):
        stop = start + block
        mapped = apply_rigid_stack(rotation[start:stop], translation[start:stop], ct_points)
        x, y, z = (np.ascontiguousarray(mapped[..., axis]) for axis in range(3))
        nearest_sq = np.full(x.shape, np.inf)
        for px, py, pz in dev_points:
            dx, dy, dz = x - px, y - py, z - pz
            np.minimum(nearest_sq, dx * dx + dy * dy + dz * dz, out=nearest_sq)
        rmsd[start:stop] = np.sqrt(np.add.reduce(nearest_sq, axis=-1) / len(ct_points))
    return rmsd


def register(
    ct_markers: MarkerSet,
    table: TriangleTable,
    config: RegistrationConfig | None = None,
) -> RegistrationResult:
    """Register CT markers against the device triangle table.

    Every CT-side triangle queries its k shape-nearest device triangles;
    candidates failing the absolute-scale check |e1_ct - e1_dev| <=
    scale_tolerance_mm are rejected. Each survivor is vertex-corresponded and
    aligned (with flip correction), and candidates are ranked by the RMS
    nearest-device-marker distance over *all* CT markers, tie-broken by
    (rmsd, shape_distance, marker indices), then by CT triple and shape rank.

    Raises InsufficientMarkersError (< 3 CT markers), DegenerateTriangleError
    (no CT triple carries a shape), or NoMatchError (no candidate survives).
    """
    if config is None:
        config = RegistrationConfig()
    ct_points = ct_markers.points
    if len(ct_points) < 3:
        raise InsufficientMarkersError(found=len(ct_points))
    if table.n_triangles == 0:
        raise NoMatchError("no device triangles stored (need at least 3 device markers)")

    ct_triangles = ct_points[_all_triples(len(ct_points))]
    shapes = _triangle_shapes(ct_triangles, config.degeneracy_ratio)
    ct_keys, ct_e1, shaped = shapes.key, shapes.e1, shapes.shaped
    if not shaped.any():
        raise DegenerateTriangleError("every CT marker triple is degenerate")

    # Candidates in the order (CT triple, shape rank); the winner's final
    # tie-break keeps that order.
    rows = np.flatnonzero(shaped)
    nearest, distance = _nearest_keys(ct_keys[rows], table.keys, config.k)
    cand_row = np.repeat(rows, nearest.shape[1])
    cand_tri = nearest.ravel()
    cand_distance = distance.ravel()
    scale_gap = np.abs(ct_e1[cand_row] - table.e1[cand_tri])
    passed = ~(scale_gap > config.scale_tolerance_mm)
    if not passed.any():
        rejected = int(np.argmin(cand_distance))
        raise NoMatchError(
            "no device triangle passed scale verification"
            f"; best rejected candidate: shape distance {cand_distance[rejected]:.6g}, "
            f"longest-edge gap {scale_gap[rejected]:.6g} mm exceeds tolerance "
            f"{config.scale_tolerance_mm:g} mm"
        )
    cand_row, cand_tri, cand_distance = cand_row[passed], cand_tri[passed], cand_distance[passed]

    dev_points = table.marker_array()
    ct = _permute_rows(ct_triangles, shapes.perm)
    ct_edges = _permute_rows(shapes.edges, shapes.perm)
    dev, dev_edges = _canonical_triangles(dev_points[table.indices[cand_tri]])
    codes = _tie_codes(ct_edges[cand_row], dev_edges, config.tie_epsilon_mm)
    _, rotation, translation, _, flipped = _solve_pairings(
        ct, ct_edges, shapes.area, cand_row, dev, codes
    )
    score = _all_marker_rmsd(rotation, translation, ct_points, dev_points)

    indices = table.indices[cand_tri]
    best = int(np.lexsort((indices[:, 2], indices[:, 1], indices[:, 0], cand_distance, score))[0])
    return RegistrationResult(
        transform=RigidTransform(rotation=rotation[best], translation=translation[best]),
        matched_triangle=table._triangle(int(cand_tri[best])),
        shape_distance=float(cand_distance[best]),
        rmsd=float(score[best]),
        flipped=bool(flipped[best]),
    )
