"""Triangle-shape registration of sparse marker sets.

Every 3-subset of detected device markers is stored as a scale-normalized
shape key in a columnar table. To register, the keys of all CT-side triangles
are computed at once, and the CT triples are then taken in a fixed,
spread-out order, in blocks. Each triple of a block takes its k
shape-nearest stored keys from one exact distance matrix; candidates failing
the absolute-scale check are masked out. Every survivor's vertex pairings
(the permutations its edge-length ties allow) are solved in one stacked
closed-form fit and the best is kept; its normal-flip variant is solved in a
second stack, and only where an edge-length bound cannot rule the flip out
(see _solve_pairings). Each candidate is scored by consensus: the CT markers
whose nearest device marker lies within the inlier gate. After each block
the adaptive RANSAC bound on the best consensus so far decides whether
enough triples have been scored; the winner is then refit on its
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

_REG_FIELDS = {
    "k": INT,
    "scale_tolerance_mm": FLOAT,
    "tie_epsilon_mm": FLOAT,
    "degeneracy_ratio": FLOAT,
}


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
        if not (0 <= self.scale_tolerance_mm < math.inf and 0 <= self.tie_epsilon_mm < math.inf):
            raise ConfigError("scale_tolerance_mm and tie_epsilon_mm must be non-negative and finite")
        if not (0 < self.degeneracy_ratio < 1):
            raise ConfigError(f"degeneracy_ratio must be in (0, 1), got {self.degeneracy_ratio!r}")

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
        area = float(shapes.area[0])
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

    Columnar storage: ``markers`` (n, 3) holds the device markers in
    insertion order, read-only; the triangles follow in the order each new
    marker completes them, with ``keys`` (T, 2) holding (r2, r3), ``e1``
    (T,) the longest edges and ``indices`` (T, 3) the marker indices in
    canonical order. Shape distance is Euclidean in (r2, r3).
    """

    def __init__(self, degeneracy_ratio: float = DEGENERACY_RATIO):
        self.markers = np.zeros((0, 3), dtype=np.float64)
        self.markers.setflags(write=False)
        self.degeneracy_ratio = float(degeneracy_ratio)
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
        self.markers = np.concatenate([self.markers, pts])
        self.markers.setflags(write=False)
        triples = _completed_triples(start, len(self.markers))
        if len(triples) == 0:
            return 0
        shapes = _triangle_shapes(self.markers[triples], self.degeneracy_ratio)
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


def _tie_codes(ct_edges: np.ndarray, dev_edges: np.ndarray, tie_epsilon: float) -> np.ndarray:
    """Tie code per candidate from both sides' canonical edges (e1, e2, e3).

    Edges tie when they differ by at most ``tie_epsilon`` (mm); a tie on
    either side counts.
    """
    first = np.zeros(len(ct_edges), dtype=bool)
    second = np.zeros(len(ct_edges), dtype=bool)
    for edges in (ct_edges, dev_edges):
        first |= np.abs(edges[:, 0] - edges[:, 2]) <= tie_epsilon
        second |= np.abs(edges[:, 2] - edges[:, 1]) <= tie_epsilon
    return first.astype(np.intp) + 2 * second.astype(np.intp)


def _resorted_ties(edges: np.ndarray) -> np.ndarray:
    """Rows a canonical re-sort swaps, given the edges (N, 3) of stored triangles.

    A stored triangle is in canonical order, so its edges by position run
    (e1, e3, e2).  Re-sorting them with ``_canonical_perms`` keeps that order
    except where e3 == e2: the tie then goes by position, which swaps
    vertices 1 and 2.  The swapped edges are equal, so only the vertices
    move.
    """
    return np.flatnonzero(edges[:, 1] == edges[:, 2])


def _permute_rows(rows: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """rows[i][perm[i]] for stacks (N, 3, ...) and orders (N, 3)."""
    return rows[np.arange(len(perm))[:, None], perm]


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
    if len(unsure):
        spans[unsure] = ~_collinear(centered[unsure])
    return spans


# A flip fit's rmsd is at least the edge-gap bound of _flip_floor less
# _FLIP_EDGE_MARGIN times the two triangles' longest edges and
# _FLIP_REACH_MARGIN times their largest |coordinate|, as long as that
# coordinate is below _FLIP_RANGE and the source's longest edge above its
# inverse; see _flip_floor.
_FLIP_EDGE_MARGIN = 3e-9
_FLIP_REACH_MARGIN = 1e-13
_FLIP_RANGE = 1e100


def _flip_floor(source: np.ndarray, source_edges: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Lower bound on the rmsd any solved fit of ``source`` onto ``target`` gets.

    Takes paired triangles (N, 3, 3) and the source's edge lengths (N, 3);
    returns (N,), -inf on rows outside the proven range. The bound: for a
    rigid motion T with residuals r_i = |T x_i - y_i|, the triangle
    inequality gives d_ij = | |x_i - x_j| - |y_i - y_j| | =
    | |T x_i - T x_j| - |y_i - y_j| | <= r_i + r_j, so d_ij**2 <=
    2 * (r_i**2 + r_j**2). Each vertex lies on two of the three edges, so
    sum d_ij**2 <= 4 * sum r_i**2 = 12 * rmsd**2, and rmsd >=
    sqrt(sum d_ij**2 / 12) whatever the motion.

    The margins cover the fit not being exactly rigid and the rounding.
    check_proper passes rotations R with |R^T R - I| up to 1e-9 per entry,
    so |R v| is within 3e-9 * |v| of |v|: each d_ij moves by at most
    3e-9 * e1 (the source's longest edge), which lowers the bound by at most
    1.5e-9 * e1. The edge lengths are computed from correctly rounded
    coordinate differences, so each is off by a few units of 1e-16 of
    itself, and the bound (at most (e1 + e1') / 2, e1' the target's longest
    edge) by about 1e-15 * (e1 + e1'); fit_rmsd's relative rounding is as
    small. _FLIP_EDGE_MARGIN * (e1 + e1') covers both terms with a factor 2
    to spare. fit_rmsd maps and subtracts coordinates up to m, the largest
    |coordinate| of either triangle, with a translation up to 3.5 * m per
    entry, so its residuals carry about 22 units of 1.1e-16 * m per entry,
    under 5e-15 * m per vertex; _FLIP_REACH_MARGIN * m covers that 20 times
    over. With m below 1e100 no square overflows, and with e1 above 1e-100
    underflowing squares cost under 1e-161, far below the margins. Rows
    outside that range get -inf, so their flip is always solved.
    """
    target_edges = _edge_lengths(target)
    source_e1 = source_edges.max(axis=-1)
    gap = source_edges - target_edges
    reach = np.maximum(np.abs(source).max(axis=(1, 2)), np.abs(target).max(axis=(1, 2)))
    floor = np.sqrt(np.vecdot(gap, gap) / 12.0)
    floor -= _FLIP_EDGE_MARGIN * (source_e1 + target_edges.max(axis=-1))
    floor -= _FLIP_REACH_MARGIN * reach
    proven = (reach < _FLIP_RANGE) & (source_e1 > 1.0 / _FLIP_RANGE)
    return np.where(proven, floor, -np.inf)


def _solve_pairings(
    source: np.ndarray,
    source_edges: np.ndarray,
    source_area: np.ndarray,
    source_of: np.ndarray,
    target: np.ndarray,
    codes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fit every tie pairing of every candidate, then the kept pairing's flip.

    ``source`` holds triangles (S, 3, 3), ``source_edges`` their edge
    lengths by vertex and ``source_area`` their areas; candidate i pairs
    ``source[source_of[i]]`` with ``target[i]`` (C, 3, 3) under tie code
    ``codes[i]``. Each source is centered and tested for collinearity
    (:func:`_spans_plane`) once, however many fits share it.

    Two stacked solves. The first fits every tie pairing and keeps, per
    candidate, the first with the lowest fit rmsd. The second fits that
    pairing's flip variant (the two vertices adjacent to the longest source
    edge exchanged, the pairing a reflection through the triangle's own
    plane induces), which replaces it where it fits strictly better. A flip
    is solved only where :func:`_flip_floor`, a lower bound on its computed
    rmsd from the edge-length gaps, does not exceed the kept rmsd: a
    skipped flip would have fit no better, so the result is the same as
    solving every flip. When no flip needs solving the second stack is not
    built.

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
    centroid, centered = center_points(source)
    aligned = _spans_plane(centroid, centered, source_area, source_edges.max(axis=-1))
    rotation, translation = horn_solve(centroid[pair_source], centered[pair_source], paired)
    check_proper(rotation, aligned[pair_source])
    if not aligned[source_of].all():
        raise DegenerateTriangleError("no alignable vertex pairing (degenerate triangle)")
    rmsd = fit_rmsd(rotation, translation, source[pair_source], paired)
    by_slot = np.full((len(codes), 6), np.inf)
    by_slot[owner, slot] = rmsd
    chosen = first + np.argmin(by_slot, axis=1)
    paired, rotation, translation, rmsd = (
        paired[chosen], rotation[chosen], translation[chosen], rmsd[chosen]
    )

    kept_source = source[source_of]
    kept_edges = source_edges[source_of]
    exchanged = _permute_rows(paired, _FLIP_ORDER[np.argmax(kept_edges, axis=-1)])
    rows = np.flatnonzero(~(_flip_floor(kept_source, kept_edges, exchanged) > rmsd))
    flipped = np.zeros(len(codes), dtype=bool)
    if len(rows):
        flip_of = source_of[rows]
        flip_rotation, flip_translation = horn_solve(
            centroid[flip_of], centered[flip_of], exchanged[rows]
        )
        check_proper(flip_rotation, aligned[flip_of])
        flip_rmsd = fit_rmsd(flip_rotation, flip_translation, kept_source[rows], exchanged[rows])
        better = flip_rmsd < rmsd[rows]
        won = rows[better]
        flipped[won] = True
        rotation[won] = flip_rotation[better]
        translation[won] = flip_translation[better]
        rmsd[won] = flip_rmsd[better]
    return paired, rotation, translation, rmsd, flipped


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
    """Winning alignment of register().

    ``matched_triangle``, ``shape_distance`` and ``flipped`` describe the
    winning candidate. ``transform`` is its refit on its mutual-nearest
    pairs, or its own fit when it had no refit; ``rmsd`` and ``inliers``
    score the transform returned.
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
    _REFIT_GATE_MM, -1 elsewhere. Ties go to the first marker. Transforms are taken in blocks, so the (C, n, m) distances are
    never held at once.
    """
    n = len(ct_points)
    nearest_sq = np.empty((len(rotation), n))
    partner = np.empty((len(rotation), n), dtype=np.intp)
    block = max(1, _SCAN_BLOCK // (n * len(dev_points)))
    for start in range(0, len(rotation), block):
        stop = start + block
        mapped = apply_rigid_stack(rotation[start:stop], translation[start:stop], ct_points)
        dx, dy, dz = (mapped[:, :, None, axis] - dev_points[:, axis] for axis in range(3))
        dist_sq = dx * dx + dy * dy + dz * dz
        nearest_sq[start:stop] = dist_sq.min(axis=2)
        nearest = dist_sq.argmin(axis=2)
        back = dist_sq.argmin(axis=1)[np.arange(len(dist_sq))[:, None], nearest]
        paired = (back == np.arange(n)) & (
            nearest_sq[start:stop] <= _REFIT_GATE_MM * _REFIT_GATE_MM
        )
        partner[start:stop] = np.where(paired, nearest, -1)
    return nearest_sq, partner


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


class _Candidate(NamedTuple):
    """The best candidate of a block, by its rank key (lowest wins)."""

    rank: tuple  # (-inliers, -reach, inlier_sq, shape distance, device marker indices)
    triangle: int  # stored device triangle row
    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)
    flipped: bool
    rmsd: float
    inliers: int
    # The CT markers its refit pairs and their device partners, or None
    # when it has no refit (see register).
    refit_pairs: tuple[np.ndarray, np.ndarray] | None


class _Rejected(NamedTuple):
    """The best candidate of a block whose candidates all fail the scale gate."""

    rank: tuple  # (shape distance, CT triple row)
    scale_gap: float


def _block_best(
    rows: np.ndarray,
    triples: np.ndarray,
    shapes: _Shapes,
    ct_points: np.ndarray,
    table: TriangleTable,
    config: RegistrationConfig,
) -> _Candidate | _Rejected:
    """Score the candidates of the shaped CT triples ``triples[rows]``; keep the best.

    Candidates come in the order (position in ``rows``, shape rank); ties in
    the rank key keep that order. When no candidate passes the scale gate,
    returns the one with the lowest (shape distance, CT triple, shape rank).
    """
    nearest, distance = _nearest_keys(shapes.key[rows], table.keys, config.k)
    cand_row = np.repeat(np.arange(len(rows)), nearest.shape[1])
    cand_tri = nearest.ravel()
    cand_distance = distance.ravel()
    scale_gap = np.abs(shapes.e1[rows][cand_row] - table.e1[cand_tri])
    passed = ~(scale_gap > config.scale_tolerance_mm)
    if not passed.any():
        first = int(np.lexsort((rows[cand_row], cand_distance))[0])
        rank = (float(cand_distance[first]), int(rows[cand_row[first]]))
        return _Rejected(rank, float(scale_gap[first]))
    cand_row, cand_tri, cand_distance = cand_row[passed], cand_tri[passed], cand_distance[passed]

    perm = shapes.perm[rows]
    ct = _permute_rows(ct_points[triples[rows]], perm)
    ct_edges = _permute_rows(shapes.edges[rows], perm)
    indices = table.indices[cand_tri]
    dev_points = table.markers
    dev = dev_points[indices]
    dev_edges = _edge_lengths(dev)
    # The order a canonical re-sort of the stored triangles gives.
    tied = _resorted_ties(dev_edges)
    dev[tied, 1:] = dev[tied, 2:0:-1]
    codes = _tie_codes(ct_edges[cand_row], dev_edges, config.tie_epsilon_mm)
    _, rotation, translation, _, flipped = _solve_pairings(
        ct, ct_edges, shapes.area[rows], cand_row, dev, codes
    )

    nearest_sq, partner = _nearest_device(rotation, translation, ct_points, dev_points)
    score = _scores(nearest_sq)
    paired = partner >= 0
    reach = np.add.reduce(paired, axis=1)

    best = int(np.lexsort((
        indices[:, 2], indices[:, 1], indices[:, 0], cand_distance, score.inlier_sq, -reach,
        -score.inliers,
    ))[0])
    rank = (
        -int(score.inliers[best]),
        -int(reach[best]),
        float(score.inlier_sq[best]),
        float(cand_distance[best]),
        *(int(i) for i in indices[best]),
    )
    # The refit pairs must include the candidate's own CT triple, which spans
    # a plane, and at least one marker more.
    refit_pairs = None
    if reach[best] > 3 and paired[best, triples[rows[cand_row[best]]]].all():
        pairs = np.flatnonzero(paired[best])
        refit_pairs = (pairs, partner[best, pairs])
    return _Candidate(
        rank=rank,
        triangle=int(cand_tri[best]),
        rotation=rotation[best],
        translation=translation[best],
        flipped=bool(flipped[best]),
        rmsd=float(score.rmsd[best]),
        inliers=int(score.inliers[best]),
        refit_pairs=refit_pairs,
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
    is vertex-corresponded and aligned (with flip correction), and scored by
    consensus: its inliers are the CT markers whose nearest device marker
    lies within _INLIER_GATE_MM, and its reach is the CT markers whose
    nearest device marker lies within _REFIT_GATE_MM and has them as its
    nearest in turn (the pairs its refit would fit). Candidates rank by
    inlier count (highest first), then reach (highest first), then inlier
    RMS (compared as the inliers' sum of squared distances, which orders
    equal counts alike), shape distance and device marker indices, then the
    order they were visited in.

    After each block, with w the best inlier count so far over the number
    of CT markers, scoring stops once the triples scored reach the RANSAC
    bound log(eta) / log(1 - w**3), eta = _MISS_PROBABILITY. The winner is
    then refit by one Horn solve on the pairs of its reach, when those
    include its own CT triple and at least one marker more. The result's
    rmsd and inliers score the transform returned: rmsd is its RMS
    nearest-device-marker distance over all CT markers.

    Raises InsufficientMarkersError (< 3 CT markers), DegenerateTriangleError
    (no CT triple carries a shape), or NoMatchError (no candidate survives,
    which only shows once every triple has been visited).
    """
    if config is None:
        config = RegistrationConfig()
    ct_points = ct_markers.points
    if len(ct_points) < 3:
        raise InsufficientMarkersError(found=len(ct_points))
    if table.n_triangles == 0:
        raise NoMatchError("no device triangles stored (need at least 3 device markers)")

    triples = _all_triples(len(ct_points))
    shapes = _triangle_shapes(ct_points[triples], config.degeneracy_ratio)
    if not shapes.shaped.any():
        raise DegenerateTriangleError("every CT marker triple is degenerate")
    order = _spread_order(len(triples))
    order = order[shapes.shaped[order]]

    best: _Candidate | None = None
    rejected: _Rejected | None = None
    scored = 0
    for start in range(0, len(order), _TRIPLE_BLOCK):
        rows = order[start : start + _TRIPLE_BLOCK]
        scored += len(rows)
        found = _block_best(rows, triples, shapes, ct_points, table, config)
        if isinstance(found, _Rejected):
            if rejected is None or found.rank < rejected.rank:
                rejected = found
        elif best is None or found.rank < best.rank:
            best = found
        if best is not None and scored >= _triples_needed(best.inliers, len(ct_points)):
            break
    if best is None:
        raise NoMatchError(
            "no device triangle passed scale verification"
            f"; best rejected candidate: shape distance {rejected.rank[0]:.6g}, "
            f"longest-edge gap {rejected.scale_gap:.6g} mm exceeds tolerance "
            f"{config.scale_tolerance_mm:g} mm"
        )
    rotation, translation, rmsd, inliers = best.rotation, best.translation, best.rmsd, best.inliers
    if best.refit_pairs is not None:
        pairs, partners = best.refit_pairs
        centroid, centered = center_points(ct_points[pairs][None])
        rotation, translation = horn_solve(centroid, centered, table.markers[partners][None])
        score = _scores(_nearest_device(rotation, translation, ct_points, table.markers)[0][0])
        rotation, translation = rotation[0], translation[0]
        rmsd, inliers = float(score.rmsd), int(score.inliers)
    return RegistrationResult(
        transform=RigidTransform(rotation=rotation, translation=translation),
        matched_triangle=table._triangle(best.triangle),
        shape_distance=best.rank[3],
        rmsd=rmsd,
        flipped=best.flipped,
        inliers=inliers,
        triples_scored=scored,
    )
