"""Independent reference implementations used only as test oracles.

Deliberately written with different algorithms and traversal orders than the
package so that agreement is evidence, not tautology. Where a reference
shares a package kernel, its section says which and why.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from collections import deque

import numpy as np

from fidreg import triangles
from fidreg._mc_tables import EDGE_CORNERS, TRI_TABLE
from fidreg.bench import (
    _CELL_KEYS,
    _METRICS,
    GROSS_TRE_MM,
    METHODS,
    SceneSpec,
    TrialRecord,
    _status_token,
    generate_scene,
    target_registration_error,
)
from fidreg.errors import (
    ConfigError,
    DegenerateGeometryError,
    DegenerateTriangleError,
    DomainError,
    InsufficientMarkersError,
    NoMatchError,
)
from fidreg.icp import IcpConfig, IcpResult, icp_register
from fidreg.markers import MarkerSet
from fidreg.mesh import CORNER_OFFSETS, STL_HEADER, WELD_TOLERANCE_MM, TriangleMesh, empty_mesh
from fidreg.rigid import (
    COLLINEARITY_RATIO,
    PointCorrespondences,
    RigidTransform,
    _collinear,
    absolute_orientation,
    apply_rigid_stack,
    center_points,
    reorthonormalize,
    rotation_angle,
)
from fidreg.rng import SplitMix64, rotation_from_quaternion
from fidreg.segmentation import BinaryMask, Component
from fidreg.triangles import (
    _INLIER_GATE_MM,
    _MISS_PROBABILITY,
    _REFIT_GATE_MM,
    _TRIPLE_BLOCK,
    RegistrationConfig,
    TriangleKey,
    TriangleTable,
    _scores,
    register,
)
from fidreg.volume import Volume


def kabsch_svd(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rigid fit via SVD of the cross-covariance (Kabsch).

    Returns (rotation, translation) mapping src onto dst, with the usual
    sign fix so the rotation is always proper.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    src_mean = src.mean(axis=0)
    dst_mean = dst.mean(axis=0)
    H = (src - src_mean).T @ (dst - dst_mean)
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    D = np.diag([1.0, 1.0, d])
    R = Vt.T @ D @ U.T
    t = dst_mean - R @ src_mean
    return R, t


def brute_force_icp(
    src: np.ndarray, tgt: np.ndarray, config
) -> tuple[list[float], RigidTransform]:
    """Point-to-point ICP from the identity over a full distance matrix.

    Returns (rmsd history, final transform) under icp_register's stopping
    rules. The fit is the package's absolute_orientation.
    """
    n = len(src)
    transform = RigidTransform.identity()
    history: list[float] = []
    for iteration in range(config.max_iterations):
        mapped = transform.apply(src)
        d2 = np.sum((mapped[:, None] - tgt[None]) ** 2, axis=2)
        idx = np.argmin(d2, axis=1)
        history.append(float(np.sqrt(np.mean(d2[np.arange(n), idx]))))
        if len(history) >= 2 and abs(history[-2] - history[-1]) < config.rmsd_delta_tolerance:
            break
        if iteration == config.max_iterations - 1:
            break
        transform, _ = absolute_orientation(PointCorrespondences(src, tgt[idx]))
    return history, transform


def _loop_nearest_indices(query: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest target index and squared distance per query point, in blocks."""
    idx = np.empty(len(query), dtype=np.intp)
    nearest_sq = np.empty(len(query), dtype=np.float64)
    block = max(1, (1 << 16) // len(target))
    for start in range(0, len(query), block):
        deltas = query[start : start + block, None, :] - target[None, :, :]
        dist_sq = np.sum(deltas * deltas, axis=2)
        nearest = np.argmin(dist_sq, axis=1)
        idx[start : start + block] = nearest
        nearest_sq[start : start + block] = dist_sq[np.arange(len(nearest)), nearest]
    return idx, nearest_sq


def loop_icp(source, target, config: IcpConfig | None = None) -> IcpResult:
    """icp_register with one validated absolute_orientation fit per iteration.

    Every iteration re-centers the fixed source, repeats its collinearity
    test and builds a checked PointCorrespondences and RigidTransform. The
    rounding of each step is the package's: agreement shows that hoisting
    the source terms out of the loop changed no bit.
    """
    if config is None:
        config = IcpConfig()
    src = source.points
    tgt = target.points
    if len(src) < 3:
        raise InsufficientMarkersError(len(src))
    if len(tgt) < 3:
        raise InsufficientMarkersError(len(tgt))
    if _collinear(src - src.mean(axis=0)):
        raise DegenerateGeometryError("source points are collinear; rotation is not determined")

    transform = config.initial_transform
    history: list[float] = []
    converged = False
    for iteration in range(config.max_iterations):
        mapped = transform.apply(src)
        match_idx, match_sq = _loop_nearest_indices(mapped, tgt)
        rmsd = float(np.sqrt(np.mean(match_sq)))
        history.append(rmsd)
        if len(history) >= 2 and abs(history[-2] - rmsd) < config.rmsd_delta_tolerance:
            converged = True
            break
        if iteration == config.max_iterations - 1:
            break  # cap reached; keep the transform the last rmsd describes
        transform, _ = absolute_orientation(PointCorrespondences(src, tgt[match_idx]))

    return IcpResult(
        transform=transform,
        rmsd=history[-1],
        iterations_used=len(history),
        converged=converged,
        rmsd_history=history,
    )


_NEIGHBOR_CACHE: dict[int, list[tuple[int, int, int]]] = {}


def _neighbor_offsets(connectivity: int) -> list[tuple[int, int, int]]:
    if connectivity not in _NEIGHBOR_CACHE:
        budget = {6: 1, 18: 2, 26: 3}[connectivity]
        offs = [
            offset
            for offset in itertools.product((-1, 0, 1), repeat=3)
            if 0 < sum(map(abs, offset)) <= budget
        ]
        _NEIGHBOR_CACHE[connectivity] = offs
    return _NEIGHBOR_CACHE[connectivity]


def flood_fill_partition(
    bits: np.ndarray, connectivity: int
) -> set[frozenset[tuple[int, int, int]]]:
    """Connected components of a boolean mask as a set of voxel-coordinate sets.

    Depth-first with an explicit stack, scanning z-fastest — a different
    traversal than the implementation under test, but the same partition.
    """
    bits = np.asarray(bits, dtype=bool)
    nx, ny, nz = bits.shape
    seen = np.zeros_like(bits)
    offsets = _neighbor_offsets(connectivity)
    partition: set[frozenset[tuple[int, int, int]]] = set()
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                if not bits[i, j, k] or seen[i, j, k]:
                    continue
                stack = [(i, j, k)]
                seen[i, j, k] = True
                members = []
                while stack:
                    ci, cj, ck = stack.pop()
                    members.append((ci, cj, ck))
                    for di, dj, dk in offsets:
                        ni, nj, nk = ci + di, cj + dj, ck + dk
                        if (
                            0 <= ni < nx
                            and 0 <= nj < ny
                            and 0 <= nk < nz
                            and bits[ni, nj, nk]
                            and not seen[ni, nj, nk]
                        ):
                            seen[ni, nj, nk] = True
                            stack.append((ni, nj, nk))
                partition.add(frozenset(members))
    return partition


def bfs_connected_components(mask: BinaryMask, connectivity: int = 26) -> list[Component]:
    """Per-voxel breadth-first labelling over a linear-index dict.

    Labels follow first-encounter x-fastest scan order, as in
    connected_components; voxels within a component follow BFS discovery
    order, so compare them as sets.
    """
    if connectivity not in (6, 18, 26):
        raise ValueError(f"connectivity must be 6, 18 or 26, got {connectivity!r}")
    nx, ny, nz = mask.dims
    # x-fastest linearization: C-order ravel of the (nz, ny, nx) transpose.
    flat = mask.bits.transpose(2, 1, 0).ravel()
    linear = np.flatnonzero(flat)
    if len(linear) == 0:
        return []
    ii = linear % nx
    jj = (linear // nx) % ny
    kk = linear // (nx * ny)
    slot_of = {int(lin): s for s, lin in enumerate(linear)}
    visited = np.zeros(len(linear), dtype=bool)
    offsets = _neighbor_offsets(connectivity)

    components: list[Component] = []
    for start in range(len(linear)):
        if visited[start]:
            continue
        visited[start] = True
        queue = deque([start])
        member_slots = []
        while queue:
            slot = queue.popleft()
            member_slots.append(slot)
            ci, cj, ck = int(ii[slot]), int(jj[slot]), int(kk[slot])
            for di, dj, dk in offsets:
                ni, nj, nk = ci + di, cj + dj, ck + dk
                if not (0 <= ni < nx and 0 <= nj < ny and 0 <= nk < nz):
                    continue
                neighbor = slot_of.get(ni + nx * (nj + ny * nk))
                if neighbor is not None and not visited[neighbor]:
                    visited[neighbor] = True
                    queue.append(neighbor)
        idx = np.column_stack((ii[member_slots], jj[member_slots], kk[member_slots]))
        components.append(Component(label=len(components) + 1, voxel_indices=idx.astype(np.int64)))
    return components



def splitmix64_reference(seed: int, count: int) -> list[int]:
    """Pure-integer splitmix64 output stream, straight off the published form."""
    mask = (1 << 64) - 1
    out = []
    state = seed & mask
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class UnbufferedSplitMix64:
    """SplitMix64 that mixes each draw's outputs when asked for them.

    The same derived draws as fidreg.rng.SplitMix64, with no block of
    outputs computed ahead.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & ((1 << 64) - 1)
        self.count = 0

    def raw(self, n: int) -> np.ndarray:
        start = self.count + 1
        self.count += n
        with np.errstate(over="ignore"):
            z = np.uint64(self.seed) + np.arange(start, start + n, dtype=np.uint64) * np.uint64(
                0x9E3779B97F4A7C15
            )
            z ^= z >> np.uint64(30)
            z *= np.uint64(0xBF58476D1CE4E5B9)
            z ^= z >> np.uint64(27)
            z *= np.uint64(0x94D049BB133111EB)
            z ^= z >> np.uint64(31)
        return z

    def uniforms(self, n: int) -> np.ndarray:
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        r = self.raw(2 * n).reshape(n, 2) >> np.uint64(11)
        u1 = (r[:, 0].astype(np.float64) + 1.0) * 2.0**-53
        u2 = r[:, 1].astype(np.float64) * 2.0**-53
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def integer(self, bound: int) -> int:
        return min(int(float(self.uniforms(1)[0]) * bound), bound - 1)

    def shuffle(self, items: list) -> None:
        loop_shuffle(self, items)

    def rotation(self) -> np.ndarray:
        while True:
            q = self.normals(4)
            norm = float(np.linalg.norm(q))
            if norm > 1e-12:
                return rotation_from_quaternion(q / norm)


def loop_shuffle(rng, items: list) -> None:
    """Fisher-Yates one element at a time, one ``integer`` draw per step."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.integer(i + 1)
        items[i], items[j] = items[j], items[i]


# ---------------------------------------------------------------------------
# Triangle registration, one candidate at a time.
#
# The per-candidate formulation of fidreg.triangles.register(): shape keys
# one triangle at a time, an exhaustive shape-distance scan per CT triple,
# the closed-form fit of all six vertex pairings per candidate in Python
# floats, one consensus score per candidate from loops over marker pairs,
# the stop rule checked after every block of triples, and the refit. Only
# the centering, the refit's rigid fit, the stacked apply and the sums of
# the fit rmsd and the scores come from the package, called with a stack of
# one: their rounding cannot be reproduced by a different formula, and in
# noise-free scenes ranking ties, nearest-marker ties and the gates are
# decided at that rounding.
# ---------------------------------------------------------------------------


def loop_edge_lengths(points: np.ndarray) -> np.ndarray:
    """Edge lengths where edge i is opposite vertex i."""
    return np.array(
        [
            float(np.linalg.norm(points[1] - points[2])),
            float(np.linalg.norm(points[2] - points[0])),
            float(np.linalg.norm(points[0] - points[1])),
        ]
    )


def loop_canonical_perm(edges: np.ndarray) -> tuple[int, int, int]:
    desc = sorted(range(3), key=lambda i: (-edges[i], i))
    return (desc[0], desc[2], desc[1])


def loop_triangle_key(points: np.ndarray) -> TriangleKey:
    """triangle_key by hand; reads triangles.DEGENERACY_RATIO at call time."""
    degeneracy_ratio = triangles.DEGENERACY_RATIO
    points = np.asarray(points, dtype=np.float64)
    edges = loop_edge_lengths(points)
    e1 = float(edges.max())
    if e1 <= 0.0:
        raise DegenerateTriangleError("coincident points have no triangle shape")
    area = 0.5 * float(np.linalg.norm(np.cross(points[1] - points[0], points[2] - points[0])))
    if area < degeneracy_ratio * e1 * e1:
        raise DegenerateTriangleError(
            f"triangle too thin: area {area:.6g} < {degeneracy_ratio:g} * e1^2"
        )
    perm = loop_canonical_perm(edges)
    return TriangleKey(r2=float(edges[perm[1]] / e1), r3=float(edges[perm[2]] / e1), e1=e1)


LOOP_PAIRINGS = list(itertools.permutations(range(3)))


def loop_is_odd(perm) -> bool:
    """Whether a permutation of (0, 1, 2) has an odd number of inversions."""
    return sum(perm[i] > perm[j] for i, j in itertools.combinations(range(3), 2)) % 2 == 1


def loop_solve_pairings(source, target, source_e1):
    """``fidreg.triangles._solve_pairings`` one candidate at a time, in Python floats.

    Per candidate: each triangle's plane frame (n along (p1 - p0) x
    (p2 - p0), e2 along n x (p1 - p0), e1 = e2 x n) and the in-plane
    coordinates of its centered vertices; then, for each device vertex order
    of LOOP_PAIRINGS, with the source on the same side of its plane and
    turned over, the sums C and S, keeping the first largest C * C + S * S.
    Python floats round each operation like float64 arrays, and every sum
    is taken left to right as the package takes it, so the fits agree bit
    for bit. Centering comes from the package, called with a
    stack of one. Returns ``(rotation, translation, pairing)`` arrays, the
    pairing as its index in LOOP_PAIRINGS.
    """

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    def cross(a, b):
        return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]

    def unit(a):
        length = math.sqrt(dot(a, a))
        return [value / length for value in a]

    def frame(points, floor):
        """(centroid, x, y, (e1, e2, n)) of one triangle, or None if it is too thin."""
        p0, p1, p2 = points.tolist()
        edge = [b - a for a, b in zip(p0, p1)]
        normal = cross(edge, [b - a for a, b in zip(p0, p2)])
        if not math.sqrt(dot(normal, normal)) > floor:
            return None
        n = unit(normal)
        e2 = unit(cross(n, edge))
        e1 = cross(e2, n)
        centroid, centered = center_points(points[None])
        centered = centered[0].tolist()
        return (
            centroid[0].tolist(),
            [dot(point, e1) for point in centered],
            [dot(point, e2) for point in centered],
            (e1, e2, n),
        )

    fits = []
    for triangle, other, e1 in zip(source, target, source_e1):
        src = frame(triangle, 4.0 * COLLINEARITY_RATIO * float(e1) * float(e1))
        dst = frame(other, 0.0)
        if src is None or dst is None:
            raise DegenerateTriangleError("no alignable vertex pairing (degenerate triangle)")
        (src_centroid, x, y, (se1, se2, sn)), (dst_centroid, u, v, (te1, te2, tn)) = src, dst
        best = None
        for pairing, perm in enumerate(LOOP_PAIRINGS):
            pu, pv = [u[j] for j in perm], [v[j] for j in perm]
            xu, xv = dot(x, pu), dot(x, pv)
            yu, yv = dot(y, pu), dot(y, pv)
            for side, c_sum, s_sum in ((1.0, xu + yv, xv - yu), (-1.0, xu - yv, xv + yu)):
                size = c_sum * c_sum + s_sum * s_sum
                if best is None or size > best[0]:
                    best = (size, pairing, side, c_sum, s_sum)
        _, pairing, side, c_sum, s_sum = best
        scale = math.sqrt(c_sum * c_sum + s_sum * s_sum)
        cos, sin = c_sum / scale, s_sum / scale
        first = [cos * a + sin * b for a, b in zip(te1, te2)]
        second = [side * (cos * b - sin * a) for a, b in zip(te1, te2)]
        third = [side * c for c in tn]
        rotation = np.array([
            [first[r] * se1[c] + second[r] * se2[c] + third[r] * sn[c] for c in range(3)]
            for r in range(3)
        ])
        translation = np.array(
            [dst_centroid[r] - dot(rotation[r].tolist(), src_centroid) for r in range(3)]
        )
        fits.append((rotation, translation, pairing))
    return tuple(np.array(column) for column in zip(*fits))


def loop_spread_order(count: int) -> list[int]:
    """Combinations-order indices 0 .. count - 1 in register's visiting order:
    steps of the first stride from round(0.618... * count) up that shares no
    factor with count."""
    stride = max(1, round(count * 0.6180339887498949))
    while math.gcd(stride, count) != 1:
        stride += 1
    return [step * stride % count for step in range(count)]


def loop_triples_needed(inliers: int, markers: int) -> float:
    """RANSAC's bound log(eta) / log(1 - w**3) on the triples to score."""
    w = inliers / markers
    if w >= 1.0:
        return 0.0
    if w <= 0.0:
        return math.inf
    return math.log(_MISS_PROBABILITY) / math.log1p(-(w**3))


def loop_consensus(transform: RigidTransform, ct_points, device_points):
    """(scores, refit pairs) of ``transform``, by loops over marker pairs.

    The scores are register's (rmsd, inliers, inlier sum of squares) from
    each CT marker's squared distance to its nearest device marker. The
    refit pairs are (CT marker, device marker) pairs that are each other's
    nearest (the first on ties) within the refit gate.
    """
    mapped = apply_rigid_stack(transform.rotation[None], transform.translation[None], ct_points)[0]

    def dist_sq(i, j):
        dx, dy, dz = (float(mapped[i][axis]) - float(device_points[j][axis]) for axis in range(3))
        return dx * dx + dy * dy + dz * dz

    def nearest(candidates, key):
        best = None
        for index in candidates:
            if best is None or key(index) < key(best):
                best = index
        return best

    nearest_sq, pairs = [], []
    for i in range(len(ct_points)):
        j = nearest(range(len(device_points)), lambda j: dist_sq(i, j))
        nearest_sq.append(dist_sq(i, j))
        back = nearest(range(len(ct_points)), lambda k: dist_sq(k, j))
        if back == i and dist_sq(i, j) <= _REFIT_GATE_MM * _REFIT_GATE_MM:
            pairs.append((i, j))
    rmsd, inliers, inlier_sq = _scores(np.array(nearest_sq))
    assert int(inliers) == sum(d <= _INLIER_GATE_MM * _INLIER_GATE_MM for d in nearest_sq)
    return (float(rmsd), int(inliers), float(inlier_sq)), pairs


def loop_register(
    ct_points: np.ndarray,
    device_points: np.ndarray,
    config: RegistrationConfig | None = None,
) -> dict:
    """register() as a loop over CT triples and their shape-nearest candidates.

    ``device_points`` are inserted in row order, as TriangleTable would
    store them. Each candidate pairs the CT triangle in canonical order with
    the device triangle in its stored order. CT triples are visited in
    loop_spread_order; after every _TRIPLE_BLOCK shaped triples the loop
    stops once the triples visited reach loop_triples_needed of the best
    inlier count so far. Returns the fields of
    RegistrationResult.to_json_dict() plus the RigidTransform; raises the
    errors register() raises, with the same messages.
    """
    if config is None:
        config = RegistrationConfig()
    ct_points = np.asarray(ct_points, dtype=np.float64)
    device_points = np.asarray(device_points, dtype=np.float64)
    if len(ct_points) < 3:
        raise InsufficientMarkersError(found=len(ct_points))

    stored: list[tuple[tuple[int, int, int], TriangleKey]] = []
    for new in range(len(device_points)):
        for a, b in itertools.combinations(range(new), 2):
            triple = (a, b, new)
            points = device_points[list(triple)]
            try:
                key = loop_triangle_key(points)
            except DegenerateTriangleError:
                continue
            perm = loop_canonical_perm(loop_edge_lengths(points))
            stored.append((tuple(triple[i] for i in perm), key))
    if not stored:
        if len(device_points) >= 3:
            raise DegenerateTriangleError("every device marker triple is degenerate")
        raise NoMatchError("no device triangles stored (need at least 3 device markers)")

    def query(probe: TriangleKey) -> list[tuple[tuple[int, int, int], TriangleKey, float]]:
        point = np.array([probe.r2, probe.r3])
        ranked = []
        for seq, (indices, key) in enumerate(stored):
            delta = point - np.array([key.r2, key.r3])
            ranked.append((float(np.sqrt(float(delta @ delta))), seq, indices, key))
        ranked.sort(key=lambda entry: (entry[0], entry[1]))
        return [(indices, key, distance) for distance, _, indices, key in ranked[: config.k]]

    triples = list(itertools.combinations(range(len(ct_points)), 3))
    ct_keys = {}
    for triple in triples:
        try:
            ct_keys[triple] = loop_triangle_key(ct_points[list(triple)])
        except DegenerateTriangleError:
            pass
    if not ct_keys:
        raise DegenerateTriangleError("every CT marker triple is degenerate")

    best = None
    best_rejected: tuple[float, int, float] | None = None
    visited = 0
    for position in loop_spread_order(len(triples)):
        triple = triples[position]
        if triple not in ct_keys:
            continue
        ct_key = ct_keys[triple]
        ct_triangle = ct_points[list(triple)]
        ct_triangle = ct_triangle[list(loop_canonical_perm(loop_edge_lengths(ct_triangle)))]
        visited += 1
        for indices, key, shape_distance in query(ct_key):
            scale_gap = abs(ct_key.e1 - key.e1)
            if scale_gap > config.scale_tolerance_mm:
                rejected = (shape_distance, position, scale_gap)
                if best_rejected is None or rejected[:2] < best_rejected[:2]:
                    best_rejected = rejected
                continue
            rotation, translation, pairing = loop_solve_pairings(
                ct_triangle[None], device_points[list(indices)][None], [ct_key.e1]
            )
            transform = RigidTransform(rotation[0], translation[0])
            flipped = loop_is_odd(LOOP_PAIRINGS[pairing[0]])
            (rmsd, inliers, inlier_sq), pairs = loop_consensus(transform, ct_points, device_points)
            rank = (-inliers, -len(pairs), inlier_sq, shape_distance, indices)
            if best is None or rank < best[0]:
                best = (
                    rank,
                    {
                        "transform": transform,
                        "matched_marker_indices": list(indices),
                        "shape_distance": shape_distance,
                        "rmsd": rmsd,
                        "flipped": flipped,
                        "inliers": inliers,
                    },
                    triple,
                    pairs,
                )
        if best is not None and visited % _TRIPLE_BLOCK == 0:
            if visited >= loop_triples_needed(best[1]["inliers"], len(ct_points)):
                break

    if best is None:
        detail = ""
        if best_rejected is not None:
            detail = (
                f"; best rejected candidate: shape distance {best_rejected[0]:.6g}, "
                f"longest-edge gap {best_rejected[2]:.6g} mm exceeds tolerance "
                f"{config.scale_tolerance_mm:g} mm"
            )
        raise NoMatchError("no device triangle passed scale verification" + detail)
    _, result, triple, pairs = best
    result["triples_scored"] = visited
    if len(pairs) > 3 and set(triple) <= {i for i, _ in pairs}:
        source = ct_points[[i for i, _ in pairs]]
        target = device_points[[j for _, j in pairs]]
        refit, _ = absolute_orientation(PointCorrespondences(source, target))
        (rmsd, inliers, _), _ = loop_consensus(refit, ct_points, device_points)
        result.update(transform=refit, rmsd=rmsd, inliers=inliers)
    return result


def loop_marching_cubes(volume: Volume, iso_hu: float) -> TriangleMesh:
    """Marching cubes one active cell at a time, with a dict of edge slots.

    Each crossing edge gets its vertex slot the first time a triangle corner
    asks for it, walking cells x-fastest and each cell's TRI_TABLE row in
    order; the weld and orphan passes match marching_cubes.
    """
    nx, ny, nz = volume.dims
    if min(nx, ny, nz) < 2:
        raise DegenerateGeometryError(
            "volume must span at least 2 voxels per axis to form cells"
        )
    iso = float(iso_hu)

    below = volume.voxels < iso
    # Case index per cell, vectorised: bit c set when corner c is below iso.
    case = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.uint16)
    for bit, (di, dj, dk) in enumerate(CORNER_OFFSETS):
        corner = below[di : di + nx - 1, dj : dj + ny - 1, dk : dk + nz - 1]
        case |= corner.astype(np.uint16) << bit

    active = (case != 0) & (case != 255)
    # Linearise x-fastest so cells come out in scan order.
    lin = np.flatnonzero(active.transpose(2, 1, 0).ravel())
    if lin.size == 0:
        return empty_mesh()
    ci = lin % (nx - 1)
    cj = (lin // (nx - 1)) % (ny - 1)
    ck = lin // ((nx - 1) * (ny - 1))

    values = volume.voxels
    spacing = volume.spacing
    origin = volume.origin

    vertex_rows: list[tuple[float, float, float]] = []
    index_of_edge: dict[tuple[int, int, int, int], int] = {}
    face_rows: list[tuple[int, int, int]] = []

    def edge_vertex(i: int, j: int, k: int, edge: int) -> int:
        ca, cb = EDGE_CORNERS[edge]
        oa, ob = CORNER_OFFSETS[ca], CORNER_OFFSETS[cb]
        pa = (i + oa[0], j + oa[1], k + oa[2])
        pb = (i + ob[0], j + ob[1], k + ob[2])
        if pb < pa:
            pa, pb = pb, pa
        axis = 0 if pa[0] != pb[0] else (1 if pa[1] != pb[1] else 2)
        key = (axis, pa[0], pa[1], pa[2])
        slot = index_of_edge.get(key)
        if slot is not None:
            return slot
        va = float(values[pa])
        vb = float(values[pb])
        t = (iso - va) / (vb - va)
        coord = [float(pa[0]), float(pa[1]), float(pa[2])]
        coord[axis] += t
        slot = len(vertex_rows)
        vertex_rows.append(
            (
                origin[0] + coord[0] * spacing[0],
                origin[1] + coord[1] * spacing[1],
                origin[2] + coord[2] * spacing[2],
            )
        )
        index_of_edge[key] = slot
        return slot

    for i, j, k, cell_case in zip(ci, cj, ck, case[ci, cj, ck]):
        i, j, k = int(i), int(j), int(k)
        row = TRI_TABLE[cell_case]
        for t0 in range(0, len(row), 3):
            face_rows.append(
                (
                    edge_vertex(i, j, k, row[t0]),
                    edge_vertex(i, j, k, row[t0 + 1]),
                    edge_vertex(i, j, k, row[t0 + 2]),
                )
            )

    vertices = np.array(vertex_rows, dtype=np.float64)
    faces = np.array(face_rows, dtype=np.int64)

    # Weld coincident vertices (iso hitting a grid value makes edge vertices
    # land on the shared corner) and drop faces that collapse.
    quantised = np.round(vertices / WELD_TOLERANCE_MM) * WELD_TOLERANCE_MM
    _, first, inverse = np.unique(
        quantised, axis=0, return_index=True, return_inverse=True
    )
    if len(first) < len(vertices):
        # Keep first-occurrence order so output stays scan-ordered.
        order = np.argsort(first, kind="stable")
        rank = np.empty(len(first), dtype=np.int64)
        rank[order] = np.arange(len(first))
        vertices = vertices[np.sort(first)]
        faces = rank[inverse][faces]
        keep = (
            (faces[:, 0] != faces[:, 1])
            & (faces[:, 1] != faces[:, 2])
            & (faces[:, 0] != faces[:, 2])
        )
        faces = faces[keep]
    if faces.size == 0:
        return empty_mesh()
    # Drop vertices orphaned by face removal.
    used = np.zeros(len(vertices), dtype=bool)
    used[faces] = True
    if not used.all():
        remap = np.cumsum(used) - 1
        vertices = vertices[used]
        faces = remap[faces]
    return TriangleMesh(vertices, faces)


def _unit_normals(corners: np.ndarray) -> np.ndarray:
    """Unit normals of (F,3,3) triangle corners; zero where a face has zero area.

    The cross product and the norm are written term by term in the order
    np.cross and np.linalg.norm use, so the result is bit-identical to
    ``n = np.cross(b - a, c - a); n / np.linalg.norm(n, axis=1)`` with one
    (F,3) result array and no corner copies.
    """
    u = corners[:, 1] - corners[:, 0]
    v = corners[:, 2] - corners[:, 0]
    normal = np.empty_like(u)
    normal[:, 0] = u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1]
    normal[:, 1] = u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2]
    normal[:, 2] = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    del u, v
    x, y, z = normal[:, 0], normal[:, 1], normal[:, 2]
    norm = np.sqrt(x * x + y * y + z * z)
    normal /= np.where(norm > 0.0, norm, 1.0)[:, None]
    return normal


def corner_array_write_stl(mesh: TriangleMesh, path) -> None:
    """The STL writer over a whole (F, 3, 3) corner array, kept as an oracle.

    Binary little-endian STL: 80-byte header, uint32 count, 50-byte facets.
    """
    record = np.zeros(
        mesh.n_faces,
        dtype=np.dtype(
            [("normal", "<f4", 3), ("corners", "<f4", (3, 3)), ("attr", "<u2")]
        ),
    )
    corners = np.take(mesh.vertices, mesh.faces, axis=0)
    record["corners"] = corners
    record["normal"] = _unit_normals(corners)
    del corners
    with open(path, "wb") as fh:
        fh.write(STL_HEADER.ljust(80, b"\x00"))
        fh.write(np.array([mesh.n_faces], dtype="<u4").tobytes())
        fh.write(memoryview(record))


# ---------------------------------------------------------------------------
# The Monte-Carlo sweep, one scene draw per (spec, method, trial).
#
# fidreg.bench.run_benchmark as it was before it drew each scene once and
# shared it between the methods: every (spec, method) cell draws its warm-up
# scene and each trial's scene itself, and builds the configs inside the
# timed window. It keeps that per-cell warm-up on purpose, although
# run_benchmark now warms each method up once per call: a warm-up makes no
# record, so the two can only differ in time_us, which the comparison
# ignores. Records must agree in every field but time_us.
# ---------------------------------------------------------------------------


def loop_run_trial(spec: SceneSpec, method: str, targets_origin: np.ndarray) -> TrialRecord:
    ct, device, truth = generate_scene(spec)
    flipped = False
    status = "ok"
    estimated = None
    if method == "triangle":
        start = time.perf_counter()
        try:
            table = TriangleTable()
            table.insert_marker(device.points)
            result = register(ct, table, RegistrationConfig())
            estimated = result.transform
            flipped = result.flipped
        except DomainError as exc:
            status = _status_token(exc)
        elapsed = time.perf_counter() - start
    elif method == "icp":
        start = time.perf_counter()
        try:
            estimated = icp_register(ct, device, IcpConfig()).transform
        except DomainError as exc:
            status = _status_token(exc)
        elapsed = time.perf_counter() - start
    else:
        raise ConfigError(f"unknown method {method!r} (choose from {METHODS})")

    if estimated is None:
        tre = rot_err = trans_err = float("nan")
    else:
        targets = np.vstack([ct.points, targets_origin])
        tre = target_registration_error(estimated, truth, targets)
        # The rotation of compose(estimated, inverse(truth)), without
        # building and validating the two transforms.
        rot_err = rotation_angle(reorthonormalize(estimated.rotation @ truth.rotation.T))
        trans_err = float(
            np.linalg.norm(estimated.translation - truth.translation)
        )
    return TrialRecord(
        method=method,
        seed=spec.seed,
        n_markers=spec.n_markers,
        noise_sigma_mm=spec.noise_sigma_mm,
        dropout=spec.dropout_count,
        decoys=spec.decoy_count,
        tre_mm=tre,
        rot_err_rad=rot_err,
        trans_err_mm=trans_err,
        time_us=elapsed * 1e6,
        flipped=flipped,
        status=status,
    )


def loop_run_benchmark(
    spec_grid: list[SceneSpec],
    methods: tuple = METHODS,
    trials_per_cell: int = 1,
) -> list[TrialRecord]:
    """Run every (spec, method) cell; trial t reseeds the spec at seed + t.

    Records come back ordered by grid position, then method (triangle before
    icp), then trial index.  Failures are per-trial records with a status
    token and nan errors, never exceptions.
    """
    if trials_per_cell < 1:
        raise ConfigError("trials_per_cell must be >= 1")
    for method in methods:
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r} (choose from {METHODS})")
    origin = np.zeros((1, 3))
    records = []
    for spec in spec_grid:
        for method in (m for m in METHODS if m in methods):
            loop_run_trial(spec, method, origin)  # warm-up, discarded
            for trial in range(trials_per_cell):
                shifted = dataclasses.replace(spec, seed=spec.seed + trial)
                records.append(loop_run_trial(shifted, method, origin))
    return records


# ---------------------------------------------------------------------------
# Scene rows and summary cells, one Python object at a time.
#
# row_tuple_generate_scene is fidreg.bench.generate_scene as it assembled the
# device list: one (point, id) tuple per surviving marker and per decoy, the
# list of tuples shuffled, then the points and ids unpacked from it. It draws
# from the package's SplitMix64 in the documented order and has no coordinate
# bound. per_metric_summarize is fidreg.bench.summarize with one 1-D array
# per metric and cell, reduced by the array's own mean and std.
# ---------------------------------------------------------------------------


def row_tuple_generate_scene(spec: SceneSpec) -> tuple[MarkerSet, MarkerSet, RigidTransform]:
    rng = SplitMix64(spec.seed)
    n = spec.n_markers
    extent = np.array(spec.placement_extent)
    ct_points = (rng.uniforms(3 * n).reshape(n, 3) - 0.5) * extent
    if isinstance(spec.true_transform, RigidTransform):
        truth = spec.true_transform
    else:
        rotation = rng.rotation()
        translation = (rng.uniforms(3) - 0.5) * np.array(spec.translation_extent)
        truth = RigidTransform(rotation, translation)
    noise = rng.normals(3 * n).reshape(n, 3)
    device_points = truth.apply(ct_points) + spec.noise_sigma_mm * noise

    survivors = list(range(n))
    if spec.dropout_count > 0:
        order = list(range(n))
        rng.shuffle(order)
        dropped = set(order[: spec.dropout_count])
        survivors = [i for i in range(n) if i not in dropped]
    rows = [(device_points[i], i) for i in survivors]
    if spec.decoy_count > 0:
        corners = np.array([
            [sx * extent[0] / 2.0, sy * extent[1] / 2.0, sz * extent[2] / 2.0]
            for sx in (-1.0, 1.0)
            for sy in (-1.0, 1.0)
            for sz in (-1.0, 1.0)
        ])
        moved = truth.apply(corners)
        lo = moved.min(axis=0)
        hi = moved.max(axis=0)
        decoys = lo + rng.uniforms(3 * spec.decoy_count).reshape(-1, 3) * (hi - lo)
        rows.extend((p, None) for p in decoys)
    rng.shuffle(rows)

    ct = MarkerSet(frame="ct", points=ct_points, ids=tuple(range(n)))
    device = MarkerSet(
        frame="device",
        points=np.array([p for p, _ in rows], dtype=np.float64).reshape(-1, 3),
        ids=tuple(i for _, i in rows),
    )
    return ct, device, truth


def per_metric_summarize(records: list[TrialRecord]) -> list[dict]:
    cells: dict[tuple, list[TrialRecord]] = {}
    for record in records:
        cells.setdefault(tuple(getattr(record, name) for name in _CELL_KEYS), []).append(record)
    summary = []
    for key, trials in cells.items():
        ok = [r for r in trials if r.status == "ok"]
        cell = dict(zip(_CELL_KEYS, key), trials=len(trials), failures=len(trials) - len(ok),
                    flipped=sum(1 for r in ok if r.flipped),
                    gross_error_rate=sum(1 for r in ok if r.tre_mm > GROSS_TRE_MM) / len(trials))
        for name in _METRICS:
            values = np.array([getattr(r, name) for r in ok])
            std = float(values.std(ddof=1)) if len(ok) > 1 else 0.0
            cell[name] = {"mean": float(values.mean()), "std": std} if ok else None
        summary.append(cell)
    return summary
