"""Isosurface extraction and mesh export.

``marching_cubes`` runs the standard 256-case lookup over every 2x2x2 voxel
cell, interpolating one surface vertex along each crossing edge.  Conventions
are pinned so output is reproducible down to vertex order:

* cells are visited x-fastest (index ``i + (nx-1)*(j + (ny-1)*k)`` ascending);
* a corner contributes its case bit when its value lies strictly below the
  iso level, so the mesh encloses the above-iso region;
* face winding is counter-clockwise seen from outside the above-iso region
  (normals point from above-iso toward below-iso);
* each crossing edge of the voxel grid is interpolated exactly once, from its
  lower corner, and shared between the (up to four) cells that touch it, which
  keeps closed surfaces watertight;
* vertices closer than 1e-9 mm (equal after rounding to a 1e-9 mm grid)
  collapse into the first one used, faces degenerate after that collapse
  (repeated vertex index) are dropped, and so are vertices no face uses any
  more.  This only happens when the iso level equals, or lies within a hair
  of, a grid value: only a vertex within a few 1e-9 mm of a grid corner can
  meet another vertex.

Cell corners follow the usual numbering: v0..v7 at offsets (0,0,0) (1,0,0)
(1,1,0) (0,1,0) (0,0,1) (1,0,1) (1,1,1) (0,1,1) in voxel index space.

How the work is done, none of which shows in the output:

* the case pass compares every voxel once, then builds each cell's corner
  code separably (pairs along x, then y, then z) with bit di + 2*dj + 4*dk
  for corner (di, dj, dk); the active cells' codes are renumbered to the
  table's v0..v7 bits by a 256-entry table (bits 2<->3 and 6<->7 swap);
* triangle corners are keyed by edge (lower grid corner, axis), and one
  stable sort of the keys hands out vertex slots in first-use order;
* the weld groups only candidate vertices: those whose corner gap
  min(t, 1 - t) * spacing along their edge is at most 4e-9 mm, where t is
  the interpolation parameter.  That is exact while every spacing exceeds
  4e-9 mm and the grid stays within 1e6 mm of the world origin (the proof is
  at ``_weld_candidates``); otherwise every vertex is a candidate.

Ambiguous saddle cells are resolved by the plain table entry (no asymptotic
decider), which can leave pin-hole cracks on rare configurations; fine for
display surfaces, not for CFD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._mc_tables import EDGE_CORNERS, TRI_TABLE
from .config import format_float
from .errors import DegenerateGeometryError
from .volume import Volume

# Written into STL headers / OBJ comments so a consumer knows which way is out.
ORIENTATION_NOTE = "outward normals, counter-clockwise winding viewed from outside"

# Corner offsets (di, dj, dk) for v0..v7, same order as the case-table bits.
CORNER_OFFSETS = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
)

WELD_TOLERANCE_MM = 1e-9
# Bounds under which only vertices near a grid corner can weld; see
# _weld_candidates for the proof.
_WELD_GAP_MM = 4 * WELD_TOLERANCE_MM
_WELD_EXTENT_MM = 1e6


def _edge_geometry() -> tuple[np.ndarray, np.ndarray]:
    """Per cube edge: its axis and its lower corner's (di, dj, dk) offset."""
    axis = np.empty(12, dtype=np.int64)
    lower = np.empty((12, 3), dtype=np.int64)
    for edge, (ca, cb) in enumerate(EDGE_CORNERS):
        oa, ob = CORNER_OFFSETS[ca], CORNER_OFFSETS[cb]
        axis[edge] = next(a for a in range(3) if oa[a] != ob[a])
        lower[edge] = min(oa, ob)
    return axis, lower


_EDGE_AXIS, _EDGE_LOWER = _edge_geometry()
# TRI_TABLE as a (256, 15) array padded with -1, plus each row's length.
_TRI_COUNTS = np.array([len(row) for row in TRI_TABLE], dtype=np.int64)
_TRI_EDGES = np.full((256, 15), -1, dtype=np.int8)
for _case, _row in enumerate(TRI_TABLE):
    _TRI_EDGES[_case, : len(_row)] = _row
# Case index of each binary corner code, whose bit di + 2*dj + 4*dk stands
# for corner (di, dj, dk): the table numbers (1,1,0) and (0,1,0) as v2 and v3
# (and (1,1,1), (0,1,1) as v6, v7), so bits 2 and 3 swap, and 6 and 7.
_CASE_OF_CODE = np.zeros(256, dtype=np.uint8)
for _bit, (_di, _dj, _dk) in enumerate(CORNER_OFFSETS):
    _corner_set = (np.arange(256) >> (_di + 2 * _dj + 4 * _dk)) & 1
    _CASE_OF_CODE |= (_corner_set << _bit).astype(np.uint8)


@dataclass(eq=False)
class TriangleMesh:
    """Indexed triangle soup: ``vertices`` (V,3) float64 mm, ``faces`` (F,3) int."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self) -> None:
        vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if not np.isfinite(vertices).all():
            raise ValueError("mesh vertices must be finite")
        if faces.size:
            if faces.min() < 0 or faces.max() >= len(vertices):
                raise ValueError("face index out of range")
            if (
                (faces[:, 0] == faces[:, 1])
                | (faces[:, 1] == faces[:, 2])
                | (faces[:, 0] == faces[:, 2])
            ).any():
                raise ValueError("degenerate face (repeated vertex index)")
        vertices.setflags(write=False)
        faces.setflags(write=False)
        self.vertices = vertices
        self.faces = faces

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def face_normals(self) -> np.ndarray:
        """Unit normals per face; zero vector where a face has zero area."""
        return _unit_normals(np.take(self.vertices, self.faces, axis=0))

    def surface_area(self) -> float:
        a = self.vertices[self.faces[:, 0]]
        b = self.vertices[self.faces[:, 1]]
        c = self.vertices[self.faces[:, 2]]
        return float(np.linalg.norm(np.cross(b - a, c - a), axis=1).sum() / 2.0)


def empty_mesh() -> TriangleMesh:
    return TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))


def marching_cubes(volume: Volume, iso_hu: float) -> TriangleMesh:
    """Extract the iso-surface of ``volume`` at ``iso_hu`` in world millimetres.

    Returns an empty mesh when no voxel cell crosses the level.  See the
    module docstring for the exact conventions this function pins down.
    """
    nx, ny, nz = volume.dims
    if min(nx, ny, nz) < 2:
        raise DegenerateGeometryError(
            "volume must span at least 2 voxels per axis to form cells"
        )
    iso = float(iso_hu)
    if not np.isfinite(iso):
        raise ValueError(f"iso level must be finite, got {iso_hu!r}")

    # Corner code per cell, built separably: pairs along x, then pairs of
    # those along y, then along z, each temporary dropped once used.  Bit
    # di + 2*dj + 4*dk is set when corner (di, dj, dk) lies below iso.  The
    # shifts are uint8 multiplies, which numpy vectorises; every array follows
    # the volume's memory order, so the slices stream.  An integer voxel lies
    # below iso exactly when it lies below ceil(iso), so the comparison stays
    # in int16.
    below = (volume.voxels < math.ceil(iso)).view(np.uint8)
    code_x = below[1:] * np.uint8(2)
    code_x |= below[:-1]
    del below
    code_xy = code_x[:, 1:] * np.uint8(4)
    code_xy |= code_x[:, :-1]
    del code_x
    code = code_xy[:, :, 1:] * np.uint8(16)
    code |= code_xy[:, :, :-1]
    del code_xy
    # Active cells (code neither 0 nor 255, which the renumbering fixes;
    # code - 1 wraps 0 to 255), linearised x-fastest so cells come out in
    # scan order.
    flat = code.transpose(2, 1, 0).reshape(-1)
    del code
    flat -= 1
    lin = np.flatnonzero(flat < 254)
    if lin.size == 0:
        return empty_mesh()
    cell_case = _CASE_OF_CODE[flat[lin] + 1]
    del flat  # the full-size array goes before the per-edge work
    ci = lin % (nx - 1)
    cj = (lin // (nx - 1)) % (ny - 1)
    ck = lin // ((nx - 1) * (ny - 1))

    # Every triangle corner as (cell, edge), cells in scan order and each
    # cell's edges in table order; key each edge by its lower grid corner.
    rows = _TRI_EDGES[cell_case]
    edges = rows[rows >= 0]
    base = np.repeat(ci + nx * (cj + ny * ck), _TRI_COUNTS[cell_case])
    edge_key_step = (_EDGE_LOWER @ np.array((1, nx, nx * ny))) * 3 + _EDGE_AXIS
    keys = base * 3 + edge_key_step[edges]

    # Vertex slots in order of first use, as a walk over the corners would
    # hand them out.  A stable sort keeps each key's uses in corner order, so
    # the first entry of each run of equal keys is that key's first use.
    by_key = np.argsort(keys, kind="stable")
    sorted_keys = keys[by_key]
    starts = np.empty(len(keys), dtype=bool)
    starts[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    run_starts = np.flatnonzero(starts)
    slot_order, rank = _first_use_rank(by_key[run_starts])
    corner_slot = np.empty(len(keys), dtype=np.int64)
    corner_slot[by_key] = np.repeat(rank, np.diff(run_starts, append=len(keys)))
    faces = corner_slot.reshape(-1, 3)

    # Interpolate each edge from its lower corner a toward b, in the float64
    # steps of the scalar formula: t = (iso - va) / (vb - va), coord = a + t.
    vertex_keys = sorted_keys[run_starts[slot_order]]
    axis = vertex_keys % 3
    lower = vertex_keys // 3
    a = np.stack((lower % nx, (lower // nx) % ny, lower // (nx * ny)))
    b = a + np.eye(3, dtype=np.int64)[:, axis]
    va = volume.voxels[tuple(a)].astype(np.float64)
    vb = volume.voxels[tuple(b)].astype(np.float64)
    t = (iso - va) / (vb - va)
    grid = a.T.astype(np.float64)
    grid[np.arange(len(grid)), axis] += t
    vertices = np.asarray(volume.origin) + grid * np.asarray(volume.spacing)

    # Weld coincident vertices (iso hitting a grid value makes edge vertices
    # land on the shared corner) and drop faces that collapse.  Only vertices
    # near a grid corner can weld (see _weld_candidates), so only they are
    # grouped.
    candidates = _weld_candidates(volume, t, axis)
    quantised = vertices[candidates] / WELD_TOLERANCE_MM
    quantised = np.round(quantised, out=quantised) * WELD_TOLERANCE_MM
    by_value = np.lexsort(quantised.T)
    ordered = quantised[by_value]
    starts = np.ones(len(candidates), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    if not starts.all():
        # lexsort is stable and the candidates ascend, so a group's first
        # sorted entry is its first use: every vertex maps to that one, and
        # the vertices that stay keep their first-use order.
        first = by_value[starts]
        target = np.arange(len(vertices))
        target[candidates[by_value]] = candidates[first[np.cumsum(starts) - 1]]
        stays = target == np.arange(len(vertices))
        vertices = vertices[stays]
        faces = (np.cumsum(stays) - 1)[target][faces]
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


def _first_use_rank(first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Given each distinct key's first-use position, listed in key order: the
    distinct keys in order of first use, and each key's place in that order."""
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(first), dtype=np.int64)
    rank[order] = np.arange(len(first))
    return order, rank


def _weld_candidates(volume: Volume, t: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the vertices that may weld with another vertex.

    A vertex sits at grid coordinate g = a + t along edge axis e (0 <= t <= 1
    holds for the float t too, since vb - va is exact) and at world
    coordinate x = fl(o + fl(fl(g) * s)).  With L = max(|o| + (n - 1) * s)
    over the axes and u = 2**-53, each coordinate is within 3.01 u L of
    o + g s, and rounding to the weld grid moves it by at most
    tol / 2 * (1 + u) + 2.01 u |x|.  Two vertices that weld therefore have
    grid coordinates with |g_p - g_q| * s <= tol * (1 + u) + 10.1 u L on
    every axis, which is below 2.2 * tol when L <= _WELD_EXTENT_MM.

    Two vertices on distinct edges differ by at least min(t, 1 - t) grid
    steps along the first one's axis e, or by a whole step along another
    axis.  If the second edge runs along another axis, its e coordinate is an
    integer.  If it runs along e on the same grid line, it starts a whole
    step before or after the first, which leaves a gap of at least t or
    1 - t.  If it runs along e on a parallel line, another coordinate differs
    by a nonzero integer.  So while every spacing exceeds _WELD_GAP_MM
    (> 2.2 * tol), a vertex whose corner gap min(t, 1 - t) * s_e exceeds
    _WELD_GAP_MM welds with nothing, and grouping the other vertices alone
    gives the full weld.  The margin between 2.2 * tol and _WELD_GAP_MM
    absorbs the rounding of the tests below.  When either bound fails,
    every vertex is a candidate.
    """
    dims = np.asarray(volume.dims) - 1
    spacing = np.asarray(volume.spacing)
    extent = np.abs(np.asarray(volume.origin)) + dims * spacing
    if spacing.min() <= _WELD_GAP_MM or extent.max() > _WELD_EXTENT_MM:
        return np.arange(len(t))
    gap = np.minimum(t, 1.0 - t)
    gap *= spacing[axis]
    return np.flatnonzero(gap <= _WELD_GAP_MM)


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


STL_HEADER = ("fidreg mesh; " + ORIENTATION_NOTE).encode("ascii")[:80]


def write_stl(mesh: TriangleMesh, path) -> None:
    """Binary little-endian STL: 80-byte header, uint32 count, 50-byte facets."""
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


def write_obj(mesh: TriangleMesh, path) -> None:
    """ASCII OBJ with 1-based face indices and full-precision vertices."""
    lines = [
        f"# fidreg surface mesh; {ORIENTATION_NOTE}",
        f"# {mesh.n_vertices} vertices, {mesh.n_faces} faces",
    ]
    for x, y, z in mesh.vertices:
        lines.append(f"v {format_float(x)} {format_float(y)} {format_float(z)}")
    for a, b, c in mesh.faces:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
