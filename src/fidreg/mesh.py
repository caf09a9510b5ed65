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

* the case pass runs over z-slabs of cells whose voxels take about
  ``_SLAB_BYTES`` (1 MB, 8 planes of a 256^2 CT), through four reused
  Fortran-order buffers, so its uint8 temporaries stay in cache (in one
  slab for the whole 256^3 ``ct-prep`` phantom, the pass and the corner
  keys below took 86 ms against 42 ms on a 2-vCPU VM).  Each slab
  compares its voxels once, then builds each cell's corner code separably
  (pairs along x, then y, then z) with bit di + 2*dj + 4*dk for corner
  (di, dj, dk); the active cells' codes are renumbered to the table's
  v0..v7 bits by a 256-entry table (bits 2<->3 and 6<->7 swap);
* a cell is coded at the flat place of its lower corner voxel, so the same
  slab pass turns its active cells straight into triangle-corner keys
  (lower grid corner, axis) with the table's rows laid back to back, with
  no divmod per cell;
* vertex slots are handed out by edge ownership, as in classic marching
  cubes and Flying Edges, not by sorting the keys: every cell holding a
  crossing edge uses it, so the edge's first use lies in the earliest such
  cell in scan order, which owns it.  A 256 x 8 table (case, and whether
  i, j and k are 0) lists each cell's owned edges in first-use order, so
  the slab pass emits them in slot order; each slab then looks its corners'
  slots up in one dense int64 table over its planes, whose bottom plane
  carries over the previous slab's top-plane x and y edges.  The table
  holds 3 entries per voxel of depth + 1 planes (14 MB on 256^2 planes; two
  planes when one alone exceeds ``_SLAB_BYTES``), and any slot fits, so no
  grid size is refused;
* interpolation gathers each edge's two voxels from a flat Fortran-order
  view of the voxels (a copy only for read-only input in another layout,
  which nothing in fidreg makes) and builds the world coordinates one
  column at a time, in the float64 steps of origin + grid * spacing;
* the weld groups only candidate vertices: those whose corner gap
  min(t, 1 - t) * spacing along their edge is at most 4e-9 mm, where t is
  the interpolation parameter.  That is exact while every spacing exceeds
  4e-9 mm and the grid stays within 1e6 mm of the world origin (the proof is
  at ``_weld_candidates``); otherwise every vertex is a candidate.  Only a
  weld can orphan a vertex (without one every slot is some face corner's
  first use), so only a weld is followed by the orphan pass;
* ``write_stl`` fills and writes the facet records 8192 faces at a time
  through one reused 400 KB buffer, so the records and the float64 columns
  they are filled from stay in cache; one buffer for the whole mesh (20 MB
  on a 256^3 CT skin) and one write of it took about 1.6 times as long.

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
# TRI_TABLE's rows back to back, with each row's start and length.
_TRI_EDGES = np.array([edge for row in TRI_TABLE for edge in row], dtype=np.int64)
_TRI_COUNTS = np.array([len(row) for row in TRI_TABLE], dtype=np.int64)
_TRI_FIRST = np.cumsum(_TRI_COUNTS) - _TRI_COUNTS


def _owned_edges() -> tuple[np.ndarray, np.ndarray]:
    """Rows ``256 * boundary + case`` back to back, and each row's length:
    the cube edges such a cell owns, in the order of their first use in
    TRI_TABLE[case].

    Boundary bit a (1, 2, 4 for x, y, z) is set when the cell's index along
    axis a is 0.  Cells run in scan order, z slowest and x fastest, so the
    earliest cell holding the grid edge at corner (i, j, k) along x is
    (i, max(j - 1, 0), max(k - 1, 0)), and likewise along y and z.  Each
    row of TRI_TABLE uses exactly its case's crossing edges, so a crossing
    edge's first use lies in that cell: the cell owns each edge whose lower
    corner offset is 1, or whose cell index is 0, along both other axes.
    """
    edges, counts = [], []
    for boundary in range(8):
        owned = {
            edge
            for edge in range(12)
            if all(
                _EDGE_LOWER[edge][a] or boundary >> a & 1
                for a in range(3)
                if a != _EDGE_AXIS[edge]
            )
        }
        for case in range(256):
            row = [edge for edge in dict.fromkeys(TRI_TABLE[case]) if edge in owned]
            edges += row
            counts.append(len(row))
    return np.array(edges, dtype=np.int64), np.array(counts, dtype=np.int64)


_OWNED_EDGES, _OWNED_COUNTS = _owned_edges()
_OWNED_FIRST = np.cumsum(_OWNED_COUNTS) - _OWNED_COUNTS
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
        cross, norm = _face_cross(self.vertices.T.copy(), self.faces)
        _normalise(cross, norm)
        return np.stack(cross, axis=1)

    def surface_area(self) -> float:
        _, norm = _face_cross(self.vertices.T.copy(), self.faces)
        return float(norm.sum() / 2.0)


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

    # An integer voxel lies below iso exactly when it lies below ceil(iso),
    # so the case pass compares in int16.
    vertex_keys, corner_slot = _vertex_slots(volume.voxels, math.ceil(iso))
    if corner_slot.size == 0:
        return empty_mesh()
    faces = corner_slot.reshape(-1, 3)

    # Interpolate each edge from its lower corner a toward b, in the float64
    # steps of the scalar formula: t = (iso - va) / (vb - va), coord = a + t.
    # va and vb come from a flat Fortran-order view of the voxels.
    lower, axis = np.divmod(vertex_keys, 3)
    del vertex_keys
    flat = volume.voxels.reshape(-1, order="F")  # a copy unless Fortran-ordered
    step = np.array((1, nx, nx * ny))
    va = flat[lower].astype(np.float64)
    vb = flat[lower + step[axis]].astype(np.float64)
    t = (iso - va) / (vb - va)
    # One world column at a time, in the float64 steps of
    # origin + (index + t on the edge axis) * spacing.
    rest, i = np.divmod(lower, nx)
    k, j = np.divmod(rest, ny)
    del lower, rest
    vertices = np.empty((len(t), 3))
    for d, index in enumerate((i, j, k)):
        g = index.astype(np.float64)
        np.add(g, t, out=g, where=axis == d)
        g *= volume.spacing[d]
        g += volume.origin[d]
        vertices[:, d] = g
    del i, j, k

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
        # Drop vertices orphaned by face removal.  Without a weld every
        # vertex slot is some face corner's first use, so none is orphaned.
        used = np.zeros(len(vertices), dtype=bool)
        used[faces] = True
        if not used.all():
            remap = np.cumsum(used) - 1
            vertices = vertices[used]
            faces = remap[faces]
    return TriangleMesh(vertices, faces)


# Bytes of voxels the case pass reads per z-slab of cells: 1 MB is 8
# planes of a 256 x 256 int16 CT, and the slab's uint8 temporaries stay in
# cache between the steps that build them.
_SLAB_BYTES = 1 << 20


def _slab_depth(dims: tuple[int, int, int], itemsize: int) -> int:
    """Cell planes per slab: as many as _SLAB_BYTES of voxels hold, at least 1
    and at most nz - 1.  A slab reads depth + 1 voxel planes, and its slot
    table holds 3 int64 entries per voxel of them."""
    nx, ny, nz = dims
    return max(1, min(nz - 1, _SLAB_BYTES // (itemsize * nx * ny)))


def _vertex_slots(voxels: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge key ``3 * (lower grid corner) + axis`` of every vertex slot, and
    the slot of every triangle corner.

    A corner lies below iso when its voxel is below ``bound``.  Triangle
    corners come cell by cell in scan order, each cell's in table order, and
    slots are numbered in order of first use along that walk.

    The cells are coded one z-slab at a time, in reused buffers that hold
    the slab's planes x-fastest (Fortran order): pairs along x, then y, then
    z, with bit di + 2*dj + 4*dk for corner (di, dj, dk).  Each step pairs a
    flat buffer with itself shifted by one voxel, one row or one plane, so
    cell (i, j, k) sits at the flat place of its lower corner voxel and a
    slab's active cells give their voxel indices directly.  The last x
    column and y row hold no cell: they are zeroed, and code 0 is inactive.

    Every cell that holds a crossing edge is active and uses the edge, so
    the edge's first use lies in the earliest such cell, its owner (see
    _owned_edges); the owners list their edges in first-use order as the
    slabs go by.  Keys within a slab are taken from 3 * (the slab's first
    voxel), and each slab looks its corners' slots up in one dense table
    over its planes, whose bottom plane carries over the previous slab's
    top-plane x and y edges.
    """
    nx, ny, nz = voxels.shape
    plane = nx * ny
    depth = _slab_depth(voxels.shape, voxels.itemsize)
    below = np.empty((nx, ny, depth + 1), dtype=bool, order="F")
    below_bits = below.reshape(-1, order="F").view(np.uint8)
    code_x = np.empty(plane * (depth + 1), dtype=np.uint8)
    code_xy = np.empty(plane * (depth + 1), dtype=np.uint8)
    code = np.empty(plane * depth, dtype=np.uint8)
    # Boundary class bits of a slab's cells: 1 where i = 0, 2 where j = 0.
    side = np.zeros((nx, ny, depth), dtype=np.uint8, order="F")
    side[0] |= 1
    side[:, 0] |= 2
    side = side.reshape(-1, order="F")
    # Key offset of each cube edge from 3 * (the cell's lower corner).
    edge_step = (_EDGE_LOWER @ np.array((1, nx, plane))) * 3 + _EDGE_AXIS
    corner_step = edge_step[_TRI_EDGES]
    owned_step = edge_step[_OWNED_EDGES]
    slabs = []
    for k0 in range(0, nz - 1, depth):
        cells = min(depth, nz - 1 - k0)
        size = plane * (cells + 1)
        np.less(voxels[:, :, k0 : k0 + cells + 1], bound, out=below[:, :, : cells + 1])
        b = below_bits[:size]
        np.multiply(b[1:], np.uint8(2), out=code_x[: size - 1])
        code_x[: size - 1] |= b[:-1]
        code_x[nx - 1 : size : nx] = 0
        x = code_x[:size]
        np.multiply(x[nx:], np.uint8(4), out=code_xy[: size - nx])
        code_xy[: size - nx] |= x[:-nx]
        code_xy[:size].reshape((nx, ny, cells + 1), order="F")[:, ny - 1] = 0
        flat = code[: plane * cells]
        np.multiply(code_xy[plane:size], np.uint8(16), out=flat)
        flat |= code_xy[: size - plane]
        # Active cells have a code neither 0 nor 255, which the
        # renumbering to table bits fixes; code - 1 wraps 0 to 255.
        flat -= 1
        lin = np.flatnonzero(flat < 254)
        if lin.size == 0:
            continue
        cell_case = _CASE_OF_CODE[flat[lin] + 1]
        owner = side[lin].astype(np.intp)
        if k0 == 0:
            owner[: np.searchsorted(lin, plane)] |= 4
        owner <<= 8
        owner |= cell_case
        lin *= 3
        slabs.append((
            k0,
            cells,
            _table_entries(lin, cell_case, _TRI_COUNTS, _TRI_FIRST, corner_step),
            _table_entries(lin, owner, _OWNED_COUNTS, _OWNED_FIRST, owned_step),
        ))

    corner_slot = np.empty(sum(len(corners) for _, _, corners, _ in slabs), dtype=np.int64)
    table = np.empty(3 * plane * (depth + 1), dtype=np.int64)
    vertex_keys = []
    used = filled = next_k0 = 0
    carried = carried_slots = np.empty(0, dtype=np.int64)
    for k0, cells, corners, owned in slabs:
        if k0 == next_k0:
            table[carried] = carried_slots
        slots = np.arange(used, used + len(owned))
        table[owned] = slots
        used += len(owned)
        table.take(corners, out=corner_slot[filled : filled + len(corners)])
        filled += len(corners)
        top = 3 * plane * cells
        on_top = owned >= top
        carried = owned[on_top] - top
        carried_slots = slots[on_top]
        next_k0 = k0 + cells
        owned += 3 * plane * k0
        vertex_keys.append(owned)
    return np.concatenate(vertex_keys or [np.empty(0, dtype=np.int64)]), corner_slot


def _table_entries(base, row, counts, first, step) -> np.ndarray:
    """``base[c] + step[e]`` for every entry e of table row ``row[c]``, cell
    by cell; the table's rows lie back to back, row r at ``first[r]`` with
    ``counts[r]`` entries."""
    n = counts[row]
    entries = np.repeat(base, n)
    # Table entry of each output: its row's start plus its place in the row.
    start = np.cumsum(n)
    start -= n
    entry = np.repeat(first[row] - start, n)
    entry += np.arange(len(entry))
    entries += step[entry]
    return entries


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


def _face_cross(coords: np.ndarray, faces: np.ndarray, on_corner=None):
    """Each face's cross product (b - a) x (c - a) as x, y, z columns, and its norm.

    a, b and c are the corners of a face in ``faces`` (F, 3).  Their
    coordinate columns are gathered with ``take`` from ``coords``, the
    vertices transposed to (3, V) and contiguous, so every array is
    contiguous, and the cross product and the norm are written term by term
    in the order np.cross and np.linalg.norm use: the bits equal
    ``n = np.cross(b - a, c - a)`` and ``np.linalg.norm(n, axis=1)``.
    ``on_corner(k, d, column)``, when given, receives coordinate d of corner
    k as soon as it is gathered.
    """

    def corner(k: int) -> list[np.ndarray]:
        index = faces[:, k].copy()
        columns = []
        for d in range(3):
            columns.append(coords[d].take(index))
            if on_corner is not None:
                on_corner(k, d, columns[d])
        return columns

    a = corner(0)
    u = corner(1)
    for d in range(3):
        u[d] -= a[d]
    v = corner(2)
    for d in range(3):
        v[d] -= a[d]
    del a
    x = u[1] * v[2]
    x -= u[2] * v[1]
    y = u[2] * v[0]
    y -= u[0] * v[2]
    z = u[0] * v[1]
    z -= u[1] * v[0]
    del u, v
    return (x, y, z), np.sqrt(x * x + y * y + z * z)


def _normalise(cross: tuple[np.ndarray, ...], norm: np.ndarray) -> None:
    """Divide the cross-product columns by their norm in place; zero-area faces stay 0."""
    divisor = np.where(norm > 0.0, norm, 1.0)
    for column in cross:
        column /= divisor


STL_HEADER = ("fidreg mesh; " + ORIENTATION_NOTE).encode("ascii")[:80]
_STL_RECORD = np.dtype([("normal", "<f4", 3), ("corners", "<f4", (3, 3)), ("attr", "<u2")])
# Faces per STL write: 8192 records (400 KB) and their float64 columns stay
# in cache while they are filled and written.
_STL_CHUNK_FACES = 8192


def write_stl(mesh: TriangleMesh, path) -> None:
    """Binary little-endian STL: 80-byte header, uint32 count, 50-byte facets.

    The facets are filled and written _STL_CHUNK_FACES at a time through one
    reused record buffer.  Each coordinate column goes into the records as
    soon as it is gathered, so no (F, 3, 3) corner array is built.
    """
    coords = mesh.vertices.T.copy()
    buffer = np.zeros(min(mesh.n_faces, _STL_CHUNK_FACES), dtype=_STL_RECORD)
    with open(path, "wb") as fh:
        fh.write(STL_HEADER.ljust(80, b"\x00"))
        fh.write(np.array([mesh.n_faces], dtype="<u4").tobytes())
        for start in range(0, mesh.n_faces, _STL_CHUNK_FACES):
            faces = mesh.faces[start : start + _STL_CHUNK_FACES]
            record = buffer[: len(faces)]
            corners = record["corners"]

            def store(k: int, d: int, column: np.ndarray) -> None:
                corners[:, k, d] = column

            cross, norm = _face_cross(coords, faces, store)
            _normalise(cross, norm)
            for d, column in enumerate(cross):
                record["normal"][:, d] = column
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
