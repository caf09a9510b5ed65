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
* vertices closer than 1e-9 mm collapse into one, and faces degenerate after
  that collapse (repeated vertex index) are dropped.  This only happens when
  the iso level exactly equals a grid value.

Cell corners follow the usual numbering: v0..v7 at offsets (0,0,0) (1,0,0)
(1,1,0) (0,1,0) (0,0,1) (1,0,1) (1,1,1) (0,1,1) in voxel index space.

Ambiguous saddle cells are resolved by the plain table entry (no asymptotic
decider), which can leave pin-hole cracks on rare configurations; fine for
display surfaces, not for CFD.
"""

from __future__ import annotations

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
        a = self.vertices[self.faces[:, 0]]
        b = self.vertices[self.faces[:, 1]]
        c = self.vertices[self.faces[:, 2]]
        n = np.cross(b - a, c - a)
        norms = np.linalg.norm(n, axis=1)
        safe = np.where(norms > 0.0, norms, 1.0)
        return n / safe[:, None]

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

    # Case index per cell, bit c set when corner c is below iso.  Every array
    # follows the volume's memory order, so the corner views stream.
    below = (volume.voxels < iso).view(np.uint8)
    order = "F" if below.flags.f_contiguous else "C"
    case = np.empty((nx - 1, ny - 1, nz - 1), dtype=np.uint8, order=order)
    temp = np.empty_like(case)
    for bit, (di, dj, dk) in enumerate(CORNER_OFFSETS):
        corner = below[di : di + nx - 1, dj : dj + ny - 1, dk : dk + nz - 1]
        if bit == 0:
            np.copyto(case, corner)
        else:
            np.left_shift(corner, bit, out=temp)
            case |= temp
    del below
    # Active cells (case neither 0 nor 255; case - 1 wraps 0 to 255),
    # linearised x-fastest so cells come out in scan order.
    np.subtract(case, 1, out=temp)
    lin = np.flatnonzero(temp.transpose(2, 1, 0).reshape(-1) < 254)
    if lin.size == 0:
        return empty_mesh()
    cell_case = case.transpose(2, 1, 0).reshape(-1)[lin]
    del case, temp  # the full-size arrays go before the per-edge work
    ci = lin % (nx - 1)
    cj = (lin // (nx - 1)) % (ny - 1)
    ck = lin // ((nx - 1) * (ny - 1))

    # Every triangle corner as (cell, edge), cells in scan order and each
    # cell's edges in table order; key each edge by its lower grid corner.
    rows = _TRI_EDGES[cell_case]
    edges = rows[rows >= 0]
    base = np.repeat(ci + nx * (cj + ny * ck), _TRI_COUNTS[cell_case])
    lower_step = _EDGE_LOWER @ np.array((1, nx, nx * ny))
    keys = (base + lower_step[edges]) * 3 + _EDGE_AXIS[edges]

    # Vertex slots in order of first use, as a walk over the corners would
    # hand them out.
    unique_keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    slot_order, rank = _first_use_rank(first)
    faces = rank[inverse].reshape(-1, 3)

    # Interpolate each edge from its lower corner a toward b, in the float64
    # steps of the scalar formula: t = (iso - va) / (vb - va), coord = a + t.
    vertex_keys = unique_keys[slot_order]
    axis = vertex_keys % 3
    lower = vertex_keys // 3
    a = np.stack((lower % nx, (lower // nx) % ny, lower // (nx * ny)))
    b = a + np.eye(3, dtype=np.int64)[:, axis]
    va = volume.voxels[tuple(a)].astype(np.float64)
    vb = volume.voxels[tuple(b)].astype(np.float64)
    grid = a.T.astype(np.float64)
    grid[np.arange(len(grid)), axis] += (iso - va) / (vb - va)
    vertices = np.asarray(volume.origin) + grid * np.asarray(volume.spacing)

    # Weld coincident vertices (iso hitting a grid value makes edge vertices
    # land on the shared corner) and drop faces that collapse.
    quantised = np.round(vertices / WELD_TOLERANCE_MM) * WELD_TOLERANCE_MM
    by_value = np.lexsort(quantised.T)
    ordered = quantised[by_value]
    starts = np.ones(len(vertices), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    if not starts.all():
        group = np.empty(len(vertices), dtype=np.int64)
        group[by_value] = np.cumsum(starts) - 1
        # lexsort is stable, so a group's first sorted entry is its first use;
        # keep first-use order so output stays scan-ordered.
        first = by_value[starts]
        _, rank = _first_use_rank(first)
        vertices = vertices[np.sort(first)]
        faces = rank[group][faces]
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
    """For np.unique's ``return_index`` output: the unique entries in order of
    first use, and each unique entry's position in that order."""
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(first), dtype=np.int64)
    rank[order] = np.arange(len(first))
    return order, rank


STL_HEADER = ("fidreg mesh; " + ORIENTATION_NOTE).encode("ascii")[:80]


def write_stl(mesh: TriangleMesh, path) -> None:
    """Binary little-endian STL: 80-byte header, uint32 count, 50-byte facets."""
    record = np.zeros(
        mesh.n_faces,
        dtype=np.dtype(
            [("normal", "<f4", 3), ("corners", "<f4", (3, 3)), ("attr", "<u2")]
        ),
    )
    record["normal"] = mesh.face_normals()
    record["corners"] = mesh.vertices[mesh.faces]
    with open(path, "wb") as fh:
        fh.write(STL_HEADER.ljust(80, b"\x00"))
        fh.write(np.array([mesh.n_faces], dtype="<u4").tobytes())
        fh.write(record.tobytes())


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
