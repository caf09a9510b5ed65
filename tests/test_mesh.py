from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

import fidreg.mesh
from fidreg._mc_tables import EDGE_CORNERS, EDGE_TABLE, TRI_TABLE
from fidreg.errors import DegenerateGeometryError
from fidreg.mesh import (
    STL_HEADER,
    TriangleMesh,
    _slab_depth,
    empty_mesh,
    marching_cubes,
    write_obj,
    write_stl,
)
from fidreg.volume import Volume

from reference_impls import corner_array_write_stl


def make_volume(voxels, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    vox = np.asarray(voxels, dtype=np.int16)
    return Volume(dims=vox.shape, spacing=spacing, origin=origin, voxels=vox)


def signed_volume(mesh):
    corners = mesh.vertices[mesh.faces]
    return float(np.sum(np.linalg.det(corners))) / 6.0


def edge_censuses(mesh):
    directed = Counter()
    undirected = Counter()
    for a, b, c in mesh.faces:
        for u, v in ((a, b), (b, c), (c, a)):
            directed[(u, v)] += 1
            undirected[frozenset((u, v))] += 1
    return directed, undirected


def assert_watertight_consistent(mesh):
    directed, undirected = edge_censuses(mesh)
    assert all(count == 2 for count in undirected.values()), "open or non-manifold edge"
    assert all(count == 1 for count in directed.values()), "inconsistent winding"


def euler_characteristic(mesh):
    _, undirected = edge_censuses(mesh)
    return mesh.n_vertices - len(undirected) + mesh.n_faces


# --- case tables -----------------------------------------------------------


def test_edge_table_complement_symmetry():
    assert len(EDGE_TABLE) == 256 and len(TRI_TABLE) == 256
    for case in range(256):
        assert EDGE_TABLE[case] == EDGE_TABLE[255 - case]


def test_triangle_edges_match_edge_mask():
    # marching_cubes numbers vertices by edge ownership: a crossing edge's
    # first use lies in the earliest cell holding it only because every
    # cell holding it uses it, so each row uses exactly the crossing edges.
    for case, triangles in enumerate(TRI_TABLE):
        assert len(triangles) % 3 == 0
        used = {edge for edge in triangles}
        mask = {edge for edge in range(12) if EDGE_TABLE[case] >> edge & 1}
        crossing = {e for e, (a, b) in enumerate(EDGE_CORNERS) if (case >> a ^ case >> b) & 1}
        assert used == mask == crossing
    assert TRI_TABLE[0] == () and TRI_TABLE[255] == ()
    assert len(EDGE_CORNERS) == 12


def test_owned_rows_keep_first_use_order():
    # Row 256 * boundary + case lists the owned edges in the order the
    # case's triangles first use them; an inner cell owns only the edges
    # through its (1, 1, 1) corner, v6, and a corner cell owns every edge.
    edges, counts = fidreg.mesh._OWNED_EDGES, fidreg.mesh._OWNED_COUNTS
    assert len(counts) == 8 * 256
    rows = [tuple(row.tolist()) for row in np.split(edges, fidreg.mesh._OWNED_FIRST[1:])]
    for case, triangles in enumerate(TRI_TABLE):
        first_use = list(dict.fromkeys(triangles))
        assert rows[7 * 256 + case] == tuple(first_use)
        assert rows[case] == tuple(e for e in first_use if 6 in EDGE_CORNERS[e])
        for boundary in range(8):
            row = rows[boundary * 256 + case]
            assert list(row) == [e for e in first_use if e in row]


# --- surface extraction ----------------------------------------------------


def test_uniform_volumes_give_empty_mesh():
    for fill in (-1000, 2000):
        vox = np.full((4, 4, 4), fill, dtype=np.int16)
        mesh = marching_cubes(make_volume(vox), iso_hu=300.0)
        assert mesh.n_vertices == 0 and mesh.n_faces == 0


def test_single_voxel_gives_exact_octahedron():
    vox = np.zeros((3, 3, 3), dtype=np.int16)
    vox[1, 1, 1] = 3000
    mesh = marching_cubes(make_volume(vox), iso_hu=1500.0)
    assert mesh.n_vertices == 6 and mesh.n_faces == 8
    assert_watertight_consistent(mesh)
    assert euler_characteristic(mesh) == 2
    assert signed_volume(mesh) == pytest.approx(1.0 / 6.0, abs=1e-15)
    # vertices sit at half-voxel offsets from the center, by iso symmetry
    expected = {
        (0.5, 1.0, 1.0), (1.5, 1.0, 1.0),
        (1.0, 0.5, 1.0), (1.0, 1.5, 1.0),
        (1.0, 1.0, 0.5), (1.0, 1.0, 1.5),
    }
    assert {tuple(v) for v in mesh.vertices} == expected


def test_octahedron_respects_spacing_and_origin():
    vox = np.zeros((3, 3, 3), dtype=np.int16)
    vox[1, 1, 1] = 3000
    volume = make_volume(vox, spacing=(0.5, 2.0, 1.0), origin=(10.0, -5.0, 3.0))
    mesh = marching_cubes(volume, iso_hu=1500.0)
    center = np.array([10.5, -3.0, 4.0])
    expected = {
        tuple(center + d)
        for d in [
            (0.25, 0, 0), (-0.25, 0, 0),
            (0, 1.0, 0), (0, -1.0, 0),
            (0, 0, 0.5), (0, 0, -0.5),
        ]
    }
    assert {tuple(v) for v in mesh.vertices} == expected
    # octahedron with semi-axes (0.25, 1.0, 0.5): volume 4/3 * a * b * c
    assert signed_volume(mesh) == pytest.approx(4.0 / 3.0 * 0.125, rel=1e-12)


def test_linear_ramp_crosses_at_exact_plane():
    nx = 6
    vox = np.broadcast_to(
        (np.arange(nx, dtype=np.int16) * 100)[:, None, None], (nx, 4, 4)
    ).copy()
    mesh = marching_cubes(make_volume(vox), iso_hu=250.0)
    assert mesh.n_faces > 0
    interior = mesh.vertices[
        (mesh.vertices[:, 1] > 0.5) & (mesh.vertices[:, 1] < 2.5)
        & (mesh.vertices[:, 2] > 0.5) & (mesh.vertices[:, 2] < 2.5)
    ]
    np.testing.assert_array_equal(interior[:, 0], 2.5)
    # above-iso region is x > 2.5: normals there must point toward -x
    normals = mesh.face_normals()
    center_faces = mesh.vertices[mesh.faces].mean(axis=1)
    inside = (
        (center_faces[:, 1] > 0.5) & (center_faces[:, 1] < 2.5)
        & (center_faces[:, 2] > 0.5) & (center_faces[:, 2] < 2.5)
    )
    assert np.all(normals[inside, 0] < -0.999)


def test_sphere_mesh_is_watertight_and_accurate():
    n = 40
    radius = 15.0
    center = (n - 1) / 2.0
    idx = np.indices((n, n, n), dtype=np.float64)
    d = np.sqrt(sum((idx[a] - center) ** 2 for a in range(3)))
    # smooth field crossing zero at d == radius, so interpolation recovers the
    # true sphere to sub-voxel accuracy
    vox = np.clip((radius - d) * 100.0, -30000, 30000).astype(np.int16)
    mesh = marching_cubes(make_volume(vox), iso_hu=0.0)
    assert_watertight_consistent(mesh)
    assert euler_characteristic(mesh) == 2
    assert mesh.surface_area() == pytest.approx(4 * np.pi * radius**2, rel=0.005)
    assert signed_volume(mesh) == pytest.approx(4 / 3 * np.pi * radius**3, rel=0.005)
    radii = np.linalg.norm(mesh.vertices - center, axis=1)
    assert radii.min() > radius - 0.1 and radii.max() < radius + 0.1


def test_iso_on_grid_value_welds_to_clean_cube():
    vox = np.zeros((4, 4, 4), dtype=np.int16)
    vox[1:3, 1:3, 1:3] = 1000
    mesh = marching_cubes(make_volume(vox), iso_hu=1000.0)
    assert mesh.n_vertices == 8 and mesh.n_faces == 12
    assert_watertight_consistent(mesh)
    assert {tuple(v) for v in mesh.vertices} == {
        (float(i), float(j), float(k)) for i in (1, 2) for j in (1, 2) for k in (1, 2)
    }
    assert signed_volume(mesh) == pytest.approx(1.0, abs=1e-15)


def test_extraction_is_deterministic():
    rng = np.random.default_rng(4)
    vox = rng.integers(-1000, 2000, size=(7, 6, 5)).astype(np.int16)
    volume = make_volume(vox)
    a = marching_cubes(volume, iso_hu=300.0)
    b = marching_cubes(volume, iso_hu=300.0)
    np.testing.assert_array_equal(a.vertices, b.vertices)
    np.testing.assert_array_equal(a.faces, b.faces)


def test_strided_read_only_volume_meshes_like_its_copy():
    # Neither C- nor Fortran-contiguous: Volume keeps read-only input as it is.
    rng = np.random.default_rng(6)
    big = rng.integers(-1000, 2000, size=(14, 9, 12)).astype(np.int16)
    view = big[::2, 1:, ::-1]
    view.setflags(write=False)
    strided = Volume(view.shape, (0.7, 1.1, 0.9), (3.0, -2.0, 1.0), view)
    assert not strided.voxels.flags.c_contiguous and not strided.voxels.flags.f_contiguous
    copied = Volume(view.shape, (0.7, 1.1, 0.9), (3.0, -2.0, 1.0), view.copy())
    a = marching_cubes(strided, 300.0)
    b = marching_cubes(copied, 300.0)
    assert a.n_faces > 0
    assert a.vertices.tobytes() == b.vertices.tobytes()
    assert np.array_equal(a.faces, b.faces)


def test_slot_table_size_boundary(monkeypatch):
    # A slab spans as many cell planes as _SLAB_BYTES of voxels hold, and at
    # least one, and its slot table covers its depth + 1 voxel planes.
    assert _slab_depth((256, 256, 256), 2) == fidreg.mesh._SLAB_BYTES // (2 * 256 * 256) == 8
    assert _slab_depth((256, 256, 5), 2) == 4  # at most nz - 1
    assert _slab_depth((512, 1024, 9), 2) == 1  # one plane is exactly the budget
    assert _slab_depth((512, 1025, 9), 2) == 1  # one plane exceeds it
    assert _slab_depth((512, 512, 9), 2) == 2
    assert _slab_depth((512, 512 + 1, 9), 2) == 1
    # The mesh does not depend on where the bound falls.
    rng = np.random.default_rng(11)
    volume = make_volume(rng.integers(-1000, 2000, size=(7, 6, 9)).astype(np.int16))
    want = marching_cubes(volume, iso_hu=300.0)
    assert want.n_faces > 0
    for slab_bytes in (1, 2 * 7 * 6 - 1, 2 * 7 * 6, 2 * 2 * 7 * 6 - 1):
        monkeypatch.setattr(fidreg.mesh, "_SLAB_BYTES", slab_bytes)
        got = marching_cubes(volume, iso_hu=300.0)
        assert got.vertices.tobytes() == want.vertices.tobytes()
        assert got.faces.tobytes() == want.faces.tobytes()


def test_degenerate_grid_rejected():
    vox = np.zeros((1, 4, 4), dtype=np.int16)
    with pytest.raises(DegenerateGeometryError):
        marching_cubes(make_volume(vox), iso_hu=0.0)


# --- mesh data type --------------------------------------------------------


def test_mesh_validation():
    vertices = np.zeros((3, 3))
    vertices[1, 0] = vertices[2, 1] = 1.0
    TriangleMesh(vertices=vertices, faces=np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match="out of range"):
        TriangleMesh(vertices=vertices, faces=np.array([[0, 1, 3]]))
    with pytest.raises(ValueError, match="repeated"):
        TriangleMesh(vertices=vertices, faces=np.array([[0, 1, 1]]))
    bad = vertices.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        TriangleMesh(vertices=bad, faces=np.array([[0, 1, 2]]))


def test_face_normals_and_area():
    vertices = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    mesh = TriangleMesh(vertices=vertices, faces=np.array([[0, 1, 2]]))
    np.testing.assert_allclose(mesh.face_normals(), [[0.0, 0.0, 1.0]], atol=1e-15)
    assert mesh.surface_area() == pytest.approx(2.0, abs=1e-15)
    assert empty_mesh().surface_area() == 0.0


# --- writers ---------------------------------------------------------------


def test_stl_layout(tmp_path):
    vox = np.zeros((3, 3, 3), dtype=np.int16)
    vox[1, 1, 1] = 3000
    mesh = marching_cubes(make_volume(vox), iso_hu=1500.0)
    path = tmp_path / "oct.stl"
    write_stl(mesh, path)
    blob = path.read_bytes()
    assert len(blob) == 84 + 50 * mesh.n_faces
    assert blob[:80] == STL_HEADER.ljust(80, b"\x00")
    assert not blob.startswith(b"solid")  # binary STL must not look ASCII
    assert int.from_bytes(blob[80:84], "little") == mesh.n_faces
    record = np.frombuffer(
        blob[84:],
        dtype=np.dtype([("normal", "<f4", 3), ("corners", "<f4", (3, 3)), ("attr", "<u2")]),
    )
    np.testing.assert_array_equal(record["attr"], 0)
    np.testing.assert_allclose(record["normal"], mesh.face_normals(), atol=1e-6)
    np.testing.assert_array_equal(record["corners"], mesh.vertices[mesh.faces].astype("<f4"))


def test_normals_round_like_numpy_cross_and_norm(tmp_path):
    rng = np.random.default_rng(4)
    vertices = rng.normal(size=(40, 3)) * [300.0, 2.0, 1e-3]
    vertices[39] = vertices[38]  # face (37, 38, 39) has zero area
    faces = np.array([rng.permutation(40)[:3] for _ in range(60)] + [[37, 38, 39]])
    mesh = TriangleMesh(vertices, faces)
    a, b, c = (vertices[faces[:, k]] for k in range(3))
    n = np.cross(b - a, c - a)
    norms = np.linalg.norm(n, axis=1)
    want = n / np.where(norms > 0.0, norms, 1.0)[:, None]
    assert mesh.face_normals().tobytes() == want.tobytes()
    path = tmp_path / "soup.stl"
    write_stl(mesh, path)
    record = np.frombuffer(
        path.read_bytes()[84:],
        dtype=np.dtype([("normal", "<f4", 3), ("corners", "<f4", (3, 3)), ("attr", "<u2")]),
    )
    assert record["normal"].tobytes() == want.astype("<f4").tobytes()
    assert record["corners"].tobytes() == mesh.vertices[mesh.faces].astype("<f4").tobytes()
    assert not record["normal"][-1].any()

    write_stl(empty_mesh(), path)
    assert path.read_bytes() == STL_HEADER.ljust(80, b"\x00") + bytes(4)


@st.composite
def triangle_soups(draw):
    """Meshes of 0-12 faces, some of zero area (repeated or collinear corners)."""
    n = draw(st.integers(3, 8))
    coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    vertices = draw(arrays(np.float64, (n, 3), elements=coord))
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2)):
        vertices[dst] = vertices[src]  # coincident corners
    if draw(st.booleans()):
        vertices[2] = 2.0 * vertices[1] - vertices[0]  # collinear corners
    faces = draw(st.lists(st.permutations(range(n)).map(lambda p: p[:3]), max_size=12))
    return TriangleMesh(vertices, np.array(faces, dtype=np.int64).reshape(-1, 3))


@given(triangle_soups())
@example(empty_mesh())
def test_stl_writer_matches_corner_array_oracle(tmp_path_factory, mesh):
    folder = tmp_path_factory.mktemp("stl")
    write_stl(mesh, folder / "streamed.stl")
    corner_array_write_stl(mesh, folder / "oracle.stl")
    assert (folder / "streamed.stl").read_bytes() == (folder / "oracle.stl").read_bytes()


def chunk_test_mesh(n_faces):
    """A random mesh of ``n_faces`` faces; every third one has zero area."""
    rng = np.random.default_rng(n_faces)
    vertices = rng.uniform(-200.0, 200.0, size=(64, 3))
    vertices[1] = vertices[0]  # coincident
    vertices[2:4] = np.round(vertices[2:4])
    vertices[4] = 2.0 * vertices[3] - vertices[2]  # exactly collinear with 2 and 3
    faces = np.array([rng.permutation(64)[:3] for _ in range(n_faces)]).reshape(-1, 3)
    faces[0::6] = (0, 1, 5)
    faces[3::6] = (2, 3, 4)
    return TriangleMesh(vertices, faces)


@pytest.mark.parametrize("chunk", [5, fidreg.mesh._STL_CHUNK_FACES])
@pytest.mark.parametrize("times, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
def test_stl_writer_chunks_match_corner_array_oracle(tmp_path, monkeypatch, chunk, times, extra):
    monkeypatch.setattr(fidreg.mesh, "_STL_CHUNK_FACES", chunk)
    mesh = chunk_test_mesh(times * chunk + extra)
    if mesh.n_faces:
        assert (mesh.face_normals()[0::3] == 0.0).all()
    write_stl(mesh, tmp_path / "chunked.stl")
    corner_array_write_stl(mesh, tmp_path / "oracle.stl")
    written = (tmp_path / "chunked.stl").read_bytes()
    assert len(written) == 84 + 50 * mesh.n_faces
    assert written == (tmp_path / "oracle.stl").read_bytes()


@given(triangle_soups())
@example(empty_mesh())
def test_normals_and_area_bits_match_numpy_cross_and_norm(mesh):
    a, b, c = (mesh.vertices[mesh.faces[:, k]] for k in range(3))
    n = np.cross(b - a, c - a)
    norms = np.linalg.norm(n, axis=1)
    area = float(norms.sum() / 2.0)
    assert np.array(mesh.surface_area()).tobytes() == np.array(area).tobytes()
    want = n / np.where(norms > 0.0, norms, 1.0)[:, None]
    assert mesh.face_normals().tobytes() == want.tobytes()


def test_stl_is_deterministic(tmp_path):
    rng = np.random.default_rng(9)
    vox = rng.integers(-500, 1500, size=(6, 6, 6)).astype(np.int16)
    mesh = marching_cubes(make_volume(vox), iso_hu=400.0)
    write_stl(mesh, tmp_path / "a.stl")
    write_stl(mesh, tmp_path / "b.stl")
    assert (tmp_path / "a.stl").read_bytes() == (tmp_path / "b.stl").read_bytes()


def test_obj_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(2)
    vox = rng.integers(-1000, 2000, size=(6, 5, 7)).astype(np.int16)
    mesh = marching_cubes(
        make_volume(vox, spacing=(0.7, 0.8, 1.1), origin=(-3.2, 4.4, 0.9)), iso_hu=350.0
    )
    path = tmp_path / "mesh.obj"
    write_obj(mesh, path)
    vertices, faces = [], []
    for line in path.read_text().splitlines():
        if line.startswith("v "):
            vertices.append([float(tok) for tok in line.split()[1:]])
        elif line.startswith("f "):
            faces.append([int(tok) - 1 for tok in line.split()[1:]])
        else:
            assert line.startswith("#")
    np.testing.assert_array_equal(np.array(vertices), mesh.vertices)  # bit-exact
    np.testing.assert_array_equal(np.array(faces), mesh.faces)
