"""Whole-array labelling and marching cubes against their per-voxel oracles.

``connected_components`` must give the labels and voxel sets of the
breadth-first reference, with each component's voxels in scan order.
``marching_cubes`` must give bit-identical vertices and faces to the
per-cell loop, welded and unwelded, in either memory order of the volume.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fidreg.mesh
from fidreg.mesh import marching_cubes
from fidreg.segmentation import BinaryMask, connected_components
from fidreg.volume import Volume

from reference_impls import bfs_connected_components, loop_marching_cubes


def scan_index(voxel_indices, dims):
    nx, ny, _ = dims
    return voxel_indices[:, 0] + nx * (voxel_indices[:, 1] + ny * voxel_indices[:, 2])


def assert_labelling_matches_bfs(bits, connectivity):
    bits = np.asarray(bits, dtype=bool)
    mask = BinaryMask(bits.shape, bits)
    got = connected_components(mask, connectivity)
    want = bfs_connected_components(mask, connectivity)
    assert [c.label for c in got] == [c.label for c in want]
    for g, w in zip(got, want):
        assert g.voxel_indices.dtype == np.int64
        assert {tuple(v) for v in g.voxel_indices.tolist()} == {
            tuple(v) for v in w.voxel_indices.tolist()
        }
        assert g.voxel_count == w.voxel_count
        assert np.all(np.diff(scan_index(g.voxel_indices, bits.shape)) > 0)
    return got


@settings(max_examples=60)
@given(
    st.integers(0, 2**48 - 1),
    st.sampled_from([6, 18, 26]),
    st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
    st.floats(0.05, 0.95),
)
def test_labelling_matches_bfs_oracle(seed, connectivity, dims, density):
    bits = np.random.default_rng(seed).random(dims) < density
    assert_labelling_matches_bfs(bits, connectivity)


def serpentine(nx, ny, nz):
    """A 1-voxel-wide serpentine: full x rows on even (j, k), joined at alternating ends."""
    bits = np.zeros((nx, ny, nz), dtype=bool)
    turn = 0
    for k in range(0, nz, 2):
        for j in range(0, ny, 2):
            bits[:, j, k] = True
            last_row = j + 2 >= ny
            if not last_row:
                bits[(nx - 1) * (turn % 2), j + 1, k] = True
                turn += 1
        if k + 2 < nz:
            j_end = (ny - 1) // 2 * 2
            bits[(nx - 1) * (turn % 2), j_end, k + 1] = True
            turn += 1
    return bits


def comb(nx, ny, nz):
    """A spine along x at the top of the grid with single-voxel teeth hanging in y."""
    bits = np.zeros((nx, ny, nz), dtype=bool)
    bits[:, ny - 1, nz // 2] = True
    bits[::2, :, nz // 2] = True
    return bits


@pytest.mark.parametrize("connectivity", [6, 18, 26])
@pytest.mark.parametrize("axes", [(0, 1, 2), (1, 0, 2), (2, 1, 0)])
def test_serpentine_is_one_component(connectivity, axes):
    # Transposed, the path's straight stretches cross x: every voxel is a run.
    bits = serpentine(9, 7, 5).transpose(axes)
    comps = assert_labelling_matches_bfs(bits, connectivity)
    assert len(comps) == 1 and comps[0].voxel_count == int(bits.sum())


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_comb_is_one_component(connectivity):
    comps = assert_labelling_matches_bfs(comb(15, 9, 3), connectivity)
    assert len(comps) == 1


@pytest.mark.parametrize("connectivity,expected", [(6, 63), (18, 1), (26, 1)])
def test_checkerboard(connectivity, expected):
    i, j, k = np.indices((5, 5, 5))
    bits = (i + j + k) % 2 == 0
    comps = assert_labelling_matches_bfs(bits, connectivity)
    assert len(comps) == expected


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_full_block_lists_every_voxel_in_scan_order(connectivity):
    dims = (6, 5, 4)
    comps = assert_labelling_matches_bfs(np.ones(dims, dtype=bool), connectivity)
    assert len(comps) == 1
    np.testing.assert_array_equal(scan_index(comps[0].voxel_indices, dims), np.arange(120))


@pytest.mark.parametrize("connectivity", [6, 18, 26])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_runs_ending_at_the_last_column_and_full_rows(connectivity, seed):
    # Voxels are decoded per run, so a run that reaches x = nx - 1 must not
    # spill into the next row, and a full row is one run.
    bits = np.random.default_rng(seed).random((7, 6, 5)) < 0.3
    bits[:, 1, 2] = True
    bits[:, 2, 2] = True
    bits[:, 5, 4] = True
    bits[4:, 3, 0] = True
    bits[:3, 4, 0] = True
    bits[6, 0, 1] = True
    bits[5:, 5, 3] = True
    bits[0, 0, 4] = True
    assert_labelling_matches_bfs(bits, connectivity)


def test_long_serpentine_converges():
    bits = serpentine(40, 39, 21).transpose(1, 0, 2)
    comps = connected_components(BinaryMask(bits.shape, bits), 6)
    assert len(comps) == 1 and comps[0].voxel_count == int(bits.sum())


def make_volume(vox, spacing, origin, fortran):
    # Volume keeps read-only input uncopied, so either memory order reaches
    # the kernel; Fortran order is the layout read_volume produces.
    vox = np.array(vox, dtype=np.int16, order="F" if fortran else "C")
    vox.setflags(write=False)
    volume = Volume(dims=vox.shape, spacing=spacing, origin=origin, voxels=vox)
    assert volume.voxels.flags["F_CONTIGUOUS" if fortran else "C_CONTIGUOUS"]
    return volume


def assert_mesh_matches_loop(volume, iso):
    got = marching_cubes(volume, iso)
    want = loop_marching_cubes(volume, iso)
    assert got.vertices.dtype == want.vertices.dtype
    assert got.faces.dtype == want.faces.dtype
    assert got.vertices.shape == want.vertices.shape
    assert got.faces.shape == want.faces.shape
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.faces.tobytes() == want.faces.tobytes()
    return got


spacings = st.tuples(*[st.floats(0.05, 5.0)] * 3)
origins = st.tuples(*[st.floats(-500.0, 500.0)] * 3)


@settings(max_examples=80)
@given(
    st.integers(0, 2**48 - 1),
    st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)),
    spacings,
    origins,
    st.booleans(),
    st.one_of(st.integers(0, 10**6), st.floats(-1500.0, 1500.0)),
)
def test_marching_cubes_matches_loop_oracle(seed, dims, spacing, origin, fortran, iso_pick):
    rng = np.random.default_rng(seed)
    step = int(rng.integers(1, 400))
    vox = rng.integers(-4, 5, size=dims) * step
    if isinstance(iso_pick, int):
        iso = float(vox.flat[iso_pick % vox.size])  # on a grid value: the weld path
    else:
        iso = iso_pick
    assert_mesh_matches_loop(make_volume(vox, spacing, origin, fortran), iso)


@pytest.mark.parametrize("fortran", [False, True])
def test_marching_cubes_welds_like_the_loop(fortran):
    rng = np.random.default_rng(12)
    vox = rng.integers(0, 3, size=(9, 8, 7)) * 100
    mesh = assert_mesh_matches_loop(
        make_volume(vox, (0.7, 1.1, 2.5), (-40.0, 12.5, 300.0), fortran), 100.0
    )
    # iso sits on grid values, so vertices land on grid points and weld
    grid = (mesh.vertices - (-40.0, 12.5, 300.0)) / (0.7, 1.1, 2.5)
    assert np.any(np.all(np.abs(grid - np.round(grid)) < 1e-9, axis=1))


def test_marching_cubes_matches_loop_on_a_noisy_ellipsoid():
    n = 24
    idx = np.indices((n, n, n), dtype=np.float64)
    radii = np.array([9.0, 7.0, 8.0])[:, None, None, None]
    centre = np.array([11.5, 11.0, 12.0])[:, None, None, None]
    inside = (((idx - centre) / radii) ** 2).sum(axis=0) <= 1.0
    vox = np.where(inside, 40, -1000) + np.random.default_rng(5).integers(-20, 21, (n, n, n))
    volume = make_volume(vox, (0.8, 0.8, 1.5), (-9.2, -9.2, -17.25), True)
    mesh = assert_mesh_matches_loop(volume, -300.0)
    assert mesh.n_faces > 1000


@settings(max_examples=60)
@given(
    st.integers(0, 2**48 - 1),
    st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)),
    spacings,
    st.booleans(),
    st.integers(-16, -6),
    st.sampled_from([-1.0, 1.0]),
)
def test_marching_cubes_matches_loop_near_grid_values(seed, dims, spacing, fortran, exponent, sign):
    # iso a hair off a grid value: vertices land within about 10**exponent
    # grid steps of a corner, on both sides of the weld-candidate bound.
    rng = np.random.default_rng(seed)
    vox = rng.integers(-2, 3, size=dims) * 100
    iso = float(vox.flat[0]) + sign * 100.0 * 10.0**exponent
    assert_mesh_matches_loop(make_volume(vox, spacing, (3.5, -20.0, 7.25), fortran), iso)


def near_corner_volume():
    """Voxels of 0 and 100, and an iso 1e-6 above 0 that puts every vertex
    1e-8 grid steps from its 0-valued corner."""
    rng = np.random.default_rng(3)
    return rng.integers(0, 2, size=(7, 6, 5)) * 100, 1e-6


@pytest.mark.parametrize(
    "spacing",
    [(1e-10, 1e-10, 1e-10), (1.0, 1e-10, 1.0), (0.5, 0.8, 3e-9)],
)
@pytest.mark.parametrize("fortran", [False, True])
def test_marching_cubes_welds_like_the_loop_at_tiny_spacing(spacing, fortran):
    # Below the candidate bound on spacing, vertices on neighbouring grid
    # lines weld too, however far they lie from a corner.
    vox, near_iso = near_corner_volume()
    volume = make_volume(vox, spacing, (0.0, 0.0, 0.0), fortran)
    for iso in (0.0, near_iso, 50.0):
        assert_mesh_matches_loop(volume, iso)


@pytest.mark.parametrize(
    "origin", [(1e9, -1e9, 1e9 - 0.5), (-1e9, 0.0, 0.0), (0.0, 0.0, 1.5e6)]
)
@pytest.mark.parametrize("fortran", [False, True])
def test_marching_cubes_welds_like_the_loop_far_from_the_origin(origin, fortran):
    # Far out, world rounding merges vertices 1e-8 mm from a corner.
    vox, iso = near_corner_volume()
    volume = make_volume(vox, (1.0, 0.9, 1.2), origin, fortran)
    mesh = assert_mesh_matches_loop(volume, iso)
    assert mesh.n_faces > 0


def grid_coordinates(mesh, spacing, origin):
    return (mesh.vertices - origin) / spacing


@pytest.mark.parametrize("planes", [1, 2, 3, None], ids=["1-plane", "2-plane", "3-plane", "one-slab"])
@pytest.mark.parametrize("dims", [(5, 4, 2), (6, 5, 8), (7, 3, 11)])
@pytest.mark.parametrize("fortran", [False, True])
def test_marching_cubes_slabs_match_the_loop(monkeypatch, planes, dims, fortran):
    # The case pass codes z-slabs of `planes` cell planes (the last one
    # shorter where nz - 1 does not divide); the mesh must not show where
    # the slabs meet.
    nx, ny, nz = dims
    budget = 1 << 40 if planes is None else planes * 2 * nx * ny
    monkeypatch.setattr(fidreg.mesh, "_SLAB_BYTES", budget)
    spacing, origin = (0.9, 1.3, 0.7), (-2.0, 5.5, 40.0)
    rng = np.random.default_rng(nx * 100 + nz)
    i, j, k = np.indices(dims)
    # A tilted wall: its iso surface meets every z-plane, so every slab
    # boundary, on edges two slabs share.
    wall = 100 * (2 * i - (nx - 1)) + 15 * k - 10 * j + rng.integers(-30, 31, dims)
    volume = make_volume(wall, spacing, origin, fortran)
    for iso in (-40.5, 0.25, 61.0):
        mesh = assert_mesh_matches_loop(volume, iso)
        grid_z = grid_coordinates(mesh, spacing, origin)[:, 2]
        assert set(range(nz)) <= set(np.round(grid_z[np.abs(grid_z - np.round(grid_z)) < 1e-9]).tolist())
    # iso on a grid value: vertices land on grid points, slab boundaries
    # included, and weld there.
    steps = rng.integers(0, 3, dims) * 100
    mesh = assert_mesh_matches_loop(make_volume(steps, spacing, origin, fortran), 100.0)
    grid = grid_coordinates(mesh, spacing, origin)
    on_point = np.all(np.abs(grid - np.round(grid)) < 1e-9, axis=1)
    assert on_point.any()
    if planes is not None and nz - 1 > planes:
        assert np.any(np.round(grid[on_point, 2]) == planes)


def boundary_classes(vox, iso):
    """The (i == 0, j == 0, k == 0) classes of the cells the iso surface
    crosses, and the mask of those cells."""
    below = np.asarray(vox) < iso
    nx, ny, nz = below.shape
    corners = [
        below[di : di + nx - 1, dj : dj + ny - 1, dk : dk + nz - 1]
        for di in (0, 1) for dj in (0, 1) for dk in (0, 1)
    ]
    active = np.any(corners, axis=0) & ~np.all(corners, axis=0)
    return {(i == 0, j == 0, k == 0) for i, j, k in zip(*np.nonzero(active))}, active


@pytest.mark.parametrize("planes", [1, 2, 3])
@pytest.mark.parametrize("fortran", [False, True])
def test_marching_cubes_owns_edges_on_the_low_faces_like_the_loop(monkeypatch, planes, fortran):
    # A cell owns the grid edges whose first use it holds, and cells on the
    # x = 0, y = 0 and z = 0 faces own more of their edges than inner ones.
    # Noise on the low planes crosses cells of all eight boundary classes;
    # cell layers 3-8 cross nothing, so with slabs of 1-3 planes at least
    # one whole slab between two crossed ones is empty.
    dims = (5, 6, 13)
    nx, ny, nz = dims
    monkeypatch.setattr(fidreg.mesh, "_SLAB_BYTES", planes * 2 * nx * ny)
    rng = np.random.default_rng(planes)
    vox = np.full(dims, 100)
    vox[:, :, :3] = rng.choice([-100, 100], size=(nx, ny, 3))
    vox[:, :, 10:] = rng.choice([-100, 100], size=(nx, ny, 3))
    classes, active = boundary_classes(vox, 0.5)
    assert len(classes) == 8
    assert not active[:, :, 3:9].any() and active[:, :, 9:].any()
    mesh = assert_mesh_matches_loop(make_volume(vox, (0.9, 1.3, 0.7), (-2.0, 5.5, 40.0), fortran), 0.5)
    assert mesh.n_faces > 0


@pytest.mark.parametrize("iso", [-1e6, -40000.5, -1.5, 100.5, 40000.5, 1e6])
@pytest.mark.parametrize("fortran", [False, True])
def test_marching_cubes_all_on_one_side_is_empty(iso, fortran):
    vox = np.random.default_rng(8).integers(0, 2, size=(5, 4, 3)) * 100
    mesh = assert_mesh_matches_loop(make_volume(vox, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), fortran), iso)
    assert mesh.n_faces == 0 and mesh.n_vertices == 0


@pytest.mark.parametrize("iso", [float("nan"), float("inf"), float("-inf")])
def test_marching_cubes_rejects_non_finite_iso(iso):
    volume = make_volume(np.zeros((3, 3, 3)), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), False)
    with pytest.raises(ValueError, match="finite"):
        marching_cubes(volume, iso)
