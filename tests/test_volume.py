import errno
import io
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import fidreg.volume
from fidreg.errors import TruncationError, VolumeFormatError
from fidreg.mesh import marching_cubes
from fidreg.segmentation import SegmentationConfig, segment_components
from fidreg.volume import Volume, read_volume, write_volume


def small_volumes():
    dims = st.tuples(
        st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)
    )
    return dims.flatmap(
        lambda d: arrays(
            dtype=np.int16,
            shape=d,
            elements=st.integers(-32768, 32767),
        )
    )


@given(small_volumes())
def test_round_trip(tmp_path_factory, vox):
    path = tmp_path_factory.mktemp("vol") / "v.vol"
    vol = Volume.from_voxels(vox, (0.5, 1.0, 2.0), (-3.0, 4.5, 0.25))
    write_volume(vol, path)
    back = read_volume(path)
    assert back == vol
    assert back.voxels.dtype == np.int16


def test_write_is_deterministic(tmp_path):
    vox = np.arange(24, dtype=np.int16).reshape(2, 3, 4)
    vol = Volume.from_voxels(vox, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    write_volume(vol, tmp_path / "a.vol")
    write_volume(vol, tmp_path / "b.vol")
    assert (tmp_path / "a.vol").read_bytes() == (tmp_path / "b.vol").read_bytes()


def test_payload_is_x_fastest_little_endian(tmp_path):
    # voxel (i,j,k) lives at payload offset 2*(i + nx*(j + ny*k))
    nx, ny, nz = 3, 4, 5
    vox = np.zeros((nx, ny, nz), dtype=np.int16)
    vox[1, 2, 3] = 0x1234
    vol = Volume.from_voxels(vox, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    path = tmp_path / "v.vol"
    write_volume(vol, path)
    raw = path.read_bytes()
    payload = raw[-2 * nx * ny * nz :]
    off = 2 * (1 + nx * (2 + ny * 3))
    assert payload[off : off + 2] == bytes([0x34, 0x12])
    assert sum(payload) == 0x34 + 0x12  # everything else zero


def test_world_coords_voxel_centers():
    vol = Volume.from_voxels(
        np.zeros((2, 2, 2), np.int16), (2.0, 3.0, 4.0), (10.0, 20.0, 30.0)
    )
    assert np.array_equal(vol.world_coords(np.array([[0, 0, 0]])), [[10.0, 20.0, 30.0]])
    assert np.array_equal(vol.world_coords(np.array([[1, 1, 1]])), [[12.0, 23.0, 34.0]])


def test_truncated_payload_reports_byte_counts(tmp_path):
    vox = np.ones((2, 2, 2), np.int16)
    path = tmp_path / "v.vol"
    write_volume(Volume.from_voxels(vox, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(TruncationError) as err:
        read_volume(path)
    assert "expected 16 bytes, got 13" in str(err.value)


def test_oversized_payload_rejected(tmp_path):
    vox = np.ones((2, 2, 2), np.int16)
    path = tmp_path / "v.vol"
    write_volume(Volume.from_voxels(vox, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)), path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(TruncationError):
        read_volume(path)


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda t: t.replace(b"VOL1", b"VOL9"), "line 1"),
        (lambda t: t.replace(b"int16le", b"uint8"), "unsupported dtype"),
        (lambda t: t.replace(b"DIMS 2 2 2", b"DIMS 2 2"), "line 2"),
        (lambda t: t.replace(b"SPACING", b"SPACNG"), "line 3"),
        (lambda t: t.replace(b"DATA\n", b"BODY\n"), "line 6"),
        (lambda t: t.replace(b"DIMS 2 2 2", b"DIMS 2 2 0_2"), "line 2: non-integer dims"),
        (lambda t: t.replace(b"SPACING 1.0", b"SPACING 1_0.0"), "line 3: non-numeric spacing"),
        (lambda t: t.replace(b"ORIGIN 0.0", b"ORIGIN 1_0"), "line 4: non-numeric origin"),
    ],
)
def test_header_errors_are_specific(tmp_path, mutate, needle):
    vox = np.ones((2, 2, 2), np.int16)
    path = tmp_path / "v.vol"
    write_volume(Volume.from_voxels(vox, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)), path)
    path.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(VolumeFormatError) as err:
        read_volume(path)
    assert needle in str(err.value).lower()


def test_spacing_must_be_positive():
    with pytest.raises(ValueError):
        Volume.from_voxels(np.zeros((2, 2, 2), np.int16), (0.0, 1.0, 1.0), (0, 0, 0))


def test_voxels_read_only():
    vol = Volume.from_voxels(np.zeros((2, 2, 2), np.int16), (1, 1, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        vol.voxels[0, 0, 0] = 1


def test_writable_input_is_copied_to_fortran_order():
    vox = np.arange(60, dtype=np.int16).reshape(3, 4, 5)  # C order, writable
    vol = Volume.from_voxels(vox, (1, 1, 1))
    assert vol.voxels.flags.f_contiguous and not vol.voxels.flags.writeable
    assert not np.shares_memory(vol.voxels, vox)
    assert np.array_equal(vol.voxels, vox)


def test_read_voxels_are_read_only_fortran_view(tmp_path):
    vox = np.arange(60, dtype=np.int16).reshape(3, 4, 5)
    path = tmp_path / "v.vol"
    write_volume(Volume.from_voxels(vox, (1, 1, 1)), path)
    back = read_volume(path)
    assert back.voxels.flags.f_contiguous and not back.voxels.flags.writeable
    assert np.array_equal(back.voxels, vox)
    with pytest.raises(ValueError):
        back.voxels[0, 0, 0] = 1


def test_oversized_payload_reports_byte_counts(tmp_path):
    vox = np.ones((2, 2, 2), np.int16)
    path = tmp_path / "v.vol"
    write_volume(Volume.from_voxels(vox, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)), path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(TruncationError) as err:
        read_volume(path)
    assert "expected 16 bytes, got 18" in str(err.value)


def test_huge_dims_on_a_small_file_is_a_truncation(tmp_path):
    # The header asks for 2e15 bytes; the short file is reported, not allocated.
    vox = np.ones((2, 2, 2), np.int16)
    path = tmp_path / "v.vol"
    write_volume(Volume.from_voxels(vox, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)), path)
    path.write_bytes(path.read_bytes().replace(b"DIMS 2 2 2", b"DIMS 100000 100000 100000"))
    with pytest.raises(TruncationError) as err:
        read_volume(path)
    assert "expected 2000000000000000 bytes, got 16" in str(err.value)
    # 2**65 bytes: past what an array can index, not only past memory.
    path.write_bytes(
        path.read_bytes().replace(b"DIMS 100000 100000 100000", b"DIMS 4294967296 4294967296 1")
    )
    with pytest.raises(TruncationError) as err:
        read_volume(path)
    assert f"expected {2**65} bytes, got 16" in str(err.value)


def test_header_lines_longer_than_4_kib(tmp_path):
    vox = np.arange(8, dtype=np.int16).reshape(2, 2, 2)
    payload = vox.tobytes(order="F")
    path = tmp_path / "v.vol"
    # Whitespace between fields is allowed, so a padded line still parses.
    padding = b" " * 5000
    path.write_bytes(
        b"VOL1\nDIMS 2 2 2\nSPACING 1 1 1\nORIGIN 0 0" + padding
        + b"0\nDTYPE int16le\nDATA\n" + payload
    )
    assert np.array_equal(read_volume(path).voxels, vox)

    long_tag = "X" * 6000
    path.write_bytes(
        b"VOL1\nDIMS 2 2 2\nSPACING 1 1 1\nORIGIN 0 0 0\nDTYPE "
        + long_tag.encode() + b"\nDATA\n" + payload
    )
    with pytest.raises(VolumeFormatError, match=f"header line 5: unsupported dtype '{long_tag}'"):
        read_volume(path)


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"", "header line 1: unterminated (file too short)"),
        (b"VOL1\nDIMS 2 2 2\nSPACING 1 1 1\n", "header line 4: unterminated (file too short)"),
        (b"VOL1\nDIMS 2 2 2\nSPACING 1 1 1\nORIGIN 0 0 0\nDTYPE int16le\nDATA", "header line 6: unterminated"),
        (b"VOL1\nDIMS 2 2 \xff\n", "header line 2: not ASCII"),
        (b"VOL1\nDIMS 2 0 2\n", "header line 2: dims must be positive"),
    ],
)
def test_short_or_garbled_headers(tmp_path, blob, message):
    path = tmp_path / "v.vol"
    path.write_bytes(blob)
    with pytest.raises(VolumeFormatError) as err:
        read_volume(path)
    assert message in str(err.value)


def test_write_replaces_the_file_a_read_volume_maps(tmp_path):
    path = tmp_path / "v.vol"
    first = Volume.from_voxels(np.arange(60, dtype=np.int16).reshape(3, 4, 5), (1, 1, 1))
    write_volume(first, path)
    mapped = read_volume(path)
    # Shorter, so an in-place rewrite would truncate the mapped file.
    other = Volume.from_voxels(np.full((2, 2, 2), -7, np.int16), (0.5, 1, 2), (1, 2, 3))
    write_volume(other, path)
    assert np.array_equal(mapped.voxels, first.voxels)
    assert read_volume(path) == other
    assert os.listdir(tmp_path) == ["v.vol"]


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
def test_write_through_a_symlink_replaces_the_file_it_names(tmp_path):
    path, link = tmp_path / "v.vol", tmp_path / "link.vol"
    write_volume(Volume.from_voxels(np.ones((2, 2, 2), np.int16), (1, 1, 1)), path)
    link.symlink_to(path.name)
    other = Volume.from_voxels(np.full((3, 2, 2), 5, np.int16), (1, 1, 1))
    write_volume(other, link)
    assert link.is_symlink() and read_volume(path) == other
    assert sorted(os.listdir(tmp_path)) == ["link.vol", "v.vol"]


def test_failed_write_leaves_the_target_and_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "v.vol"
    vol = Volume.from_voxels(np.ones((2, 2, 2), np.int16), (1, 1, 1))
    write_volume(vol, path)
    before = path.read_bytes()

    class FullDisk(io.FileIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(fidreg.volume, "open", lambda fd, mode: FullDisk(fd, mode), raising=False)
        with pytest.raises(OSError, match="No space left"):
            write_volume(Volume.from_voxels(np.zeros((3, 3, 3), np.int16), (1, 1, 1)), path)
    # The rename fails when the target is a directory.
    (tmp_path / "dir.vol").mkdir()
    with pytest.raises(OSError):
        write_volume(vol, tmp_path / "dir.vol")
    assert sorted(os.listdir(tmp_path)) == ["dir.vol", "v.vol"]
    assert path.read_bytes() == before


def read_through_fifo(tmp_path, blob):
    """``read_volume`` on a named pipe that a writer thread fills with ``blob``."""
    fifo = tmp_path / "v.fifo"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as fh:
                fh.write(blob)
        except BrokenPipeError:  # the reader stopped early
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return read_volume(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


fifo_only = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")


def vol_bytes(tmp_path, vox, spacing=(0.5, 1.0, 2.0), origin=(-3.0, 4.5, 0.25)):
    path = tmp_path / "v.vol"
    write_volume(Volume.from_voxels(vox, spacing, origin), path)
    return path.read_bytes()


@fifo_only
def test_pipe_reads_the_same_volume_as_the_file(tmp_path):
    vox = np.random.default_rng(3).integers(-32768, 32768, (5, 4, 3), dtype=np.int16)
    blob = vol_bytes(tmp_path, vox)
    from_file = read_volume(tmp_path / "v.vol")
    from_pipe = read_through_fifo(tmp_path, blob)
    assert from_pipe == from_file
    assert from_pipe.voxels.flags.f_contiguous and not from_pipe.voxels.flags.writeable


@fifo_only
@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda b: b[:-3], "expected 16 bytes, got 13"),
        (lambda b: b + b"xx", "expected 16 bytes, got 18"),
        (lambda b: b.replace(b"DIMS 2 2 2", b"DIMS 100000 100000 100000"),
         "expected 2000000000000000 bytes, got 16"),
        (lambda b: b.replace(b"DIMS 2 2 2", b"DIMS 4294967296 4294967296 1"),
         f"expected {2**65} bytes, got 16"),
    ],
    ids=["short", "trailing", "huge-dims", "past-indexable"],
)
def test_pipe_and_file_report_the_same_truncation(tmp_path, mutate, message):
    blob = mutate(vol_bytes(tmp_path, np.ones((2, 2, 2), np.int16)))
    path = tmp_path / "bad.vol"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError) as from_file:
            read_volume(path)
        with pytest.raises(TruncationError) as from_pipe:
            read_through_fifo(tmp_path, blob)
        # Neither read allocates what the header asks for.
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert message in str(from_file.value)
    assert str(from_pipe.value) == str(from_file.value)


def test_odd_length_header_gives_unaligned_but_identical_results(tmp_path):
    # A noisy box in air with three bright cubes: a skin to mesh and markers to label.
    rng = np.random.default_rng(5)
    vox = np.full((40, 36, 30), -1000, dtype=np.int16)
    vox[4:36, 4:32, 3:27] = 40
    for i, j, k in ((10, 10, 8), (26, 12, 14), (16, 24, 20)):
        vox[i - 1 : i + 2, j - 1 : j + 2, k - 1 : k + 2] = 3000
    vox += rng.integers(-20, 21, vox.shape, dtype=np.int16)
    blob = vol_bytes(tmp_path, vox, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 10.0))
    assert (len(blob) - vox.nbytes) % 2 == 0  # an even header: the payload is aligned
    odd = tmp_path / "odd.vol"
    odd.write_bytes(blob.replace(b"ORIGIN 0", b"ORIGIN  0", 1))
    aligned, unaligned = read_volume(tmp_path / "v.vol"), read_volume(odd)
    assert aligned.voxels.flags.aligned and not unaligned.voxels.flags.aligned
    assert unaligned == aligned

    for iso in (-300.0, 1500.0):
        want, got = marching_cubes(aligned, iso), marching_cubes(unaligned, iso)
        assert got.vertices.tobytes() == want.vertices.tobytes()
        assert got.faces.tobytes() == want.faces.tobytes()
    config = SegmentationConfig(expected_mm3=27.0)
    want, got = segment_components(aligned, config), segment_components(unaligned, config)
    assert len(want) == 3
    assert [c.label for c in got] == [c.label for c in want]
    for g, w in zip(got, want):
        assert g.voxel_indices.tobytes() == w.voxel_indices.tobytes()
