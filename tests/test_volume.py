import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from fidreg.errors import TruncationError, VolumeFormatError
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
