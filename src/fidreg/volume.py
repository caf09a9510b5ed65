"""CT volume container and the .vol on-disk format.

A volume is a dense int16 grid of Hounsfield units. Linear voxel order is
x-fastest: index ``i + nx * (j + ny * k)`` addresses voxel ``(i, j, k)``.
World coordinates use the voxel-center convention,
``world = origin + index * spacing`` (mm).

File layout (``.vol``)::

    VOL1
    DIMS nx ny nz
    SPACING sx sy sz
    ORIGIN ox oy oz
    DTYPE int16le
    DATA
    <nx*ny*nz little-endian int16, x-fastest>

Header lines are ASCII; the payload starts immediately after the ``DATA``
newline and must be exactly ``2 * nx * ny * nz`` bytes — no trailing bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import format_float
from .errors import TruncationError, VolumeFormatError

MAGIC = "VOL1"
DTYPE_TAG = "int16le"


@dataclass(eq=False)
class Volume:
    """Immutable dense CT volume."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    voxels: np.ndarray  # (nx, ny, nz) int16, read-only

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.spacing = tuple(float(s) for s in self.spacing)
        self.origin = tuple(float(o) for o in self.origin)
        if len(self.dims) != 3 or any(d <= 0 for d in self.dims):
            raise ValueError(f"dims must be 3 positive integers, got {self.dims}")
        if len(self.spacing) != 3 or any(not np.isfinite(s) or s <= 0 for s in self.spacing):
            raise ValueError(f"spacing must be 3 positive reals, got {self.spacing}")
        if len(self.origin) != 3 or any(not np.isfinite(o) for o in self.origin):
            raise ValueError(f"origin must be finite, got {self.origin}")
        vox = np.asarray(self.voxels)
        if vox.dtype != np.int16:
            raise ValueError(f"voxels must be int16, got {vox.dtype}")
        if vox.shape != self.dims:
            raise ValueError(f"voxels shape {vox.shape} does not match dims {self.dims}")
        if vox.flags.writeable:
            # Fortran order, like read_volume: the kernels linearise x-fastest.
            vox = vox.copy(order="F")
            vox.setflags(write=False)
        self.voxels = vox

    @classmethod
    def from_voxels(cls, voxels: np.ndarray, spacing, origin=(0.0, 0.0, 0.0)) -> "Volume":
        vox = np.asarray(voxels, dtype=np.int16)
        return cls(dims=vox.shape, spacing=tuple(spacing), origin=tuple(origin), voxels=vox)

    def world_coords(self, indices: np.ndarray) -> np.ndarray:
        """Voxel-center world coordinates (mm) for an (..., 3) index array."""
        idx = np.asarray(indices, dtype=np.float64)
        return np.asarray(self.origin) + idx * np.asarray(self.spacing)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Volume):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.spacing == other.spacing
            and self.origin == other.origin
            and np.array_equal(self.voxels, other.voxels)
        )


def write_volume(volume: Volume, path) -> None:
    nx, ny, nz = volume.dims
    header = (
        f"{MAGIC}\n"
        f"DIMS {nx} {ny} {nz}\n"
        f"SPACING {format_float(volume.spacing[0])} {format_float(volume.spacing[1])} "
        f"{format_float(volume.spacing[2])}\n"
        f"ORIGIN {format_float(volume.origin[0])} {format_float(volume.origin[1])} "
        f"{format_float(volume.origin[2])}\n"
        f"DTYPE {DTYPE_TAG}\n"
        f"DATA\n"
    )
    payload = volume.voxels.astype("<i2", copy=False).tobytes(order="F")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


def _header_line(fh, lineno: int) -> str:
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise VolumeFormatError(f"header line {lineno}: unterminated (file too short)")
    try:
        return line[:-1].decode("ascii")
    except UnicodeDecodeError as exc:
        raise VolumeFormatError(f"header line {lineno}: not ASCII") from exc


def _parse_fields(line: str, tag: str, count: int, lineno: int) -> list[str]:
    parts = line.split()
    if not parts or parts[0] != tag or len(parts) != count + 1:
        raise VolumeFormatError(
            f"header line {lineno}: expected '{tag}' with {count} fields, got {line!r}"
        )
    return parts[1:]


def _parse_header(fh) -> tuple[tuple[int, int, int], tuple, tuple]:
    """Read and check the six header lines; returns (dims, spacing, origin)."""
    magic = _header_line(fh, 1)
    if magic != MAGIC:
        raise VolumeFormatError(f"header line 1: expected {MAGIC!r}, got {magic!r}")

    dims_line = _header_line(fh, 2)
    try:
        dims = tuple(int(f, 10) for f in _parse_fields(dims_line, "DIMS", 3, 2))
    except ValueError as exc:
        raise VolumeFormatError(f"header line 2: non-integer dims in {dims_line!r}") from exc
    if any(d <= 0 for d in dims):
        raise VolumeFormatError(f"header line 2: dims must be positive, got {dims}")

    spacing_line = _header_line(fh, 3)
    try:
        spacing = tuple(float(f) for f in _parse_fields(spacing_line, "SPACING", 3, 3))
    except ValueError as exc:
        raise VolumeFormatError(f"header line 3: non-numeric spacing in {spacing_line!r}") from exc
    if any(not np.isfinite(s) or s <= 0 for s in spacing):
        raise VolumeFormatError(f"header line 3: spacing must be positive, got {spacing}")

    origin_line = _header_line(fh, 4)
    try:
        origin = tuple(float(f) for f in _parse_fields(origin_line, "ORIGIN", 3, 4))
    except ValueError as exc:
        raise VolumeFormatError(f"header line 4: non-numeric origin in {origin_line!r}") from exc
    if any(not np.isfinite(o) for o in origin):
        raise VolumeFormatError(f"header line 4: origin must be finite, got {origin}")

    dtype_line = _header_line(fh, 5)
    (tag,) = _parse_fields(dtype_line, "DTYPE", 1, 5)
    if tag != DTYPE_TAG:
        raise VolumeFormatError(f"header line 5: unsupported dtype {tag!r} (only {DTYPE_TAG})")

    data_line = _header_line(fh, 6)
    if data_line != "DATA":
        raise VolumeFormatError(f"header line 6: expected 'DATA', got {data_line!r}")
    return dims, spacing, origin


def read_volume(path) -> Volume:
    """Read a ``.vol`` file; the voxels are a read-only view of one numpy buffer.

    The header lines are read one at a time, so a line may be of any length.
    The payload goes with ``readinto`` straight into an ``np.empty`` buffer
    of exactly the size the header asks for, looping until the buffer is
    full or the file ends (one read returns at most about 2 GiB on Linux).
    Like the copy ``Volume`` makes of writable input, the voxels come out in
    Fortran order, so the x-fastest kernels read them without a copy.
    """
    with open(path, "rb") as fh:
        dims, spacing, origin = _parse_header(fh)
        nx, ny, nz = dims
        expected = 2 * nx * ny * nz
        try:
            payload = np.empty(expected, dtype=np.uint8)
        except (MemoryError, ValueError):
            # A header asking for more than memory holds (MemoryError) or than
            # an array can index (ValueError) is not the file's size.
            raise TruncationError(expected, len(fh.read())) from None
        filled = 0
        while filled < expected:
            count = fh.readinto(payload[filled:])
            if not count:
                raise TruncationError(expected, filled)
            filled += count
        trailing = len(fh.read())
        if trailing:
            raise TruncationError(expected, expected + trailing)

    voxels = payload.view("<i2").reshape(dims, order="F")
    voxels.setflags(write=False)
    return Volume(dims=dims, spacing=spacing, origin=origin, voxels=voxels)
