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

``read_volume`` maps a regular file instead of copying it: the voxels of the
``Volume`` it returns are a read-only view of the file's own pages, so
rewriting that file in place would change them, and shrinking it would make
reading them a bus error. ``write_volume`` therefore never rewrites a file
in place; it writes a new file and renames it over the target.
"""

from __future__ import annotations

import mmap
import os
import stat
from dataclasses import dataclass

import numpy as np

from .config import format_float, parse_number
from .errors import TruncationError, VolumeFormatError

MAGIC = "VOL1"
DTYPE_TAG = "int16le"


@dataclass(eq=False)
class Volume:
    """Immutable dense CT volume.

    ``voxels`` is read-only. Writable input is copied into Fortran order;
    read-only input is kept as given. From ``read_volume`` it is a read-only
    map of the ``.vol`` file, so rewriting that file in place changes it.
    """

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
        """A volume of ``voxels`` cast to int16.

        Raises ValueError when the cast would change a value (beyond int16,
        fractional or NaN) rather than store a wrapped or truncated HU.
        """
        given = np.asarray(voxels)
        with np.errstate(invalid="ignore", over="ignore"):
            vox = given.astype(np.int16, copy=False)
        if vox is not given:
            changed = vox != given
            if changed.any():
                raise ValueError(f"voxel value {given[changed][0].item()!r} is not an int16 integer")
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


def _concat_ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``concatenate([arange(f, f + c) for f, c in zip(first, count)])``."""
    start = np.cumsum(count)
    start -= count
    out = np.repeat(first - start, count)
    out += np.arange(len(out))
    return out


def write_volume(volume: Volume, path) -> None:
    """Write ``volume`` to ``path`` as a ``.vol`` file.

    The bytes go to a new file beside ``path`` (beside the file it names, if
    it is a symlink), which then replaces it. So the target becomes a new
    file: a ``Volume`` read from the old one keeps its voxels, and the old
    file's mode, owner and other hard links do not carry over (the mode
    comes from the umask). If the write fails, the new file is removed and
    ``path`` is left as it was.
    """
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
    target = os.path.realpath(path)  # through a symlink, as open(path, "wb") writes
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    # Mode 0o666 under the umask, as open(path, "wb") would create the file;
    # O_EXCL never reuses an existing file, O_BINARY keeps Windows from
    # translating newlines.
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(temp, flags, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(payload)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


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


# Header lines 2-4, three numbers each: the tag, the number kind, the words
# for a field that does not parse, and the rule every value must meet.
_TRIPLE_LINES = (
    ("DIMS", int, "non-integer dims", "dims must be positive", lambda d: d > 0),
    ("SPACING", float, "non-numeric spacing", "spacing must be positive",
     lambda s: np.isfinite(s) and s > 0),
    ("ORIGIN", float, "non-numeric origin", "origin must be finite", np.isfinite),
)


def _parse_header(fh) -> tuple[tuple[int, int, int], tuple, tuple]:
    """Read and check the six header lines; returns (dims, spacing, origin)."""
    magic = _header_line(fh, 1)
    if magic != MAGIC:
        raise VolumeFormatError(f"header line 1: expected {MAGIC!r}, got {magic!r}")

    triples = []
    for lineno, (tag, kind, bad_field, rule, holds) in enumerate(_TRIPLE_LINES, start=2):
        line = _header_line(fh, lineno)
        try:
            triple = tuple(parse_number(f, kind) for f in _parse_fields(line, tag, 3, lineno))
        except ValueError as exc:
            raise VolumeFormatError(f"header line {lineno}: {bad_field} in {line!r}") from exc
        if not all(holds(v) for v in triple):
            raise VolumeFormatError(f"header line {lineno}: {rule}, got {triple}")
        triples.append(triple)

    dtype_line = _header_line(fh, 5)
    (tag,) = _parse_fields(dtype_line, "DTYPE", 1, 5)
    if tag != DTYPE_TAG:
        raise VolumeFormatError(f"header line 5: unsupported dtype {tag!r} (only {DTYPE_TAG})")

    data_line = _header_line(fh, 6)
    if data_line != "DATA":
        raise VolumeFormatError(f"header line 6: expected 'DATA', got {data_line!r}")
    return tuple(triples)


def read_volume(path) -> Volume:
    """Read a ``.vol`` file; the voxels are a read-only, Fortran-order view.

    The header lines are read one at a time, so a line may be of any length.
    A regular file is then mapped read-only (``mmap.ACCESS_READ``) and the
    voxels are a view of the payload in the map, which starts wherever the
    header ends (an odd header length leaves them unaligned, which numpy
    reads as is). Its size is checked from ``fstat`` before any array exists,
    so a header asking for more than the file holds costs nothing. Rewriting
    the file in place while the ``Volume`` lives changes its voxels; replace
    it with a new file instead, as ``write_volume`` does.

    Anything else (a pipe, a socket) cannot be mapped; its payload is read
    to the end with one ``read`` and the voxels view that buffer.

    Fortran order lets the x-fastest kernels read the voxels without a copy.
    """
    with open(path, "rb") as fh:
        dims, spacing, origin = _parse_header(fh)
        nx, ny, nz = dims
        expected = 2 * nx * ny * nz
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            offset = fh.tell()
            actual = info.st_size - offset
            if actual != expected:
                raise TruncationError(expected, actual)
            buffer = mmap.mmap(fh.fileno(), info.st_size, access=mmap.ACCESS_READ)
        else:
            offset = 0
            buffer = fh.read()
            if len(buffer) != expected:
                raise TruncationError(expected, len(buffer))

    voxels = np.frombuffer(buffer, dtype="<i2", count=expected // 2, offset=offset)
    voxels = voxels.reshape(dims, order="F")
    return Volume(dims=dims, spacing=spacing, origin=origin, voxels=voxels)
