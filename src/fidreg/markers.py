"""Marker point sets, their CSV form and the nearest-marker scan.

CSV layout: header ``frame,id,x_mm,y_mm,z_mm``, one row per marker. The id
column is an optional integer tag identity and may be left empty; frames are
``ct`` (segmented from a scan) or ``device`` (optically detected). The file
is ASCII, and ids and coordinates are plain decimals (no ``_`` grouping);
a coordinate's magnitude is at most MAX_COORDINATE_MM.

``nearest_markers`` is the one exact nearest-marker scan: ICP matches its
sources with it, and register scores its candidates with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import format_float, parse_number
from .errors import FormatError

VALID_FRAMES = ("ct", "device")
CSV_HEADER = "frame,id,x_mm,y_mm,z_mm"
# Largest coordinate magnitude a marker CSV may hold: 1 km covers any scanner
# or tracker frame, and registration squares distances and fits fourth powers
# of them, which overflow float64 only beyond about 1e77 mm.
MAX_COORDINATE_MM = 1e6


def check_coordinates(points: np.ndarray, role: str) -> None:
    """Raise ValueError when a coordinate is not finite (NaN or +-inf) or its
    magnitude exceeds MAX_COORDINATE_MM."""
    if not (np.abs(points) <= MAX_COORDINATE_MM).all():
        if not np.isfinite(points).all():
            raise ValueError(f"{role} coordinates must be finite")
        raise ValueError(f"{role} coordinate beyond {MAX_COORDINATE_MM:g} mm")


# Distances computed per block by the nearest-marker and shape-key scans;
# bounds the temporaries when both point sets are large.
SCAN_BLOCK = 1 << 14


def nearest_markers(
    points: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each point's nearest target, for a stack of point sets (B, n, 3).

    Returns three (B, n) arrays: the squared distance ``dx*dx + dy*dy +
    dz*dz`` to the nearest of ``targets`` (m, 3), that target's index, and
    whether the point is in turn that target's nearest within its own set.
    Ties go to the first. Sets are scanned in blocks of at most SCAN_BLOCK
    distances (one set at a time when a set alone has more), and a set's
    results do not depend on the stack it is in.
    """
    count, n = points.shape[:2]
    nearest_sq = np.empty((count, n))
    index = np.empty((count, n), dtype=np.intp)
    mutual = np.empty((count, n), dtype=bool)
    block = max(1, SCAN_BLOCK // (n * len(targets)))
    for start in range(0, count, block):
        stop = start + block
        dx, dy, dz = (points[start:stop, :, None, axis] - targets[:, axis] for axis in range(3))
        dist_sq = dx * dx + dy * dy + dz * dz
        nearest = dist_sq.argmin(axis=2)
        nearest_sq[start:stop] = dist_sq.min(axis=2)
        index[start:stop] = nearest
        back = dist_sq.argmin(axis=1)[np.arange(len(dist_sq))[:, None], nearest]
        mutual[start:stop] = back == np.arange(n)
    return nearest_sq, index, mutual


@dataclass(eq=False)
class MarkerSet:
    """3D marker positions (mm) in a named frame, optionally tagged with ids."""

    frame: str
    points: np.ndarray  # (n, 3) float64, read-only
    ids: tuple | None = field(default=None)  # per-point int or None

    def __post_init__(self):
        if self.frame not in VALID_FRAMES:
            raise ValueError(f"frame must be one of {VALID_FRAMES}, got {self.frame!r}")
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if pts.flags.writeable:
            pts = pts.copy()
            pts.setflags(write=False)
        self.points = pts
        if self.ids is not None:
            ids = tuple(None if i is None else int(i) for i in self.ids)
            if len(ids) != len(pts):
                raise ValueError(f"ids length {len(ids)} != point count {len(pts)}")
            self.ids = ids

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MarkerSet):
            return NotImplemented
        return (
            self.frame == other.frame
            and self.ids == other.ids
            and np.array_equal(self.points, other.points)
        )


def write_marker_csv(markers: MarkerSet, path) -> None:
    lines = [CSV_HEADER]
    for row, point in enumerate(markers.points):
        tag = ""
        if markers.ids is not None and markers.ids[row] is not None:
            tag = str(markers.ids[row])
        lines.append(
            f"{markers.frame},{tag},{format_float(point[0])},"
            f"{format_float(point[1])},{format_float(point[2])}"
        )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_marker_csv(path) -> MarkerSet:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(
            f"marker csv line {lineno}: byte 0x{data[exc.start]:02x} is not ASCII"
        ) from exc
    if not lines or lines[0] != CSV_HEADER:
        got = lines[0] if lines else "<empty file>"
        raise FormatError(f"marker csv line 1: expected header {CSV_HEADER!r}, got {got!r}")

    frame: str | None = None
    points: list[list[float]] = []
    ids: list[int | None] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 5:
            raise FormatError(f"marker csv line {lineno}: expected 5 fields, got {len(fields)}")
        row_frame, tag, xs, ys, zs = (f.strip() for f in fields)
        if row_frame not in VALID_FRAMES:
            raise FormatError(f"marker csv line {lineno}: bad frame {row_frame!r}")
        if frame is None:
            frame = row_frame
        elif row_frame != frame:
            raise FormatError(
                f"marker csv line {lineno}: mixed frames ({frame!r} then {row_frame!r})"
            )
        if tag:
            try:
                ids.append(parse_number(tag, int))
            except ValueError as exc:
                raise FormatError(f"marker csv line {lineno}: bad id {tag!r}") from exc
        else:
            ids.append(None)
        try:
            point = [parse_number(xs), parse_number(ys), parse_number(zs)]
        except ValueError as exc:
            raise FormatError(f"marker csv line {lineno}: non-numeric coordinate") from exc
        if not all(map(math.isfinite, point)):
            raise FormatError(f"marker csv line {lineno}: non-finite coordinate")
        if max(map(abs, point)) > MAX_COORDINATE_MM:
            raise FormatError(
                f"marker csv line {lineno}: coordinate beyond {MAX_COORDINATE_MM:g} mm"
            )
        points.append(point)

    if frame is None:
        raise FormatError("marker csv has no data rows")
    id_tuple = tuple(ids) if any(i is not None for i in ids) else None
    return MarkerSet(frame=frame, points=np.array(points, dtype=np.float64), ids=id_tuple)
