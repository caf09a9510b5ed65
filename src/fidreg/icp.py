"""Point-to-point ICP baseline.

Classic iteration: match every source marker to its nearest target marker
under the current transform, re-solve the closed-form rigid fit from scratch
on those pairs, repeat. Each iteration's rmsd (RMS nearest-neighbour distance
under that iteration's transform) is non-increasing, because the solver
minimizes over the fixed matches and re-matching can only shorten per-point
distances. No initial-guess machinery beyond a caller-supplied transform:
like any local method, a large initial misalignment lands in local minima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import FLOAT, INT, ConfigError, read_fields, write_fields
from .errors import InsufficientMarkersError
from .markers import MarkerSet, check_coordinates
from .rigid import (
    RigidTransform,
    center_source,
    check_proper,
    horn_solve,
    transform_to_json_dict,
)

# Query-target pairs scanned per block by the nearest-neighbour search;
# bounds the temporaries when both point sets are large.
_SCAN_BLOCK = 1 << 16

_ICP_FIELDS = {"max_iterations": INT, "rmsd_delta_tolerance": FLOAT}


@dataclass
class IcpConfig:
    max_iterations: int = 100
    rmsd_delta_tolerance: float = 1e-6  # mm
    initial_transform: RigidTransform = field(default_factory=RigidTransform.identity)

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations!r}")
        if not (0 < self.rmsd_delta_tolerance < math.inf):
            raise ConfigError(
                f"rmsd_delta_tolerance must be positive and finite, got {self.rmsd_delta_tolerance!r}"
            )

    @classmethod
    def from_text(cls, text: str) -> "IcpConfig":
        return cls(**read_fields(text, _ICP_FIELDS))

    def to_text(self) -> str:
        return write_fields(self, _ICP_FIELDS)


@dataclass(eq=False)
class IcpResult:
    transform: RigidTransform
    rmsd: float
    iterations_used: int
    converged: bool
    rmsd_history: list[float]  # one entry per iteration, non-increasing

    def to_json_dict(self) -> dict:
        return {
            "transform": transform_to_json_dict(self.transform),
            "rmsd": float(self.rmsd),
            "iterations_used": int(self.iterations_used),
            "converged": bool(self.converged),
        }


def _nearest_indices(query: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest target index and squared distance per query point (exact scan).

    The first minimum wins, so the lowest target index breaks ties.
    """
    idx = np.empty(len(query), dtype=np.intp)
    nearest_sq = np.empty(len(query), dtype=np.float64)
    block = max(1, _SCAN_BLOCK // len(target))
    for start in range(0, len(query), block):
        deltas = query[start : start + block, None, :] - target[None, :, :]
        dist_sq = np.add.reduce(deltas * deltas, axis=2)
        idx[start : start + block] = dist_sq.argmin(axis=1)
        nearest_sq[start : start + block] = dist_sq.min(axis=1)
    return idx, nearest_sq


def icp_register(
    source: MarkerSet, target: MarkerSet, config: IcpConfig | None = None
) -> IcpResult:
    """Iteratively align source markers onto target markers.

    Stops when the per-iteration rmsd changes by less than
    ``rmsd_delta_tolerance`` (converged) or at the iteration cap (not
    converged). Raises ValueError when a coordinate of either side exceeds
    MAX_COORDINATE_MM, InsufficientMarkersError when either side has fewer
    than 3 points and DegenerateGeometryError for collinear sources.
    """
    if config is None:
        config = IcpConfig()
    src = source.points
    tgt = target.points
    check_coordinates(src, "source marker")
    check_coordinates(tgt, "target marker")
    if len(src) < 3:
        raise InsufficientMarkersError(len(src))
    if len(tgt) < 3:
        raise InsufficientMarkersError(len(tgt))
    # The source never changes: center it and test it for collinearity once.
    src_centroid, src_centered = center_source(src)

    rotation = config.initial_transform.rotation
    translation = config.initial_transform.translation
    fitted = False
    history: list[float] = []
    converged = False
    for iteration in range(config.max_iterations):
        mapped = src @ rotation.T + translation
        match_idx, match_sq = _nearest_indices(mapped, tgt)
        rmsd = math.sqrt(float(np.add.reduce(match_sq)) / len(match_sq))
        history.append(rmsd)
        if len(history) >= 2 and abs(history[-2] - rmsd) < config.rmsd_delta_tolerance:
            converged = True
            break
        if iteration == config.max_iterations - 1:
            break  # cap reached; keep the transform the last rmsd describes
        fit_rotation, fit_translation = horn_solve(src_centroid, src_centered, tgt[match_idx][None])
        check_proper(fit_rotation)
        rotation, translation = fit_rotation[0], fit_translation[0]
        fitted = True

    return IcpResult(
        transform=RigidTransform(rotation, translation) if fitted else config.initial_transform,
        rmsd=history[-1],
        iterations_used=len(history),
        converged=converged,
        rmsd_history=history,
    )
