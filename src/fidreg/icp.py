"""Point-to-point ICP baseline.

Classic iteration: match every source marker to its nearest target marker
under the current transform (``markers.nearest_markers``, the lowest target
index on ties), re-solve the closed-form rigid fit (``rigid.horn_solve``)
from scratch on those pairs, repeat. Each iteration's rmsd (RMS
nearest-neighbour distance under that iteration's transform) is
non-increasing, because the solver minimizes over the fixed matches and
re-matching can only shorten per-point distances. When a matching step
repeats the matches the current transform was fitted to, the iteration is at
a fixed point: the fit would return the same transform and the next rmsd
would repeat this one, so ICP records that rmsd once more and stops without
the fit. The result is the one the full iteration gives, bit for bit. No
initial-guess machinery beyond a caller-supplied transform: like any local
method, a large initial misalignment lands in local minima. The rotations of
intermediate iterations are not checked; the pose returned is, as every
RigidTransform is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import FLOAT, INT, ConfigError, read_fields, write_fields
from .errors import InsufficientMarkersError
from .markers import MarkerSet, check_coordinates, nearest_markers
from .rigid import RigidTransform, center_source, horn_solve, transform_to_json_dict

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


def icp_register(
    source: MarkerSet, target: MarkerSet, config: IcpConfig | None = None
) -> IcpResult:
    """Iteratively align source markers onto target markers.

    Stops when the per-iteration rmsd changes by less than
    ``rmsd_delta_tolerance`` (converged) or at the iteration cap (not
    converged). Below the cap, a matching step that repeats the matches of
    the last fit is a fixed point: its rmsd is recorded twice and the run
    converges without the fit, whose result would be the current transform
    (the history, transform and counts are those of the full iteration).
    Each source is a set of its own in the nearest-marker scan, so the
    scan's temporaries stay bounded for large inputs. Only the transform
    returned is validated as a proper rotation. Raises ValueError when a
    coordinate of either side exceeds MAX_COORDINATE_MM,
    InsufficientMarkersError when either side has fewer than 3 points and
    DegenerateGeometryError for collinear sources.
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
    fitted_on = None  # the matches the current transform was fitted to
    history: list[float] = []
    converged = False
    for iteration in range(config.max_iterations):
        mapped = src @ rotation.T + translation
        # One set per source: a scan block then holds SCAN_BLOCK // len(tgt)
        # sources, not all of them, and the mutual flag goes unused.
        match_sq, match_idx, _ = nearest_markers(mapped[:, None], tgt)
        match_sq, match_idx = match_sq[:, 0], match_idx[:, 0]
        rmsd = math.sqrt(float(np.add.reduce(match_sq)) / len(match_sq))
        history.append(rmsd)
        if len(history) >= 2 and abs(history[-2] - rmsd) < config.rmsd_delta_tolerance:
            converged = True
            break
        if iteration == config.max_iterations - 1:
            break  # cap reached; keep the transform the last rmsd describes
        matches = match_idx.tobytes()
        if matches == fitted_on:
            # Fixed point: a fit to these matches returns the current
            # transform, and the next iteration would repeat this rmsd.
            history.append(rmsd)
            converged = True
            break
        rotation, translation = horn_solve(src_centroid, src_centered, tgt[match_idx])
        fitted_on = matches

    return IcpResult(
        transform=config.initial_transform if fitted_on is None else RigidTransform(rotation, translation),
        rmsd=history[-1],
        iterations_used=len(history),
        converged=converged,
        rmsd_history=history,
    )
