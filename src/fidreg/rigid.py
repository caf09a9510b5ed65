"""Rigid transforms and closed-form point-set alignment.

A least-squares rigid fit is Horn's quaternion method, solved for a whole
stack of point-set pairs at once: ``center_points`` (centroids and centered
sources), ``_collinear`` (a source that spans no plane has no unique fit),
``horn_solve`` (build the 3x3 cross-covariance of each centered pair, lift
it to the symmetric 4x4 profile matrix and take the eigenvector of the
largest eigenvalue as the rotation quaternion) and ``fit_rmsd`` (the
residual of each fit). Because quaternions parameterize SO(3) only, the
rotation is proper (det = +1) by construction: reflections cannot leak in,
even when the unconstrained optimum would be one. ``RigidTransform`` is the
one place a rotation is validated (orthonormal and det +1, each within
ORTHONORMALITY_TOL), when a fit becomes a transform. ``absolute_orientation``
is the single-pair case. A single source, like ICP's, which stays fixed
across fits, is centered and tested once by ``center_source``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError
from .markers import check_coordinates
from .rng import rotation_from_quaternion

# Entrywise tolerance for |R^T R - I| and |det R - 1| on construction.
ORTHONORMALITY_TOL = 1e-9
# Composition re-orthonormalizes when drift exceeds this.
COMPOSE_DRIFT_TOL = 1e-12
# Cross-line extent below this fraction of the largest extent means collinear.
COLLINEARITY_RATIO = 1e-9

_IDENTITY = np.eye(3)
_IDENTITY.setflags(write=False)


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Proper rigid motion: ``p -> rotation @ p + translation`` (mm)."""

    rotation: np.ndarray  # (3, 3) float64, read-only
    translation: np.ndarray  # (3,) float64, read-only

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        trans = np.asarray(self.translation, dtype=np.float64)
        if rot.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rot.shape}")
        if trans.shape != (3,):
            raise ValueError(f"translation must be length 3, got {trans.shape}")
        if not (np.isfinite(rot).all() and np.isfinite(trans).all()):
            raise ValueError("transform entries must be finite")
        drift = np.abs(rot.T @ rot - _IDENTITY).max()
        if drift > ORTHONORMALITY_TOL:
            raise ValueError(f"rotation is not orthonormal (drift {drift:.3e})")
        det = float(np.linalg.det(rot))
        if abs(det - 1.0) > ORTHONORMALITY_TOL:
            raise ValueError(f"rotation must be proper (det {det!r})")
        for arr, name in ((rot, "rotation"), (trans, "translation")):
            if arr.flags.writeable:
                arr = arr.copy()
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(rotation=np.eye(3), translation=np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (3,) or a stack (..., 3)."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def __eq__(self, other) -> bool:
        if not isinstance(other, RigidTransform):
            return NotImplemented
        return np.array_equal(self.rotation, other.rotation) and np.array_equal(
            self.translation, other.translation
        )


def compose(after: RigidTransform, before: RigidTransform) -> RigidTransform:
    """Transform applying ``before`` first, then ``after``.

    The rotation product is re-orthonormalized (nearest-rotation SVD
    projection) when accumulated float drift exceeds COMPOSE_DRIFT_TOL.
    """
    rot = reorthonormalize(after.rotation @ before.rotation)
    return RigidTransform(rotation=rot, translation=after.rotation @ before.translation + after.translation)


def reorthonormalize(rot: np.ndarray) -> np.ndarray:
    """A rotation product as :func:`compose` keeps it.

    Returns ``rot`` itself, or its nearest proper rotation (SVD projection)
    when its drift ``|rot^T rot - I|`` exceeds COMPOSE_DRIFT_TOL.
    """
    if np.abs(rot.T @ rot - _IDENTITY).max() > COMPOSE_DRIFT_TOL:
        u, _, vt = np.linalg.svd(rot)
        if np.linalg.det(u @ vt) < 0:
            u[:, -1] = -u[:, -1]
        rot = u @ vt
    return rot


def inverse(transform: RigidTransform) -> RigidTransform:
    rot_inv = transform.rotation.T
    return RigidTransform(rotation=rot_inv, translation=-(rot_inv @ transform.translation))


def rotation_angle(rotation: np.ndarray) -> float:
    """Rotation angle (rad) of a proper rotation matrix.

    atan2 of its sine (the Frobenius norm of R - R^T over 2 sqrt(2)) and
    cosine ((trace - 1) / 2) stays exact to rounding near 0 and near pi.
    """
    skew = (rotation - rotation.T).ravel()
    sin = math.sqrt(skew.dot(skew)) / (2.0 * math.sqrt(2.0))  # np.linalg.norm's dot
    cos = (float(rotation.trace()) - 1.0) / 2.0
    return float(np.arctan2(sin, cos))


def axis_angle_rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation matrix about ``axis`` by ``angle`` rad (Rodrigues)."""
    a = np.asarray(axis, dtype=np.float64)
    a = a / np.linalg.norm(a)
    k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


@dataclass(eq=False)
class PointCorrespondences:
    """Paired source/target points (row i of one corresponds to row i of the other)."""

    source: np.ndarray  # (n, 3) float64
    target: np.ndarray  # (n, 3) float64

    def __post_init__(self):
        src = np.asarray(self.source, dtype=np.float64)
        dst = np.asarray(self.target, dtype=np.float64)
        if src.ndim != 2 or src.shape[1] != 3 or dst.shape != src.shape:
            raise ValueError(f"need matching (n, 3) arrays, got {src.shape} and {dst.shape}")
        if len(src) < 3:
            raise ValueError(f"need at least 3 correspondences, got {len(src)}")
        if not (np.all(np.isfinite(src)) and np.all(np.isfinite(dst))):
            raise ValueError("correspondences must be finite")
        self.source = src
        self.target = dst

    def __len__(self) -> int:
        return len(self.source)


def _collinear(centered: np.ndarray) -> np.ndarray:
    """True where a centered point set (..., m, 3) spans no plane."""
    extents = np.linalg.svd(centered, compute_uv=False)
    return (extents[..., 0] == 0.0) | (extents[..., 1] < COLLINEARITY_RATIO * extents[..., 0])


def apply_rigid_stack(
    rotation: np.ndarray, translation: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Apply each of N transforms, (N, 3, 3) and (N, 3), to points.

    ``points`` is either one set per transform, (N, m, 3), or a single (m, 3)
    set shared by all of them; the result is (N, m, 3). Written out
    elementwise, so a row's bits do not depend on N.
    """
    rows = rotation[:, None, :, :]
    mapped = points[..., 0:1] * rows[..., 0] + points[..., 1:2] * rows[..., 1]
    mapped += points[..., 2:3] * rows[..., 2]
    return mapped + translation[:, None, :]


def center_points(source: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centroids (N, 3) and centered points (N, m, 3) of a stack of point sets."""
    centroid = np.add.reduce(source, axis=-2) / source.shape[-2]
    return centroid, source - centroid[:, None, :]


def center_source(source: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`center_points` of one source (m, 3) as a stack of one; raises
    DegenerateGeometryError if it is collinear."""
    centroid, centered = center_points(source[None])
    if _collinear(centered)[0]:
        raise DegenerateGeometryError("source points are collinear; rotation is not determined")
    return centroid, centered


def horn_solve(
    src_centroid: np.ndarray, src_centered: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Horn's closed-form fits of centered sources onto targets, (N, m, 3).

    Takes :func:`center_points` output for the sources and returns
    ``(rotation (N, 3, 3), translation (N, 3))``. A collinear source has no
    unique fit (its row holds one of the rotations about its line), so
    callers reject one first. The small products are written out elementwise
    rather than handed to BLAS, so a fit's bits do not depend on N or on how
    the stack is laid out.
    """
    dst_centroid = np.add.reduce(target, axis=-2) / src_centered.shape[-2]
    dst_centered = target - dst_centroid[:, None, :]
    products = src_centered[:, :, :, None] * dst_centered[:, :, None, :]
    covariance = np.add.reduce(products, axis=1)

    # A single fit is evaluated in Python floats, which round exactly like
    # float64 arrays without numpy's per-call overhead.
    pairs = covariance.reshape(-1, 9)
    sxx, sxy, sxz, syx, syy, syz, szx, szy, szz = pairs[0].tolist() if len(pairs) == 1 else pairs.T
    profile = [
        sxx + syy + szz, syz - szy, szx - sxz, sxy - syx,
        syz - szy, sxx - syy - szz, sxy + syx, szx + sxz,
        szx - sxz, sxy + syx, syy - sxx - szz, syz + szy,
        sxy - syx, szx + sxz, syz + szy, szz - sxx - syy,
    ]
    profile = np.array(profile).T.reshape(-1, 4, 4)
    eigvals, eigvecs = np.linalg.eigh(profile)
    quaternion = eigvecs[np.arange(len(eigvecs)), :, np.argmax(eigvals, axis=-1)]
    quaternion = quaternion / np.sqrt(np.vecdot(quaternion, quaternion))[:, None]
    rotation = rotation_from_quaternion(quaternion)
    translation = dst_centroid - np.add.reduce(rotation * src_centroid[:, None, :], axis=-1)
    return rotation, translation


def fit_rmsd(
    rotation: np.ndarray, translation: np.ndarray, source: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """RMS residual of each fit in a stack over its own pairs, (N,)."""
    residuals = apply_rigid_stack(rotation, translation, source) - target
    squared = np.add.reduce(residuals * residuals, axis=-1)
    return np.sqrt(np.add.reduce(squared, axis=-1) / source.shape[-2])


def absolute_orientation(corr: PointCorrespondences) -> tuple[RigidTransform, float]:
    """Least-squares rigid fit of corr.source onto corr.target.

    Returns the optimal proper transform and the rmsd of the fitted residuals.
    Raises ValueError for a coordinate beyond MAX_COORDINATE_MM and
    DegenerateGeometryError for a collinear source.
    Solving a pair alone or inside a stack gives the identical fit.
    """
    check_coordinates(corr.source, "source point")
    check_coordinates(corr.target, "target point")
    source, target = corr.source[None], corr.target[None]
    centroid, centered = center_source(corr.source)
    rotation, translation = horn_solve(centroid, centered, target)
    rmsd = fit_rmsd(rotation, translation, source, target)
    return RigidTransform(rotation=rotation[0], translation=translation[0]), float(rmsd[0])


def transform_to_json_dict(transform: RigidTransform) -> dict:
    """JSON-ready dict: 9 row-major rotation entries + 3 translation entries."""
    return {
        "rotation": [float(v) for v in transform.rotation.reshape(-1)],
        "translation": [float(v) for v in transform.translation],
    }


def transform_from_json_dict(data: dict) -> RigidTransform:
    rotation = np.array(data["rotation"], dtype=np.float64).reshape(3, 3)
    translation = np.array(data["translation"], dtype=np.float64)
    return RigidTransform(rotation=rotation, translation=translation)
