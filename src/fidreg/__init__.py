"""fidreg: fiducial-marker registration for CT-to-device alignment.

Pipeline pieces: CT volume I/O and marker segmentation, triangle-shape
matching with closed-form rigid alignment (plus an ICP baseline), marching
cubes surface export, and a seeded Monte-Carlo benchmark harness.
"""

from .bench import (
    SceneSpec,
    TrialRecord,
    generate_scene,
    run_benchmark,
    summarize,
    target_registration_error,
    write_records_csv,
    write_summary_json,
)
from .errors import (
    ConfigError,
    DegenerateGeometryError,
    DegenerateTriangleError,
    DomainError,
    FidregError,
    FormatError,
    InsufficientMarkersError,
    NoMatchError,
    TruncationError,
    VolumeFormatError,
)
from .icp import IcpResult, icp_register
from .markers import MarkerSet, read_marker_csv, write_marker_csv
from .mesh import TriangleMesh, marching_cubes, write_obj, write_stl
from .rigid import (
    PointCorrespondences,
    RigidTransform,
    absolute_orientation,
    compose,
    inverse,
    rotation_angle,
)
from .rng import SplitMix64
from .segmentation import (
    SegmentationConfig,
    connected_components,
    segment_markers,
    threshold_volume,
)
from .triangles import (
    RegistrationConfig,
    RegistrationResult,
    TriangleKey,
    TriangleTable,
    align_with_flip,
    register,
    triangle_key,
)
from .volume import Volume, read_volume, write_volume

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateGeometryError",
    "DegenerateTriangleError",
    "DomainError",
    "FidregError",
    "FormatError",
    "IcpResult",
    "InsufficientMarkersError",
    "MarkerSet",
    "NoMatchError",
    "PointCorrespondences",
    "RegistrationConfig",
    "RegistrationResult",
    "RigidTransform",
    "SceneSpec",
    "SegmentationConfig",
    "SplitMix64",
    "TrialRecord",
    "TriangleKey",
    "TriangleMesh",
    "TriangleTable",
    "TruncationError",
    "Volume",
    "VolumeFormatError",
    "absolute_orientation",
    "align_with_flip",
    "compose",
    "connected_components",
    "generate_scene",
    "icp_register",
    "inverse",
    "marching_cubes",
    "read_marker_csv",
    "read_volume",
    "register",
    "rotation_angle",
    "run_benchmark",
    "segment_markers",
    "summarize",
    "target_registration_error",
    "threshold_volume",
    "triangle_key",
    "write_marker_csv",
    "write_obj",
    "write_records_csv",
    "write_stl",
    "write_summary_json",
    "write_volume",
]
