"""Synthetic-scene generation and the Monte-Carlo benchmark harness.

Scenes are reproducible across platforms because every random draw comes from
the pinned ``SplitMix64`` stream in a frozen order.  For a spec with
``n_markers = n`` the stream is consumed exactly as follows:

1. ``uniforms(3*n)`` — CT marker positions, point-major (x, y, z per point),
   mapped into the placement box centred on the origin
   (``[-extent/2, +extent/2]`` per axis).
2. If ``true_transform`` is ``"random"``: a rotation via ``rotation()``
   (uniform over SO(3); four normals per attempt), then ``uniforms(3)`` for
   the translation, mapped into the translation box centred on the origin.
   An explicit :class:`RigidTransform` consumes nothing.
3. ``normals(3*n)`` — device-point noise, point-major, drawn *even when
   ``noise_sigma_mm`` is zero* so that cells differing only in sigma see the
   same dropouts, decoys and shuffle.
4. If ``dropout_count > 0``: ``shuffle`` of the index list ``[0..n-1]``; the
   first ``dropout_count`` entries drop, the rest survive in their original
   relative order.
5. If ``decoy_count > 0``: ``uniforms(3*decoy_count)``, point-major, mapped
   into the axis-aligned bounding box of the transformed placement box.
6. ``shuffle`` of the assembled device list (survivors then decoys).
   The code shuffles the list's row numbers and gathers the rows once;
   the draws are those of shuffling the rows.

Device markers carry the originating CT index as their id (decoys carry
none); ids exist for test bookkeeping only and are never shown to the
registration methods. A scene that draws a CT or device coordinate (decoys
included) beyond ``markers.MAX_COORDINATE_MM`` raises ConfigError naming its
seed, so ``fidreg simulate`` and ``fidreg bench`` exit 2 before writing.

Error metrics per trial: ``tre_mm`` is the mean displacement between the
estimated and true transforms over the CT marker positions plus the scene-box
centre (the origin); ``rot_err_rad`` is the angle of the rotation
``estimated . inverse(truth)``; ``trans_err_mm`` is the norm of the
difference of the two translation vectors.  Timing wraps the registration
call only — triangle-table construction plus :func:`register` for the
triangle method, :func:`icp_register` for ICP — never scene generation,
config construction or metric evaluation.

How :func:`run_benchmark` does the work, none of which shows in the records
except ``time_us``:

* each (spec, trial) scene is drawn once, before the spec's first method
  runs, and both methods register the same scene; within a spec the methods
  stay the outer loop, so records keep their order and each method's
  trials run back to back;
* each method runs one discarded warm-up registration per call, on the
  first spec's trial-0 scene, with no metrics and no record, whatever
  status it ends in; so two calls make two warm-ups and ``time_us`` never
  depends on what ran earlier in the process;
* ``RegistrationConfig()`` and ``IcpConfig()`` are built once per call,
  outside the timed window;
* holding one spec's scenes and reseeded specs costs about 2.1-2.6 KB per
  trial at 8 markers and 3.9 KB at 40 (tracemalloc); they are dropped once
  the next spec's scenes are drawn;
* the error metrics take the reductions ``np.linalg.norm`` and ``mean``
  would (a row norm sums its squares, a vector norm is the square root of
  a dot product), without their wrappers.

The records CSV is :class:`TrialRecord`'s fields, in order, each written
by its type, and goes to the file as one string. A summary cell groups the
records by ``_CELL_KEYS`` and averages ``_METRICS`` over the cell's
successful trials: one (metric, trial) array per cell, each row reduced
along its contiguous axis, so every mean and std has the bits of that
metric's own 1-D array.

``generate_scene``, ``register`` and ``icp_register`` are looked up through
this module at call time, so a caller can rebind them (a tracer does).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
import time
from dataclasses import dataclass

import numpy as np

from .config import FLOAT, INT, TRIPLE, kv_int, read_fields, write_fields, write_json
from .errors import ConfigError, DomainError
from .markers import MarkerSet, check_coordinates
from .icp import IcpConfig, icp_register
from .rigid import RigidTransform, reorthonormalize, rotation_angle
from .rng import SplitMix64
from .triangles import RegistrationConfig, TriangleTable, register

METHODS = ("triangle", "icp")

# A summary cell is one method on one scene setting; its metrics are averaged.
_CELL_KEYS = ("method", "n_markers", "noise_sigma_mm", "dropout", "decoys")
_METRICS = ("tre_mm", "rot_err_rad", "trans_err_mm", "time_us")
# A trial that returns a pose with a TRE above this is a gross error.
GROSS_TRE_MM = 10.0
# The signs of a box's eight corners about its centre, x slowest, z fastest.
_BOX_SIGNS = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))


def _format_transform(transform: RigidTransform | str) -> str:
    if transform == "random":
        return "random"
    if transform == RigidTransform.identity():
        return "identity"
    raise ConfigError("only 'random' and 'identity' transforms have a text form")


def _kv_seed(kv: dict[str, str], key: str) -> int:
    # SceneSpec wraps any integer onto the rng's seeds; text must name one.
    seed = kv_int(kv, key)
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"config key {key!r}: seed must lie in [0, 2**64), got {kv[key]!r}")
    return seed


# ``true_transform`` is read as the raw word; SceneSpec validates it.
_SPEC_FIELDS = {
    "n_markers": INT,
    "noise_sigma_mm": FLOAT,
    "dropout_count": INT,
    "decoy_count": INT,
    "seed": (_kv_seed, str),
    "placement_extent": TRIPLE,
    "translation_extent": TRIPLE,
    "true_transform": (lambda kv, key: kv[key], _format_transform),
}


@dataclass
class SceneSpec:
    """One benchmark cell: marker count, corruption levels, geometry, seed."""

    n_markers: int
    noise_sigma_mm: float = 0.0
    dropout_count: int = 0
    decoy_count: int = 0
    seed: int = 0
    placement_extent: tuple = (300.0, 300.0, 150.0)
    translation_extent: tuple = (200.0, 200.0, 200.0)
    true_transform: RigidTransform | str = "random"

    def __post_init__(self) -> None:
        self.n_markers = int(self.n_markers)
        self.noise_sigma_mm = float(self.noise_sigma_mm)
        self.dropout_count = int(self.dropout_count)
        self.decoy_count = int(self.decoy_count)
        self.seed = int(self.seed) % (1 << 64)
        self.placement_extent = tuple(float(e) for e in self.placement_extent)
        self.translation_extent = tuple(float(e) for e in self.translation_extent)
        if self.n_markers < 3:
            raise ConfigError("n_markers must be at least 3")
        if not (0.0 <= self.noise_sigma_mm < math.inf):
            raise ConfigError("noise_sigma_mm must be >= 0 and finite")
        if self.dropout_count < 0 or self.decoy_count < 0:
            raise ConfigError("dropout_count and decoy_count must be >= 0")
        if self.n_markers - self.dropout_count < 3:
            raise ConfigError(
                "n_markers - dropout_count must leave at least 3 device markers"
            )
        for name, extent in (
            ("placement_extent", self.placement_extent),
            ("translation_extent", self.translation_extent),
        ):
            if len(extent) != 3 or not all(0.0 < e < math.inf for e in extent):
                raise ConfigError(f"{name} must be three positive finite lengths")
        # The str test comes first: ``in`` would compare an array elementwise.
        transform = self.true_transform
        if not (isinstance(transform, RigidTransform)
                or isinstance(transform, str) and transform in ("random", "identity")):
            raise ConfigError("true_transform must be 'random', 'identity', or a transform")
        if transform == "identity":
            self.true_transform = RigidTransform.identity()

    @classmethod
    def from_text(cls, text: str) -> "SceneSpec":
        return cls(**read_fields(text, _SPEC_FIELDS, required=("n_markers",)))

    def to_text(self) -> str:
        return write_fields(self, _SPEC_FIELDS)


def parse_scene_grid(text: str) -> list[SceneSpec]:
    """Parse a grid file: scene-spec blocks separated by blank lines."""
    runs = itertools.groupby(text.splitlines(), key=lambda line: bool(line.strip()))
    blocks = ["\n".join(lines) for filled, lines in runs if filled]
    specs = []
    for number, block in enumerate(blocks, start=1):
        try:
            specs.append(SceneSpec.from_text(block))
        except ConfigError as exc:
            raise ConfigError(f"scene block {number}: {exc}") from exc
    if not specs:
        raise ConfigError("grid contains no scene blocks")
    return specs


def generate_scene(spec: SceneSpec) -> tuple[MarkerSet, MarkerSet, RigidTransform]:
    """Draw one scene; see the module docstring for the frozen stream order."""
    rng = SplitMix64(spec.seed)
    n = spec.n_markers
    extent = np.array(spec.placement_extent)

    ct_points = (rng.uniforms(3 * n).reshape(n, 3) - 0.5) * extent

    if isinstance(spec.true_transform, RigidTransform):
        truth = spec.true_transform
    else:
        rotation = rng.rotation()
        translation = (rng.uniforms(3) - 0.5) * np.array(spec.translation_extent)
        truth = RigidTransform(rotation, translation)

    noise = rng.normals(3 * n).reshape(n, 3)
    device_points = truth.apply(ct_points) + spec.noise_sigma_mm * noise

    ids: list[int | None] = list(range(n))
    if spec.dropout_count > 0:
        rng.shuffle(ids)
        ids = sorted(ids[spec.dropout_count :])
        device_points = device_points[ids]

    if spec.decoy_count > 0:
        moved = truth.apply(_BOX_SIGNS * extent / 2.0)
        lo = moved.min(axis=0)
        hi = moved.max(axis=0)
        decoys = lo + rng.uniforms(3 * spec.decoy_count).reshape(-1, 3) * (hi - lo)
        device_points = np.concatenate([device_points, decoys])
        ids += [None] * spec.decoy_count
    order = list(range(len(ids)))
    rng.shuffle(order)
    device_points = device_points[order]

    try:
        check_coordinates(ct_points, "CT marker")
        check_coordinates(device_points, "device marker")
    except ValueError as exc:
        raise ConfigError(f"scene seed {spec.seed}: {exc}") from exc
    ct = MarkerSet(frame="ct", points=ct_points, ids=tuple(range(n)))
    device = MarkerSet(frame="device", points=device_points, ids=tuple(ids[i] for i in order))
    return ct, device, truth


def target_registration_error(
    estimated: RigidTransform, truth: RigidTransform, targets: np.ndarray
) -> float:
    """Mean displacement between the two transforms over the target points."""
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 3)
    if len(targets) == 0:
        raise ValueError("need at least one target point")
    # The norms and mean np.linalg.norm(..., axis=1).mean() takes, term for term.
    delta = estimated.apply(targets) - truth.apply(targets)
    return float(np.add.reduce(np.sqrt(np.add.reduce(delta * delta, axis=1)))) / len(targets)


@dataclass
class TrialRecord:
    """One registration attempt; error fields are nan when status != ok."""

    method: str
    seed: int
    n_markers: int
    noise_sigma_mm: float
    dropout: int
    decoys: int
    tre_mm: float
    rot_err_rad: float
    trans_err_mm: float
    time_us: float
    flipped: bool
    status: str

    def __post_init__(self) -> None:
        if self.status == "ok":
            for name in _METRICS[:3]:
                value = getattr(self, name)
                if not (math.isfinite(value) and value >= 0.0):
                    raise ValueError(f"{name} must be finite and >= 0, got {value}")


# The records columns: every TrialRecord field, in order, with its writer.
_COLUMN_WRITERS = {"int": INT[1], "float": FLOAT[1], "bool": lambda b: str(b).lower(), "str": str}
_COLUMNS = tuple(
    (field.name, _COLUMN_WRITERS[field.type]) for field in dataclasses.fields(TrialRecord)
)
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


def _status_token(exc: DomainError) -> str:
    # NoMatchError -> "no-match"; comma-free and stable, downstream tooling keys on these.
    name = type(exc).__name__.removesuffix("Error")
    return re.sub(r"(?<=[a-z])(?=[A-Z])", "-", name).lower()


def _register_scene(
    method: str, ct: MarkerSet, device: MarkerSet, config: RegistrationConfig | IcpConfig
) -> tuple[RigidTransform | None, bool, str, float]:
    """One timed registration: ``(estimated or None, flipped, status, seconds)``."""
    estimated = None
    flipped = False
    status = "ok"
    start = time.perf_counter()
    try:
        if method == "triangle":
            table = TriangleTable()
            table.insert_marker(device.points)
            result = register(ct, table, config)
            estimated = result.transform
            flipped = result.flipped
        else:
            estimated = icp_register(ct, device, config).transform
    except DomainError as exc:
        status = _status_token(exc)
    return estimated, flipped, status, time.perf_counter() - start


def _run_trial(
    spec: SceneSpec,
    method: str,
    scene: tuple[MarkerSet, MarkerSet, RigidTransform],
    config: RegistrationConfig | IcpConfig,
    targets_origin: np.ndarray,
) -> TrialRecord:
    ct, device, truth = scene
    estimated, flipped, status, elapsed = _register_scene(method, ct, device, config)
    if estimated is None:
        tre = rot_err = trans_err = float("nan")
    else:
        tre = target_registration_error(estimated, truth, np.concatenate([ct.points, targets_origin]))
        # The rotation of compose(estimated, inverse(truth)), without
        # building and validating the two transforms.
        rot_err = rotation_angle(reorthonormalize(estimated.rotation @ truth.rotation.T))
        # np.linalg.norm of a vector: the square root of its dot product.
        shift = estimated.translation - truth.translation
        trans_err = math.sqrt(shift.dot(shift))
    return TrialRecord(
        method=method,
        seed=spec.seed,
        n_markers=spec.n_markers,
        noise_sigma_mm=spec.noise_sigma_mm,
        dropout=spec.dropout_count,
        decoys=spec.decoy_count,
        tre_mm=tre,
        rot_err_rad=rot_err,
        trans_err_mm=trans_err,
        time_us=elapsed * 1e6,
        flipped=flipped,
        status=status,
    )


def run_benchmark(
    spec_grid: list[SceneSpec],
    methods: tuple = METHODS,
    trials_per_cell: int = 1,
) -> list[TrialRecord]:
    """Run every (spec, method) cell; trial t reseeds the spec at seed + t.

    Records come back ordered by grid position, then method (triangle before
    icp), then trial index.  Failures are per-trial records with a status
    token and nan errors, never exceptions.  Each trial's scene is drawn
    once and shared by the methods, so one spec's scenes are held at a time.
    """
    if trials_per_cell < 1:
        raise ConfigError("trials_per_cell must be >= 1")
    if not methods:
        raise ConfigError(f"no method given (choose from {METHODS})")
    for method in methods:
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r} (choose from {METHODS})")
    configs = {"triangle": RegistrationConfig(), "icp": IcpConfig()}
    origin = np.zeros((1, 3))
    records = []
    for position, spec in enumerate(spec_grid):
        trials = [dataclasses.replace(spec, seed=spec.seed + t) for t in range(trials_per_cell)]
        scenes = [generate_scene(trial) for trial in trials]
        ct, device, _ = scenes[0]
        for method in (m for m in METHODS if m in methods):
            config = configs[method]
            if position == 0:
                _register_scene(method, ct, device, config)  # warm-up, discarded
            for trial, scene in zip(trials, scenes):
                records.append(_run_trial(trial, method, scene, config, origin))
    return records


def _record_row(record: TrialRecord) -> str:
    return ",".join(write(getattr(record, name)) for name, write in _COLUMNS)


def write_records_csv(records: list[TrialRecord], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join([CSV_HEADER + "\n"] + [_record_row(record) + "\n" for record in records]))


def summarize(records: list[TrialRecord]) -> list[dict]:
    """Per-cell aggregates (cell = method + scene parameters, in record order).

    Means and sample standard deviations cover successful trials only;
    ``failures`` counts the rest, and a metric with no successful trial is
    ``None``. ``gross_error_rate`` is the share of the cell's trials that
    succeeded with a TRE above GROSS_TRE_MM.
    """
    cells: dict[tuple, list[TrialRecord]] = {}
    for record in records:
        cells.setdefault(tuple(getattr(record, name) for name in _CELL_KEYS), []).append(record)
    summary = []
    for key, trials in cells.items():
        ok = [r for r in trials if r.status == "ok"]
        cell = dict(zip(_CELL_KEYS, key), trials=len(trials), failures=len(trials) - len(ok),
                    flipped=sum(1 for r in ok if r.flipped),
                    gross_error_rate=sum(1 for r in ok if r.tre_mm > GROSS_TRE_MM) / len(trials))
        if not ok:
            cell.update(dict.fromkeys(_METRICS))
        else:
            # One row per metric: reducing along the contiguous axis sums each
            # row as the 1-D array of that metric alone would be summed.
            values = np.array([[getattr(r, name) for r in ok] for name in _METRICS])
            means = values.mean(axis=1).tolist()
            stds = values.std(axis=1, ddof=1).tolist() if len(ok) > 1 else [0.0] * len(_METRICS)
            for name, mean, std in zip(_METRICS, means, stds):
                cell[name] = {"mean": mean, "std": std}
        summary.append(cell)
    return summary


def write_summary_json(summary: list[dict], path) -> None:
    write_json({"cells": summary}, path)
