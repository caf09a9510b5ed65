"""The benchmark's three workloads: input generation, one operation, output checks.

Each workload is a closed loop with one caller: the next operation starts
only after the previous one returns.  Inputs come from the workload seed
alone and are written to files; fidreg sees only those files (or, for the
Monte-Carlo sweep, only the grid of scene specs).  Every operation's output is
checked, and an operation whose check fails counts as failed.

Operations call fidreg through module attributes looked up at call time
(``self.cli.main``, ``self.bench.run_benchmark``), so a traced run can rebind
them from outside.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# The tail is the highest percentile with this many samples above it.
MIN_BEYOND = 10


def tail_percentile(samples) -> tuple[float, float]:
    """(percentile, value) at 100 * (1 - MIN_BEYOND / n), never below the median.

    A continuous level rather than a ladder of p90, p95, ...: the sample
    count moves with speed, and a ladder would jump between levels.
    """
    level = max(50.0, 100.0 * (1.0 - MIN_BEYOND / len(samples)))
    return level, float(np.percentile(samples, level))


@dataclass
class OpResult:
    """One timed operation: wall time, work items done and what the checks found."""

    latency_s: float
    work_items: int = 1
    stages_s: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)  # one message per failed check
    failed_items: int = 0  # work items that failed (trials, for the sweep)


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform rotation from a normalised Gaussian quaternion."""
    q = rng.standard_normal(4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def _write_marker_csv(path, frame: str, points: np.ndarray) -> None:
    rows = ["frame,id,x_mm,y_mm,z_mm"]
    rows += [f"{frame},,{x!r},{y!r},{z!r}" for x, y, z in points.tolist()]
    Path(path).write_text("\n".join(rows) + "\n", encoding="ascii")


def _read_marker_points(path) -> np.ndarray:
    lines = Path(path).read_text(encoding="ascii").splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")[2:5]] for line in lines if line],
                    dtype=np.float64).reshape(-1, 3)


def _quiet_cli(cli, argv) -> tuple[int, str]:
    """Run ``cli.main(argv)`` with its stderr notes captured, not printed."""
    sink = io.StringIO()
    with contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    return code, sink.getvalue()


class Workload:
    """Base: ``prepare`` writes inputs, ``run_op`` times and checks one operation."""

    name = ""
    work_unit = "operations"
    # Reference jobs (perfbench/reference.py) run between two operations or
    # stages: about a sixth as long as one operation or stage.
    reference_repeats = 1

    def __init__(self, workdir: Path, seed: int, sizes):
        self.workdir = Path(workdir)
        self.seed = int(seed)
        self.sizes = sizes
        self.cli = sys.modules["fidreg.cli"]
        self.bench = sys.modules["fidreg.bench"]

    def prepare(self) -> None:
        raise NotImplementedError

    def run_op(self, index: int, between=None) -> OpResult:
        """One timed operation.  ``between``, if given, is called between
        stages (outside their timing) by workloads whose ``stages_s`` lists
        more than one stage."""
        raise NotImplementedError

    def trace_ops(self) -> list[int]:
        """The fixed operations one traced pass runs, so its counts repeat."""
        return [0]

    def report(self, results: list[OpResult]) -> dict:
        """Quality figures and output hashes for the run report."""
        return {}


# --------------------------------------------------------------------------
# intraop-register


@dataclass(frozen=True)
class RegisterSizes:
    n_markers: int = 12
    scenes: int = 48  # distinct scenes, cycled; one pass takes about 12 s
    traced_scenes: int = 16


NOISE_SIGMA_MM = 1.0
DROPOUTS = 1
DECOYS = 2
GROSS_TRE_MM = 10.0


class IntraopRegister(Workload):
    """``fidreg register ct.csv device.csv out.json`` on pre-generated scenes."""

    name = "intraop-register"
    work_unit = "registrations"

    def prepare(self) -> None:
        sz = self.sizes
        rng = np.random.default_rng([self.seed, 1])
        extent = np.array([300.0, 300.0, 150.0])
        self.scenes = []
        for index in range(sz.scenes):
            ct = (rng.random((sz.n_markers, 3)) - 0.5) * extent
            rotation = _random_rotation(rng)
            translation = (rng.random(3) - 0.5) * 200.0
            device = ct @ rotation.T + translation
            device = device + NOISE_SIGMA_MM * rng.standard_normal(device.shape)
            keep = np.sort(rng.permutation(sz.n_markers)[DROPOUTS:])
            corners = np.array([[sx, sy, sz_] for sx in (-0.5, 0.5)
                                for sy in (-0.5, 0.5) for sz_ in (-0.5, 0.5)]) * extent
            moved = corners @ rotation.T + translation
            lo, hi = moved.min(axis=0), moved.max(axis=0)
            decoys = lo + rng.random((DECOYS, 3)) * (hi - lo)
            rows = np.vstack([device[keep], decoys])
            rows = rows[rng.permutation(len(rows))]
            prefix = self.workdir / f"scene{index:03d}"
            _write_marker_csv(f"{prefix}_ct.csv", "ct", ct)
            _write_marker_csv(f"{prefix}_device.csv", "device", rows)
            targets = np.vstack([ct, np.zeros((1, 3))])
            self.scenes.append({
                "argv": ["register", f"{prefix}_ct.csv", f"{prefix}_device.csv",
                         f"{prefix}_out.json"],
                "out": Path(f"{prefix}_out.json"),
                "targets": targets,
                "truth": targets @ rotation.T + translation,
            })
        self.first_hash: dict[int, str] = {}
        self.tre: dict[int, float] = {}

    def trace_ops(self) -> list[int]:
        return list(range(min(self.sizes.traced_scenes, len(self.scenes))))

    def run_op(self, index: int, between=None) -> OpResult:
        scene_index = index % len(self.scenes)
        scene = self.scenes[scene_index]
        scene["out"].unlink(missing_ok=True)
        start = perf_counter()
        code, notes = _quiet_cli(self.cli, scene["argv"])
        latency = perf_counter() - start
        result = OpResult(latency_s=latency)
        if code != 0:
            result.failures.append(f"exit {code}: {notes.strip()}")
            result.failed_items = 1
            return result
        blob = scene["out"].read_bytes()
        try:
            data = json.loads(blob)
            rotation = np.array(data["transform"]["rotation"], dtype=np.float64).reshape(3, 3)
            translation = np.array(data["transform"]["translation"], dtype=np.float64)
            mapped = scene["targets"] @ rotation.T + translation
            tre = float(np.linalg.norm(mapped - scene["truth"], axis=1).mean())
        except (ValueError, KeyError, TypeError) as exc:
            result.failures.append(f"transform JSON: {exc}")
        else:
            if not math.isfinite(tre):
                result.failures.append("TRE is not finite")
            if not (np.allclose(rotation.T @ rotation, np.eye(3), atol=1e-9)
                    and np.linalg.det(rotation) > 0):
                result.failures.append("rotation is not a proper rotation")
            digest = hashlib.sha256(blob).hexdigest()
            if self.first_hash.setdefault(scene_index, digest) != digest:
                result.failures.append(f"scene {scene_index}: output differs from first run")
            self.tre.setdefault(scene_index, tre)
        result.failed_items = 1 if result.failures else 0
        return result

    def report(self, results) -> dict:
        tres = [self.tre[i] for i in sorted(self.tre)]
        digest = hashlib.sha256(
            "".join(self.first_hash[i] for i in sorted(self.first_hash)).encode()).hexdigest()
        latencies_ms = [r.latency_s * 1e3 for r in results]
        level, tail = tail_percentile(latencies_ms)
        return {
            "register_p50_ms": float(np.median(latencies_ms)),
            "register_tail_ms": tail,
            "register_tail_percentile": level,
            "scenes_checked": len(tres),
            "tre_p50_mm": float(np.median(tres)) if tres else None,
            "gross_error_rate": (
                sum(t > GROSS_TRE_MM for t in tres) / len(tres) if tres else None),
            "sha256": {"out_json": digest},
        }


# --------------------------------------------------------------------------
# ct-prep


@dataclass(frozen=True)
class CtPrepSizes:
    dims: tuple = (256, 256, 256)
    body_radii: tuple = (112.0, 96.0, 104.0)  # voxels
    bone_edge: int = 64


SPACING_MM = (0.8, 0.8, 1.5)
PLANTED_MARKERS = 8
ISO_HU = -300.0
AIR_HU, BODY_HU, BONE_HU, MARKER_HU = -1000, 40, 1200, 3000


def _ct_phantom(sizes: CtPrepSizes, rng: np.random.Generator):
    """Soft-tissue ellipsoid in air, a bone block above ``hu_min`` and 3x3x3 markers.

    Returns the voxel grid (x, y, z) and the markers' planted centre voxels.
    Only the marker positions, the bone block's offset and the HU noise
    depend on the seed, so every seed gives the same amount of work.
    """
    nx, ny, nz = sizes.dims
    centre = (np.array(sizes.dims) - 1) / 2.0
    radii = np.array(sizes.body_radii)
    x = ((np.arange(nx) - centre[0]) / radii[0]) ** 2
    y = ((np.arange(ny) - centre[1]) / radii[1]) ** 2
    vox = np.empty(sizes.dims, dtype=np.int16)
    for k in range(nz):
        z = ((k - centre[2]) / radii[2]) ** 2
        inside = (x[:, None] + y[None, :] + z) <= 1.0
        vox[:, :, k] = np.where(inside, BODY_HU, AIR_HU)
    vox += rng.integers(-20, 21, size=vox.shape, dtype=np.int16)

    edge = sizes.bone_edge
    shift = rng.integers(-edge // 8, edge // 8 + 1, size=3)
    lo = (np.array(sizes.dims) // 2 - edge // 2 + shift).astype(int)
    hi = lo + edge
    vox[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = BONE_HU

    planted: list[np.ndarray] = []
    while len(planted) < PLANTED_MARKERS:
        c = np.round(centre + (rng.random(3) * 2 - 1) * radii * 0.75).astype(int)
        if np.sum(((c - centre) / (radii - 3)) ** 2) > 1.0:
            continue  # the whole cube must sit inside the body
        gap_bone = np.max(np.maximum(lo - c, c - (hi - 1)))
        if gap_bone < 4:
            continue
        if any(np.max(np.abs(c - p)) < 6 for p in planted):
            continue
        planted.append(c)
        vox[c[0] - 1:c[0] + 2, c[1] - 1:c[1] + 2, c[2] - 1:c[2] + 2] = MARKER_HU
    return vox, np.array(planted)


def _write_vol(path, vox: np.ndarray, spacing, origin) -> None:
    nx, ny, nz = vox.shape
    header = (
        f"VOL1\nDIMS {nx} {ny} {nz}\n"
        f"SPACING {spacing[0]!r} {spacing[1]!r} {spacing[2]!r}\n"
        f"ORIGIN {origin[0]!r} {origin[1]!r} {origin[2]!r}\n"
        "DTYPE int16le\nDATA\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(vox.astype("<i2", copy=False).tobytes(order="F"))


class CtPrep(Workload):
    """``fidreg segment`` then ``fidreg mesh --iso -300`` on one 256^3 volume."""

    name = "ct-prep"
    work_unit = "volumes"
    reference_repeats = 12  # run twice per operation: after segment, after mesh

    def prepare(self) -> None:
        sz = self.sizes
        rng = np.random.default_rng([self.seed, 2])
        vox, planted = _ct_phantom(sz, rng)
        self.spacing = np.array(SPACING_MM)
        self.origin = -(np.array(sz.dims) - 1) / 2.0 * self.spacing
        self.planted_mm = self.origin + planted * self.spacing
        self.vol = self.workdir / "ct.vol"
        _write_vol(self.vol, vox, tuple(self.spacing.tolist()), tuple(self.origin.tolist()))
        del vox
        self.config = self.workdir / "segment.cfg"
        self.config.write_text(
            f"expected_mm3 = {27 * float(np.prod(self.spacing))!r}\nhu_min = 300\n",
            encoding="ascii")
        self.csv = self.workdir / "markers.csv"
        self.stl = self.workdir / "skin.stl"
        self.hashes: dict[str, str] = {}

    def run_op(self, index: int, between=None) -> OpResult:
        self.csv.unlink(missing_ok=True)
        self.stl.unlink(missing_ok=True)
        start = perf_counter()
        seg_code, seg_notes = _quiet_cli(
            self.cli, ["segment", str(self.vol), str(self.config), str(self.csv)])
        segment_s = perf_counter() - start
        if between is not None:
            between()
        start = perf_counter()
        mesh_code, mesh_notes = _quiet_cli(
            self.cli, ["mesh", str(self.vol), str(self.stl), "--iso", repr(ISO_HU)])
        mesh_s = perf_counter() - start
        result = OpResult(latency_s=segment_s + mesh_s,
                          stages_s={"segment": segment_s, "mesh": mesh_s})
        if seg_code != 0:
            result.failures.append(f"segment exit {seg_code}: {seg_notes.strip()}")
        else:
            result.failures += self._check_markers()
        if mesh_code != 0:
            result.failures.append(f"mesh exit {mesh_code}: {mesh_notes.strip()}")
        else:
            result.failures += self._check_stl()
        result.failed_items = 1 if result.failures else 0
        return result

    def _check_markers(self) -> list[str]:
        points = _read_marker_points(self.csv)
        if len(points) != len(self.planted_mm):
            return [f"found {len(points)} markers, planted {len(self.planted_mm)}"]
        half = self.spacing / 2.0
        unmatched = set(range(len(points)))
        for target in self.planted_mm:
            hits = [i for i in unmatched if np.all(np.abs(points[i] - target) <= half)]
            if not hits:
                return [f"no centroid within half a voxel of {target.tolist()}"]
            unmatched.discard(hits[0])
        return self._same_as_first("markers_csv", self.csv)

    def _check_stl(self) -> list[str]:
        blob = self.stl.read_bytes()
        faces = int.from_bytes(blob[80:84], "little") if len(blob) >= 84 else -1
        if faces <= 0 or len(blob) != 84 + 50 * faces:
            return [f"STL has {len(blob)} bytes for {faces} faces"]
        return self._same_as_first("stl", self.stl)

    def _same_as_first(self, key: str, path: Path) -> list[str]:
        digest = sha256_file(path)
        if self.hashes.setdefault(key, digest) != digest:
            return [f"{path.name} differs from the first run"]
        return []

    def report(self, results) -> dict:
        def p50(stage):
            values = [r.stages_s[stage] for r in results if stage in r.stages_s]
            return float(np.median(values)) if values else None

        return {
            "segment_p50_s": p50("segment"),
            "mesh_p50_s": p50("mesh"),
            "sha256": dict(self.hashes),
        }


# --------------------------------------------------------------------------
# mc-sweep


@dataclass(frozen=True)
class SweepSizes:
    marker_counts: tuple = (3, 4, 6, 8)
    trials_per_cell: int = 3


SWEEP_SIGMAS_MM = (0.0, 1.0)
SWEEP_CORRUPTIONS = ((0, 0), (1, 2))  # (dropouts, decoys), where n allows
ICP_ONLY_MARKERS = 40  # above icp.BRUTE_FORCE_LIMIT, so ICP uses the k-d tree
ICP_ONLY_SIGMA_MM = 1.0


class McSweep(Workload):
    """``run_benchmark`` over a fixed grid, then the records CSV and summary JSON."""

    name = "mc-sweep"
    work_unit = "trials"
    reference_repeats = 6

    def prepare(self) -> None:
        sz = self.sizes
        SceneSpec = self.bench.SceneSpec
        base = (self.seed * 1_000_003) % (1 << 40)
        self.grid = []
        for n in sz.marker_counts:
            for sigma in SWEEP_SIGMAS_MM:
                for dropouts, decoys in SWEEP_CORRUPTIONS:
                    if n - dropouts < 3:
                        continue
                    self.grid.append(SceneSpec(
                        n_markers=n, noise_sigma_mm=sigma, dropout_count=dropouts,
                        decoy_count=decoys, seed=base + 1000 * len(self.grid)))
        self.icp_grid = [SceneSpec(n_markers=ICP_ONLY_MARKERS,
                                   noise_sigma_mm=ICP_ONLY_SIGMA_MM,
                                   seed=base + 1000 * len(self.grid))]
        self.expected_trials = sz.trials_per_cell * (2 * len(self.grid) + len(self.icp_grid))
        self.csv = self.workdir / "records.csv"
        self.summary = self.workdir / "summary.json"
        self.first_hash: str | None = None
        self.records = []

    def run_op(self, index: int, between=None) -> OpResult:
        bench = self.bench
        trials = self.sizes.trials_per_cell
        self.csv.unlink(missing_ok=True)
        self.summary.unlink(missing_ok=True)
        start = perf_counter()
        records = bench.run_benchmark(self.grid, methods=("triangle", "icp"),
                                      trials_per_cell=trials)
        records += bench.run_benchmark(self.icp_grid, methods=("icp",),
                                       trials_per_cell=trials)
        bench.write_records_csv(records, self.csv)
        bench.write_summary_json(bench.summarize(records), self.summary)
        latency = perf_counter() - start
        result = OpResult(latency_s=latency, work_items=len(records))
        self.records = records
        result.failed_items = sum(1 for r in records if r.status != "ok")
        if result.failed_items:
            result.failures.append(f"{result.failed_items} trial(s) not ok")
        lines = self.csv.read_text(encoding="ascii").splitlines()
        if not lines or lines[0] != bench.CSV_HEADER:
            result.failures.append("records CSV header differs from bench.CSV_HEADER")
        if len(lines) - 1 != len(records) or len(records) != self.expected_trials:
            result.failures.append(
                f"records CSV has {len(lines) - 1} rows for {len(records)} trials "
                f"({self.expected_trials} expected)")
        json.loads(self.summary.read_text(encoding="ascii"))
        column = lines[0].split(",").index("time_us") if lines else 0
        blanked = "\n".join(
            ",".join("" if i == column else v for i, v in enumerate(line.split(",")))
            for line in lines)
        digest = hashlib.sha256(blanked.encode("ascii")).hexdigest()
        if self.first_hash is None:
            self.first_hash = digest
        elif digest != self.first_hash:
            result.failures.append("records CSV (time_us blanked) differs from the first run")
        if result.failures and not result.failed_items:
            result.failed_items = len(records) or 1
        return result

    def report(self, results) -> dict:
        triangle = [r for r in self.records if r.method == "triangle"]
        noisy_ok = [r.tre_mm for r in triangle if r.status == "ok" and r.noise_sigma_mm > 0]
        gross = sum(1 for r in triangle if r.status == "ok" and r.tre_mm > GROSS_TRE_MM)
        busy = sum(r.latency_s for r in results)
        return {
            "trials_per_s": sum(r.work_items for r in results) / busy if busy else None,
            "triangle_trials": len(triangle),
            "tre_p50_mm": float(np.median(noisy_ok)) if noisy_ok else None,
            "gross_error_rate": gross / len(triangle) if triangle else None,
            "sha256": {"records_csv_time_blanked": self.first_hash},
        }


WORKLOADS = {cls.name: cls for cls in (IntraopRegister, CtPrep, McSweep)}
FULL_SIZES = {
    "intraop-register": RegisterSizes(),
    "ct-prep": CtPrepSizes(),
    "mc-sweep": SweepSizes(),
}
