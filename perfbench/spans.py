"""Span tracing of fidreg from the outside, and the per-layer metrics it yields.

The tracer never edits fidreg's source.  It rebinds the module attributes that
callers look functions up through (``fidreg.cli.register``,
``fidreg.triangles.absolute_orientation``, ...) and wraps the public methods
of ``TriangleTable`` and ``KdTree`` on their classes.  Every call through a
wrapper records one span: name, start, end, parent span, operation id and
optional counts.  Spans stay in memory until the run writes them out.

A span's self time is its duration minus the time its child spans cover;
child spans never overlap because everything runs on one thread.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from math import comb
from time import perf_counter

import numpy as np

# One span is a list: [name, start_s, end_s, parent_index, op_id, counts].
NAME, START, END, PARENT, OP, COUNTS = range(6)


def _path_size(args, position):
    try:
        return os.path.getsize(args[position])
    except (IndexError, OSError, TypeError):
        return 0


# (module, attribute, span name, counts(args, result, state) -> dict | None).
# A binding whose attribute is missing is skipped, so the layer reads 0.
FUNCTION_BINDINGS = (
    ("fidreg.cli", "main", "cli.main", None),
    ("fidreg.cli", "read_volume", "volume.read_volume",
     lambda a, r, _: {"bytes": _path_size(a, 0)}),
    ("fidreg.cli", "markers_from_components", "segmentation.markers_from_components", None),
    ("fidreg.segmentation", "threshold_volume", "segmentation.threshold_volume",
     lambda a, r, _: {"voxels_above": int(np.count_nonzero(r.bits))}),
    ("fidreg.segmentation", "connected_components", "segmentation.connected_components",
     lambda a, r, _: {"components": len(r)}),
    ("fidreg.segmentation", "filter_by_size", "segmentation.filter_by_size",
     lambda a, r, _: {"kept": len(r)}),
    ("fidreg.cli", "marching_cubes", "mesh.marching_cubes",
     lambda a, r, _: {"vertices": r.n_vertices, "faces": r.n_faces}),
    ("fidreg.cli", "write_stl", "mesh.write_stl",
     lambda a, r, _: {"bytes": _path_size(a, 1)}),
    ("fidreg.cli", "read_marker_csv", "markers.read_marker_csv", None),
    ("fidreg.cli", "write_marker_csv", "markers.write_marker_csv", None),
    ("fidreg.cli", "register", "triangles.register",
     lambda a, r, _: {"ct_triples": comb(len(a[0]), 3)}),
    ("fidreg.bench", "register", "triangles.register",
     lambda a, r, _: {"ct_triples": comb(len(a[0]), 3)}),
    ("fidreg.triangles", "triangle_key", "triangles.triangle_key", None),
    ("fidreg.triangles", "canonical_correspondence", "triangles.canonical_correspondence", None),
    ("fidreg.triangles", "align_with_flip", "triangles.align_with_flip", None),
    ("fidreg.triangles", "absolute_orientation", "rigid.absolute_orientation", None),
    ("fidreg.icp", "absolute_orientation", "rigid.absolute_orientation", None),
    ("fidreg.bench", "icp_register", "icp.icp_register",
     lambda a, r, _: {"iterations": r.iterations_used}),
    ("fidreg.bench", "generate_scene", "bench.generate_scene", None),
    ("fidreg.bench", "run_benchmark", "bench.run_benchmark", None),
    ("fidreg.bench", "summarize", "bench.summarize", None),
    ("fidreg.bench", "write_records_csv", "bench.write_records_csv", None),
    ("fidreg.bench", "write_summary_json", "bench.write_summary_json", None),
)

# Classes whose public methods are wrapped in place: (module, class, layer).
CLASS_BINDINGS = (
    ("fidreg.triangles", "TriangleTable", "triangles"),
    ("fidreg.kdtree", "KdTree", "kdtree"),
)

# Counts for wrapped methods, and the state read before the call that they use.
METHOD_COUNTS = {
    "triangles.insert_marker": lambda a, r, before: {
        "stored": r, "degenerate": a[0].degenerate_skipped - before},
    "triangles.query_nearest": lambda a, r, before: {"candidates": len(r)},
}
METHOD_BEFORE = {
    "triangles.insert_marker": lambda a: a[0].degenerate_skipped,
}


class Tracer:
    """Collects spans while installed; :meth:`install` returns an undo list."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def _wrap(self, name, fn, counts=None, before=None):
        spans = self.spans
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id, None]
            spans.append(span)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span[START] = start
                span[END] = end
            if counts is not None:
                span[COUNTS] = counts(args, result, state)
            return result

        return traced

    def install(self) -> list[tuple[object, str, object]]:
        """Rebind every available entry point; returns (owner, attr, original)."""
        undo = []
        for module_name, attr, name, counts in FUNCTION_BINDINGS:
            module = sys.modules.get(module_name)
            if module is None or not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(name, original, counts))
            undo.append((module, attr, original))
        for module_name, class_name, layer in CLASS_BINDINGS:
            module = sys.modules.get(module_name)
            cls = getattr(module, class_name, None) if module is not None else None
            if cls is None:
                continue
            for attr, original in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(original):
                    continue
                name = f"{layer}.{attr}"
                setattr(cls, attr, self._wrap(
                    name, original, METHOD_COUNTS.get(name), METHOD_BEFORE.get(name)))
                undo.append((cls, attr, original))
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for index, (name, start, end, parent, op, counts) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "parent": parent, "op": op, "name": name,
                    "start_s": start, "end_s": end, "counts": counts,
                }) + "\n")


def self_times(spans) -> list[float]:
    """Per span: duration minus the summed duration of its direct children."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation per-layer metrics, as (value, unit), from ``n_ops`` operations.

    ``s(names)`` sums self time, ``n(name)`` counts spans and
    ``c(name, key)`` sums a recorded count, each divided by ``n_ops``.
    """
    selfs = self_times(spans)
    time_by: dict[str, float] = {}
    calls_by: dict[str, int] = {}
    count_by: dict[tuple[str, str], float] = {}
    for span, self_s in zip(spans, selfs):
        name = span[NAME]
        time_by[name] = time_by.get(name, 0.0) + self_s
        calls_by[name] = calls_by.get(name, 0) + 1
        for key, value in (span[COUNTS] or {}).items():
            count_by[(name, key)] = count_by.get((name, key), 0) + value

    per_op = 1.0 / max(n_ops, 1)

    def s(*names):
        return sum(time_by.get(name, 0.0) for name in names) * per_op

    def n(name):
        return calls_by.get(name, 0) * per_op

    def c(name, key):
        return count_by.get((name, key), 0) * per_op

    read_s = s("volume.read_volume")
    read_bytes = c("volume.read_volume", "bytes")
    components_s = s("segmentation.connected_components")
    voxels_above = c("segmentation.threshold_volume", "voxels_above")
    found = c("segmentation.connected_components", "components")
    kept = c("segmentation.filter_by_size", "kept")
    mc_s = s("mesh.marching_cubes")
    faces = c("mesh.marching_cubes", "faces")
    candidates = c("triangles.query_nearest", "candidates")
    aligned = n("triangles.align_with_flip")
    return {
        "volume.read_s": (read_s, "s"),
        "volume.read_bytes": (read_bytes, "bytes"),
        "volume.read_mb_per_s": (_ratio(read_bytes / 1e6, read_s), "MB/s"),
        "segmentation.threshold_s": (s("segmentation.threshold_volume"), "s"),
        "segmentation.components_s": (components_s, "s"),
        "segmentation.filter_s": (s("segmentation.filter_by_size"), "s"),
        "segmentation.centroids_s": (s("segmentation.markers_from_components"), "s"),
        "segmentation.voxels_above": (voxels_above, "count"),
        "segmentation.components": (found, "count"),
        "segmentation.kept": (kept, "count"),
        "segmentation.kept_ratio": (_ratio(kept, found), "ratio"),
        "segmentation.voxels_per_s": (_ratio(voxels_above, components_s), "1/s"),
        "mesh.marching_cubes_s": (mc_s, "s"),
        "mesh.write_stl_s": (s("mesh.write_stl"), "s"),
        "mesh.vertices": (c("mesh.marching_cubes", "vertices"), "count"),
        "mesh.faces": (faces, "count"),
        "mesh.stl_bytes": (c("mesh.write_stl", "bytes"), "bytes"),
        "mesh.faces_per_s": (_ratio(faces, mc_s), "1/s"),
        "triangles.table_build_s": (s("triangles.insert_marker"), "s"),
        # Table accessors register calls itself count as register's own work.
        "triangles.register_self_s": (
            s("triangles.register", "triangles.triangle_points", "triangles.marker_array"), "s"),
        "triangles.triangle_key_s": (s("triangles.triangle_key"), "s"),
        "triangles.correspondence_s": (s("triangles.canonical_correspondence"), "s"),
        "triangles.align_s": (s("triangles.align_with_flip"), "s"),
        "triangles.query_s": (s("triangles.query_nearest"), "s"),
        "triangles.triangle_key_calls": (n("triangles.triangle_key"), "count"),
        "triangles.correspondence_calls": (n("triangles.canonical_correspondence"), "count"),
        "triangles.align_calls": (aligned, "count"),
        "triangles.stored": (c("triangles.insert_marker", "stored"), "count"),
        "triangles.degenerate_skipped": (c("triangles.insert_marker", "degenerate"), "count"),
        "triangles.ct_triples": (c("triangles.register", "ct_triples"), "count"),
        "triangles.candidates": (candidates, "count"),
        "triangles.aligned_ratio": (_ratio(aligned, candidates), "ratio"),
        "kdtree.insert_calls": (n("kdtree.insert"), "count"),
        "kdtree.insert_s": (s("kdtree.insert"), "s"),
        "kdtree.nearest_calls": (n("kdtree.nearest"), "count"),
        "kdtree.nearest_s": (s("kdtree.nearest"), "s"),
        "rigid.fit_calls": (n("rigid.absolute_orientation"), "count"),
        "rigid.fit_s": (s("rigid.absolute_orientation"), "s"),
        "icp.register_s": (s("icp.icp_register"), "s"),
        "icp.iterations": (c("icp.icp_register", "iterations"), "count"),
        "markers.read_csv_s": (s("markers.read_marker_csv"), "s"),
        "markers.write_csv_s": (s("markers.write_marker_csv"), "s"),
        "bench.generate_scene_s": (s("bench.generate_scene"), "s"),
        "bench.scenes": (n("bench.generate_scene"), "count"),
        "bench.run_self_s": (s("bench.run_benchmark"), "s"),
        "bench.write_outputs_s": (
            s("bench.summarize", "bench.write_records_csv", "bench.write_summary_json"), "s"),
        "cli.self_s": (s("cli.main"), "s"),
    }
