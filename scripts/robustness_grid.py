"""Gross-error rates of both registration methods over a grid of hard scenes.

Each cell runs one method on --seeds scenes (seeds --seed-base, +1, ...):
random layouts from bench.generate_scene for every marker count, noise
sigma and dropout/decoy level, plus four symmetric layouts that this script
poses itself through SplitMix64 (a 60 x 40 mm rectangle, an isosceles
trapezoid, a pentagon of radius 50 mm and a 3 x 2 grid at 50 mm). Per cell
it reports:

* gross_error_rate: trials that returned a pose whose mean TRE over the CT
  markers, or whose error at any of three targets 150 mm from the CT marker
  centroid, exceeds 10 mm (over all trials);
* gross_ct_error_rate: the same with the CT-marker TRE alone;
* confident_wrong_rate: gross errors that no flag marked; every gross error
  counts, since registration raises no flag yet;
* error_exit_rate: trials that ended in a registration error;
* tre_p50_mm: median CT-marker TRE over the trials that returned a pose;
* time_p95_ms: 95th percentile of the registration call's time.

Usage:
    python scripts/robustness_grid.py --seeds 60 --out robustness.json
The JSON goes to standard output when --out is not given. The default grid
is --counts 3,4,6,8,10,20,40 (three markers is the paper's case) and
--sigmas 0.5,1,2,3 mm.
"""

import json
import sys

import numpy as np

from fidreg.bench import (
    GROSS_TRE_MM,
    METHODS,
    SceneSpec,
    _register_scene,
    generate_scene,
    target_registration_error,
)
from fidreg.cli import _Parser, _plain_int
from fidreg.config import parse_number, write_json
from fidreg.errors import ConfigError, FormatError
from fidreg.markers import MarkerSet
from fidreg.rigid import RigidTransform
from fidreg.rng import SplitMix64
from fidreg.triangles import RegistrationConfig

CORRUPTIONS = ((0, 0), (1, 2), (2, 4))  # (dropouts, decoys)
TARGET_DISTANCE_MM = 150.0


def _pentagon(radius):
    angle = 2.0 * np.pi * np.arange(5) / 5
    return np.stack([radius * np.cos(angle), radius * np.sin(angle), np.zeros(5)], axis=1)


LAYOUTS = {
    "rectangle-60x40": np.array([[0, 0, 0], [60, 0, 0], [60, 40, 0], [0, 40, 0]], dtype=float),
    "isosceles-trapezoid": np.array([[0, 0, 0], [80, 0, 0], [60, 40, 0], [20, 40, 0]], dtype=float),
    "pentagon-r50": _pentagon(50.0),
    "grid-3x2-50mm": np.array([[x, y, 0] for y in (0, 50) for x in (0, 50, 100)], dtype=float),
}


def parse_args(argv=None):
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_plain_int, default=60, help="scenes per cell")
    parser.add_argument(
        "--seed-base", type=_plain_int, default=1000, help="seed of each cell's first scene"
    )
    parser.add_argument(
        "--counts", default="3,4,6,8,10,20,40", help="comma-separated marker counts"
    )
    parser.add_argument(
        "--sigmas", default="0.5,1,2,3", help="comma-separated device noise sigmas, mm"
    )
    parser.add_argument("--methods", default="triangle,icp", help="comma-separated methods")
    parser.add_argument("--out", help="write the JSON here instead of to standard output")
    return parser.parse_args(argv)


def parse_list(text, kind, name):
    try:
        return [parse_number(item, kind) for item in text.split(",")]
    except ValueError:
        raise ConfigError(f"--{name} must be a comma-separated list, got {text!r}") from None


def layout_scene(layout, sigma, seed):
    """The layout under a random pose with device noise, device order shuffled."""
    rng = SplitMix64(seed)
    ct = layout - layout.mean(axis=0)
    truth = RigidTransform(rng.rotation(), (rng.uniforms(3) - 0.5) * 200.0)
    device = truth.apply(ct) + sigma * rng.normals(ct.size).reshape(ct.shape)
    order = list(range(len(device)))
    rng.shuffle(order)
    return MarkerSet("ct", ct), MarkerSet("device", device[order]), truth


def scenes(counts, sigmas, seeds, base):
    """(cell description, scenes) for every cell, random layouts first."""
    for n in counts:
        for sigma in sigmas:
            for dropouts, decoys in CORRUPTIONS:
                if n - dropouts < 3:
                    continue
                specs = [
                    SceneSpec(n_markers=n, noise_sigma_mm=sigma, dropout_count=dropouts,
                              decoy_count=decoys, seed=base + trial)
                    for trial in range(seeds)
                ]
                cell = {"layout": "random", "n_markers": n, "noise_sigma_mm": sigma,
                        "dropout": dropouts, "decoys": decoys}
                yield cell, [generate_scene(spec) for spec in specs]
    for name, layout in LAYOUTS.items():
        for sigma in sigmas:
            cell = {"layout": name, "n_markers": len(layout), "noise_sigma_mm": sigma,
                    "dropout": 0, "decoys": 0}
            yield cell, [layout_scene(layout, sigma, base + trial) for trial in range(seeds)]


def run_cell(method, config, cell_scenes):
    gross = gross_ct = errors = 0
    tres, times = [], []
    for ct, device, truth in cell_scenes:
        estimated, _, status, seconds = _register_scene(method, ct, device, config)
        times.append(seconds * 1e3)
        if status != "ok":
            errors += 1
            continue
        tre = target_registration_error(estimated, truth, ct.points)
        targets = ct.points.mean(axis=0) + TARGET_DISTANCE_MM * np.eye(3)
        target_error = np.linalg.norm(estimated.apply(targets) - truth.apply(targets), axis=1).max()
        tres.append(tre)
        gross_ct += tre > GROSS_TRE_MM
        gross += tre > GROSS_TRE_MM or target_error > GROSS_TRE_MM
    trials = len(cell_scenes)
    return {
        "trials": trials,
        "gross_error_rate": gross / trials,
        "gross_ct_error_rate": gross_ct / trials,
        "confident_wrong_rate": gross / trials,
        "error_exit_rate": errors / trials,
        "tre_p50_mm": float(np.median(tres)) if tres else None,
        "time_p95_ms": float(np.percentile(times, 95)),
    }


def main(argv=None):
    try:
        args = parse_args(argv)
        counts = parse_list(args.counts, int, "counts")
        sigmas = parse_list(args.sigmas, float, "sigmas")
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        if min(counts) < 3:
            raise ConfigError(f"--counts must each be at least 3, got {args.counts!r}")
        if args.seeds < 1:
            raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
        if not methods or any(m not in METHODS for m in methods):
            raise ConfigError(f"--methods must name some of {METHODS}, got {args.methods!r}")
        cells = []
        config = RegistrationConfig()  # the triangle method's; ICP has no settings
        for cell, cell_scenes in scenes(counts, sigmas, args.seeds, args.seed_base):
            for method in methods:
                cells.append({**cell, "method": method,
                              **run_cell(method, config, cell_scenes)})
                print(
                    f"{cell['layout']:<20} n={cell['n_markers']:<3} sigma={cell['noise_sigma_mm']:g} "
                    f"{cell['dropout']}/{cell['decoys']} {method:<8} "
                    f"gross {cells[-1]['gross_error_rate']:.3f}",
                    file=sys.stderr,
                )
    except FormatError as exc:  # a bad flag or flag value
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "seeds": [args.seed_base, args.seed_base + args.seeds - 1],
        "gross_tre_mm": GROSS_TRE_MM,
        "cells": cells,
    }
    if args.out:
        write_json(report, args.out)
    else:
        print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
