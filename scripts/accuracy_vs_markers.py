"""Sweep marker count and report mean target registration error per cell.

Reproduces the accuracy-vs-marker-count experiment: at a fixed noise level,
more markers give the matcher more consensus to rank candidate alignments,
so mean TRE should fall as the count rises.

Usage:
    python scripts/accuracy_vs_markers.py --trials 200 --sigma 2.0 \
        --counts 4,6,8,10 --out-csv runs/accuracy.csv
"""

import argparse
import sys
from pathlib import Path

from fidreg.bench import SceneSpec, run_benchmark, summarize, write_records_csv
from fidreg.errors import ConfigError


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=200, help="trials per cell")
    parser.add_argument("--sigma", type=float, default=2.0, help="device noise sigma, mm")
    parser.add_argument(
        "--counts", default="4,6,8,10", help="comma-separated marker counts"
    )
    parser.add_argument("--seed", type=int, default=2000, help="base seed")
    parser.add_argument(
        "--methods", default="triangle,icp", help="comma-separated methods to run"
    )
    parser.add_argument("--out-csv", help="optionally dump per-trial records here")
    return parser.parse_args()


def parse_counts(text):
    try:
        return [int(c) for c in text.split(",")]
    except ValueError:
        raise ConfigError(f"--counts must be comma-separated integers, got {text!r}") from None


def main():
    args = parse_args()
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    try:
        counts = parse_counts(args.counts)
        grid = [
            SceneSpec(n_markers=n, noise_sigma_mm=args.sigma, seed=args.seed + 1000 * n)
            for n in counts
        ]
        records = run_benchmark(grid, methods=methods, trials_per_cell=args.trials)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out_csv:
        Path(args.out_csv).parent.mkdir(parents=True, exist_ok=True)
        write_records_csv(records, args.out_csv)

    print(f"noise sigma {args.sigma} mm, {args.trials} trials per cell")
    print(f"{'method':<10} {'markers':>7} {'TRE mm':>16} {'rot err mrad':>14} {'fail':>5}")
    for cell in summarize(records):
        if cell["tre_mm"] is None:
            tre = "all failed"
            rot = "-"
        else:
            tre = f"{cell['tre_mm']['mean']:7.3f} +- {cell['tre_mm']['std']:5.3f}"
            rot = f"{1e3 * cell['rot_err_rad']['mean']:9.3f}"
        print(
            f"{cell['method']:<10} {cell['n_markers']:>7} {tre:>16} {rot:>14} "
            f"{cell['failures']:>5}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
