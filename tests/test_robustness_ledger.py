"""The correctness ledger: exact per-cell counts of the default robustness grid.

Registration is bit-reproducible, so every cell of scripts/robustness_grid.py
at its default grid and 10 seeds has exact integer counts: gross, gross-CT,
confident-wrong and error-exit trials. tests/data/robustness_ledger.json
pins them (no times). A change that moves a count fails here; one that does
so on purpose re-pins the ledger and lists every moved cell, before -> after.
Re-pin with

    PYTHONPATH=src python tests/test_robustness_ledger.py
"""

import json
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "data" / "robustness_ledger.json"
SEEDS = 10
CELL_KEYS = ("layout", "n_markers", "noise_sigma_mm", "dropout", "decoys", "method")
COUNTS = {
    "gross": "gross_error_rate",
    "gross_ct": "gross_ct_error_rate",
    "confident_wrong": "confident_wrong_rate",
    "error_exit": "error_exit_rate",
}


def grid_counts() -> dict:
    """The ledger of the script's default grid at SEEDS seeds, from its own code."""
    grid = runpy.run_path(str(ROOT / "scripts" / "robustness_grid.py"))
    args = grid["parse_args"](["--seeds", str(SEEDS)])
    counts = grid["parse_list"](args.counts, int, "counts")
    sigmas = grid["parse_list"](args.sigmas, float, "sigmas")
    methods = args.methods.split(",")
    config = grid["RegistrationConfig"]()
    cells = []
    for cell, cell_scenes in grid["scenes"](counts, sigmas, args.seeds, args.seed_base):
        for method in methods:
            rates = grid["run_cell"](method, config, cell_scenes)
            cells.append({
                **cell, "method": method,
                **{name: round(rates[rate] * rates["trials"]) for name, rate in COUNTS.items()},
            })
    return {"seeds": [args.seed_base, args.seed_base + SEEDS - 1], "cells": cells}


def describe(cell: dict) -> str:
    return " ".join(f"{key}={cell[key]}" for key in CELL_KEYS)


def test_grid_counts_match_the_pinned_ledger():
    pinned = json.loads(LEDGER.read_text(encoding="ascii"))
    got = grid_counts()
    assert got["seeds"] == pinned["seeds"]
    assert [describe(cell) for cell in got["cells"]] == [describe(cell) for cell in pinned["cells"]]
    moved = [
        f"{describe(now)}: " + ", ".join(
            f"{name} {then[name]} -> {now[name]}" for name in COUNTS if now[name] != then[name]
        )
        for then, now in zip(pinned["cells"], got["cells"])
        if now != then
    ]
    assert moved == []


if __name__ == "__main__":
    # one cell per line, so a re-pin's diff names the moved cells
    ledger = grid_counts()
    rows = ",\n".join(f"  {json.dumps(cell)}" for cell in ledger["cells"])
    LEDGER.parent.mkdir(exist_ok=True)
    LEDGER.write_text(
        f'{{\n "seeds": {json.dumps(ledger["seeds"])},\n "cells": [\n{rows}\n ]\n}}\n',
        encoding="ascii",
    )
