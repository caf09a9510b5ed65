"""scripts/ct_prep_heap.py end to end on a small phantom.

The script re-imports fidreg the way perfbench does, so it runs in its own
process here rather than inside the test session.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ct_prep_heap.py"


def test_one_row_per_set_up_step_with_a_rising_peak():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--dims", "48", "--seed", "5"],
        capture_output=True, text=True, check=True,
    )
    header, *rows = [line.split("\t") for line in done.stdout.splitlines()]
    assert header == ["setup", "step", "vmhwm_mb", "vmrss_mb", "arena_mb", "arena_free_mb",
                      "mmapped_mb"]
    steps = [(row[0], row[1]) for row in rows]
    assert steps == [("0", "start")] + [
        (str(setup), step) for setup in (1, 2, 3) for step in ("import", "prepare", "warm-up")
    ]
    peaks = [float(row[2]) for row in rows]
    assert peaks == sorted(peaks)
    for row in rows:
        resident, arena, free = float(row[3]), float(row[4]), float(row[5])
        assert 0.0 <= free <= arena and 0.0 < resident <= float(row[2])
