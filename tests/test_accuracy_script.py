"""scripts/accuracy_vs_markers.py end to end on a small sweep."""

import runpy
import sys
from pathlib import Path

from fidreg.bench import CSV_HEADER

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "accuracy_vs_markers.py"


def test_accuracy_sweep_writes_one_row_per_trial(tmp_path, monkeypatch, capsys):
    out = tmp_path / "runs" / "accuracy.csv"
    argv = [str(SCRIPT), "--trials", "3", "--counts", "4,6", "--out-csv", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    try:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    printed = capsys.readouterr().out
    assert "3 trials per cell" in printed
    lines = out.read_text(encoding="ascii").splitlines()
    assert lines[0] == CSV_HEADER
    # 2 marker counts x 2 methods x 3 trials
    assert len(lines) - 1 == 12
    assert {line.split(",")[0] for line in lines[1:]} == {"triangle", "icp"}
