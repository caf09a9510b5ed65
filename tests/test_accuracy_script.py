"""scripts/accuracy_vs_markers.py end to end on a small sweep."""

import runpy
import sys
from pathlib import Path

import pytest

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


def _run_script(monkeypatch, out, *flags):
    argv = [str(SCRIPT), "--trials", "1", "--counts", "4", "--out-csv", str(out), *flags]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    return exited.value.code


def test_blank_method_entries_are_dropped(tmp_path, monkeypatch):
    # as fidreg bench drops them
    out = tmp_path / "accuracy.csv"
    assert _run_script(monkeypatch, out, "--methods", "triangle,") == 0
    lines = out.read_text(encoding="ascii").splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["triangle"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--methods", " , "], "error: no method given"),
        (["--methods", "triangle,affine"], "error: unknown method 'affine'"),
        (["--trials", "0"], "error: trials_per_cell must be >= 1"),
        (["--counts", "2"], "error: n_markers must be at least 3"),
        (["--counts", "4,x"], "error: --counts must be comma-separated integers"),
    ],
)
def test_bad_input_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys, flags, message):
    out = tmp_path / "accuracy.csv"
    assert _run_script(monkeypatch, out, *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(message)
    assert not out.exists()
