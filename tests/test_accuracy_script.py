"""The README's accuracy-vs-marker-count sweep, end to end on a small grid.

The sweep is ``fidreg bench`` on a grid file that holds one scene-spec block
per marker count n, at a noise sigma of 2 mm and a seed of 2000 + 1000 * n.
"""

import pytest

from fidreg.bench import CSV_HEADER
from fidreg.cli import main


def sweep_grid(path, counts):
    """The grid file the README's printf line writes for ``counts``."""
    block = "n_markers = {}\nnoise_sigma_mm = 2.0\nseed = {}\n\n"
    path.write_text("".join(block.format(n, 2000 + 1000 * n) for n in counts), encoding="ascii")
    return path


def test_accuracy_sweep_writes_one_row_per_trial(tmp_path, capsys):
    grid = sweep_grid(tmp_path / "accuracy.grid", [4, 6])
    out = tmp_path / "accuracy.csv"
    summary = tmp_path / "accuracy.json"
    assert main(["bench", str(grid), str(out), str(summary), "--trials", "3"]) == 0
    assert "bench: 12 trials over 2 scene(s)" in capsys.readouterr().err
    lines = out.read_text(encoding="ascii").splitlines()
    assert lines[0] == CSV_HEADER
    # 2 marker counts x 2 methods x 3 trials
    assert len(lines) - 1 == 12
    assert {line.split(",")[0] for line in lines[1:]} == {"triangle", "icp"}


def _run_sweep(tmp_path, out, *flags):
    grid = sweep_grid(tmp_path / "accuracy.grid", [4])
    summary = tmp_path / "accuracy.json"
    return main(["bench", str(grid), str(out), str(summary), "--trials", "1", *flags])


def test_blank_method_entries_are_dropped(tmp_path):
    out = tmp_path / "accuracy.csv"
    assert _run_sweep(tmp_path, out, "--methods", "triangle,") == 0
    lines = out.read_text(encoding="ascii").splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["triangle"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--methods", " , "], "error: no method given"),
        (["--methods", "triangle,affine"], "error: unknown method 'affine'"),
        (["--trials", "0"], "error: trials_per_cell must be >= 1"),
        (["--trials", "1_0"], "error: argument --trials: must be an integer, got '1_0'"),
        (["--trials", "\u0663"], "error: argument --trials: must be an integer, got '\u0663'"),
    ],
)
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, flags, message):
    out = tmp_path / "accuracy.csv"
    assert _run_sweep(tmp_path, out, *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(message)
    assert not out.exists()
