"""scripts/robustness_grid.py end to end on a tiny grid."""

import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "robustness_grid.py"

CELL_KEYS = {
    "layout",
    "n_markers",
    "noise_sigma_mm",
    "dropout",
    "decoys",
    "method",
    "trials",
    "gross_error_rate",
    "gross_ct_error_rate",
    "confident_wrong_rate",
    "error_exit_rate",
    "tre_p50_mm",
    "time_p95_ms",
}


def run_script(monkeypatch, *flags):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *flags])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    return exited.value.code


def test_grid_reports_every_cell_with_its_rates(tmp_path, monkeypatch, capsys):
    out = tmp_path / "grid.json"
    flags = ["--seeds", "2", "--counts", "4", "--sigmas", "1", "--out", str(out)]
    assert run_script(monkeypatch, *flags) == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text(encoding="ascii"))
    assert report["seeds"] == [1000, 1001]
    cells = report["cells"]
    # n = 4 at 0/0 and 1/2 (2 dropouts would leave 2 markers), four layouts; two methods
    assert len(cells) == 2 * (2 + 4)
    layouts = [cell["layout"] for cell in cells[::2]]
    assert layouts == [
        "random", "random", "rectangle-60x40", "isosceles-trapezoid", "pentagon-r50", "grid-3x2-50mm",
    ]
    for cell in cells:
        assert set(cell) == CELL_KEYS
        assert cell["trials"] == 2
        assert cell["confident_wrong_rate"] == cell["gross_error_rate"] >= cell["gross_ct_error_rate"]
    # a noise-free-shaped random scene at 1 mm: the triangle method gets it right
    assert cells[0]["method"] == "triangle" and cells[0]["gross_error_rate"] == 0.0
    # reruns give the same rates (times aside)
    first = [{k: v for k, v in cell.items() if k != "time_p95_ms"} for cell in cells]
    assert run_script(monkeypatch, *flags) == 0
    again = json.loads(out.read_text(encoding="ascii"))["cells"]
    assert [{k: v for k, v in cell.items() if k != "time_p95_ms"} for cell in again] == first


def reject(constant):
    raise ValueError(f"JSON holds {constant}")


def test_the_report_on_stdout_has_its_keys_and_only_finite_numbers(monkeypatch, capsys):
    assert run_script(monkeypatch, "--seeds", "2", "--counts", "3,4,6") == 0
    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert set(report) == {"seeds", "gross_tre_mm", "cells"}
    assert report["cells"] and all(set(cell) == CELL_KEYS for cell in report["cells"])


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seeds", "0"], "error: --seeds must be >= 1"),
        (["--counts", "4,x"], "error: --counts must be a comma-separated list"),
        (["--sigmas", "1,?"], "error: --sigmas must be a comma-separated list"),
        (["--methods", "triangle,affine"], "error: --methods must name some of"),
        (["--counts", "4,2"], "error: --counts must each be at least 3"),
        (["--seeds", "1_0"], "error: argument --seeds: must be an integer, got '1_0'"),
        (["--seeds", "\u0663"], "error: argument --seeds: must be an integer, got '\u0663'"),
        (["--counts", "1_0"], "error: --counts must be a comma-separated list"),
        (["--sigmas", "\u0663"], "error: --sigmas must be a comma-separated list"),
    ],
)
def test_bad_input_exits_2_with_one_error_line(monkeypatch, capsys, flags, message):
    assert run_script(monkeypatch, *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(message)


def test_default_grid_covers_three_markers_and_four_noise_levels():
    # three markers is the paper's case
    args = runpy.run_path(str(SCRIPT))["parse_args"]([])
    assert (args.counts, args.sigmas) == ("3,4,6,8,10,20,40", "0.5,1,2,3")
