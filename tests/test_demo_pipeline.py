"""scripts/demo_pipeline.py end to end, and its files against the CLI's.

The demo meshes and segments an in-memory phantom built from a writable
C-ordered array, which Volume copies to Fortran order; the CLI reads the
demo's phantom.vol back, whose voxels are a read-only view of the file
buffer.  Both paths must write the same bytes, and the demo's transform
JSON must equal what ``fidreg register`` and ``fidreg icp`` write for the
demo's scene files.
"""

import runpy
import sys
from pathlib import Path

from fidreg.cli import main

DEMO = Path(__file__).resolve().parents[1] / "scripts" / "demo_pipeline.py"


def test_demo_outputs_match_the_cli(tmp_path, monkeypatch, capsys):
    demo = tmp_path / "demo"
    monkeypatch.setattr(sys, "argv", [str(DEMO), "--out-dir", str(demo)])
    runpy.run_path(str(DEMO), run_name="__main__")
    printed = capsys.readouterr().out
    assert "segmented 3 markers" in printed and "wrote demo outputs" in printed
    for name in ("phantom.vol", "markers.csv", "skin.stl", "scene_ct.csv",
                 "scene_device.csv", "registered.json", "icp.json"):
        assert (demo / name).is_file(), name

    config = tmp_path / "segment.cfg"
    config.write_text("expected_mm3 = 18.984375\n")  # 27 voxels of 0.75 x 0.75 x 1.25 mm
    csv, stl = tmp_path / "markers.csv", tmp_path / "skin.stl"
    phantom = str(demo / "phantom.vol")
    assert main(["segment", phantom, str(config), str(csv)]) == 0
    assert main(["mesh", phantom, str(stl), "--iso", "1500"]) == 0
    assert csv.read_bytes() == (demo / "markers.csv").read_bytes()
    assert stl.read_bytes() == (demo / "skin.stl").read_bytes()

    scene = [str(demo / "scene_ct.csv"), str(demo / "scene_device.csv")]
    for command, name in (("register", "registered.json"), ("icp", "icp.json")):
        out = tmp_path / name
        assert main([command, *scene, str(out)]) == 0
        assert out.read_bytes() == (demo / name).read_bytes(), name
