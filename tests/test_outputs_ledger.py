"""The outputs ledger: digests of the files fidreg writes on fixed inputs.

Each output is reduced to a canonical form and hashed; tests/data/
outputs_ledger.json pins the digests. The inputs come from perfbench's own
workload builders at the TINY sizes of perfbench/test_perfbench.py, from one
literal scene spec and from scripts/demo_pipeline.py:

* ``fidreg register`` and ``fidreg icp`` on each intraop-register scene;
* the mc-sweep records CSV (``time_us`` blanked) and summary JSON
  (``time_us`` dropped);
* the ct-prep segment CSV and STL;
* ``fidreg simulate`` on the spec below;
* every file scripts/demo_pipeline.py writes.

JSON and CSV numbers are rounded to QUANTUM before hashing, so a last-bit
change from a new numpy, LAPACK or libm release does not move a digest,
while a moved result, key or column does. The STL and the volume are hashed
as written: their numbers are float32 and int16. A change that moves an
output on purpose re-pins the ledger, which names each moved output. Re-pin
with

    PYTHONPATH=src python tests/test_outputs_ledger.py
"""

import hashlib
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path
from unittest import mock

import fidreg.bench  # noqa: F401  (the workloads look fidreg up in sys.modules)
from fidreg.cli import main

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "data" / "outputs_ledger.json"
sys.path.insert(0, str(ROOT / "perfbench"))
with mock.patch.dict(os.environ):  # perfbench's run.py pins BLAS threads on import
    from test_perfbench import TINY
import workloads  # noqa: E402

SEED = 5
QUANTUM = 1e-9  # mm, and the same step for every other JSON or CSV number
SPEC = (
    "n_markers = 6\nnoise_sigma_mm = 1.0\ndropout_count = 1\ndecoy_count = 2\nseed = 7\n"
    "placement_extent = 300.0 300.0 150.0\ntranslation_extent = 200.0 200.0 200.0\n"
    "true_transform = random\n"
)


def quantize(value):
    """``value`` with every finite float rounded to a whole number of QUANTUM."""
    if isinstance(value, dict):
        return {key: quantize(item) for key, item in value.items()}
    if isinstance(value, list):
        return [quantize(item) for item in value]
    if isinstance(value, float) and abs(value) < float("inf"):
        return round(value / QUANTUM)
    return value


def csv_cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def digest_csv(path, blank=()) -> str:
    rows = [line.split(",") for line in Path(path).read_text(encoding="ascii").splitlines()]
    skip = [rows[0].index(name) for name in blank]
    cells = [[None if i in skip else csv_cell(cell) for i, cell in enumerate(row)]
             for row in rows[1:]]
    return digest_data([rows[0], quantize(cells)])


def digest_json(path, drop=None) -> str:
    data = json.loads(Path(path).read_text(encoding="ascii"))
    if drop is not None:
        drop(data)
    return digest_data(quantize(data))


def digest_data(data) -> str:
    return hashlib.sha256(json.dumps(data).encode("ascii")).hexdigest()


def digest_bytes(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digest_file(path) -> str:
    readers = {".json": digest_json, ".csv": digest_csv}
    return readers.get(Path(path).suffix, digest_bytes)(path)


def drop_time(summary: dict) -> None:
    for cell in summary["cells"]:
        del cell["time_us"]


def run_cli(argv) -> None:
    assert main([str(arg) for arg in argv]) == 0, argv


def outputs(workdir: Path) -> dict:
    """``{output name: digest}`` for every output the ledger pins, in a fixed order."""
    got = {}
    register = workloads.IntraopRegister(workdir, SEED, TINY["intraop-register"])
    register.prepare()
    for index, scene in enumerate(register.scenes):
        ct, device, out = scene["argv"][1:]
        for command in ("register", "icp"):
            run_cli([command, ct, device, out])
            got[f"{command} scene{index}"] = digest_json(out)

    sweep = workloads.McSweep(workdir, SEED, TINY["mc-sweep"])
    sweep.prepare()
    assert sweep.run_op(0).failures == []
    got["mc-sweep records"] = digest_csv(sweep.csv, blank=("time_us",))
    got["mc-sweep summary"] = digest_json(sweep.summary, drop=drop_time)

    prep = workloads.CtPrep(workdir, SEED, TINY["ct-prep"])
    prep.prepare()
    assert prep.run_op(0).failures == []
    got["segment csv"] = digest_csv(prep.csv)
    got["mesh stl"] = digest_bytes(prep.stl)

    spec = workdir / "scene.spec"
    spec.write_text(SPEC, encoding="ascii")
    run_cli(["simulate", spec, workdir / "sim"])
    for part in ("ct.csv", "device.csv", "truth.json"):
        got[f"simulate {part}"] = digest_file(workdir / f"sim_{part}")

    demo = workdir / "demo"
    script = ROOT / "scripts" / "demo_pipeline.py"
    with mock.patch.object(sys, "argv", [str(script), "--out-dir", str(demo)]):
        runpy.run_path(str(script), run_name="__main__")
    for path in sorted(demo.iterdir()):
        got[f"demo {path.name}"] = digest_file(path)
    return got


def test_outputs_match_the_pinned_ledger(tmp_path):
    pinned = json.loads(LEDGER.read_text(encoding="ascii"))
    got = outputs(tmp_path)
    assert list(got) == list(pinned)
    moved = [name for name in pinned if got[name] != pinned[name]]
    assert moved == []


if __name__ == "__main__":
    # one output per line, so a re-pin's diff names the moved outputs
    with tempfile.TemporaryDirectory() as workdir:
        ledger = outputs(Path(workdir))
    LEDGER.write_text(json.dumps(ledger, indent=1) + "\n", encoding="ascii")
