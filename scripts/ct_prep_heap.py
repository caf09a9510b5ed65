"""Heap use of perfbench's ct-prep set-up, step by step, in one process.

``perfbench/run.py --workload ct-prep --trace 0`` sets the workload up three
times before it times anything. Each set-up imports fidreg, writes the 256^3
phantom volume and runs one discarded segment + mesh operation. This script
replays those three set-ups in one process and prints, after every step, the
process's peak and current resident set (VmHWM, VmRSS) and glibc's
mallinfo2 figures: the main arena's size, the bytes free inside it, and the
bytes in mmapped chunks. A peak_rss_mb difference between two checkouts
that the arena's free bytes account for is heap retention, not a change in
what fidreg allocates.

Linux with glibc 2.33 or later only. Usage, from the root of a checkout:
    python scripts/ct_prep_heap.py --seed 1
One tab-separated line per step goes to standard output.
"""

import argparse
import ctypes
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (pins the BLAS threads before numpy loads)
import workloads  # noqa: E402

MB = 1e6
_FIELDS = ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
           "uordblks", "fordblks", "keepcost")


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in _FIELDS]


def _status_mb(key):
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1]) * 1024 / MB
    raise KeyError(key)


def heap_row(setup, step, mallinfo2):
    info = mallinfo2()
    return "\t".join([
        str(setup), step,
        f"{_status_mb('VmHWM'):.1f}", f"{_status_mb('VmRSS'):.1f}",
        f"{info.arena / MB:.1f}", f"{info.fordblks / MB:.1f}", f"{info.hblkhd / MB:.1f}",
    ])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="perfbench seed (default 1)")
    parser.add_argument("--dims", type=int, default=256,
                        help="volume edge in voxels; the phantom scales with it (default 256)")
    args = parser.parse_args(argv)
    mallinfo2 = ctypes.CDLL(None).mallinfo2
    mallinfo2.restype = _Mallinfo2
    scale = args.dims / 256
    sizes = workloads.CtPrepSizes(
        dims=(args.dims,) * 3,
        body_radii=(112.0 * scale, 96.0 * scale, 104.0 * scale),
        bone_edge=round(64 * scale),
    )
    src = ROOT / "src"
    print("setup\tstep\tvmhwm_mb\tvmrss_mb\tarena_mb\tarena_free_mb\tmmapped_mb")
    print(heap_row(0, "start", mallinfo2))
    with tempfile.TemporaryDirectory() as workdir:
        for setup in range(1, run.SETUP_REPEATS + 1):
            run.import_fidreg(src)
            print(heap_row(setup, "import", mallinfo2))
            workload = workloads.WORKLOADS["ct-prep"](Path(workdir), args.seed, sizes)
            workload.prepare()
            print(heap_row(setup, "prepare", mallinfo2))
            warm = run.guarded_op(workload, 0)
            if warm.failures:
                print(warm.failures[0], file=sys.stderr)
                return 1
            print(heap_row(setup, "warm-up", mallinfo2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
