"""A fixed reference job, timed beside every operation to take out host speed.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent over seconds to minutes: the same fidreg operation on the same input
can take 200 ms in one run and 300 ms a minute later.  Dividing each
operation's time by the time of this job, run right before and right after
it, cancels most of that drift while keeping every change in fidreg's own
code in the ratio: the job imports nothing from fidreg and its inputs are
fixed, so only the host moves its time.

Its mix follows fidreg's: small numpy calls in Python loops (triangle
matching, ICP, rigid fits), dict and tuple work (component labelling, the
marching-cubes edge map) and whole-array numpy passes (thresholding, the
case pass).
"""

from __future__ import annotations

import itertools
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(20240917)
POINTS = _rng.random((14, 3)) * 100.0
GRID = (_rng.random((128, 128, 128)) * 2000.0 - 1000.0).astype(np.int16)
DICT_STEPS = 60_000


def _job() -> float:
    acc = 0.0
    for a, b, c in itertools.combinations(range(len(POINTS)), 3):
        p = POINTS[[a, b, c]]
        edges = np.linalg.norm(p - p[[1, 2, 0]], axis=1)
        area = float(np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0])))
        acc += area / float(edges.max())
        if (a + b + c) % 8 == 0:
            acc += float(np.linalg.svd(p - p.mean(axis=0), compute_uv=False)[0])
    seen: dict = {}
    for i in range(DICT_STEPS):
        key = (i % 61, (i * 7) % 59, (i * 13) % 53)
        seen[key] = seen.get(key, 0) + 1
    mask = GRID > 300
    acc += float(np.count_nonzero(mask)) + float(np.flatnonzero(mask[::2]).sum() % 7)
    return acc + len(seen)


EXPECTED = _job()


def reference_s(repeats: int) -> float:
    """Wall time of ``repeats`` reference jobs; raises if a job's result changed."""
    start = perf_counter()
    for _ in range(repeats):
        if _job() != EXPECTED:
            raise RuntimeError("reference job gave a different result")
    return perf_counter() - start
