"""Per-call latency of single layers on fixed inputs.

The n = 3, 4 and 16 probes match the matrix sizes of search-small,
strip-defect and search-wide; the n = 64 probes guard the documented size
limit (matcore.MAX_DIM) and move no workload.
"""

import math
import statistics
import time

import numpy as np

from schattenlab.kernels import TMapParams, t_map
from schattenlab.matcore import (HermitianMatrix, PositiveDefiniteMatrix,
                                 herm_eig)
from schattenlab.schatten import singular_values
from schattenlab.strip import (AnalyticFamily, BoundaryGridCache, BoundarySet,
                               boundary_measure)


def per_call_s(fn, min_seconds=0.15, min_calls=3):
    """Median wall time of single calls, over at least min_calls calls and
    min_seconds of calling."""
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _complex(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)


def _pdm(rng, n):
    q, r = np.linalg.qr(_complex(rng, n))
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return PositiveDefiniteMatrix.from_spectral(np.exp(rng.uniform(-2, 2, n)), q)


def run_probes(seed):
    """Probe metrics by name; times in the unit their name ends with."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x9B,)))
    out = {}
    for n in (3, 4, 16, 64):
        a = _complex(rng, n)
        out["schatten.singular_values.n%d_us" % n] = \
            1e6 * per_call_s(lambda: singular_values(a))
    for n in (3, 16, 64):
        h = _complex(rng, n)
        h = HermitianMatrix(0.5 * (h + h.conj().T))
        out["matcore.herm_eig.n%d_us" % n] = 1e6 * per_call_s(lambda: herm_eig(h))

    d16, x16 = _pdm(rng, 16), _complex(rng, 16)
    params = TMapParams(0.3, 0.7)
    out["kernels.t_map.n16_us"] = 1e6 * per_call_s(lambda: t_map(d16, params, x16))

    fam = AnalyticFamily(_pdm(rng, 3), _complex(rng, 3), 1.0)
    out["strip.BoundaryGridCache.n3_ms"] = \
        1e3 * per_call_s(lambda: BoundaryGridCache(fam, 0.5))

    sets = [BoundarySet(((-1.5, -0.2), (0.4, 2.1)), ((-3.0, 1.0),)),
            BoundarySet(((0.3, 0.9),), ()),
            BoundarySet((), ((-2.2, -1.1), (2.5, 3.3)))]
    out["strip.boundary_measure.us"] = 1e6 * per_call_s(
        lambda: [boundary_measure(0.25, s) for s in sets]) / len(sets)
    return out
