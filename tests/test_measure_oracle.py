"""The closed-form boundary measures against a 150-digit mpmath oracle.

At 40 digits the oracle itself fails: past |t| of about 20, tanh(pi t/2)
rounds to 1 and a narrow tail interval measures 0.  mpmath is a test
dependency only; nothing under src/ imports it.
"""

import math

import mpmath
import numpy as np
import pytest

from schattenlab.strip import TAIL_CUT, BoundarySet, boundary_measure, cosh_measure
from schattenlab.verify import GAMMAS

DIGITS = 150
REL_TOL = 1e-13


def oracle_line(theta, intervals):
    """(1/pi) sum of [arctan(tanh(pi t/2) / tan(theta/2))] over the
    intervals, each clipped to [-TAIL_CUT, TAIL_CUT] as the module clips it."""
    with mpmath.workdps(DIGITS):
        c = mpmath.tan(theta / 2)
        total = mpmath.mpf(0)
        for a, b in intervals:
            a, b = max(a, -TAIL_CUT), min(b, TAIL_CUT)
            if b <= a:
                continue
            total += (mpmath.atan(mpmath.tanh(mpmath.pi * mpmath.mpf(b) / 2) / c)
                      - mpmath.atan(mpmath.tanh(mpmath.pi * mpmath.mpf(a) / 2) / c))
        return total / mpmath.pi


def oracle_boundary(gamma0, aset):
    with mpmath.workdps(DIGITS):
        g = mpmath.mpf(gamma0)
        return (oracle_line(g * mpmath.pi, aset.intervals0)
                + oracle_line((1 - g) * mpmath.pi, aset.intervals1))


def oracle_cosh(aset):
    with mpmath.workdps(DIGITS):
        return 2 * oracle_line(mpmath.pi / 2, aset.intervals0 + aset.intervals1)


def random_line(rng):
    """0 to 3 intervals, endpoints out to +-45 and log-uniform widths in
    [1e-6, 30]."""
    ivs = []
    for _ in range(int(rng.integers(0, 4))):
        a = float(rng.uniform(-45.0, 45.0))
        ivs.append((a, a + float(10.0 ** rng.uniform(-6.0, math.log10(30.0)))))
    return ivs


def relative_error(got, want):
    if want == 0:
        return 0.0 if got == 0.0 else math.inf
    return float(abs((mpmath.mpf(got) - want) / want))


# every GAMMAS value, then gamma0 drawn anew for each set
@pytest.mark.parametrize("case", range(len(GAMMAS) + 1),
                         ids=[str(g) for g in GAMMAS] + ["random"])
def test_boundary_measure_against_the_oracle(case):
    rng = np.random.default_rng([4200, case])
    worst = 0.0
    for _ in range(250):
        g = GAMMAS[case] if case < len(GAMMAS) else float(rng.uniform(0.01, 0.99))
        aset = BoundarySet(random_line(rng), random_line(rng))
        worst = max(worst, relative_error(boundary_measure(g, aset),
                                          oracle_boundary(g, aset)))
    assert worst <= REL_TOL


def test_cosh_measure_against_the_oracle():
    rng = np.random.default_rng(4300)
    worst = 0.0
    for _ in range(250):
        aset = BoundarySet(random_line(rng), random_line(rng))
        worst = max(worst, relative_error(cosh_measure(aset), oracle_cosh(aset)))
    assert worst <= REL_TOL
