"""Named property suites over randomized instances.

Each check returns a dict with a name, a pass flag, the measured extreme
value, and the tolerance it was held against.  The CLI 'verify' and
'strip-check' experiments and the acceptance tests all run these.
"""

import math
import zlib

import numpy as np

from . import estimator as est
from .kernels import (TMapParams, divided_difference_kernel, group_spectrum,
                      loewner_min_eig, rx_kernel, t_map, unital_cp_map)
from .matcore import (ComplexMatrix, HermitianMatrix, PositiveDefiniteMatrix,
                      ValidationError, _eigh, anticommutator, herm_eig,
                      imaginary_power, matrix_function, polar_decompose,
                      positive_power)
from .mazur import (decomposition_residual, main_ratio, mazur_map,
                    powers_diff_ratio)
from .schatten import (ExponentConfig, _exponents, schatten_norm,
                       singular_values)
from .strip import (AnalyticFamily, BoundaryGridCache, BoundarySet,
                    boundary_measure, boundary_norm_profile, convexity_defect,
                    cosh_measure, dilate, doubling_bound, doubling_ratio)


def _result(name, passed, value, tolerance, detail=""):
    return {"name": name, "passed": bool(passed), "value": float(value),
            "tolerance": float(tolerance), "detail": detail}


def _rng(seed, label):
    return np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(zlib.crc32(label.encode()),)))


def _random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def _random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _random_pdm(rng, n, lo=-3.0, hi=3.0):
    lam = np.exp(rng.uniform(lo, hi, n))
    q, r = np.linalg.qr(_random_complex(rng, n))
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return PositiveDefiniteMatrix.from_spectral(lam, q)


# --- matcore -------------------------------------------------------------

def verify_matcore(seed=0, trials=25):
    rng = _rng(seed, "matcore")
    out = []

    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        h = _random_hermitian(rng, n)
        s = herm_eig(HermitianMatrix(h))
        spread = s.eigenvalues[-1] - s.eigenvalues[0]
        worst = max(worst, np.abs(s.reconstruct() - h).max() / (1.0 + spread))
    out.append(_result("matcore.eig_reconstruction", worst <= 1e-9, worst, 1e-9))

    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        d = _random_pdm(rng, n, -1.5, 1.5)
        s = d.spectral
        fg = matrix_function(s, lambda t: t ** 0.7 * math.log(t)).mat
        f = matrix_function(s, lambda t: t ** 0.7).mat
        g = matrix_function(s, math.log).mat
        worst = max(worst, np.abs(fg - f @ g).max())
    out.append(_result("matcore.calculus_homomorphism", worst <= 1e-9, worst, 1e-9))

    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        d = _random_pdm(rng, n, -1.5, 1.5)
        u = imaginary_power(d, float(rng.uniform(-2, 2))).mat
        x = _random_complex(rng, n)
        p = float(rng.uniform(0.3, 3.0))
        base = schatten_norm(x, p)
        conj = schatten_norm(u @ x @ u.conj().T, p)
        worst = max(worst, abs(conj - base) / base)
    out.append(_result("matcore.unitary_invariance", worst <= 1e-8, worst, 1e-8))

    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 8))
        a = _random_complex(rng, n)
        if rng.uniform() < 0.3:
            a[:, 0] = 0.0  # exercise the rank-deficient branch
        u, p = polar_decompose(a)
        worst = max(worst, np.abs(u @ p - a).max() / (1.0 + np.abs(a).max()))
    out.append(_result("matcore.polar_reconstruction", worst <= 1e-9, worst, 1e-9))

    return out


# --- schatten ------------------------------------------------------------

def verify_schatten(seed=0, trials=40):
    rng = _rng(seed, "schatten")
    out = []

    worst = -math.inf
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        q = float(rng.uniform(0.15, 1.0))
        a, b = _random_complex(rng, n), _random_complex(rng, n)
        lhs = schatten_norm(a + b, q) ** q
        rhs = schatten_norm(a, q) ** q + schatten_norm(b, q) ** q
        worst = max(worst, lhs - rhs)
    out.append(_result("schatten.q_triangle", worst <= 1e-9, worst, 1e-9))

    worst = -math.inf
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        q = float(rng.uniform(1.0, 4.0))
        a, b = _random_complex(rng, n), _random_complex(rng, n)
        worst = max(worst, schatten_norm(a + b, q)
                    - schatten_norm(a, q) - schatten_norm(b, q))
    out.append(_result("schatten.triangle", worst <= 1e-9, worst, 1e-9))

    worst = -math.inf
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        s = float(rng.uniform(0.4, 4.0))
        r = float(rng.uniform(0.4, 4.0)) if rng.uniform() < 0.7 else math.inf
        p, _ = _exponents(s, r)
        a, b = _random_complex(rng, n), _random_complex(rng, n)
        lhs = schatten_norm(a @ b, p)
        rhs = schatten_norm(a, s) * schatten_norm(b, r)
        worst = max(worst, lhs / rhs - 1.0)
    out.append(_result("schatten.hoelder", worst <= 1e-9, worst, 1e-9))

    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        a = _random_complex(rng, n)
        u, _ = np.linalg.qr(_random_complex(rng, n))
        v, _ = np.linalg.qr(_random_complex(rng, n))
        p = float(rng.uniform(0.2, 5.0))
        base = schatten_norm(a, p)
        worst = max(worst, abs(schatten_norm(u @ a @ v, p) - base) / base)
    out.append(_result("schatten.unitary_invariance", worst <= 1e-9, worst, 1e-9))

    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 8))
        a = _random_complex(rng, n)
        fro = math.sqrt((np.abs(a) ** 2).sum())
        worst = max(worst, abs(schatten_norm(a, 2.0) - fro) / fro)
    out.append(_result("schatten.frobenius_crosscheck", worst <= 1e-10, worst, 1e-10))

    return out


# --- kernels -------------------------------------------------------------

def verify_loewner_positivity(seed=0, spectra=500, max_dim=8):
    rng = _rng(seed, "loewner")
    worst = math.inf
    gammas = [round(0.1 * k, 1) for k in range(1, 11)]
    for _ in range(spectra):
        n = int(rng.integers(2, max_dim + 1))
        vals = np.exp(rng.uniform(-math.log(1e3), math.log(1e3), n))
        for g in gammas:
            worst = min(worst, loewner_min_eig(vals, g))
    return [_result("kernels.loewner_positivity", worst >= -1e-10, worst, -1e-10,
                    detail="min eigenvalue over %d spectra x %d gammas"
                    % (spectra, len(gammas)))]


def verify_tmap_algebra(seed=0, trials=100):
    rng = _rng(seed, "tmap")
    out = []

    worst = 0.0
    for k in range(trials):
        n = int(rng.integers(2, 7))
        clustered = k % 3 == 0
        if clustered:
            half = (n + 1) // 2
            base = rng.uniform(-2, 2, half)
            logs = np.concatenate([base, base[:n - half] + rng.uniform(-1e-10, 1e-10, n - half)])
            q, r = np.linalg.qr(_random_complex(rng, n))
            d = PositiveDefiniteMatrix.from_spectral(np.exp(logs), q)
        else:
            d = _random_pdm(rng, n, -2, 2)
        delta = _random_complex(rng, n)
        beta = float(rng.uniform(0.05, 1.0))
        gamma = float(rng.uniform(0.55, 0.95))
        v = 1.0 / (2.0 * gamma)
        inner = t_map(d, TMapParams(beta, gamma), delta)
        s = herm_eig(d)
        d_gamma = PositiveDefiniteMatrix.from_spectral(s.eigenvalues ** gamma, s.vectors)
        lhs = t_map(d_gamma, TMapParams((1.0 - v) / 2.0, v), inner.mat)
        rhs = t_map(d, TMapParams(beta + gamma * (1.0 - v) / 2.0, 0.5), delta)
        worst = max(worst, np.abs(lhs.mat - rhs.mat).max())
    out.append(_result("kernels.composition_identity", worst <= 1e-9, worst, 1e-9))

    worst_unital, worst_trace = 0.0, 0.0
    for _ in range(trials // 2):
        n = int(rng.integers(2, 7))
        d = _random_pdm(rng, n, -2, 2)
        gamma = float(rng.uniform(0.55, 0.95))
        s_eye = unital_cp_map(d, gamma, np.eye(n, dtype=complex)).mat
        worst_unital = max(worst_unital, np.abs(s_eye - np.eye(n)).max())
        y = _random_hermitian(rng, n)
        sy = unital_cp_map(d, gamma, y).mat
        worst_trace = max(worst_trace, abs(np.trace(sy).real - np.trace(y).real))
    out.append(_result("kernels.unitality", worst_unital <= 1e-9, worst_unital, 1e-9))
    out.append(_result("kernels.trace_preservation", worst_trace <= 1e-9,
                       worst_trace, 1e-9))

    worst = math.inf
    for _ in range(trials // 2):
        n = int(rng.integers(2, 6))
        d = _random_pdm(rng, n, -2, 2)
        gamma = float(rng.uniform(0.55, 0.95))
        h = _random_hermitian(rng, n)
        y = h @ h.conj().T + 1e-3 * np.eye(n)
        for q in (0.3, 0.5, 0.8):
            yq = positive_power(PositiveDefiniteMatrix(y), q)
            lhs = unital_cp_map(d, gamma, yq).mat
            sy = unital_cp_map(d, gamma, y).mat
            sq = positive_power(PositiveDefiniteMatrix(0.5 * (sy + sy.conj().T)), q)
            diffm = sq - lhs
            lam, _ = _eigh(0.5 * (diffm + diffm.conj().T), want_vectors=False)
            worst = min(worst, lam[0])
    out.append(_result("kernels.hansen_pedersen", worst >= -1e-8, worst, -1e-8))

    worst = math.inf
    for _ in range(trials // 2):
        n = int(rng.integers(2, 6))
        d = _random_pdm(rng, n, -2, 2)
        gamma = float(rng.uniform(0.05, 0.95))
        beta = float(rng.uniform(0.0, 1.0))
        a = _random_complex(rng, n)
        delta = a @ a.conj().T
        res = t_map(d, TMapParams(beta, gamma), delta).mat
        lam, _ = _eigh(0.5 * (res + res.conj().T), want_vectors=False)
        worst = min(worst, lam[0])
    out.append(_result("kernels.cp_proxy", worst >= -1e-8, worst, -1e-8,
                       detail="min eig of t_map on positive inputs"))

    return out


def verify_rx_probe(seed=0, trials=500, alphas=(0.5, 1.0, 3.0), max_dim=8):
    rng = _rng(seed, "rx")
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, max_dim + 1))
        vals = np.exp(rng.uniform(-math.log(1e3), math.log(1e3), n))
        x = _random_complex(rng, n)
        nx = schatten_norm(x, math.inf)
        for alpha in alphas:
            k = rx_kernel(vals, alpha)
            worst = max(worst, schatten_norm(k * x, math.inf) / nx)
    return [_result("kernels.rx_schur_bound", worst <= 2.5 * (1 + 1e-8), worst,
                    2.5 * (1 + 1e-8),
                    detail="max ||K o X||_inf / ||X||_inf over %d draws" % trials)]


# --- mazur ---------------------------------------------------------------

def verify_mazur(seed=0, trials=30):
    rng = _rng(seed, "mazur")
    out = []

    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        f = _random_complex(rng, n)
        p = float(rng.uniform(0.4, 3.0))
        q = float(rng.uniform(0.3, p))
        lhs = schatten_norm(mazur_map(f, p, q), q) ** q
        rhs = schatten_norm(f, p) ** p
        worst = max(worst, abs(lhs - rhs) / rhs)
    # p/q can reach 10, which amplifies eigenvalue rounding on ill-conditioned
    # draws by roughly (p/q) * kappa
    out.append(_result("mazur.norm_preservation", worst <= 1e-7, worst, 1e-7))

    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        f = _random_complex(rng, n)
        p, q, r = 2.0, 1.2, 0.7
        two_step = mazur_map(mazur_map(f, p, q).mat, q, r).mat
        one_step = mazur_map(f, p, r).mat
        worst = max(worst, np.abs(two_step - one_step).max())
    out.append(_result("mazur.composition", worst <= 1e-8, worst, 1e-8))

    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        cfg = ExponentConfig(alpha=float(rng.uniform(0.3, 2.0)),
                             s=float(rng.uniform(0.5, 2.0)), r=math.inf)
        d = _random_pdm(rng, n, -1.5, 1.5)
        x = _random_complex(rng, n)
        base = main_ratio(d, x, cfg)
        lam = float(rng.uniform(0.2, 5.0))
        scaled = main_ratio(PositiveDefiniteMatrix(lam * d.mat), x, cfg)
        worst = max(worst, abs(scaled - base) / base)
    out.append(_result("mazur.ratio_homogeneity", worst <= 1e-9, worst, 1e-9))

    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        p = float(rng.uniform(0.5, 2.0))
        q = float(rng.uniform(0.3, 1.0)) * p
        x = PositiveDefiniteMatrix(np.diag(np.exp(rng.uniform(-2, 2, n))).astype(complex))
        y = PositiveDefiniteMatrix(np.diag(np.exp(rng.uniform(-2, 2, n))).astype(complex))
        worst = max(worst, powers_diff_ratio(x, y, p, q) - p / q)
    out.append(_result("mazur.diagonal_ceiling", worst <= 1e-9, worst, 1e-9))

    return out


def verify_decomposition(seed=0, pairs=100, ts=(0.1, 0.3, 0.45), max_dim=6):
    rng = _rng(seed, "decomp")
    worst_res, worst_gap = 0.0, 0.0
    for _ in range(pairs):
        n = int(rng.integers(2, max_dim + 1))
        x = _random_pdm(rng, n, -2, 2)
        y = _random_pdm(rng, n, -2, 2)
        for t in ts:
            res, gap = decomposition_residual(x, y, t)
            scale = max(schatten_norm(x.mat, math.inf),
                        schatten_norm(y.mat, math.inf)) ** (1.0 + t)
            worst_res = max(worst_res, res / scale)
            worst_gap = max(worst_gap, gap / scale)
    return [
        _result("mazur.decomposition_identity", worst_res <= 1e-9, worst_res, 1e-9,
                detail="relative to max(||x||,||y||)^(1+t)"),
        _result("mazur.block_construction_agreement", worst_gap <= 1e-9,
                worst_gap, 1e-9),
    ]


# --- strip ---------------------------------------------------------------

def verify_poisson_mass(gammas=(0.1, 0.25, 0.5, 0.75, 0.9)):
    out = []
    worst1, worst_full = 0.0, 0.0
    for g in gammas:
        m1 = boundary_measure(g, BoundarySet((), ((-40.0, 40.0),)))
        mf = boundary_measure(g, BoundarySet.full())
        worst1 = max(worst1, abs(m1 - g))
        worst_full = max(worst_full, abs(mf - 1.0))
    out.append(_result("strip.poisson_mass_boundary1", worst1 <= 1e-6, worst1, 1e-6))
    out.append(_result("strip.poisson_mass_total", worst_full <= 1e-6,
                       worst_full, 1e-6))
    return out


def _random_boundary_sets(rng, count):
    """Yield `count` random boundary sets.

    Each set populates line 0 only with probability 0.2, else line 1 only
    with probability 0.25 (0.2 overall), else both lines (0.6).  A populated
    line gets 1 to 3 intervals [a, a + l], a uniform on [-4, 4) and l
    uniform on [0.05, 2), merged where they overlap.  The random numbers of
    the whole batch are drawn at the first step in one call per array; the
    sets are built one row at a time, so a batch is never held in memory.
    """
    branch = rng.uniform(size=(count, 2))
    ks = rng.integers(1, 4, size=(count, 2))
    a = rng.uniform(-4, 4, size=(count, 2, 3))
    ivs = np.stack((a, a + rng.uniform(0.05, 2.0, size=(count, 2, 3))), axis=-1)
    for i in range(count):
        b0, b1 = branch[i].tolist()
        (k0, k1), (line0, line1) = ks[i].tolist(), ivs[i].tolist()
        if b0 < 0.2:
            yield BoundarySet(line0[:k0], ())
        elif b1 < 0.25:
            yield BoundarySet((), line1[:k1])
        else:
            yield BoundarySet(line0[:k0], line1[:k1])


def verify_doubling(seed=0, sets_per_gamma=200,
                    gammas=(0.1, 0.25, 0.5, 0.75, 0.9)):
    rng = _rng(seed, "doubling")
    out = []
    worst_excess = -math.inf
    for g in gammas:
        for a in _random_boundary_sets(rng, sets_per_gamma):
            ratio, bound = doubling_ratio(g, a)
            worst_excess = max(worst_excess, ratio - bound)
    out.append(_result("strip.doubling_bound", worst_excess <= 0.0,
                       worst_excess, 0.0,
                       detail="max of ratio - 4/(1-|cos(g pi)|) over %d sets"
                       % (sets_per_gamma * len(gammas))))

    worst = -math.inf
    for b in _random_boundary_sets(rng, sets_per_gamma):
        worst = max(worst, cosh_measure(dilate(b)) - 2.0 * cosh_measure(b))
    out.append(_result("strip.cosh_doubling", worst <= 1e-9, worst, 1e-9,
                       detail="max of cosh(2.A) - 2 cosh(A) over %d sets"
                       % sets_per_gamma))
    return out


def verify_boundary_constancy(seed=0, families=50, alphas=(0.5, 1.0, 2.0),
                              grid_points=20, max_dim=5):
    rng = _rng(seed, "constancy")
    t_grid = np.linspace(-3.0, 3.0, grid_points)
    worst = 0.0
    count = 0
    for _ in range(families):
        n = int(rng.integers(2, max_dim + 1))
        d = _random_pdm(rng, n, -1.5, 1.5)
        x = _random_hermitian(rng, n)
        alpha = alphas[count % len(alphas)]
        count += 1
        q = float(rng.uniform(0.3, 2.0))
        fam = AnalyticFamily(d, x, alpha)
        base = schatten_norm(x @ positive_power(d, 1.0 + alpha), q)
        n0, n1 = boundary_norm_profile(fam, q, t_grid)
        worst = max(worst, np.abs(n0 - base).max() / base,
                    np.abs(n1 - base).max() / base)
    return [_result("strip.boundary_norm_constancy", worst <= 1e-8, worst, 1e-8)]


def verify_convexity_defect(seed=0, families=200, qs=(0.5, 1.0, 2.0), max_dim=4):
    rng = _rng(seed, "defect")
    minima = {q: math.inf for q in qs}
    done = attempts = 0
    # degenerate families are excluded; the cap keeps a generator that only
    # yields degenerate families from looping forever, and fails the check
    while done < families and attempts < 10 * families:
        attempts += 1
        n = int(rng.integers(2, max_dim + 1))
        d = _random_pdm(rng, n, -1.2, 1.2)
        x = _random_complex(rng, n)
        alpha = float(rng.uniform(0.3, 2.0))
        gamma0 = alpha / (1.0 + alpha)
        fam = AnalyticFamily(d, x, alpha)
        try:
            cache = BoundaryGridCache(fam, gamma0)
            defects = {q: convexity_defect(fam, gamma0, q, cache) for q in qs}
        except ValidationError:
            continue
        for q, v in defects.items():
            minima[q] = min(minima[q], v)
        done += 1
    overall = min(minima.values())
    return [_result("strip.convexity_defect_positive",
                    done == families and overall > 0.0, overall, 0.0,
                    detail="ensemble minima per q: %s; %d of %d families"
                    " excluded as degenerate"
                    % ({q: round(v, 6) for q, v in minima.items()},
                       attempts - done, attempts))]


# --- suite dispatch ------------------------------------------------------

MODULE_SUITES = {
    "matcore": lambda seed: verify_matcore(seed),
    "schatten": lambda seed: verify_schatten(seed),
    "kernels": lambda seed: (verify_loewner_positivity(seed)
                             + verify_tmap_algebra(seed)
                             + verify_rx_probe(seed)),
    "mazur": lambda seed: verify_mazur(seed) + verify_decomposition(seed),
    "strip": lambda seed: (verify_poisson_mass()
                           + verify_doubling(seed)
                           + verify_boundary_constancy(seed)
                           + verify_convexity_defect(seed)),
}


def run_suites(modules, seed=0):
    results = []
    for name in modules:
        if name not in MODULE_SUITES:
            raise ValueError("unknown module %r (known: %s)"
                             % (name, ", ".join(sorted(MODULE_SUITES))))
        results.extend(MODULE_SUITES[name](seed))
    return results
