"""End-to-end acceptance checks: each test pins one advertised guarantee of
the package at desk scale, with independent oracles where the guarantee is
not a direct identity."""
import itertools
import json
import math
import time

import numpy as np
import pytest

from kamkit.algebra import J2, WeightParams
from kamkit.blockmatrix import SeqVector, WeightedMatrix, matrix_norm, seq_norm
from kamkit.hamiltonian import ClassNormParams, class_norm
from kamkit.homological import DivisorGuard, class_tables, solve_homological
from kamkit.kam import Schedule, inner_count, run
from kamkit.lattice import (ball_points, build_partition, check_admissible,
                            max_diameter, norm_sq)
from kamkit.models import (BeamModel, NlsModel, SingularBeamModel,
                           build_beam, build_nls, build_singular)

from _reference_divisors import lemma_cj, lemma_hermitian
from _reference_homological import residual
from _reference_lattice import sphere_points
from _reference_models import enumerate_Z4

W = WeightParams(gamma1=0.4, gamma2=1.0, kappa=0.5, m_star=1.0)


def desk_beam(radius=6.0, epsilon=1e-4):
    model = BeamModel(d=2, radius=radius, nodes=((1, 0), (0, 2)),
                      rho=(0.7, 1.3), actions=(0.05, 0.04), tail={0: 0.5},
                      nonlinearity=((3, (0, 0), 1.0),), epsilon=epsilon,
                      delta=2, max_degree=4)
    return build_beam(model)


# 1 -- block diameters stay bounded in the merge parameter ----------------------

def test_block_diameter_bound():
    t0 = time.time()
    for d in (2, 3):
        exponent = math.factorial(d + 1) / 2
        diams = {delta: max_diameter(build_partition(delta, 40, d))
                 for delta in (1, 2, 3, 4, 5, 6)}
        fitted_c = max(md / delta ** exponent
                       for delta, md in diams.items())
        assert fitted_c < 25.0
        for delta, md in diams.items():
            assert md <= fitted_c * delta ** exponent
    assert time.time() - t0 < 60.0


# 2 -- norm algebra and operator bounds -----------------------------------------

def _random_matrix(rng, sites, density=0.08):
    """The blocks that ``WeightedMatrix.set`` would store for the sites (as
    tuples), in its order, gathered into one dict (a zero block is not
    stored)."""
    blocks = {}
    for a in sites:
        for b in sites:
            if rng.random() < density:
                M = (rng.standard_normal((2, 2))
                     + 1j * rng.standard_normal((2, 2)))
                if M.any():
                    blocks[a, b] = M
    return WeightedMatrix(blocks, truncation=8.0)


def test_norm_algebra_has_zero_violations():
    rng = np.random.default_rng(42)
    sites = ball_points(8, 2)
    violations = 0
    for _ in range(200):
        g1, g2 = rng.uniform(0.05, 0.6), rng.uniform(0.5, 2.0)
        kappa = rng.uniform(0.0, g2)          # algebra needs gamma2 >= kappa
        w = WeightParams(g1, g2, kappa)
        w0 = WeightParams(g1, g2, 0.0)
        A = _random_matrix(rng, sites)
        B = _random_matrix(rng, sites)
        lhs = matrix_norm(B.matmul(A), w)
        rhs = matrix_norm(A, w0) * matrix_norm(B, w)
        if lhs > rhs * (1 + 1e-12):
            violations += 1
    assert violations == 0
    for _ in range(200):
        g1, g2 = rng.uniform(0.05, 0.6), rng.uniform(0.5, 2.0)
        w = WeightParams(g1, g2, rng.uniform(0.0, g2))
        wt = WeightParams(rng.uniform(0.0, g1), rng.uniform(0.0, g2))
        A = _random_matrix(rng, sites)
        z = SeqVector()
        for s in sites:
            if rng.random() < 0.2:
                z.set(s, rng.standard_normal(2)
                      + 1j * rng.standard_normal(2))
        lhs = seq_norm(A.apply(z), wt)
        rhs = matrix_norm(A, w) * seq_norm(z, wt)
        if lhs > rhs * (1 + 1e-12):
            violations += 1
    assert violations == 0


# 3 -- admissibility against an exhaustive definition oracle --------------------

def _oracle_pair(a, b, spheres):
    """Direct evaluation of the definition on a pair, written independently:
    distinct norms, and each sphere-sphere intersection has <= 2 points."""
    if norm_sq(a) == norm_sq(b):
        return False, False
    strong = True
    for x, y in ((a, b), (b, a)):
        S = spheres[norm_sq(x)]
        t = sum((u - v) ** 2 for u, v in zip(x, y))
        hits = ((S - np.array(y)) ** 2).sum(axis=1) == t
        if int(hits.sum()) > 2:
            strong = False
    return True, strong


def test_admissibility_matches_exhaustive_oracle():
    t0 = time.time()
    pts = ball_points(4, 3)
    spheres = {q: np.array(sphere_points(q, 3))
               for q in sorted({norm_sq(p) for p in pts})}
    for a, b in itertools.combinations(pts, 2):
        rep = check_admissible([a, b])
        adm, strong = _oracle_pair(a, b, spheres)
        assert rep.admissible == adm
        assert rep.strongly_admissible == strong
    rep = check_admissible([(0, 1, 0), (1, -1, 0)])
    assert rep.admissible and not rep.strongly_admissible
    assert time.time() - t0 < 120.0


# 4 -- homological solve: residual and skip bounds ------------------------------

@pytest.fixture(scope="module")
def beam_solution():
    h, f = desk_beam()
    guard = DivisorGuard(delta0=1e-10)
    sol = solve_homological(h, f, guard, gamma1=0.4,
                            tables=class_tables(h))
    return h, f, sol


def test_homological_residual_small(beam_solution):
    t0 = time.time()
    h, f, sol = beam_solution
    p = ClassNormParams()
    res = class_norm(residual(h, f, sol).jet(), p, W)
    inp = class_norm(f.jet(), p, W)
    assert inp > 0
    assert res <= 1e-2 * inp
    assert time.time() - t0 < 600.0


def test_homological_skips_within_decay_bound(beam_solution):
    h, f, sol = beam_solution
    assert sol.skipped_report          # the desk instance does skip terms
    for k, ci, cj, coeff_norm, bound in sol.skipped_report:
        assert coeff_norm <= bound * (1 + 1e-12)


# 5 -- divisors are frozen within a super block ---------------------------------

def test_divisors_frozen_within_block(beam_solution):
    h, f, sol = beam_solution
    tables = class_tables(h)
    again = solve_homological(h, f + sol.h_tilde.to_polynomial(),
                              DivisorGuard(delta0=1e-10), gamma1=0.4,
                              tables=tables)
    shared = set(sol.guard.log) & set(again.guard.log)
    assert shared
    for key in shared:
        assert sol.guard.log[key].tobytes() == again.guard.log[key].tobytes()


# 6 -- super-linear convergence of the desk run ---------------------------------

@pytest.fixture(scope="module")
def beam_run():
    h, f = desk_beam()
    sched = Schedule(max_super=3, eps_target=1e-30)
    return run(h, f, sched, W), sched


def test_superlinear_eps_decay(beam_run):
    report, _ = beam_run
    assert report.aborted is None
    hist = report.eps_history
    assert len(hist) >= 4               # >= 3 completed super steps
    assert hist[1] <= hist[0] ** 1.5
    # the sampled norm bottoms out near double-precision roundoff on O(1)
    # coefficients, so clamp the contraction target at that floor
    floor = 1e-13
    for a, b in zip(hist[1:], hist[2:]):
        assert b <= max(a ** 1.5, floor)


def test_inner_counts_follow_log_rule(beam_run):
    report, sched = beam_run
    hist = report.eps_history
    # K is fixed from eps at the start of each super block; rows within a
    # block share it
    blocks = [(delta, [m["K"] for m in rows]) for delta, rows
              in itertools.groupby(report.state.metrics,
                                   key=lambda m: m["delta"])]
    assert len(blocks) == len(hist) - 1
    for k, (_delta, ks) in enumerate(blocks):
        expected = inner_count(hist[k], sched)
        assert set(ks) == {expected}
        assert len(ks) <= expected


# 7 -- measure lemmas against closed forms --------------------------------------

def test_measure_lemma_hermitian_closed_form():
    N = 3
    eps = 1e-3

    def A(t):
        return np.array([t - 0.2, t - 0.5, t - 0.8])

    def B(t):
        return np.zeros((N, N))

    measure, report = lemma_hermitian(A, B, eps, N, samples=20000)
    assert measure == pytest.approx(2 * N * eps, abs=4e-4)
    assert report["diag_derivative_ok"]
    assert report["B_derivative_ok"]


def test_measure_lemma_derivative_closed_form():
    j, delta, eps = 2, 1.0, 1e-4
    measure, report = lemma_cj(lambda t: t ** 2, j, delta, eps,
                               samples=40000)
    assert measure == pytest.approx(2 * math.sqrt(eps / delta), rel=0.02)


# 8 -- spectral dichotomy of the final normal form ------------------------------

def test_one_negative_mode_gives_one_unstable_pair():
    model = BeamModel(d=2, radius=3, nodes=((2, 1),), rho=(0.9,),
                      actions=(0.03,), tail={0: -1.0, 1: 0.2},
                      nonlinearity=((3, (0, 0), 1.0),), epsilon=1e-4,
                      delta=2, max_degree=4)
    h, f = build_beam(model)
    assert h.finite_set == ((0, 0),)
    report = run(h, f, Schedule(max_super=2), W)
    assert report.aborted is None
    Hf = report.state.h.hyperbolic_block
    ev = np.linalg.eigvals(np.kron(np.eye(Hf.shape[0] // 2), J2) @ Hf)
    tol = 1e-10 * max(1.0, np.abs(ev).max())
    assert int((ev.real > 10 * tol).sum()) == 1
    assert report.unstable_count == 1


def test_nls_spectrum_purely_imaginary():
    model = NlsModel(d=2, radius=3, mass=1.0, alpha=0.75, rho=(1.3, 0.7),
                     forcing=(((1, 0), 1, 1, (0, 0), 1.0),), epsilon=1e-3,
                     delta=2, max_degree=4)
    h, f = build_nls(model)
    report = run(h, f, Schedule(max_super=2), W)
    assert report.aborted is None
    assert report.unstable_count == 0
    assert report.a_inf_max_real <= 1e-8


# 9 -- quartic resonance enumeration vs brute force -----------------------------

def test_z4_enumeration_matches_brute_force():
    nodes = ((0, 1), (1, -1))
    R = 5
    table = enumerate_Z4(R, nodes, d=2)
    pts = ball_points(R, 2)
    brute = set()
    for i, j, k in itertools.product(pts, repeat=3):
        ell = tuple(-(x + y + z) for x, y, z in zip(i, j, k))
        if norm_sq(ell) > R * R:
            continue
        if sorted((norm_sq(i), norm_sq(j))) \
                == sorted((norm_sq(k), norm_sq(ell))):
            brute.add((i, j, k, ell))
    listed = {(i, j, k, ell) for i, j, k, ell, kind in table}
    assert listed == brute
    assert all(kind != "three" for *_ijkl, kind in table)


# 10 -- singular normal form scalings -------------------------------------------

def test_singular_scalings_over_a_decade():
    ts = np.logspace(-4, -3, 5)
    floors, jets = [], []
    for t in ts:
        model = SingularBeamModel(d=2, radius=5, nodes=((0, 1), (1, -1)),
                                  mass=1.37, actions=(t, 1.3 * t),
                                  quintic=1.0, max_degree=5)
        nf = build_singular(model)
        floors.append(nf.a2_floor)
        jets.append(nf.jet().max_coeff())
    # smallest resonant frequency ~ |I|
    slope_floor = np.polyfit(np.log(ts), np.log(floors), 1)[0]
    assert abs(slope_floor - 1.0) <= 0.3
    # remainder jet ~ |I|^{3/2}
    slope_jet = np.polyfit(np.log(ts), np.log(jets), 1)[0]
    assert abs(slope_jet - 1.5) <= 0.2 * 1.5
