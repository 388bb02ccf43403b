import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kamkit.divisors import (DivisorReport, ParameterGrid, _min_abs_sum_pairs,
                             check_A1, excise, lemma_cj, lemma_hermitian,
                             melnikov_scan)
from kamkit.lattice import build_partition, norm_sq


def unit_grid(res=64, n=1):
    return ParameterGrid(bounds=[(0.0, 1.0)] * n, resolution=res)


@given(st.one_of(
    st.lists(st.integers(-4, 4).map(float), max_size=24),      # with ties
    st.lists(st.floats(-3.0, 3.0, allow_nan=False), max_size=24)))
def test_min_abs_sum_pairs_matches_brute_force(vals):
    v = np.array(vals, dtype=float)
    brute = min((abs(v[a] + v[b]) for a in range(len(v))
                 for b in range(len(v)) if a != b), default=math.inf)
    assert _min_abs_sum_pairs(v) == brute


def test_grid_measure_and_centers():
    g = ParameterGrid(bounds=[(0.0, 2.0), (1.0, 2.0)], resolution=4)
    assert g.measure() == pytest.approx(2.0)
    assert g.cell_measure == pytest.approx(2.0 / 16)
    c = g.centers()
    assert c.shape == (16, 2)
    assert c[0] == pytest.approx([0.25, 1.125])


def test_grid_ball_mask():
    g = ParameterGrid(bounds=[(-1.0, 1.0), (-1.0, 1.0)], resolution=64,
                      ball=True)
    # inscribed disk of radius 1: area pi, to one-cell-layer accuracy
    assert g.measure() == pytest.approx(math.pi, abs=0.15)


def test_excise_nothing_at_zero_eps():
    g = unit_grid()
    bad, out = excise([lambda r: r[0] - 0.5], g, 0.0)
    assert bad == 0.0
    assert out.measure() == pytest.approx(1.0)


def test_excise_linear_divisor_closed_form():
    g = unit_grid(res=256)
    for eps in (0.02, 0.05, 0.1):
        bad, out = excise([lambda r: r[0] - 0.4], g, eps)
        assert bad == pytest.approx(2 * eps, abs=g.cell_measure + 1e-12)
        assert out.measure() == pytest.approx(1.0 - bad)


def test_excise_monotone_in_eps_and_family():
    g = unit_grid(res=128)
    f1 = lambda r: r[0] - 0.3
    f2 = lambda r: r[0] - 0.7
    prev = -1.0
    for eps in (0.01, 0.03, 0.09):
        bad, _ = excise([f1], g, eps)
        assert bad >= prev
        prev = bad
        bad2, _ = excise([f1, f2], g, eps)
        assert bad2 >= bad


def test_excise_survivors_excluded_from_later_scans():
    g = unit_grid(res=64)
    _, out = excise([lambda r: r[0] - 0.5], g, 0.1)
    bad2, out2 = excise([lambda r: r[0] - 0.5], out, 0.1)
    assert bad2 == 0.0  # already removed
    assert out2.measure() == pytest.approx(out.measure())


def beam_lambda(site, rho):
    # isolated well: radial tail, parameter shifts the zero mode
    v = rho[0] if norm_sq(site) == 0 else 0.1 / (1 + norm_sq(site))
    return math.sqrt(norm_sq(site) ** 2 + v + 0.5)


def test_check_A1_beam_all_pass():
    p = build_partition(math.inf, 3, 2)
    g = ParameterGrid(bounds=[(1.0, 2.0)], resolution=16)
    rep = check_A1(p.sites(), beam_lambda, p, g, delta0=1e-3, beta=2.0,
                   c_const=5.0)
    assert rep.passed
    assert rep.bad_measure == 0.0


def test_check_A1_detects_small_eigenvalue():
    p = build_partition(math.inf, 2, 2)

    def lam(site, rho):
        if norm_sq(site) == 0:
            return rho[0] - 1.5  # crosses zero mid-grid
        return beam_lambda(site, rho)

    g = ParameterGrid(bounds=[(1.0, 2.0)], resolution=32)
    rep = check_A1(p.sites(), lam, p, g, delta0=5e-2, beta=2.0, c_const=5.0)
    assert not rep.passed
    tags = set()
    for fails in rep.details["per_cell"].values():
        tags.update(fails)
    assert "a" in tags


def test_check_A1_condition_c_vacuous_without_hyperbolic():
    p = build_partition(math.inf, 2, 2)
    g = ParameterGrid(bounds=[(1.0, 2.0)], resolution=4)
    rep = check_A1(p.sites(), beam_lambda, p, g, delta0=1e-3, beta=2.0,
                   c_const=5.0, H_fn=None)
    assert rep.details["per_condition_bad_cells"]["c"] == 0


def test_check_A1_condition_c_with_hyperbolic_block():
    p = build_partition(math.inf, 2, 2, finite_set=((0, 0),))

    def H_fn(rho):
        return rho[0] * np.eye(2)

    def lam(site, rho):
        return beam_lambda(site, rho)

    g = ParameterGrid(bounds=[(1.0, 2.0)], resolution=8)
    rep = check_A1([s for s in p.sites() if s != (0, 0)], lam, p, g,
                   delta0=1e-3, beta=2.0, c_const=5.0, H_fn=H_fn)
    assert rep.details["per_condition_bad_cells"]["c"] == 0
    # a degenerate hyperbolic block trips (c)
    rep2 = check_A1([s for s in p.sites() if s != (0, 0)], lam, p, g,
                    delta0=1e-3, beta=2.0, c_const=5.0,
                    H_fn=lambda rho: np.zeros((2, 2)))
    assert rep2.details["per_condition_bad_cells"]["c"] > 0


def test_melnikov_zero_C_excises_nothing():
    p = build_partition(math.inf, 3, 2)
    g = ParameterGrid(bounds=[(1.0, 2.0)], resolution=16)
    rep = melnikov_scan(lambda rho: np.array([rho[0], 1.3 * rho[0]]),
                        beam_lambda, p, g, C=0.0, tau=3.0, K_max=5)
    assert rep.passed


def test_melnikov_bad_measure_monotone_in_C():
    p = build_partition(math.inf, 3, 2)
    g = ParameterGrid(bounds=[(1.0, 2.0)], resolution=32)
    omega = lambda rho: np.array([rho[0], 1.3 * rho[0]])
    prev = -1.0
    for C in (1e-4, 1e-2, 1.0):
        rep = melnikov_scan(omega, beam_lambda, p, g, C=C, tau=3.0, K_max=5)
        assert rep.bad_measure >= prev
        prev = rep.bad_measure


def test_melnikov_reports_surviving_cell():
    p = build_partition(math.inf, 3, 2)
    g = ParameterGrid(bounds=[(1.0, 2.0)], resolution=32)
    rep = melnikov_scan(lambda rho: np.array([rho[0], 1.3 * rho[0]]),
                        beam_lambda, p, g, C=1e-6, tau=3.0, K_max=5)
    assert rep.details["some_cell_passes"]


def test_lemma_hermitian_diagonal_closed_form():
    # A = diag(t + c_j), B = 0: bad set is N disjoint intervals, length 2 eps
    cs = [-0.2, -0.5, -0.8]
    eps = 0.01
    measure, report = lemma_hermitian(
        lambda t: np.array([t + c for c in cs]),
        lambda t: np.zeros((3, 3)), eps=eps, N=3, samples=20001)
    assert measure == pytest.approx(2 * 3 * eps, abs=3e-4)
    assert report["diag_derivative_ok"]
    assert report["B_derivative_ok"]


def test_lemma_hermitian_constant_shift():
    eps = 0.02
    measure, report = lemma_hermitian(
        lambda t: np.array([t]),
        lambda t: np.array([[-0.5]]), eps=eps, N=1, samples=20001)
    assert measure == pytest.approx(2 * eps, abs=3e-4)


def test_lemma_hermitian_flags_bad_hypotheses():
    _, report = lemma_hermitian(
        lambda t: np.array([0.5 * t]),           # slope below 1
        lambda t: np.array([[2.0 * t]]),         # derivative above 1/2
        eps=0.01, N=1, samples=501)
    assert not report["diag_derivative_ok"]
    assert not report["B_derivative_ok"]


def test_lemma_hermitian_random_paths_fitted_constant():
    rng = np.random.default_rng(7)
    eps = 0.01
    worst_ratio = 0.0
    for _ in range(20):
        cs = rng.uniform(-1, 0, size=4)
        M0 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        B0 = 0.05 * (M0 + M0.conj().T)
        measure, rep = lemma_hermitian(
            lambda t: np.array([t + c for c in cs]),
            lambda t: (1 + 0.3 * t) * B0, eps=eps, N=4, samples=4001)
        assert rep["diag_derivative_ok"] and rep["B_derivative_ok"]
        worst_ratio = max(worst_ratio, measure / (4 * eps))
    assert worst_ratio <= 4.0  # single fitted constant across the corpus


def test_lemma_cj_linear_exact():
    eps = 0.05
    measure, report = lemma_cj(lambda x: x, j=1, delta=1.0, eps=eps,
                               samples=40001)
    assert measure == pytest.approx(2 * eps, abs=2e-4)
    assert report["deriv_ok"]


def test_lemma_cj_monomial_closed_form():
    delta, eps = 0.5, 0.001
    measure, report = lemma_cj(lambda x: delta * x ** 2, j=2, delta=2 * delta,
                               eps=eps, samples=200001)
    # Leb{|delta x^2| < eps} = 2 sqrt(eps/delta)
    assert measure == pytest.approx(2 * math.sqrt(eps / delta), rel=0.02)
    assert report["closed_form_bound"] == pytest.approx(
        2 * (eps / (2 * delta)) ** 0.5)
    assert report["deriv_ok"]


def test_lemma_cj_reports_derivative_failure():
    _, report = lemma_cj(lambda x: math.sin(5 * x), j=1, delta=10.0,
                         eps=0.01, samples=2001)
    assert not report["deriv_ok"]


def test_report_dump_is_deterministic():
    rep = DivisorReport(tag="A1", bad_cells=[3, 1], bad_measure=0.25,
                        params={"delta0": 1e-3}, details={"z": 1, "a": 2})
    assert rep.dump_lines() == rep.dump_lines()
    assert "bad_measure=0.25" in rep.dump_lines()[0]
