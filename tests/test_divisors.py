import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import _reference_divisors as ref
from _reference_divisors import lemma_cj, lemma_hermitian
from kamkit.divisors import (DivisorReport, ParameterGrid, _min_abs_sum_pairs,
                             check_A1, excise, melnikov_scan)
from kamkit.lattice import ball_points, build_partition, norm_sq
from kamkit.models import BeamModel, NlsModel, build_beam, build_nls


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


def band(g, at, eps):
    """The cells whose centre is within eps of ``at`` on the first axis."""
    return np.abs(g.centers()[:, 0] - at) < eps


def test_excise_nothing_at_zero_eps():
    g = unit_grid()
    bad, out = excise(g, band(g, 0.5, 0.0))     # an empty mask
    assert bad == 0.0
    assert out.measure() == pytest.approx(1.0)
    assert out is not g and out.mask is not g.mask


def test_excise_linear_divisor_closed_form():
    g = unit_grid(res=256)
    for eps in (0.02, 0.05, 0.1):
        bad, out = excise(g, band(g, 0.4, eps))
        assert bad == pytest.approx(2 * eps, abs=g.cell_measure + 1e-12)
        assert out.measure() == pytest.approx(1.0 - bad)
        assert g.measure() == 1.0                   # the input is kept


def test_excise_monotone_in_eps_and_family():
    g = unit_grid(res=128)
    prev = -1.0
    for eps in (0.01, 0.03, 0.09):
        bad, _ = excise(g, band(g, 0.3, eps))
        assert bad >= prev
        prev = bad
        bad2, _ = excise(g, band(g, 0.3, eps) | band(g, 0.7, eps))
        assert bad2 >= bad


def test_excise_survivors_excluded_from_later_scans():
    # only surviving cells count: removal is idempotent, and a mask that
    # overlaps the removed cells removes only the rest
    g = unit_grid(res=64)
    _, out = excise(g, band(g, 0.5, 0.1))
    bad2, out2 = excise(out, band(g, 0.5, 0.1))
    assert bad2 == 0.0  # already removed
    assert out2.measure() == pytest.approx(out.measure())
    bad3, out3 = excise(out, band(g, 0.5, 0.2))
    assert bad3 == pytest.approx(out.measure() - out3.measure())
    assert bad3 == pytest.approx(0.2, abs=2 * g.cell_measure)


def beam_lambda(X, rho):
    # isolated well: radial tail, parameter shifts the zero mode; parameter
    # points on rho's last axis, one row of Lambda per point
    q = (X * X).sum(axis=1)
    v = np.where(q == 0, np.asarray(rho)[..., :1], 0.1 / (1 + q))
    return np.sqrt(q * q + v + 0.5)


def test_check_A1_beam_all_pass():
    p = build_partition(math.inf, 3, 2)
    g = ParameterGrid(bounds=[(1.0, 2.0)], resolution=16)
    rep = check_A1(p.sites(), beam_lambda, p, g, delta0=1e-3, beta=2.0,
                   c_const=5.0, H=np.zeros((0, 0)))
    assert not rep.bad_cells
    assert rep.bad_measure == 0.0


def test_check_A1_detects_small_eigenvalue():
    p = build_partition(math.inf, 2, 2)

    def lam(X, rho):
        # the zero mode crosses zero mid-grid
        return np.where((X == 0).all(axis=1), rho[..., :1] - 1.5,
                        beam_lambda(X, rho))

    g = ParameterGrid(bounds=[(1.0, 2.0)], resolution=32)
    rep = check_A1(p.sites(), lam, p, g, delta0=5e-2, beta=2.0, c_const=5.0,
                   H=np.zeros((0, 0)))
    assert rep.bad_cells
    tags = set()
    for fails in rep.details["per_cell"].values():
        tags.update(fails)
    assert "a" in tags


def test_check_A1_condition_c_vacuous_without_hyperbolic():
    p = build_partition(math.inf, 2, 2)
    g = ParameterGrid(bounds=[(1.0, 2.0)], resolution=4)
    rep = check_A1(p.sites(), beam_lambda, p, g, delta0=1e-3, beta=2.0,
                   c_const=5.0, H=np.zeros((0, 0)))
    assert rep.details["per_condition_bad_cells"]["c"] == 0


def test_check_A1_condition_c_with_hyperbolic_block():
    p = build_partition(math.inf, 2, 2, finite_set=((0, 0),))
    sites = [s for s in p.sites() if s != (0, 0)]
    g = ParameterGrid(bounds=[(1.0, 2.0)], resolution=8)

    def c_cells(H):
        rep = check_A1(sites, beam_lambda, p, g, delta0=1e-3, beta=2.0,
                       c_const=5.0, H=H)
        return rep.details["per_condition_bad_cells"]["c"]

    assert c_cells(np.eye(2)) == 0
    # H = 0 trips (c) through JH on every cell
    assert c_cells(np.zeros((2, 2))) == 8
    # H = L_a I for a = (1, 0): JH's singular values are L_a >= delta0,
    # but L_a I - iJH, whose eigenvalues are L_a -+ L_a, is singular
    L_a = beam_lambda(np.array([[1, 0]]), (0.0,))[0]
    assert L_a > 1e-3
    assert c_cells(L_a * np.eye(2)) == 8


def omega_13(rho):
    # frequencies (rho_0, 1.3 rho_0), one row per parameter point
    return rho[..., :1] * [1.0, 1.3]


def test_melnikov_zero_C_excises_nothing():
    p = build_partition(math.inf, 3, 2)
    g = ParameterGrid(bounds=[(1.0, 2.0)], resolution=16)
    rep = melnikov_scan(omega_13, beam_lambda, p, g, C=0.0, tau=3.0, K_max=5)
    assert not rep.bad_cells


def test_melnikov_bad_measure_monotone_in_C():
    p = build_partition(math.inf, 3, 2)
    g = ParameterGrid(bounds=[(1.0, 2.0)], resolution=32)
    counts = [len(melnikov_scan(omega_13, beam_lambda, p, g, C=C, tau=3.0,
                                K_max=5).bad_cells) for C in (1e-4, 1e-2, 1.0)]
    assert counts == [0, 2, 32]


def test_melnikov_reports_surviving_cell():
    p = build_partition(math.inf, 3, 2)
    g = ParameterGrid(bounds=[(1.0, 2.0)], resolution=32)
    rep = melnikov_scan(omega_13, beam_lambda, p, g, C=1e-6, tau=3.0,
                        K_max=5)
    assert rep.details["some_cell_passes"]


def test_melnikov_rejects_a_per_point_omega():
    # on the (32, 1) stack of centres, this map returns a (2, 1) array: two
    # rows of one frequency, not 32 rows of two
    p = build_partition(math.inf, 3, 2)
    g = ParameterGrid(bounds=[(1.0, 2.0)], resolution=32)
    with pytest.raises(ValueError):
        melnikov_scan(lambda rho: np.array([rho[0], 1.3 * rho[0]]),
                      beam_lambda, p, g, C=1e-2, tau=3.0, K_max=5)


@pytest.mark.parametrize("scan", ["A1", "melnikov"])
def test_scans_call_lambda_once(scan):
    p = build_partition(math.inf, 3, 2)
    g = ParameterGrid(bounds=[(1.0, 2.0)] * 2, resolution=8)
    calls = []

    def lam(X, rho):
        calls.append(np.shape(rho))
        return beam_lambda(X, rho)

    if scan == "A1":
        check_A1(p.sites(), lam, p, g, delta0=1e-3, beta=2.0, c_const=5.0,
                 H=np.zeros((0, 0)))
    else:
        melnikov_scan(omega_13, lam, p, g, C=1e-2, tau=3.0, K_max=5)
    assert calls == [(64, 2)]


def _beam(tail, R=3.0, delta=2.0):
    return BeamModel(d=2, radius=R, nodes=((1, 0), (0, 2)), rho=(0.7, 1.3),
                     actions=(0.05, 0.04), tail=tail, delta=delta)


@pytest.mark.parametrize("tail", [
    {0: 0.5}, {0: 0.5, 1: -2.0}, {0: 1, 1: 3, 4: -0.25, 9: 1e-3},
    {0: -7.3, 2: 0.1}])
def test_array_lambda_is_the_scalar_lambda_bit_for_bit(tail):
    # every site of the ball, the nodes included, at points where mu_a
    # changes sign on the nodes
    model = _beam(tail, R=5.0)
    h, _ = build_beam(model)
    sites = ball_points(5.0, 2)
    X = np.array(sites)
    for rho in [(0.7, 1.3), (-1.3, -17.0), (1, 2), np.array([0.1234567, 2.5])]:
        assert h.lambda_fn(X, rho).tolist() == [
            ref.beam_lambda(model)(a, rho) for a in sites]
    # Lambda on an (m, n) stack is one row per point, here over a 16 x 16
    # grid across rho_0 = -1 and rho_1 = -16, where mu_a changes sign on
    # the nodes (1,0) and (0,2)
    S = ParameterGrid(bounds=[(-2.0, 0.5), (-17.5, -14.0)],
                      resolution=16).centers()
    assert h.lambda_fn(X, S).tolist() == [
        [ref.beam_lambda(model)(a, rho) for a in sites] for rho in S]
    # omega on one point and on an (m, n) stack, at the points of a grid
    # over mu_a = |a|^4 + rho_j > 0 on the nodes
    P = ParameterGrid(bounds=[(-0.99, 3.0), (-15.9, 2.0)],
                      resolution=64).centers()
    want = [[math.sqrt(norm_sq(a) ** 2 + r[j])
             for j, a in enumerate(model.nodes)] for r in P.tolist()]
    assert h.omega_fn(P).tolist() == want
    assert h.omega_fn(P[5]).tolist() == want[5]
    h, _ = build_nls(NlsModel(d=2, radius=5.0, mass=1.37, alpha=0.75,
                              rho=(1.3, 0.7)))
    want = [ref.nls_lambda(1.37)(a, (1.3, 0.7)) for a in sites]
    assert h.lambda_fn(X, (1.3, 0.7)).tolist() == want
    assert h.lambda_fn(X, S).tolist() == [want] * len(S)


# The tail keeps mu_a away from 0 and from coincidences between spheres
# (which build_beam rejects): a well 0 < mu_0 < 1/2, |tail| < 1/2 on the
# spheres |a|^2 >= 1, and an optional dip of |a|^2 = 1 below zero, which
# makes that sphere (less the node (1,0)) the hyperbolic finite set.  (c)
# reads the model's H, H = 0, whose JH is singular, or H = L I with L =
# sqrt(1.7), the node (1,0)'s Lambda at rho* = (0.7, 1.3), which makes
# L_a I - iJH singular where L_a = L.  JH example: H = 0 over rho_0 in
# [-1.2, 0.4]; (c) fails through JH on all 36 cells.  L_a I - iJH example:
# H = L I over [0.5, 0.9] x [1.1, 1.5]; JH's singular values are L > delta0,
# and (c) fails on the 24 cells of the 4 columns around rho_0 = 0.7.
# All-fail example: each of the 12 cells inside the ball fails every A1
# condition and the Melnikov scan.  Shared-L example: the grid is symmetric
# about rho = (-1, -16), where the nodes' mu_a = |a|^4 + rho_j change sign,
# so all 4 cells share L_a = sqrt|mu_a| and one set of verdicts.
@given(tail=st.dictionaries(st.integers(1, 9), st.floats(-0.45, 0.45),
                            max_size=3),
       well=st.floats(0.05, 0.45), dip=st.none() | st.floats(1.05, 3.0),
       R=st.sampled_from([2.0, 3.0]), delta=st.sampled_from([1.0, 2.0,
                                                             math.inf]),
       lo=st.tuples(st.floats(-6.0, 2.0), st.floats(-6.0, 2.0)),
       width=st.floats(0.1, 4.0), resolution=st.integers(1, 6),
       ball=st.booleans(), delta0=st.floats(1e-6, 2.0),
       c_const=st.floats(0.1, 5.0),
       H_kind=st.sampled_from(["model", "zero", "lambda"]),
       C=st.floats(1e-4, 1.0), K_max=st.integers(1, 6))
@example(tail={}, well=0.5, dip=2.0, R=3.0, delta=2.0, lo=(-1.2, 1.1),
         width=1.6, resolution=6, ball=False, delta0=0.1, c_const=1.0,
         H_kind="zero", C=0.01, K_max=5)
@example(tail={}, well=0.5, dip=2.0, R=3.0, delta=2.0, lo=(0.5, 1.1),
         width=0.4, resolution=6, ball=False, delta0=0.05, c_const=1.0,
         H_kind="lambda", C=0.01, K_max=5)
@example(tail={}, well=0.5, dip=2.0, R=2.0, delta=math.inf, lo=(0.5, 1.1),
         width=0.4, resolution=4, ball=True, delta0=2.0, c_const=0.1,
         H_kind="model", C=1.0, K_max=6)
@example(tail={}, well=0.25, dip=2.0, R=2.0, delta=2.0, lo=(-1.5, -16.5),
         width=1.0, resolution=2, ball=False, delta0=1.0, c_const=1.0,
         H_kind="lambda", C=0.01, K_max=3)
def test_array_scans_match_per_site_oracle(tail, well, dip, R, delta, lo,
                                           width, resolution, ball, delta0,
                                           c_const, H_kind, C, K_max):
    tail = {**tail, 0: well} if dip is None else {**tail, 0: well, 1: -dip}
    model = _beam(tail, R=R, delta=delta)
    h, _ = build_beam(model)
    fin = h.partition.finite_set
    # the nodes stay in, so that Lambda depends on rho
    spheres = build_partition(math.inf, R, 2, finite_set=fin)
    blocks = build_partition(delta, R, 2, finite_set=fin)
    H = h.hyperbolic_block
    H = {"model": H, "zero": np.zeros_like(H),
         "lambda": h.omega[0] * np.eye(len(H))}[H_kind]
    grid = ParameterGrid(bounds=[(x, x + width) for x in lo],
                         resolution=resolution, ball=ball)
    a1 = dict(delta0=delta0, beta=1.0, c_const=c_const)
    assert check_A1(blocks.sites(), h.lambda_fn, spheres, grid, H=H, **a1) \
        == ref.check_A1(blocks.sites(), ref.beam_lambda(model), spheres,
                        grid, H_fn=lambda rho: H, **a1)
    omega = lambda rho: np.asarray(rho, dtype=float)
    mel = dict(C=C, tau=3.0, K_max=K_max)
    assert melnikov_scan(omega, h.lambda_fn, blocks, grid, **mel) \
        == ref.melnikov_scan(omega, ref.beam_lambda(model), blocks, grid,
                             **mel)


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
