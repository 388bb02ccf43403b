import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kamkit.hamiltonian import ETA, XI, NormalFormHamiltonian, Polynomial
from kamkit.homological import (
    DivisorGuard,
    _elliptic_divisors,
    _elliptic_solve,
    class_tables,
    solve_homological,
    solve_linear,
)
from kamkit.kam import Schedule, run
from kamkit.lattice import build_partition
from kamkit.models import build_singular

from _reference_algebra import check_normal_form, to_real_matrix
from _reference_hamiltonian import reality_defect
import _reference_homological as ref
from _reference_homological import det_certificate, residual
from test_acceptance import W
from test_kam_runs import closed_finite_beam, negative_mode_beam
from test_models import golden_singular_model


@dataclass
class OracleGuard:
    """The guard protocol of the per-pair oracle (``_reference_homological``):
    ``check(value, k, classes, channel)``, recording failures only."""
    delta0: float = 1e-8
    failures: list = field(default_factory=list)

    def check(self, value: float, k, classes, channel) -> bool:
        if value < self.delta0:
            self.failures.append((k, classes, channel, float(value)))
            return False
        return True


def make_h(seed=0, d=2, R=3, finite=((0, 1),), n=1, delta=math.inf,
           complex_Q=False):
    rng = np.random.default_rng(seed)
    part = build_partition(delta, R, d, finite_set=finite)
    h = NormalFormHamiltonian(omega=np.array([1.0 + 0.1 * j + math.pi / 9
                                              for j in range(n)]),
                              partition=part)
    for ci, cl in enumerate(part.classes):
        if ci == part.finite_index:
            continue
        m = len(cl)
        # dominant distinct diagonal keeps divisors away from zero
        diag = np.array([1.0 + abs(hash(a)) % 97 / 17.0 for a in cl])
        Q = np.diag(diag) + 0.05 * rng.standard_normal((m, m))
        if complex_Q:
            Q = Q + 0.05j * rng.standard_normal((m, m))
        h.set_block(ci, (Q + Q.conj().T) / 2)
    if finite:
        F = len(finite)
        H = rng.standard_normal((2 * F, 2 * F))
        h.hyperbolic_block = (H + H.T) / 2 + np.eye(2 * F)
    return h, part, rng


def realize(P):
    """Project a polynomial onto the real subspace of Hamiltonians."""
    Q = Polynomial(P.n)
    for (k, m, z), c in P.terms.items():
        Q.add_term(c / 2, k=k, m=m, z=dict(z))
        zz = {(v[0], 1 - v[1]) if v[0] != (0, 1) else v: p for v, p in z}
        Q.add_term(np.conj(c) / 2, k=tuple(-x for x in k), m=m, z=zz)
    return Q


def random_jet(rng, part, n=1, kmax=2, nterms=30, seed_sites=None):
    sites = seed_sites or list(part.sites())
    P = Polynomial(n)
    for _ in range(nterms):
        k = tuple(int(rng.integers(-kmax, kmax + 1)) for _ in range(n))
        kind = rng.integers(0, 4)
        c = rng.standard_normal() + 1j * rng.standard_normal()
        if kind == 0:
            P.add_term(c, k=k)
        elif kind == 1:
            m = [0] * n
            m[int(rng.integers(0, n))] = 1
            P.add_term(c, k=k, m=m)
        elif kind == 2:
            s = sites[int(rng.integers(0, len(sites)))]
            P.add_term(c, k=k, z={(s, int(rng.integers(0, 2))): 1})
        else:
            s1 = sites[int(rng.integers(0, len(sites)))]
            s2 = sites[int(rng.integers(0, len(sites)))]
            v1 = (s1, int(rng.integers(0, 2)))
            v2 = (s2, int(rng.integers(0, 2)))
            z = {v1: 2} if v1 == v2 else {v1: 1, v2: 1}
            P.add_term(c, k=k, z=z)
    return realize(P)


def test_zero_input():
    h, part, rng = make_h()
    f = Polynomial(1)
    sol = solve_homological(h, f, DivisorGuard(1e-8), tables=class_tables(h))
    assert len(sol.S) == 0
    assert len(residual(h, f, sol)) == 0
    assert not sol.skipped_report


def test_linear_solve_kills_jet():
    h, part, rng = make_h(seed=1)
    f = random_jet(rng, part)
    guard = DivisorGuard(1e-6)
    sol = solve_homological(h, f, guard, tables=class_tables(h))
    assert not guard.failures
    assert not sol.skipped_report  # spheres are whole classes here
    assert residual(h, f, sol).max_coeff() < 1e-10 * f.max_coeff()


def test_linear_solve_kills_jet_with_complex_Q():
    # complex Hermitian Q: the eta eigenbasis conj(U) is not the xi basis U
    h, part, rng = make_h(seed=11, complex_Q=True)
    assert max(np.abs(Q.imag).max() for Q in h.elliptic_blocks.values()) > 0
    f = random_jet(rng, part)
    guard = DivisorGuard(1e-6)
    sol = solve_homological(h, f, guard, tables=class_tables(h))
    assert not guard.failures
    assert residual(h, f, sol).max_coeff() < 1e-10 * f.max_coeff()


def test_solution_is_real():
    h, part, rng = make_h(seed=2)
    f = random_jet(rng, part)
    sol = solve_homological(h, f, DivisorGuard(1e-6),
                            tables=class_tables(h))
    assert reality_defect(f, finite_set=part.finite_set) < 1e-12
    assert reality_defect(sol.S, finite_set=part.finite_set) < 1e-9


def test_h_tilde_structure_and_normal_form():
    h, part, rng = make_h(seed=3)
    f = random_jet(rng, part, nterms=60)
    # add k=0 resonant pieces explicitly
    f.add_term(0.7)  # constant
    f.add_term(0.3, m=(1,))
    a = part.classes[2][0]
    f = f + realize(Polynomial(1, {((0,), (0,), (((a, 0), 1), ((a, 1), 1))):
                                   0.5 + 0j}))
    sol = solve_homological(h, f, DivisorGuard(1e-6),
                            tables=class_tables(h))
    ht = sol.h_tilde
    zero_k = (0,) * 1
    expect_c = f.terms.get((zero_k, zero_k, ()), 0.0)
    expect_chi = f.terms.get((zero_k, (1,), ()), 0.0)
    assert ht.const == pytest.approx(expect_c)
    assert ht.omega[0] == pytest.approx(expect_chi)
    # the quadratic part assembles to a normal-form matrix
    assert ht.partition is part
    assert check_normal_form(to_real_matrix(ht), part) == []


def test_single_monomial_closed_form():
    # 1x1 scalar block: X = F / (k.w - lam_a - lam_b)
    lamA = np.array([2.0])
    lamB = np.array([0.7])
    U = np.array([[1.0]])
    kw = 1.3
    R = np.array([[0.9]])
    div = _elliptic_divisors(kw, lamA, -1, lamB, -1)
    X = _elliptic_solve(U, U, np.conj(U), np.conj(U), R, div)
    assert div[0, 0] == pytest.approx(kw - 2.0 - 0.7)
    assert X[0, 0] == pytest.approx(0.9 / (kw - 2.7))


def test_elliptic_solver_residual_oracle():
    rng = np.random.default_rng(4)
    QA = rng.standard_normal((3, 3))
    QA = QA + QA.T
    QB = rng.standard_normal((2, 2))
    QB = QB + QB.T
    lamA, UA = np.linalg.eigh(QA)
    lamB, UB = np.linalg.eigh(QB)
    kw = 2.345
    R = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    X = _elliptic_solve(UA, UA, UB, UB, R,
                        _elliptic_divisors(kw, lamA, -1, lamB, 1))
    # residual of (kw)X - QA X + X QB = R
    res = kw * X - QA @ X + X @ QB - R
    assert np.abs(res).max() < 1e-10
    # the one-column (zeta-linear) case: (kw)x - QA x = r
    r = R[:, :1]
    x = _elliptic_solve(UA, UA, np.ones((1, 1)), np.ones((1, 1)), r,
                        _elliptic_divisors(kw, lamA, -1, np.zeros(1), 0))
    assert x.shape == (3, 1)
    assert np.abs(kw * x - QA @ x - r).max() < 1e-10


def finite_table(H):
    """``make_h``'s h, d = 1, with the hyperbolic block H on the finite
    sites 1, .., F (F = len(H) / 2), and its class table."""
    F = len(H) // 2
    h, _, _ = make_h(d=1, R=F + 1,
                     finite=tuple((i,) for i in range(1, F + 1)))
    h.hyperbolic_block = H
    return h, class_tables(h)


def basis(t, ci: int) -> tuple:
    """(lam, V, W, ids) of the class ci of the class table t, read from its
    group's stacks."""
    g, s = t.group[ci], t.slot[ci]
    return t.lam[g][s], t.V[g][s], t.W[g][s], t.ids[g][s]


def within_cond(smin, value, factor) -> bool:
    """smin in [value / factor, value * factor], up to roundoff."""
    return (value / factor * (1 - 1e-12) <= smin
            <= value * factor * (1 + 1e-12))


def test_mixed_solver_matches_lstsq():
    rng = np.random.default_rng(5)
    H = rng.standard_normal((4, 4))
    H = H + H.T
    J = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    JH = J @ H
    coef = 1.7 + 0.4j
    F = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    # the row system x (coef I - JH) = F, as the column system with JH^T;
    # times -i, -JH^T = H J enters on the left as V^{-T} diag(-nu) V^T: the
    # divisors are -i coef + i nu, the finite class's lam = i nu
    lam, V, W, _ = basis(finite_table(H)[1], 0)
    div = _elliptic_divisors(-1j * coef, lam, 1, np.zeros(1), 0)
    x = _elliptic_solve(V[1], W[1], np.ones((1, 1)), np.ones((1, 1)),
                        -1j * F[:, None], div)
    L = coef * np.eye(4) - JH
    oracle, *_ = np.linalg.lstsq(L.T, F, rcond=None)
    assert np.abs(x.ravel() - oracle).max() < 1e-10
    # the guard value is the least |divisor|: the system's smallest
    # singular value lies within a factor cond(V) of it
    assert within_cond(np.linalg.svd(L.T, compute_uv=False)[-1],
                       np.abs(div).min(), np.linalg.cond(V[0]))


def test_hyperbolic_solver_oracle():
    rng = np.random.default_rng(6)
    H = rng.standard_normal((2, 2))
    H = H + H.T
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    G = rng.standard_normal((2, 2))
    G = G + G.T
    # i(kw)Y + HJ Y - Y JH = -G; times -i, the finite class's eigenbasis
    # on both sides, with divisors kw + i nu_i + i nu_j
    lam, V, W, _ = basis(finite_table(H)[1], 0)
    div = _elliptic_divisors(2.1, lam, 1, lam, 1)
    Y = _elliptic_solve(V[1], W[1], V[0], W[0], 1j * G, div)
    res = 1j * 2.1 * Y + H @ J @ Y - Y @ J @ H + G
    assert np.abs(res).max() < 1e-10
    assert np.abs(Y - Y.T).max() < 1e-10
    # the Kronecker form's smallest singular value lies within a factor
    # cond(V)^2 of the least |divisor|
    L = (1j * 2.1 * np.eye(4) + np.kron(H @ J, np.eye(2))
         - np.kron(np.eye(2), (J @ H).T))
    assert within_cond(np.linalg.svd(L, compute_uv=False)[-1],
                       np.abs(div).min(), np.linalg.cond(V[0]) ** 2)


def mixed_rows(f, k, sites, finite_site, rng):
    """f plus a mixed row, with a random coefficient, for every variable
    of ``sites`` and every component of ``finite_site``, at k."""
    for a in sites:
        for c, e in ((0, 0), (0, 1), (1, 0), (1, 1)):
            f.add_term(rng.standard_normal() + 1j, k=k,
                       z={(a, c): 1, (finite_site, e): 1})
    return f


@pytest.mark.parametrize("k, ci", [((3,), 2), ((-1,), 2)])
def test_mixed_item_is_guarded_per_channel(k, ci):
    """A mixed item (the finite class 0 with the elliptic class ci) has one
    guard check per channel of ci, xi then eta, on its least |divisor| kw
    + i nu_i -+ lam_j.  With delta0 between the two channels' values, the
    solve logs both channels' divisors, records one failure and solves the
    other channel, whose rows are the per-pair oracle's; each channel's
    value is within a factor cond(V) of the oracle's smallest singular
    value over the channel's systems."""
    h, part, rng = make_h(seed=1, d=1, R=3, finite=((1,),))
    t = class_tables(h)
    lam, nu = basis(t, ci)[0], basis(t, 0)[0]
    kw = float(np.dot(k, h.omega))
    div = [_elliptic_divisors(kw, nu, 1, lam, s) for s in (-1, 1)]
    value = [float(np.abs(d).min()) for d in div]
    delta0 = sum(value) / 2
    fail = int(value[1] < value[0])
    f = mixed_rows(Polynomial(1), k, part.classes[ci], (1,), rng)
    guard = DivisorGuard(delta0)
    S, _, _ = solve_linear(h, f, guard, 0.4, t)
    key = (k, (0, ci))
    tags = ("mix-xi", "mix-eta")
    assert list(guard.log) == [(*key, tag) for tag in tags]
    for tag, d in zip(tags, div):
        assert guard.log[(*key, tag)].tobytes() == np.sort(
            d, axis=None).tobytes()
    assert guard.failures == [(*key, tags[fail], value[fail])]
    S_ref, _, _, ref_divlog = ref.solve_linear(
        h, f, OracleGuard(0.0), 0.4, ref.class_tables(h))
    passing = {z: c for z, c in S_ref.terms.items()
               if all(v[0] == (1,) or v[1] != fail for v, _ in z[2])}
    assert len(S) and S.terms.keys() == passing.keys()
    assert max(abs(S.terms[z] - c) for z, c in passing.items()) <= (
        1e-12 * max(map(abs, passing.values())))
    ne = len(lam)
    smin = ref_divlog[(*key, "mixed")]      # the xi systems, then the eta
    cond = np.linalg.cond(basis(t, 0)[1][0])
    for c in (XI, ETA):
        assert within_cond(min(smin[c * ne:(c + 1) * ne]), value[c], cond)


def test_det_certificate():
    # 1x1: L = t + c, first derivative of det is 1
    j, val = det_certificate(lambda t: np.array([[t + 0.3]]), 0.5, 3)
    assert j == 1 and val == pytest.approx(1.0, rel=1e-6)
    # frequencies only, two hyperbolic directions: det = (kw)^2, j = 2
    j, val = det_certificate(lambda t: (t + 0.3) * np.eye(2), 1.0, 4)
    assert j == 2 and val == pytest.approx(2.0, rel=1e-4)
    # flat function: no certificate
    j, val = det_certificate(lambda t: np.array([[1e-12]]), 0.5, 3)
    assert j is None


def test_guard_blocks_small_divisors():
    h, part, rng = make_h(seed=7)
    # a theta coefficient at k=1 with tiny k.omega is left unsolved
    h.omega = np.array([1e-9])
    f = Polynomial(1)
    f.add_term(1.0, k=(1,))
    f.add_term(1.0, k=(-1,))
    guard = DivisorGuard(1e-6)
    sol = solve_homological(h, f, guard, tables=class_tables(h))
    assert guard.failures
    assert residual(h, f, sol).max_coeff() == pytest.approx(1.0)


def test_skip_rule_bound():
    # delta=1 partition splits spheres; cross-class same-sphere pairs skipped
    h, part, rng = make_h(seed=8, delta=1, finite=())
    sphere_classes = {}
    for ci, cl in enumerate(part.classes):
        if ci in (part.finite_index, part.core_index):
            continue
        from kamkit.lattice import norm_sq
        sphere_classes.setdefault(norm_sq(cl[0]), []).append(ci)
    nsq, cis = next((k, v) for k, v in sphere_classes.items() if len(v) >= 2)
    a = part.classes[cis[0]][0]
    b = part.classes[cis[1]][0]
    f = realize(Polynomial(1, {((1,), (0,), (((a, 0), 1), ((b, 0), 1))):
                               0.25 + 0j}))
    sol = solve_homological(h, f, DivisorGuard(1e-8), gamma1=1.0,
                            tables=class_tables(h))
    assert sol.skipped_report
    for k, ci, cj, coeff, bound in sol.skipped_report:
        assert coeff <= bound * (1 + 1e-12)
    # skipped term survives in the residual
    assert residual(h, f, sol).max_coeff() > 0


def test_divisor_log_deterministic():
    h, part, rng = make_h(seed=9)
    f = random_jet(rng, part, nterms=40)
    s1 = solve_homological(h, f, DivisorGuard(1e-6),
                           tables=class_tables(h))
    s2 = solve_homological(h, f, DivisorGuard(1e-6),
                           tables=class_tables(h))
    assert list(s1.guard.log) == list(s2.guard.log)
    for key, d in s1.guard.log.items():
        assert d.tobytes() == s2.guard.log[key].tobytes()


def test_picard_shrinks_residual():
    h, part, rng = make_h(seed=10)
    f = random_jet(rng, part, nterms=25).scale(1e-2)
    # add a cubic non-jet piece so the nonlinear term is active
    sites = list(part.sites())
    cubic = Polynomial(1)
    for _ in range(10):
        vs = {}
        for _ in range(3):
            v = (sites[int(rng.integers(0, len(sites)))],
                 int(rng.integers(0, 2)))
            vs[v] = vs.get(v, 0) + 1
        cubic.add_term(0.1 * (rng.standard_normal()
                              + 1j * rng.standard_normal()),
                       k=(int(rng.integers(-1, 2)),), z=vs)
    f = f + realize(cubic)
    # the jet alone has no bracket: its solve is the linear one
    r1, r3 = (residual(h, f, solve_homological(
        h, F, DivisorGuard(1e-6), tables=class_tables(h))).max_coeff()
        for F in (f.jet(), f))
    assert r3 < r1
    assert r3 < 1e-6 * f.jet().max_coeff()


@st.composite
def linear_solve_cases(draw):
    """(seed, d, R, delta, finite, n, nterms, delta0): a ``make_h``
    instance, with the node (0, .., 0, 1) as its finite class or none, a
    ``random_jet`` of nterms terms on it, and the guard threshold."""
    d = draw(st.integers(1, 3))
    return (draw(st.integers(0, 2 ** 16)), d,
            draw(st.integers(2, 3 if d == 3 else 4)),
            draw(st.sampled_from([math.inf, 1, 2])), draw(st.booleans()),
            draw(st.integers(1, 2)), draw(st.integers(1, 80)),
            draw(st.sampled_from([1e-8, 0.3, 1.0])))


def _linear_solve_text(solve, tables, case) -> list:
    """Every output of one ``solve_linear`` on ``case`` but the finite
    class's items, with h's class tables from ``tables``, in order, floats
    by repr: S's rows, h_tilde, the skip report, the divisor log and the
    guard's failures.  (The finite class's items are solved in its
    eigenbasis, the oracle's by dense systems, so they agree only to
    roundoff: ``test_finite_items_match_the_dense_oracle``.)"""
    seed, d, R, delta, finite, n, nterms, delta0 = case
    h, part, rng = make_h(seed=seed, d=d, R=R, n=n, delta=delta,
                          finite=((0,) * (d - 1) + (1,),) if finite else ())
    f = random_jet(rng, part, n=n, nterms=nterms)
    if solve is solve_linear:
        guard = DivisorGuard(delta0)
        S, ht, skipped = solve(h, f, guard, 0.4, tables(h))
        divlog = guard.log
    else:
        guard = OracleGuard(delta0)
        S, ht, skipped, divlog = solve(h, f, guard, 0.4, tables(h))
    hyp = ht.hyperbolic_block
    fi = part.finite_index
    return [repr([(z, c) for z, c in S.terms.items()
                  if not any(v[0] in part.finite_set for v, _ in z[2])]),
            repr((ht.const, ht.omega.tolist(),
                  [(ci, Q.tolist()) for ci, Q in ht.elliptic_blocks.items()],
                  None if hyp is None else hyp.tolist())),
            repr(skipped),
            repr([(key, tuple(map(float, v))) for key, v in divlog.items()
                  if fi not in key[1]]),
            repr([x for x in guard.failures if fi not in x[1]])]


@given(linear_solve_cases())
# the guard fires on elliptic pairs (and a same-sphere skip)
@example(case=(3, 2, 2, 2, True, 2, 49, 1.0))
# a finite hyperbolic class: hyp, mixed and elliptic failures in one k
@example(case=(1, 1, 2, math.inf, True, 1, 80, 1.0))
# classes of three different sizes solved in one k
@example(case=(4, 3, 2, math.inf, True, 2, 11, 1e-8))
# a same-sphere skip
@example(case=(23, 2, 2, 1, False, 1, 40, 1e-8))
# a k = 0 block with off-diagonal entries goes to set_block
@example(case=(17, 2, 3, math.inf, False, 1, 71, 1e-8))
# zeta-linear channels without rows, in classes that have rows at k
@example(case=(5, 2, 3, 2, False, 2, 80, 0.3))
def test_batched_solve_matches_per_pair_loop(case):
    """The batched solve gives the per-pair loop's outputs bit for bit and
    in the same order, apart from the finite class's items: S's rows,
    h_tilde, the skip report, the divisor log and the guard's failures."""
    assert (_linear_solve_text(solve_linear, class_tables, case)
            == _linear_solve_text(ref.solve_linear, ref.class_tables, case))


def test_only_zeta_linear_channels_with_rows_are_checked():
    """A zeta-linear channel is checked, logged and failed only when it
    holds a row, as a zeta-quadratic block is.  On make_h seed 5 (d = 2,
    R = 3, delta = 2, no finite set, n = 2, 80 terms, delta0 0.3) the
    linear rows fill 34 channels, some of whose classes' other channel is
    empty at the same k, and those would fail below delta0."""
    h, part, rng = make_h(seed=5, d=2, R=3, n=2, delta=2, finite=())
    f = random_jet(rng, part, n=2, nterms=80)
    rows = {(k, (part.class_of[z[0][0][0]],),
             ("lin-xi", "lin-eta")[z[0][0][1]])
            for (k, m, z), c in f.jet().terms.items()
            if len(z) == 1 and z[0][1] == 1 and c != 0}
    guard = DivisorGuard(0.3)
    solve_linear(h, f, guard, 0.4, class_tables(h))
    assert len(rows) == 34
    assert {key for key in guard.log if key[2].startswith("lin")} == rows
    assert {x[:3] for x in guard.failures if x[2].startswith("lin")} <= rows


def _finite_block_h(name):
    """The h of a finite block: the negative_mode and closed_finite beams',
    the singular R=3 build's H_I on ``make_h``'s h, or ``make_h``'s own
    (seed, F)."""
    if name == "negative_mode":
        return negative_mode_beam()[0]
    if name == "closed_finite":
        return closed_finite_beam()[0]
    if name == "singular_R3":
        return finite_table(build_singular(golden_singular_model()).H_I)[0]
    seed, F = {"make_h_1": (1, 1), "make_h_4": (4, 2), "make_h_9": (9, 2)}[
        name]
    return make_h(seed=seed, d=1, R=3,
                  finite=tuple((i,) for i in range(1, F + 1)))[0]


@pytest.mark.parametrize("name", ["negative_mode", "closed_finite",
                                  "singular_R3", "make_h_1", "make_h_4",
                                  "make_h_9"])
def test_finite_items_match_the_dense_oracle(name):
    """Every zeta-linear, hyperbolic and mixed item of the finite class,
    solved in J H's eigenbasis, against the per-pair oracle's dense
    systems: S within 1e-12 relative, h_tilde's finite block bit for bit,
    and each oracle system's smallest singular value within a factor
    cond(V)^p of the least |divisor| of its check (p = 2 for ``hyp``, the
    Kronecker system, else 1; a mixed channel against its systems'
    least)."""
    h = _finite_block_h(name)
    rng = np.random.default_rng(0)
    part, n = h.partition, h.n
    fin = sorted(part.finite_set)
    w = [(a, c) for a in fin for c in (0, 1)]
    ell = next(cl for ci, cl in enumerate(part.classes)
               if ci != part.finite_index and len(cl) > 1)
    f = Polynomial(n)
    for k in [(0,) * n, (1,) + (0,) * (n - 1), (-2,) + (1,) * (n - 1)]:
        for i, u in enumerate(w):
            f.add_term(rng.standard_normal() + 1j, k=k, z={u: 1})
            for v in w[i:]:
                z = {u: 2} if u == v else {u: 1, v: 1}
                f.add_term(rng.standard_normal() + 1j, k=k, z=z)
        for a in fin:
            f = mixed_rows(f, k, ell, a, rng)
    t = class_tables(h)
    guard = DivisorGuard(0.0)
    S, ht, _ = solve_linear(h, f, guard, 0.4, t)
    S_ref, ht_ref, _, ref_divlog = ref.solve_linear(
        h, f, OracleGuard(0.0), 0.4, ref.class_tables(h))
    assert S.terms.keys() == S_ref.terms.keys()
    assert max(abs(S.terms[z] - c) for z, c in S_ref.terms.items()) <= (
        1e-12 * max(map(abs, S_ref.terms.values())))
    assert ht.hyperbolic_block.tobytes() == ht_ref.hyperbolic_block.tobytes()
    cond = np.linalg.cond(basis(t, part.finite_index)[1][0])
    tags = {"lin-hyp", "hyp", "mix-xi", "mix-eta"}
    checks = [(key, d) for key, d in guard.log.items() if key[2] in tags]
    assert {key[2] for key, _ in checks} == tags
    for (k, classes, tag), d in checks:
        if tag.startswith("mix"):
            smin = ref_divlog[(k, classes, "mixed")]
            ne = len(part.classes[classes[1]])
            c = ("mix-xi", "mix-eta").index(tag)
            smin, p = min(smin[c * ne:(c + 1) * ne]), 1
        else:
            (smin,), p = ref_divlog[(k, classes, tag)], 1 + (tag == "hyp")
        assert within_cond(smin, float(np.abs(d).min()), cond ** p)


def test_a_jordan_block_aborts_the_run_at_tables():
    """F = 1 with H = diag(1, 0): J H is nilpotent, a Jordan block, so it
    has no eigenbasis, and ``run`` reports the stage ``tables``."""
    h, part, rng = make_h(seed=1, d=1, R=3, finite=((1,),))
    h.hyperbolic_block = np.diag([1.0, 0.0])
    report = run(h, random_jet(rng, part).scale(1e-3), Schedule(max_super=1),
                 W)
    assert report.aborted is not None and report.aborted.stage == "tables"
