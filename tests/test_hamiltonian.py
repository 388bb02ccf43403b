import cmath
import itertools
import json
import math
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy import sparse

from kamkit import hamiltonian as H, homological
from kamkit.algebra import WeightParams
from kamkit.blockmatrix import WeightedMatrix, matrix_norm
from kamkit.cli import build_model
from kamkit.hamiltonian import (
    ClassNormParams,
    NormalFormHamiltonian,
    Polynomial,
    StageAbort,
    class_norm,
    decode_jet,
    encode,
    lie_transform,
    poisson,
)
from kamkit.homological import (PRUNE_TOL, DivisorGuard, class_tables,
                                solve_homological, solve_linear)
from kamkit.lattice import build_partition

from _reference_class_norm import (dense_hessian, dense_hessian_norm,
                                   per_angle_class_norm, reference_class_norm)
import _reference_hamiltonian as ref
from _reference_hamiltonian import (_mul_dict, _z_derivative_table, diff_r,
                                    evaluate, hessian_decay_check,
                                    reality_defect)
from test_acceptance import desk_beam
from test_kam_runs import negative_mode_beam

A = (2, 1)
B = (1, 2)
W = WeightParams(0.3, 1.5, 0.5, m_star=1.0)
EXAMPLES = Path(__file__).parents[1] / "examples"


def random_poly(rng, n=1, nterms=6, sites=(A, B)):
    p = Polynomial(n)
    for _ in range(nterms):
        k = tuple(int(rng.integers(-2, 3)) for _ in range(n))
        m = tuple(int(rng.integers(0, 2)) for _ in range(n))
        z = {}
        for _ in range(int(rng.integers(0, 3))):
            v = (sites[int(rng.integers(0, len(sites)))],
                 int(rng.integers(0, 2)))
            z[v] = z.get(v, 0) + 1
        p.add_term(rng.standard_normal() + 1j * rng.standard_normal(),
                   k=k, m=m, z=z)
    return p


def test_polynomial_ring_ops():
    p = ref.as_rows(ref.Polynomial.constant(1, 2.0))
    q = Polynomial(1)
    q.add_term(3.0, k=(1,), m=(1,))
    prod = p.mul(q)
    assert prod.terms[((1,), (1,), ())] == 6.0
    assert len(p + q) == 2
    assert len(p - p) == 0


# B is the hyperbolic node of the flow-oracle test below and (0, 1) that of
# the normal-form test; to a product every (site, component) variable is alike
SITES = (A, B, (0, 1))
# small exact values make sums cancel to exactly zero; the rest are generic
COEFFS = st.sampled_from([1.0, -1.0, 2.0, 0.5, 1j, -1j, 1 - 1j]) | \
    st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                       allow_infinity=False)


# -- row operations against the dict class they replaced ----------------------

@st.composite
def row_cases(draw, kscales=(1, 2 ** 40)):
    """n = 0..2 and two lists of (monomial, coefficient) rows drawn from one
    pool of up to four monomials, so that sums cancel to exactly zero and
    come back.  Lists may be empty, monomials may have no z variables, and
    k scaled by 2**40 takes the merge past its packed int64 key
    (``_key``)."""
    n = draw(st.integers(0, 2))
    kscale = draw(st.sampled_from(kscales))
    ints = lambda lo, hi: st.lists(st.integers(lo, hi), min_size=n,
                                   max_size=n)
    z = st.dictionaries(st.tuples(st.sampled_from(SITES), st.integers(0, 1)),
                        st.integers(1, 3), max_size=3)
    pool = draw(st.lists(st.tuples(
        ints(-3, 3).map(lambda k: tuple(kscale * x for x in k)),
        ints(0, 2).map(tuple), st.just({}) | z), min_size=1, max_size=4))
    rows = st.lists(st.tuples(st.sampled_from(pool), COEFFS), max_size=12)
    return n, draw(rows), draw(rows)


def _built(n, rows):
    """The package polynomial and the dict oracle after the same
    ``add_term`` calls."""
    P, R = Polynomial(n), ref.Polynomial(n)
    for (k, m, z), c in rows:
        P.add_term(c, k=k, m=m, z=z)
        R.add_term(c, k=k, m=m, z=z)
    return P, R


@given(row_cases(), COEFFS | st.sampled_from([0.0, -1.0]),
       st.sampled_from([0.0, 1e-3, 0.5, 2.0]), st.integers(0, 8))
def test_row_operations_match_dict_oracle(case, c, tol, degree):
    """Keys, order and coefficient bits of every row operation, against the
    dict class.  N = Q.scale(-1.0) holds -0.0 parts and T = P.scale(5e-324)
    exact zeros; a sum with them starts at 0, so it holds neither."""
    n, rows1, rows2 = case
    (P, R), (Q, S) = _built(n, rows1), _built(n, rows2)
    assert _items(P) == _items(R) and _items(Q) == _items(S)
    assert ref.as_dict(P).z_vars() == R.z_vars()
    assert P.max_coeff() == R.max_coeff()
    D, E = P - Q, R - S
    N, O = Q.scale(-1.0), S.scale(-1.0)
    T, U = P.scale(5e-324), R.scale(5e-324)
    pairs = [(P + Q, R + S), (D, E), (N + P, O + R), (N + N, O + O),
             (T + Q, U + S), (P.scale(c), R.scale(c)),
             (D.truncate_degree(degree), E.truncate_degree(degree)),
             (D.jet(), E.jet()), (D.without_jet(), E.without_jet())]
    for got, want in pairs:
        assert _items(got) == _items(want)
        assert ref.as_dict(got).z_vars() == want.z_vars()
        assert got.max_coeff() == want.max_coeff()
    for (k, m, z), c1 in rows1[:2]:
        N.add_term(c1, k=k, m=m, z=z)
        O.add_term(c1, k=k, m=m, z=z)
    assert _items(N) == _items(O)
    F, G = D - P, E - R
    assert F.prune(tol) is F and _items(F) == _items(G.prune(tol))
    F, G = D + Q, E + S
    assert F.prune(tol / 4, tol) is F
    assert _items(F) == _items(G.prune(tol / 4, tol))
    top = P.max_coeff()                # a cut at a coefficient drops it
    assert _items(P.prune(top)) == _items(R.prune(top))


@given(row_cases(kscales=(1,)), st.integers(0, 2 ** 32 - 1))
def test_evaluate_matches_term_loop(case, seed):
    n, rows, _ = case
    P, R = _built(n, rows)
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(n) + 0.1j * rng.standard_normal(n)
    r = rng.standard_normal(n)
    # the variables of (0, 1) are missing, so they evaluate to 0
    zvals = {(s, c): complex(*rng.standard_normal(2)) for s in (A, B)
             for c in (0, 1)}
    each = [ref.Polynomial(n, {key: c}).evaluate(theta, r, zvals)
            for key, c in R.terms.items()]
    assert abs(evaluate(P, theta, r, zvals) - R.evaluate(theta, r, zvals)) \
        <= 1e-13 * sum(map(abs, each))


@st.composite
def polynomials(draw, n, kscale=1):
    p = Polynomial(n)
    for _ in range(draw(st.integers(1, 10))):
        k = tuple(kscale * x for x in draw(st.lists(
            st.integers(-3, 3), min_size=n, max_size=n)))
        m = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        z = draw(st.dictionaries(st.tuples(st.sampled_from(SITES),
                                           st.integers(0, 1)),
                                 st.integers(1, 3), max_size=3))
        p.add_term(draw(COEFFS), k=k, m=m, z=z)
    return p


def assert_same_product(P, Q, max_degree, tol):
    """Keys, order and coefficient bits of the product and the pair loop."""
    assert _items(P.mul(Q, max_degree, tol)) == \
        _items(_mul_dict(P, Q, max_degree, tol))


@given(st.data())
def test_packed_product_matches_dict_loop(data):
    n = data.draw(st.integers(1, 3))
    kscale = data.draw(st.sampled_from([1, 2 ** 40]))   # 2**40: wide keys
    P = data.draw(polynomials(n, kscale))
    Q = data.draw(polynomials(n, kscale))
    max_degree = data.draw(st.none() | st.integers(0, 8))
    tol = data.draw(st.sampled_from([0.0, 0.5, 1e-3]))
    assert_same_product(P, Q, max_degree, tol)


def test_packed_product_cancels_exactly():
    x, y = ((A, 0), 1), ((B, 1), 1)
    P, Q = Polynomial(1), Polynomial(1)
    for c, z in ((1.0, x), (1.0, y)):
        P.add_term(c, z=(z,))
    for c, z in ((1.0, x), (-1.0, y)):
        Q.add_term(c, z=(z,))
    prod = P.mul(Q)
    assert prod.terms == _mul_dict(P, Q, None, 0.0).terms
    assert prod.terms == {((0,), (0,), (((A, 0), 2),)): 1.0,
                          ((0,), (0,), (((B, 1), 2),)): -1.0}


def test_square_keeps_each_monomial_at_its_first_pair():
    """(1 + x - x^2)^2: the x^2 pairs sum -1, +1, -1, and x^3 first comes
    between them.  ``mul``, ``encode`` of the same pair rows and the pair
    loop each keep x^2 at its first pair, before x^3."""
    x = (A, 0)
    P = Polynomial(0, {((), (), ()): 1.0, ((), (), ((x, 1),)): 1.0,
                       ((), (), ((x, 2),)): -1.0})
    powers = [0, 1, 2]
    pairs = [(c1 * c2, p1 + p2) for p1, c1 in zip(powers, P.terms.values())
             for p2, c2 in zip(powers, P.terms.values())]
    Z = [[0] * p + [-1] * (4 - p) for _, p in pairs]
    rows = encode(0, [x], Z, [c for c, _ in pairs])
    got = P.mul(P)
    assert [z for _, _, z in got.terms] == \
        [(), ((x, 1),), ((x, 2),), ((x, 3),), ((x, 4),)]
    assert _items(got) == _items(rows) == _items(_mul_dict(P, P, None, 0.0))


def test_product_tol_cut_is_pythons_abs():
    """|c| is a hair above tol by Python's ``abs`` (hypot), at or below it
    by ``np.abs``: the product keeps the term, as the pair loop does."""
    c, tol = 0.345584192064786 + 0.8216181435011584j, 0.8913387725973558
    assert abs(c) > tol
    P, Q = (ref.as_rows(ref.Polynomial.constant(0, x)) for x in (c, 1.0))
    got = P.mul(Q, tol=tol)
    assert len(got) == 1
    assert _items(got) == _items(_mul_dict(P, Q, None, tol))


def test_abs_at_a_cut_decides_as_hypot():
    """Sizes taken against a cut compare with it, and their max does, as
    hypot's do, also at cuts that equal a size or sit an ulp off it."""
    rng = np.random.default_rng(9)
    C = (rng.standard_normal(4000) + 1j * rng.standard_normal(4000)) \
        * np.exp(rng.uniform(-40, 40, 4000))
    exact = np.hypot(C.real, C.imag)
    cuts = [0.0] + [f(x) for x in exact[:200] for f in
                    (float, lambda x: np.nextafter(x, 0),
                     lambda x: np.nextafter(x, np.inf))]
    for cut in cuts:
        got = H._abs(C, cut)
        assert np.array_equal(got > cut, exact > cut)
        assert np.array_equal(got < cut, exact < cut)
        assert (got.max() < cut) == (exact.max() < cut)
    cut = np.where(np.arange(4000) % 2, exact, np.nextafter(exact, 0))
    assert np.array_equal(H._abs(C, cut) > cut, exact > cut)


def test_packed_product_wide_keys_stay_distinct():
    # k digits spanning 2**32 each put the stride of the first m digit at
    # 2**64: a packed int64 key would wrap and merge monomials that differ
    # only in m, so this product's key must be folded by ranks (``_key``)
    big = 2 ** 31
    P, Q = Polynomial(2), Polynomial(2)
    for k in ((0, 0), (big, big)):
        for i, m in enumerate(((0, 0), (1, 0), (0, 1))):
            P.add_term(1.0 + i, k=k, m=m, z={(A, 0): 1})
    for k in ((0, 0), (big - 1, big - 1)):
        Q.add_term(1.0, k=k, m=(0, 0))
        Q.add_term(0.5j, k=k, m=(1, 1), z={(A, 0): 2})
    prod = P.mul(Q)
    assert len(prod) == len(P) * len(Q)       # all pairs are distinct
    assert prod.terms == _mul_dict(P, Q, None, 0.0).terms


def _all_pairs_case():
    """U = sum_u c_u z_u and W = sum_v d_v z_v over 400 variables z: their
    product holds every z_u z_v, some 80,000 monomials, too many for their
    packed keys (ids times strides) to fit in 2**16 values, while the ids
    themselves are packed as int16."""
    rng = np.random.default_rng(5)
    U, W = Polynomial(0), Polynomial(0)
    for P in (U, W):
        for s in range(200):
            for c in (0, 1):
                P.add_term(complex(*rng.standard_normal(2)),
                           z={((s, 0), c): 1})
    return U, W


def test_packed_keys_past_int16_stay_distinct():
    U, W = _all_pairs_case()
    assert_same_product(U, W, None, 0.0)
    # the first product of {x U, y W}, x and y the pair of a hyperbolic
    # site, is U W
    x, y = Polynomial(0), Polynomial(0)
    x.add_term(1.0, z={(B, 0): 1})
    y.add_term(1.0, z={(B, 1): 1})
    F, G = x.mul(U), y.mul(W)
    got, want = poisson(F, G, [B]), ref.poisson(F, G, [B])
    assert len(got) == len(want)        # fails fast, without a long diff
    assert _items(got) == _items(want)


def test_evaluate_and_diff():
    p = Polynomial(1)
    p.add_term(2.0, k=(1,), m=(1,), z={((1, 0), 0): 2})
    th, r, zv = np.array([0.3]), np.array([0.7]), {((1, 0), 0): 1.5 + 0.5j}
    val = evaluate(p, th, r, zv)
    assert val == pytest.approx(2.0 * np.exp(0.3j) * 0.7 * (1.5 + 0.5j) ** 2)
    dp = diff_r(p, 0)
    assert dp.evaluate(th, r, zv) == pytest.approx(val / 0.7)
    dz = _z_derivative_table(p)[((1, 0), 0)]
    assert dz.evaluate(th, r, zv) == pytest.approx(2 * val / (1.5 + 0.5j))


def _layout(P) -> dict:
    """Ids for P's variables in sorted order: a layout ``decode_jet`` can
    read P's jet over."""
    return {v: i for i, v in enumerate(P.zvars)}


def _encode_jet(var_id, K, M, U, V, C):
    """``decode_jet``'s rows over ``var_id`` encoded back into a
    polynomial."""
    quad = V >= 0
    Z = np.stack([np.where(quad, np.minimum(U, V), U),
                  np.where(quad, np.maximum(U, V), V)], axis=1)
    # each form entry of 1/2 <Hz, z> carries half of its monomial
    return encode(K.shape[1], list(var_id), Z, np.where(quad, C / 2, C),
                  K=K, M=M)


def test_jet_extract_examples():
    # H = r_1 -> one jet row, the r-linear term e_1 at k=0
    p = Polynomial(2)
    p.add_term(1.0, m=(1, 0))
    K, M, U, V, C = decode_jet(p, {})
    assert (K.tolist(), M.tolist()) == ([[0, 0]], [[1, 0]])
    assert (U.tolist(), V.tolist(), C.tolist()) == ([-1], [-1], [1.0])
    # H = |zeta_a|^2 r_1 -> empty jet
    q = Polynomial(2)
    q.add_term(1.0, m=(1, 0), z={((2, 1), 0): 1, ((2, 1), 1): 1})
    K, M, U, V, C = decode_jet(q, {})
    assert len(C) == 0


def test_jet_idempotent_and_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = random_poly(rng, n=2)
        jp = p.jet()
        assert jp.jet().terms == jp.terms
        # jet() and without_jet() split P's terms, each in P's order
        items = list(p.terms.items())
        assert ([kv for kv in items if kv[0] in jp.terms],
                [kv for kv in items if kv[0] not in jp.terms]) == \
            (list(jp.terms.items()), list(p.without_jet().terms.items()))
        back = _encode_jet(_layout(p), *decode_jet(p, _layout(p)))
        diff = back - jp
        assert diff.max_coeff() < 1e-12


def _normal(P) -> bool:
    """No subnormal parts: halving a form entry back is then exact."""
    return all(x == 0 or abs(x) > 1e-300
               for c in P.terms.values() for x in (c.real, c.imag))


@given(polynomials(2).filter(_normal))
def test_decode_then_encode_gives_back_the_jet(P):
    back = _encode_jet(_layout(P), *decode_jet(P, _layout(P)))
    assert repr(list(back.terms.items())) == repr(list(P.jet().terms.items()))


def test_decode_jet_reads_a_whole_jet_in_place(monkeypatch):
    """A polynomial that is all jet is read without a copy, and gives the
    rows that its jet gives when read out of a larger polynomial."""
    P = random_poly(np.random.default_rng(3), n=2, nterms=12)
    J = P.jet()
    assert 0 < len(J) < len(P)
    want = decode_jet(P, _layout(P))
    monkeypatch.setattr(Polynomial, "_take", lambda *args: pytest.fail(
        "decode_jet copied a polynomial that is all jet"))
    got = decode_jet(J, _layout(P))
    assert [(x.dtype, repr(x.tolist())) for x in got] == \
        [(x.dtype, repr(x.tolist())) for x in want]


def test_decode_jet_reads_a_complete_layout_only():
    """A layout without one of the jet's variables is a KeyError and is
    left as it was; a variable outside the jet need not be in it."""
    P = Polynomial(1)
    P.add_term(1.0, z={(A, 0): 1, (B, 1): 1})
    P.add_term(2.0, z={((0, 1), 0): 3})
    var_id = {(A, 0): 0}
    with pytest.raises(KeyError):
        decode_jet(P, var_id)
    assert var_id == {(A, 0): 0}
    var_id[(B, 1)] = 1
    K, M, U, V, C = decode_jet(P, var_id)
    # (B, 1) sorts before (A, 0): the row reads (1, 0), its mirror (0, 1)
    assert (U.tolist(), V.tolist(), C.tolist()) == ([1, 0], [0, 1], [1, 1])


# (k, m, id pair over MERGE_VARS, z-key): a few monomials, so rows repeat
MERGE_VARS = [(A, 0), (A, 1), (B, 0)]
MONOMIALS = [((0,), (0,), (-1, -1), ()),
             ((1,), (0,), (0, -1), (((A, 0), 1),)),
             ((0,), (1,), (0, 2), (((A, 0), 1), ((B, 0), 1))),
             ((-1,), (0,), (1, 1), (((A, 1), 2),))]


@given(st.lists(st.tuples(st.integers(0, len(MONOMIALS) - 1),
                          st.sampled_from([1.0, -1.0, 2.0, 0.5j, -0.5j,
                                           0.0])), max_size=12))
@example(rows=[(1, 1.0), (2, 2.0), (1, -1.0), (1, 3.0)])  # cancel, revive
@example(rows=[(3, 0.5j), (0, 1.0), (3, -0.5j)])          # cancel for good
def test_encode_sums_rows_from_zero_at_first_place(rows):
    """Zero rows are skipped; each monomial's sum starts at 0 and adds its
    rows in order, and it keeps the place of its first row even when its
    sum passes through zero."""
    want = ref.Polynomial(1)
    for i, c in rows:
        k, m, _, z = MONOMIALS[i]
        if c != 0:
            want._iadd(ref.Polynomial(1, {(k, m, z): c}))
    want.prune(0.0)
    got = encode(1, MERGE_VARS, [MONOMIALS[i][2] for i, _ in rows],
                 [c for _, c in rows], K=[MONOMIALS[i][0] for i, _ in rows],
                 M=[MONOMIALS[i][1] for i, _ in rows])
    assert repr(list(got.terms.items())) == repr(list(want.terms.items()))


def test_poisson_angle_action():
    # h = omega . r against a pure angle coefficient
    h = Polynomial(2)
    h.add_term(1.3, m=(1, 0))
    h.add_term(0.7, m=(0, 1))
    s = Polynomial(2)
    s.add_term(2.0, k=(3, -1))
    br = poisson(h, s)
    kw = 3 * 1.3 - 1 * 0.7
    assert br.terms[((3, -1), (0, 0), ())] == pytest.approx(1j * kw * 2.0)


def flow_oracle_bracket(F, G, finite_set, theta, r, zvals, n, eps=1e-6):
    """{F,G} at a point via finite differences of the canonical equations."""
    # dG/d(theta, r, z) drive the flow; compute directional derivative of F
    val = 0.0 + 0.0j
    for j in range(n):
        dG_th = (evaluate(G, theta + eps * np.eye(n)[j], r, zvals)
                 - evaluate(G, theta - eps * np.eye(n)[j], r, zvals)) \
            / (2 * eps)
        dG_r = (evaluate(G, theta, r + eps * np.eye(n)[j], zvals)
                - evaluate(G, theta, r - eps * np.eye(n)[j], zvals)) \
            / (2 * eps)
        dF_th = (evaluate(F, theta + eps * np.eye(n)[j], r, zvals)
                 - evaluate(F, theta - eps * np.eye(n)[j], r, zvals)) \
            / (2 * eps)
        dF_r = (evaluate(F, theta, r + eps * np.eye(n)[j], zvals)
                - evaluate(F, theta, r - eps * np.eye(n)[j], zvals)) \
            / (2 * eps)
        val += dF_r * dG_th - dF_th * dG_r
    fset = set(finite_set)
    sites = set(ref.as_dict(F).sites()) | set(ref.as_dict(G).sites())

    def dz(P, v):
        zp = dict(zvals)
        zm = dict(zvals)
        zp[v] = zp.get(v, 0.0) + eps
        zm[v] = zm.get(v, 0.0) - eps
        return (evaluate(P, theta, r, zp) - evaluate(P, theta, r, zm)) \
            / (2 * eps)

    for s in sites:
        f0, f1 = dz(F, (s, 0)), dz(F, (s, 1))
        g0, g1 = dz(G, (s, 0)), dz(G, (s, 1))
        if s in fset:
            val += f0 * g1 - f1 * g0
        else:
            val += 1j * (f0 * g1 - f1 * g0)
    return val


def test_poisson_matches_flow_oracle():
    rng = np.random.default_rng(1)
    fset = [(1, 2)]
    for _ in range(5):
        F = random_poly(rng, n=1, sites=(A, (1, 2)))
        G = random_poly(rng, n=1, sites=(A, (1, 2)))
        br = poisson(F, G, finite_set=fset)
        theta = np.array([0.4])
        r = np.array([0.8])
        zvals = {(s, c): complex(rng.standard_normal(), rng.standard_normal())
                 for s in (A, (1, 2)) for c in (0, 1)}
        lhs = evaluate(br, theta, r, zvals)
        rhs = flow_oracle_bracket(F, G, fset, theta, r, zvals, 1)
        assert abs(lhs - rhs) < 1e-5 * max(1.0, abs(rhs))


def test_poisson_antisymmetry_and_reality():
    rng = np.random.default_rng(2)
    F = random_poly(rng, n=1)
    G = random_poly(rng, n=1)
    anti = poisson(F, G) + poisson(G, F)
    assert anti.max_coeff() < 1e-12
    # reality is preserved: symmetrize inputs first
    def realize(P):
        Q = Polynomial(P.n)
        for (k, m, z), c in P.terms.items():
            Q.add_term(c / 2, k=k, m=m, z=dict(z))
            zz = {(v[0], 1 - v[1]): p for v, p in z}
            Q.add_term(np.conj(c) / 2, k=tuple(-x for x in k), m=m, z=zz)
        return Q
    Fr, Gr = realize(F), realize(G)
    assert reality_defect(Fr) < 1e-12
    br = poisson(Fr, Gr)
    assert reality_defect(br) < 1e-12


def _size(P: Polynomial) -> float:
    """sum |c| (1 + |k|_1 + |m|_1 + deg z)^2.  A bracket multiplies pairs
    of coefficients by derivative factors below these weights, so the
    product of three sizes bounds every coefficient, and its rounding,
    of brackets nested two deep."""
    return sum(abs(c) * (1 + sum(map(abs, k)) + sum(m)
                         + sum(p for _, p in z)) ** 2
               for (k, m, z), c in P.terms.items())


@st.composite
def bracket_cases(draw):
    """Three polynomials and a finite set with at least one hyperbolic
    site among the variables' sites."""
    n = draw(st.integers(1, 2))
    fset = draw(st.lists(st.sampled_from(SITES), min_size=1, unique=True))
    return [draw(polynomials(n)) for _ in range(3)], fset


# relative to the product of the operands' sizes
BRACKET_RTOL = 1e-12


@given(bracket_cases())
def test_poisson_leibniz_rule(case):
    (F, G, H), fset = case
    lhs = poisson(F, G.mul(H), fset)
    rhs = poisson(F, G, fset).mul(H) + G.mul(poisson(F, H, fset))
    assert (lhs - rhs).max_coeff() <= \
        BRACKET_RTOL * _size(F) * _size(G) * _size(H)


@given(bracket_cases())
def test_poisson_jacobi_identity(case):
    (F, G, H), fset = case
    br = lambda P, Q: poisson(P, Q, fset)
    cyclic = br(F, br(G, H)) + br(G, br(H, F)) + br(H, br(F, G))
    assert cyclic.max_coeff() <= \
        BRACKET_RTOL * _size(F) * _size(G) * _size(H)


def test_poisson_restricted_tables_match_full_tables():
    """poisson differentiates F only on G's sites; the bracket must equal
    the one built from F's and G's full derivative tables."""
    rng = np.random.default_rng(7)
    grid = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    F = random_poly(rng, n=0, nterms=400, sites=grid)
    G = Polynomial(0)
    for site in (grid[4], grid[13], (5, 5, 5), (6, 0, 0)):
        G.add_term(rng.standard_normal() + 1j, z={(site, 0): 1, (A, 1): 1})
    fset = (grid[13],)
    assert len(ref.as_dict(F).sites()) == 27
    assert len(ref.as_dict(G).sites()) == 5

    dF, dG = _z_derivative_table(F), _z_derivative_table(G)
    want = ref.Polynomial(0)
    for s in sorted({v[0] for v in dF} & {v[0] for v in dG}):
        unit = 1.0 if s in fset else 1j
        for a, b, sign in ((0, 1, unit), (1, 0, -unit)):
            if (s, a) in dF and (s, b) in dG:
                want._iadd(dF[(s, a)].mul(dG[(s, b)]), sign=sign)
    got = poisson(F, G, finite_set=fset)
    assert want.terms
    assert list(got.terms.items()) == list(want.terms.items())


def test_lie_transform_consistency():
    # first order: F o flow = F + {F,S} + O(S^2)
    rng = np.random.default_rng(3)
    F = random_poly(rng, n=1)
    S = random_poly(rng, n=1).scale(1e-4)
    G = lie_transform(F, S, max_degree=8)
    lin = F + poisson(F, S, max_degree=8)
    assert (G - lin).max_coeff() < 1e-6 * max(1.0, F.max_coeff())


def test_lie_series_cut_at_max_order_aborts():
    rng = np.random.default_rng(3)
    F = random_poly(rng, n=1)
    S = random_poly(rng, n=1).scale(1e-4)
    with pytest.raises(StageAbort) as err:
        lie_transform(F, S, max_degree=8, max_order=1)
    assert err.value.stage == "lie"
    assert err.value.key == 1
    assert str(err.value).startswith("lie at 1: term of order 1 is ")


def _items(P: Polynomial) -> str:
    """Keys, order and coefficient bits of P's terms."""
    return repr(list(P.terms.items()))


@st.composite
def bracket_oracle_cases(draw):
    """F, G and a finite set over n = 0..2 actions; k scaled by 2**40 makes
    the mixed-radix keys of the products and of the merge overflow int64."""
    n = draw(st.integers(0, 2))
    kscale = draw(st.sampled_from([1, 2 ** 40]))
    fset = draw(st.lists(st.sampled_from(SITES), unique=True))
    return draw(polynomials(n, kscale)), draw(polynomials(n, kscale)), fset


def _angle_case():
    """G holds a degree-0 row, a pure angle term: it lifts F's r z^2 (of
    degree 4) to degree 2, while F's z_A0^3 z_B0 and G's r z_A1^2 reach
    nothing."""
    F, G = Polynomial(1), Polynomial(1)
    F.add_term(0.5, m=(1,), z={(A, 0): 2})
    F.add_term(1.0, z={(A, 0): 3, (B, 0): 1})
    F.add_term(1.5, k=(-1,), z={(B, 1): 1})
    G.add_term(2.0, k=(1,))
    G.add_term(1j, z={(A, 1): 1, (B, 0): 1})
    G.add_term(0.25, m=(1,))
    G.add_term(-1.0, m=(1,), z={(A, 1): 2})
    return F, G, []


def _hyperbolic_reach_case():
    """Only the hyperbolic site B joins rows within degree 2: F's z_B0 z_B1
    with G's z_B1 z_A1; the other rows of both sides reach nothing."""
    F, G = Polynomial(1), Polynomial(1)
    F.add_term(1.0 + 2j, m=(1,), z={(A, 0): 1, (B, 0): 1})
    F.add_term(0.5, z={(B, 0): 1, (B, 1): 1})
    F.add_term(3.0, z={(A, 0): 2, (A, 1): 1})
    G.add_term(-1.5, k=(-1,), z={(A, 1): 1, (B, 1): 1})
    G.add_term(0.25j, z={(A, 1): 1, (B, 0): 2})
    return F, G, [B]


def _action_reach_case():
    """Rows with no variable in common, of degree 2 each: only the factor
    dF/dtheta_2 dG/dr_2 pairs them; F's z_A0 z_B1 and G's r_1 pair with
    nothing."""
    F, G = Polynomial(2), Polynomial(2)
    F.add_term(1.0 - 1j, k=(0, 1), z={(A, 0): 2})
    F.add_term(2.0, z={(A, 0): 1, (B, 1): 1})
    G.add_term(0.5, m=(0, 1))
    G.add_term(0.7, m=(1, 0))
    return F, G, []


@given(bracket_oracle_cases(), st.sampled_from([None, 2, 4]),
       st.sampled_from([0.0, 1e-3, 0.5]))
@example(case=_angle_case(), max_degree=2, tol=0.0)
@example(case=_hyperbolic_reach_case(), max_degree=2, tol=0.0)
@example(case=_action_reach_case(), max_degree=2, tol=0.0)
def test_poisson_matches_dict_oracle(case, max_degree, tol):
    F, G, fset = case
    assert _items(poisson(F, G, fset, max_degree, tol)) == \
        _items(ref.poisson(F, G, fset, max_degree, tol))


@pytest.mark.parametrize("name, S_rows, f_rows, angle_only", [
    ("desk_beam", (48, 6), (140, 140), 0),
    ("degree6_beam", (144, 14), (692, 684), 0),
    ("momentum_beam", (294, 22), (1274, 1274), 2),
], ids=["desk_beam", "degree6_beam", "momentum_beam"])
def test_feedback_bracket_of_the_rows_it_can_pair_is_exact(
        name, S_rows, f_rows, angle_only):
    """The first feedback bracket that ``solve_homological`` forms on an
    example's model, {f - jet f, S} at degree 2 with S from the linear
    solve, takes only the rows it can pair (S's of degree <= 1, f's of
    degree <= 4), and is the bracket of all rows: keys, order and bits.
    Each case drops rows; degree6's f has rows of degree 5 and 6, and
    momentum's S has angle-only rows, which pair with f's of degree 4."""
    cfg = json.loads((EXAMPLES / f"{name}.json").read_text())
    _, _, (h, f) = build_model(cfg["model"])
    gamma1, tables = cfg["weights"]["gamma1"], class_tables(h)
    S = solve_linear(h, f.jet(), DivisorGuard(delta0=1e-8), gamma1,
                     tables)[0]
    f_rest = f.without_jet()
    with mock.patch.object(homological, "poisson", wraps=poisson) as spy:
        solve_homological(h, f, DivisorGuard(delta0=1e-8), gamma1,
                          tables=tables)
    f_low, S_low = spy.call_args_list[0].args
    assert (len(S), len(S_low)) == S_rows
    assert (len(f_rest), len(f_low)) == f_rows
    assert len(S.truncate_degree(0)) == angle_only
    got = poisson(f_low, S_low, h.finite_set, 2, PRUNE_TOL)
    whole = poisson(f_rest, S, h.finite_set, 2, PRUNE_TOL)
    assert len(got) and _items(got) == _items(whole)


def test_stack_z_pads_with_V_in_the_blocks_dtype():
    """Blocks of any widths, empty ones too, stack padded with V; int16 ids
    stay int16, int32 ones (V >= 2**15) int32, and an int64 block, as
    ``_no_rows`` makes, takes the stack to int64."""
    for V, dtype in ((5, np.int16), (2 ** 15, np.int32)):
        assert H._id_type(V) == dtype
        Zs = [np.array([[0, 1, V]], dtype=dtype), np.zeros((2, 0), dtype),
              np.array([[2], [3]], dtype=dtype)]
        got = H._stack_z(Zs, V)
        assert got.dtype == dtype
        assert got.tolist() == [[0, 1, V], [V] * 3, [V] * 3, [2, V, V],
                                [3, V, V]]
        wide = H._stack_z([np.zeros((0, 4), dtype=np.int64)] + Zs, V)
        assert wide.dtype == np.int64 and wide.shape == (5, 4)
        assert (wide[:, 3] == V).all()


def test_poisson_cancelled_key_keeps_its_first_place():
    """Sites come in sorted order: (0, 1) adds i q, A = (2, 1) takes it
    away exactly and adds 2i r, and the hyperbolic (3, 3) brings q back,
    which keeps its first place, before r."""
    q, r = ((B, 0), 1), ((B, 1), 1)
    F, G = Polynomial(0), Polynomial(0)
    for s in ((0, 1), A, (3, 3)):
        F.add_term(1.0, z=(((s, 0), 1),))
    for c, s, v in ((1.0, (0, 1), q), (-1.0, A, q), (2.0, A, r),
                    (1.0, (3, 3), q)):
        G.add_term(c, z=tuple(sorted([((s, 1), 1), v])))
    want = ref.poisson(F, G, [(3, 3)])
    assert list(want.terms) == [((), (), (q,)), ((), (), (r,))]
    assert _items(poisson(F, G, [(3, 3)])) == _items(want)


def test_poisson_wide_keys_match_dict_oracle():
    # k digits spanning 2**32 push the merge's mixed-radix code past int64
    big = 2 ** 31
    F, G = Polynomial(2), Polynomial(2)
    for k in ((0, 0), (big, -big), (-big, big)):
        F.add_term(1.0 + 1j, k=k, m=(1, 0), z={(A, 0): 1})
        G.add_term(0.5, k=k, m=(0, 1), z={(A, 1): 1, (B, 0): 1})
    got = poisson(F, G, [B])
    assert len(got) > 1
    assert _items(got) == _items(ref.poisson(F, G, [B]))


def _jet_window_case():
    """F = z_a z_b and S = 5 z_a' z_a: at eps 1e-2 the order-1 term is
    0.05i z_a z_b, a jet direction between tol 1e-3 and rest_tol 1."""
    F, S = Polynomial(0), Polynomial(0)
    F.add_term(1.0, z={(A, 0): 1, (B, 0): 1})
    S.add_term(5.0, z={(A, 0): 1, (A, 1): 1})
    return F, S, []


def _screen_case():
    """z_a + 1e-3 z_a^2 z_b and 1e-3 z_a' z_b': on the site of a, the jet
    pair z_a z_b' is kept and the non-jet pair 2e-6 z_a z_b z_b' falls
    under a screen of 1e-2."""
    (a, a1), (b, b1) = ((A, 0), (A, 1)), ((B, 0), (B, 1))
    F, G = Polynomial(0), Polynomial(0)
    F.add_term(1.0, z={a: 1})
    F.add_term(1e-3, z={a: 2, b: 1})
    G.add_term(1e-3, z={a1: 1, b1: 1})
    return F, G, []


@given(bracket_oracle_cases(), st.sampled_from([2, 4]),
       st.sampled_from([0.0, 1e-12, 1e-3]),
       st.sampled_from([None, 1e-2, 1.0]), st.sampled_from([1e-2, 1e-3]))
@example(case=_jet_window_case(), max_degree=4, tol=1e-3, rest_tol=1.0,
         eps=1e-2)
@example(case=_screen_case(), max_degree=4, tol=1e-12, rest_tol=1e-2,
         eps=1.0)
def test_lie_transform_matches_dict_oracle(case, max_degree, tol, rest_tol,
                                           eps):
    F, S, fset = case
    S = S.scale(eps)
    args = (fset, max_degree, tol, 16, rest_tol)
    try:
        want = _items(ref.lie_transform(ref.as_dict(F), ref.as_dict(S),
                                        *args))
    except StageAbort as exc:          # e.g. tol 0 on a series that goes on
        with pytest.raises(StageAbort) as err:
            lie_transform(F, S, *args)
        assert str(err.value) == str(exc)
    else:
        assert _items(lie_transform(F, S, *args)) == want


def _nan_case(c):
    """F = z_a z_b + c z_a^2 z_b and S = z_a' z_a / 2: {F, S} is i/2 z_a z_b,
    in the jet, plus i c z_a^2 z_b, out of it."""
    (a, a1), b = ((A, 0), (A, 1)), (B, 0)
    F, S = Polynomial(0), Polynomial(0)
    F.add_term(1.0, z={a: 1, b: 1})
    F.add_term(c, z={a: 2, b: 1})
    S.add_term(0.5, z={a1: 1, a: 1})
    return F, S, ((), (), tuple(sorted({a: 2, b: 1}.items())))


def _nan_keys(P) -> list:
    return [key for key, c in P.terms.items() if cmath.isnan(c)]


@given(st.sampled_from([1e-12, 1e-3, 1.0]),
       st.none() | st.sampled_from([1e-2, 10.0]),
       st.sampled_from([complex(math.nan, 0.0), complex(1.0, math.nan)]))
@example(tol=1e-3, rest_tol=None, c=complex(math.nan, 0.0))
@example(tol=1e-3, rest_tol=1e-2, c=complex(math.nan, 0.0))
@example(tol=1.0, rest_tol=10.0, c=complex(1.0, math.nan))
def test_a_nan_coefficient_survives_every_cut(tol, rest_tol, c):
    """|c| <= cut is false for a NaN, so no cut drops one: not a product's
    or the bracket's ``tol`` cut, not the Lie series' pair screen, not
    ``prune`` with or without ``rest_tol``.  So the Lie series' first
    bracket holds it, and the series stops there, at stage ``lie``, order
    1, naming the coefficient that is not finite."""
    F, S, cubic = _nan_case(c)
    assert _nan_keys(poisson(F, S, tol=tol)) == [cubic]
    zvars, (PF, PS) = H._align(F, S)
    got = Polynomial._of(0, zvars, *H._bracket(PF, PS, zvars, (), 3, tol,
                                               rest_tol))
    assert _nan_keys(got) == [cubic]
    for cut in ((tol,), (tol, rest_tol)):
        assert _nan_keys(F.scale(1.0).prune(*cut)) == [cubic]
    with pytest.raises(StageAbort) as err:
        lie_transform(F, S, tol=tol, rest_tol=rest_tol)
    assert (err.value.stage, err.value.key) == ("lie", 1)
    assert "not finite" in str(err.value)


def test_lie_transform_keeps_the_degree_of_its_input():
    """Without ``max_degree``, the cap is the degree of F: brackets with a
    jet S never go above it, so F's rows of degree 5 and 6 and the
    brackets of degree 5 stay, as with the cap given, and as in the dict
    oracle."""
    (a, a1), (b, b1) = ((A, 0), (A, 1)), ((B, 0), (B, 1))
    F, S = Polynomial(1), Polynomial(1)
    F.add_term(1.0, m=(1,), z={a: 1, b: 1})
    F.add_term(0.5, m=(2,), z={a: 1, b1: 1})
    F.add_term(0.25, m=(1,), z={a: 2, b: 1})
    S.add_term(1e-2, k=(1,), z={a1: 1})
    S.add_term(2e-2, z={a1: 1, b: 1})
    S.add_term(3e-2, m=(1,))
    G = lie_transform(F, S, tol=1e-30)
    degree = {key: 2 * sum(key[1]) + sum(p for _, p in key[2])
              for key in G.terms}
    assert set(F.terms) <= set(G.terms)
    assert max(degree.values()) == 6
    assert any(d == 5 and key not in F.terms for key, d in degree.items())
    assert _items(G) == _items(lie_transform(F, S, max_degree=6, tol=1e-30))
    assert _items(G) == _items(ref.lie_transform(ref.as_dict(F),
                                                 ref.as_dict(S), tol=1e-30))


# relative to |S|^2 |F| in _size; the truncated series compose exactly, so
# only roundoff and the tol cuts remain (largest seen: 1.3e-12)
LIE_ROUND_TRIP_RTOL = 1e-8


@given(bracket_cases(), st.sampled_from([1e-2, 1e-3, 1e-4]))
def test_lie_transform_round_trip(case, eps):
    """Flowing by S then by -S gives back F up to the truncation degree:
    with L = the bracket with S cut at degree 4, the two series are
    exp(L) and exp(-L) on the polynomials of degree <= 4."""
    (F, S, _), fset = case
    assume(F.terms and S.terms)
    S = S.scale(eps / _size(S))
    tol = 1e-20 * _size(F)
    back = lie_transform(lie_transform(F, S, fset, 4, tol), S.scale(-1.0),
                         fset, 4, tol)
    assert (back - F.truncate_degree(4)).max_coeff() <= \
        LIE_ROUND_TRIP_RTOL * _size(S) ** 2 * _size(F)


# -- the Lie series' pair screen ----------------------------------------------

def _joined(chunks) -> tuple:
    """The pairs (i, j) of the chunks ``_pairs`` yields, joined."""
    chunks = list(chunks)
    return tuple(np.concatenate([c[k] for c in chunks] or
                                [np.zeros(0, dtype=np.int64)])
                 for k in (0, 1))


@contextmanager
def _screen_spy(screened=True):
    """Inside the block: the products each ``_bracket`` call formed, one
    per factor with rows on both sides (``_pairs`` takes every factor of a
    bracket in one call, tagged by factor index), and the pairs the screen
    dropped, those of the unscreened mask that ``_pairs`` did not return.
    With ``screened`` False, every bracket runs without its screen."""
    seen = {"products": [], "dropped": 0}
    pairs, bracket = H._pairs, H._bracket

    def spy_bracket(*args):
        seen["products"].append(0)
        return bracket(*(args if screened else args[:6]))

    def spy_pairs(A, B, V, max_degree, screen, fa, fb):
        chunks = list(pairs(A, B, V, max_degree, screen, fa, fb))
        seen["products"][-1] += len(np.intersect1d(fa, fb))
        if screen is not None:
            seen["dropped"] += len(_joined(pairs(A, B, V, max_degree, None,
                                                 fa, fb))[0]) \
                - len(_joined(chunks)[0])
        return iter(chunks)

    with mock.patch.object(H, "_bracket", spy_bracket), \
            mock.patch.object(H, "_pairs", spy_pairs):
        yield seen


@given(bracket_oracle_cases(), st.sampled_from([None, 2, 4]),
       st.sampled_from([0.0, 1e-3]), st.sampled_from([1e-2, 0.5, 4.0]),
       st.just(False))
@example(case=_screen_case(), max_degree=4, tol=0.0, screen=1e-2,
         must_drop=True)
def test_screened_bracket_keeps_its_jet_rows(case, max_degree, tol, screen,
                                             must_drop):
    """A jet monomial only receives jet pairs, which the screen keeps: the
    jet rows of a screened bracket are those of the exact one, keys, order
    and bits.  Each product drops at most ``screen`` from a monomial, and
    its ``tol`` cut at most ``tol`` more; the bracket's own ``tol`` cut of
    the sum can drop a monomial that is within ``tol`` on one side only."""
    F, G, fset = case
    zvars, (PF, PG) = H._align(F, G)
    with _screen_spy() as seen:
        got = H._bracket(PF, PG, zvars, fset, max_degree, tol, screen)
    assert seen["dropped"] or not must_drop
    want = H._bracket(PF, PG, zvars, fset, max_degree, tol)
    got, want = (Polynomial._of(F.n, zvars, *rows) for rows in (got, want))
    assert _items(got.jet()) == _items(want.jet())
    assert (got - want).max_coeff() <= \
        ((screen + tol) * seen["products"][0] + tol) * (1 + 1e-12)


@given(bracket_oracle_cases(), st.sampled_from([2, 4]),
       st.sampled_from([1e-12, 1e-3]), st.sampled_from([1e-2, 1.0]),
       st.sampled_from([1e-2, 1e-3]), st.just(False))
@example(case=_screen_case(), max_degree=4, tol=1e-12, rest_tol=1e-2,
         eps=1.0, must_drop=True)
def test_screened_lie_transform_stays_within_the_screen(
        case, max_degree, tol, rest_tol, eps, must_drop):
    """Against the Lie series without the screen (the exact brackets, cut
    the same way): each coefficient moves by at most ``rest_tol`` times the
    products per bracket times the orders run."""
    F, S, fset = case
    S = S.scale(eps)
    try:
        with _screen_spy() as seen:
            got = lie_transform(F, S, fset, max_degree, tol, 16, rest_tol)
        with _screen_spy(screened=False) as exact:
            want = lie_transform(F, S, fset, max_degree, tol, 16, rest_tol)
    except StageAbort:
        assume(False)
    assert seen["dropped"] or not must_drop
    products = max(seen["products"] + exact["products"], default=0)
    orders = max(len(seen["products"]), len(exact["products"]))
    assert (got - want).max_coeff() <= rest_tol * products * orders


SIZES = [0.0, 1e-3, 0.1, 1 / 3, 0.5, 1.0, 3.0,
         0.33333333333333337, 0.03333333333333333]


@st.composite
def pair_rows(draw):
    """The rows (C, M, Z) of a product operand over one action and V = 4
    variables: up to 8 rows, of action degree 0..2 and mode degree 0..3,
    with coefficient sizes from SIZES: zeros, ties, and products that
    round across the cut / a boundary (3 * 0.33333333333333337 and
    3 * 0.03333333333333333 against 1 and 0.3 / 3)."""
    N = draw(st.integers(0, 8))
    rows = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3),
                              st.sampled_from(SIZES)), min_size=N, max_size=N)
    s, z, c = np.array(draw(rows), dtype=float).reshape(N, 3).T
    Z = np.where(np.arange(3) < z[:, None], 0, 4).astype(np.int16)
    return c.astype(complex), s.astype(np.int64).reshape(N, 1), Z


@given(pair_rows(), pair_rows(), st.none() | st.integers(0, 8),
       st.sampled_from([1e-2, 0.3, 1.0]))
@example(A=(np.array([3.0 + 0j]), np.array([[1]]), np.array([[0, 4, 4]])),
         B=(np.array([0.33333333333333337 + 0j]), np.array([[0]]),
            np.array([[0, 0, 4]])), max_degree=None, screen=1.0)
@example(A=(np.array([3.0, 1.0, 0.0]) + 0j, np.array([[1], [0], [1]]),
            np.array([[0, 4, 4], [0, 0, 0], [0, 4, 4]])),
         B=(np.array([0.03333333333333333, 0.1, 0.1]) + 0j,
            np.array([[0], [0], [2]]), np.array([[0, 0, 4]] * 3)),
         max_degree=6, screen=0.3)
def test_screened_pairs_are_the_mask(A, B, max_degree, screen):
    """``_pairs`` with a screen is ``np.nonzero`` of the mask of pairs that
    fit the degree and are in the jet or pass the screen, in order."""
    (C1, M1, Z1), (C2, M2, Z2) = A, B
    s1, s2 = M1.sum(axis=1)[:, None], M2.sum(axis=1)[None, :]
    z1, z2 = (Z1 < 4).sum(axis=1)[:, None], (Z2 < 4).sum(axis=1)[None, :]
    fits = np.ones((len(C1), len(C2)), dtype=bool) if max_degree is None \
        else 2 * (s1 + s2) + z1 + z2 <= max_degree
    jet = np.zeros_like(fits)
    for sm, zd in ref._JET_DEGREES:
        jet |= (s1 + s2 == sm) & (z1 + z2 == zd)
    cut = screen / max(1, min(len(C1), len(C2)))
    mask = fits & (jet | H._passes_screen(H._abs(C1)[:, None],
                                          H._abs(C2)[None, :], cut))
    got = _joined(H._pairs(A, B, 4, max_degree, screen))
    want = np.nonzero(mask)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@st.composite
def factor_tags(draw, N):
    """An ascending factor index in 0..2 for each of N rows."""
    return np.sort(np.array(draw(st.lists(st.integers(0, 2), min_size=N,
                                          max_size=N)), dtype=np.int64))


@given(st.data(), st.none() | st.integers(0, 8),
       st.none() | st.sampled_from([1e-2, 0.3, 1.0]))
def test_batched_pairs_are_each_factors_mask(data, max_degree, screen):
    """``_pairs`` of stacked factors is the pairs of each factor's rows
    on their own, factor after factor, each screened at its own cut."""
    A, B = data.draw(pair_rows()), data.draw(pair_rows())
    fa, fb = data.draw(factor_tags(len(A[0]))), data.draw(factor_tags(len(B[0])))
    want_i, want_j = [], []
    for f in range(3):
        a, b = np.flatnonzero(fa == f), np.flatnonzero(fb == f)
        i, j = _joined(H._pairs(tuple(x[a] for x in A),
                                tuple(x[b] for x in B), 4, max_degree,
                                screen))
        want_i.append(a[i])
        want_j.append(b[j])
    got = _joined(H._pairs(A, B, 4, max_degree, screen, fa, fb))
    assert np.array_equal(got[0], np.concatenate(want_i))
    assert np.array_equal(got[1], np.concatenate(want_j))


def _hyperbolic_case():
    """F and G share the sites A and B, and B is hyperbolic: the bracket
    has factors of sign +-1 and +-i, and a site only G has."""
    F, G = Polynomial(1), Polynomial(1)
    F.add_term(1.0 + 2j, m=(1,), z={(A, 0): 1, (B, 0): 1})
    F.add_term(0.5, k=(1,), z={(B, 1): 2})
    G.add_term(-1.5, k=(-1,), z={(A, 1): 1, (B, 1): 1, ((0, 1), 0): 1})
    G.add_term(0.25j, m=(1,), z={(B, 0): 1})
    return F, G, [B]


def _wide_case():
    """k digits spanning 2**32: the product's mixed-radix key does not fit
    in int64, so it is folded by ranks (``_key``)."""
    big = 2 ** 31
    F, G = Polynomial(2), Polynomial(2)
    for k in ((0, 0), (big, -big), (-big, big)):
        F.add_term(1.0 + 1j, k=k, m=(1, 0), z={(A, 0): 1})
        G.add_term(0.5, k=k, m=(0, 1), z={(A, 1): 1, (B, 0): 1})
    return F, G, [B]


def _many_factors_case():
    """Two actions and three shared sites: up to ten factors, so that a
    chunk limit of one pair splits the bracket into several chunks."""
    F, G = Polynomial(2), Polynomial(2)
    for i, s in enumerate(SITES):
        F.add_term(1.0 + i, k=(1, 0), m=(1, 0), z={(s, 0): 1, (A, 1): 1})
        G.add_term(0.5j - i, k=(0, 1), m=(0, 1), z={(s, 1): 2, (B, 0): 1})
    return F, G, [(0, 1)]


@given(bracket_oracle_cases(), st.sampled_from([None, 2, 4]),
       st.sampled_from([0.0, 1e-3]), st.sampled_from([None, 1e-2, 0.5]),
       st.sampled_from([None, 1]), st.just(False))
@example(case=_hyperbolic_case(), max_degree=None, tol=0.0, screen=None,
         chunk=None, must_split=False)
@example(case=_screen_case(), max_degree=4, tol=1e-12, screen=1e-2,
         chunk=None, must_split=False)
@example(case=_wide_case(), max_degree=4, tol=0.0, screen=None, chunk=None,
         must_split=False)
@example(case=_many_factors_case(), max_degree=8, tol=0.0, screen=1e-2,
         chunk=1, must_split=True)
def test_batched_bracket_matches_per_factor_loop(case, max_degree, tol,
                                                 screen, chunk, must_split):
    """One ``_product`` over the stacked factors gives the rows of one
    ``_product`` per factor: keys, order and bits, in chunks or not."""
    F, G, fset = case
    zvars, (PF, PG) = H._align(F, G)
    want = ref.bracket_per_factor(PF, PG, zvars, fset, max_degree, tol,
                                  screen)
    with mock.patch.object(H, "_CHUNK_PAIRS", chunk or H._CHUNK_PAIRS), \
            mock.patch.object(H, "_merge", wraps=H._merge) as merge:
        got = H._bracket(PF, PG, zvars, fset, max_degree, tol, screen)
    assert merge.call_count > 2 or not must_split      # chunks, then one
    got, want = (Polynomial._of(F.n, zvars, *rows) for rows in (got, want))
    assert _items(got) == _items(want)


def test_merge_first_rows_match_stable_unique():
    """The first row of each key and the sums' order, from an unstable
    sort, are those of ``np.unique(return_index=True)``."""
    rng = np.random.default_rng(7)
    for N, K in ((1, 1), (50, 3), (5000, 40), (20000, 2)):
        key = rng.integers(0, K, N)
        re, im = rng.standard_normal(N), rng.standard_normal(N)
        _, first, inv = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)
        at, c = H._merge(key, re, im)
        assert np.array_equal(at, first[order])
        assert np.array_equal(c.real, np.bincount(inv, re)[order])
        assert np.array_equal(c.imag, np.bincount(inv, im)[order])


def test_key_folds_wide_rows_into_one_code():
    """Rows whose column spans multiply past int64 still get one int64 key
    each, equal exactly for equal rows."""
    rng = np.random.default_rng(8)
    pool = rng.integers(-2 ** 40, 2 ** 40, (30, 6))
    X = pool[rng.integers(0, 30, 2000)]
    key = H._key(X[:, :2], X[:, 2:])
    assert key.dtype == np.int64 and key.ndim == 1
    _, by_row = np.unique(X, axis=0, return_inverse=True)
    _, by_key = np.unique(key, return_inverse=True)
    # the same partition of the rows: each key class is one row class
    pairs = np.unique(np.stack([by_row.ravel(), by_key]), axis=1)
    assert pairs.shape[1] == len(np.unique(by_row)) == len(np.unique(by_key))


def test_class_norm_basics():
    w = W
    p = ClassNormParams()
    assert class_norm(Polynomial(1), p, w) == 0.0
    c = ref.as_rows(ref.Polynomial.constant(1, -3.0))
    assert class_norm(c, p, w) == pytest.approx(3.0)


@pytest.mark.parametrize("row", ["cubic", "linear"])
def test_class_norm_names_a_nan_coefficient(row):
    """The max over the samples would drop a NaN value: a cubic NaN row
    next to xi_a eta_a (1e-3) would give 0.0, and a zeta-linear one only
    the hessian part.  So a non-finite coefficient stops at stage
    ``norm``."""
    f = Polynomial(0)
    f.add_term(1e-3, z={(A, 0): 1, (A, 1): 1})
    assert class_norm(f, ClassNormParams(), W) > 0
    f.add_term(math.nan, z={(A, 0): 2, (B, 1): 1} if row == "cubic"
               else {(B, 0): 1})
    with pytest.raises(StageAbort) as err:
        class_norm(f, ClassNormParams(), W)
    assert (err.value.stage, err.value.key) == ("norm", None)
    assert "1 of 2 coefficients are not finite" in str(err.value)


@pytest.mark.parametrize("field", ["n_theta", "n_dirs", "radial_levels"])
@pytest.mark.parametrize("value", [0, -1])
def test_class_norm_params_reject_empty_samples(field, value):
    with pytest.raises(ValueError, match=field):
        ClassNormParams(**{field: value})


def test_class_norm_linear_gradient_dominates():
    w = WeightParams(0.0, 0.0, 0.0, m_star=1.0)
    p = ClassNormParams(sigma=0.2, mu=0.25)
    f = Polynomial(0)
    f.add_term(1.0, k=(), m=(), z={((3, 0), 0): 1})
    # |f| <= mu on the sampled ball but mu*||grad f|| = mu exactly
    val = class_norm(f, p, w)
    assert val == pytest.approx(p.mu, rel=1e-6)


def test_class_norm_monotone():
    rng = np.random.default_rng(4)
    f = random_poly(rng, n=1, nterms=8)
    w = W
    base = class_norm(f, ClassNormParams(sigma=0.2, mu=0.125), w)
    assert class_norm(f, ClassNormParams(sigma=0.4, mu=0.125), w) >= base
    assert class_norm(f, ClassNormParams(sigma=0.2, mu=0.25), w) >= base
    fine = ClassNormParams(sigma=0.2, mu=0.125, n_theta=16, n_dirs=5,
                           radial_levels=3)
    assert class_norm(f, fine, w) >= base


@st.composite
def norm_operands(draw, n):
    """Empty, constant-only, or up to 8 terms of z-degree 0-3 over SITES'
    variables (a repeated variable gives a square or a cube)."""
    p = Polynomial(n)
    kind = draw(st.sampled_from(["empty", "constant", "terms"]))
    if kind == "constant":
        p.add_term(draw(COEFFS))
    for _ in range(draw(st.integers(1, 8)) if kind == "terms" else 0):
        k = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        m = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        z = {}
        for v in draw(st.lists(st.tuples(st.sampled_from(SITES),
                                         st.integers(0, 1)), max_size=3)):
            z[v] = z.get(v, 0) + 1
        p.add_term(draw(COEFFS), k=k, m=m, z=z)
    return p


@given(st.data())
def test_class_norm_matches_sample_loop(data):
    n = data.draw(st.integers(0, 2))
    poly = data.draw(norm_operands(n))
    params = ClassNormParams(sigma=data.draw(st.sampled_from([0.3, 0.1, 1.0])),
                             mu=data.draw(st.sampled_from([0.25, 0.05, 1.0])),
                             n_dirs=data.draw(st.integers(1, 4)),
                             radial_levels=data.draw(st.integers(1, 3)))
    w = data.draw(st.sampled_from([W, WeightParams(0.0, 0.0, 0.0, 1.0)]))
    ref = reference_class_norm(poly, params, w)
    # the oracle sums the samples and a dense hessian in another order and
    # takes each 2x2 block's sigma_max from numpy's SVD, which, like
    # ``spectral_norm_2x2``, keeps its digits when the two singular values
    # coincide: the orders of summation move the value by ~1e-10 relative,
    # so this is the singular margin check's tolerance
    assert class_norm(poly, params, w) == pytest.approx(ref, rel=1e-9, abs=0)


def test_class_norm_matches_sample_loop_at_equal_singular_values():
    """e^{i theta} xi_A eta_A has hessian blocks [[0, h], [h, 0]], whose two
    singular values are equal: there a sigma_max taken from t^2 - 4 det
    loses half its digits (5.8e-9 relative on this case), so the oracle
    takes it from an SVD."""
    poly = Polynomial(1)
    poly.add_term(1.0, k=(1,), z={(A, 0): 1, (A, 1): 1})
    params = ClassNormParams(sigma=0.3, mu=0.25, n_dirs=1, radial_levels=1)
    ref = reference_class_norm(poly, params, W)
    assert class_norm(poly, params, W) == pytest.approx(ref, rel=1e-9, abs=0)


@given(st.data())
def test_class_norm_is_the_per_angle_loop_bit_for_bit(data):
    """Batching the angles changes no bit: the batched class_norm equals
    the per-angle loop it replaced, with several angles per batch (the
    default budget on these small operands) or one."""
    n = data.draw(st.integers(0, 2))
    poly = data.draw(norm_operands(n))
    params = ClassNormParams(sigma=data.draw(st.sampled_from([0.3, 0.1, 1.0])),
                             mu=data.draw(st.sampled_from([0.25, 0.05, 1.0,
                                                           0.01])),
                             n_dirs=data.draw(st.integers(1, 4)),
                             radial_levels=data.draw(st.integers(1, 3)))
    w = data.draw(st.sampled_from([W, WeightParams(0.0, 0.0, 0.0, 1.0)]))
    budget = data.draw(st.sampled_from([H._SAMPLE_BUDGET, 1]))
    with mock.patch.object(H, "_SAMPLE_BUDGET", budget):
        assert class_norm(poly, params, w) \
            == per_angle_class_norm(poly, params, w)


def _no_angle_jet():
    """n = 0: one (empty) angle, a hessian on two sites."""
    p = Polynomial(0)
    p.add_term(2.0)
    p.add_term(1 - 1j, z={(A, 0): 1})
    p.add_term(0.5j, z={(A, 0): 1, (B, 1): 1})
    p.add_term(-1.5, z={(B, 0): 2})
    return p


def _no_mode_jet():
    """V = 0, n = 3: twelve terms in the angles only.  One K @ Th.T over a
    batch's angles, in place of K @ th per angle, moves its norm."""
    rng = np.random.default_rng(1)
    p = Polynomial(3)
    for _ in range(12):
        p.add_term(complex(*rng.standard_normal(2)), k=rng.integers(-3, 4, 3))
    return p


def _linear_jet():
    """No quadratic rows, so no hessian: the gradient decides."""
    p = Polynomial(1)
    for i, s in enumerate(SITES):
        p.add_term(1.0 - 0.25j * i, k=(i - 1,), z={(s, i % 2): 1})
    return p + ref.as_rows(ref.Polynomial.constant(1, 0.5))


@cache
def _batch_jet(name):
    return {"desk_R3": lambda: desk_beam(radius=3.0)[1].jet(),
            "desk_R5": lambda: desk_beam(radius=5.0)[1].jet(),
            "hyperbolic": lambda: negative_mode_beam()[1].jet(),
            "n0": _no_angle_jet, "V0": _no_mode_jet,
            "linear": _linear_jet}[name]()


# (jet, mu, budget); budget None is the default.  The desk beam's R=3 f0
# jet (144 terms, 54 mode variables, 36 samples per angle) takes 2 angles
# per batch, and 5 at a budget of 5 x 162 x 36, so that its 56 angles split
# 11 x 5 + 1; the R=5 jet (512 terms) takes one angle per batch.  The R=3
# hessian names 124 blocks, so at a budget of 3 x 4 x 124 its angles go
# through in hessian groups of 3 (18 x 3 + 2) and in sample batches of 1.
# The negative-mode beam's jet has a hyperbolic finite set.  At mu = 0.01
# the V = 0 jet has one sample per angle, which stays one angle per batch.
@pytest.mark.parametrize("name, mu, budget", [
    ("desk_R3", 0.25, None), ("desk_R3", 0.25, 5 * 162 * 36),
    ("desk_R3", 0.25, 3 * 4 * 124),
    ("desk_R3", 0.25, 2 ** 40), ("desk_R5", 0.25, None),
    ("hyperbolic", 0.25, None), ("n0", 0.25, None), ("V0", 0.25, 2 ** 40),
    ("V0", 0.01, 2 ** 40), ("linear", 0.25, None), ("linear", 0.05, 1)])
def test_class_norm_batches_match_per_angle_loop(name, mu, budget):
    poly = _batch_jet(name)
    params = ClassNormParams(mu=mu)
    with mock.patch.object(H, "_SAMPLE_BUDGET", budget or H._SAMPLE_BUDGET):
        assert class_norm(poly, params, W) \
            == per_angle_class_norm(poly, params, W)


def _sparse_hessian_case():
    """40 sites in linear terms and two quadratic terms: S = 40 block rows,
    each naming at most two blocks, among 1,600."""
    p = Polynomial(1)
    for s in range(40):
        p.add_term(1.0 + s, z={((s, 1), s % 2): 1})
    p.add_term(2.0 - 1j, k=(1,), z={((3, 1), 1): 1, ((17, 1), 0): 1})
    p.add_term(0.5j, z={((3, 1), 0): 1, ((3, 1), 1): 1})
    return p


@given(norm_operands(1), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([W, WeightParams(0.0, 0.0, 0.0, 1.0)]))
@example(poly=_sparse_hessian_case(), seed=0, w=W)
def test_hessian_norm_matches_dense_hessian(poly, seed, w):
    """The named blocks' hessian norm against the dense one's.  The block
    norms are the same bits, and so are the column sums, which both add
    in row order; a row sum adds the named blocks in another grouping than
    numpy's pairwise sum over the dense row.  So the two are equal when no
    row names more than two blocks, and within k - 1 roundings of each
    other otherwise, k the most blocks a row names."""
    zvars, Zid = H._live(poly)
    assume(Zid.shape[1] >= 2)
    rng = np.random.default_rng(seed)
    zeta = rng.standard_normal(len(zvars)) + 1j * rng.standard_normal(len(zvars))
    t0 = rng.standard_normal(len(Zid)) + 1j * rng.standard_normal(len(Zid))
    gammas = [WeightParams(0.0, 0.0, w.kappa, w.m_star), w]
    got = H._hessian_norm(Zid, zvars, zeta, gammas)(t0)
    want = dense_hessian_norm(Zid, zvars, zeta, gammas)(t0)
    # blocks named per block row: ordered pairs of distinct slots' sites
    site = {s: i for i, s in enumerate(sorted({v[0] for v in zvars}))}
    of = np.array([site[v[0]] for v in zvars] + [-1])
    named = {(of[a], of[b]) for row in Zid for a, b in
             itertools.permutations(row[row >= 0].tolist(), 2)}
    k = max(np.bincount([a for a, _ in named]), default=0)
    if k <= 2:
        assert got == want
    else:
        assert abs(got - want) <= (k - 1) * np.finfo(float).eps * want


@given(norm_operands(1), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([W, WeightParams(0.0, 0.0, 0.0, 1.0)]))
@example(poly=_sparse_hessian_case(), seed=0, w=W)
def test_hessian_norm_is_matrix_norm(poly, seed, w):
    """The hessian norm is ``matrix_norm`` of the named blocks, bit for
    bit: the blocks set in (row site, column site) order, which is the
    order in which the hessian norm sums them."""
    zvars, Zid = H._live(poly)
    assume(Zid.shape[1] >= 2)
    rng = np.random.default_rng(seed)
    zeta = rng.standard_normal(len(zvars)) + 1j * rng.standard_normal(len(zvars))
    t0 = rng.standard_normal(len(Zid)) + 1j * rng.standard_normal(len(Zid))
    gammas = [WeightParams(0.0, 0.0, w.kappa, w.m_star), w]
    sites = sorted({v[0] for v in zvars})
    of = np.array([sites.index(v[0]) for v in zvars] + [-1])
    named = {(of[a], of[b]) for row in Zid for a, b in
             itertools.permutations(row[row >= 0].tolist(), 2)}
    B = dense_hessian(Zid, zvars, zeta)(t0)
    Wm = WeightedMatrix()
    for a, b in sorted(named):
        Wm.set(sites[a], sites[b], B[a, b])
    assert (H._hessian_norm(Zid, zvars, zeta, gammas)(t0)
            == max(matrix_norm(Wm, g) for g in gammas))


@st.composite
def sparse_sum_operands(draw):
    """(out, inp, n_out, X): a pattern of (output, input) pairs, repeats
    allowed, and a complex X, 1-D or with 1 to 3 columns."""
    n_out = draw(st.integers(1, 6))
    n_in = draw(st.integers(1, 30))
    pairs = draw(st.lists(st.tuples(st.integers(0, n_out - 1),
                                    st.integers(0, n_in - 1)), max_size=80))
    out, inp = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    cols = draw(st.sampled_from([None, 1, 3]))
    shape = (n_in,) if cols is None else (n_in, cols)
    parts = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                          min_size=2 * n_in * (cols or 1),
                          max_size=2 * n_in * (cols or 1)))
    X = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    return out, inp, n_out, X.reshape(shape)


@cache
def _desk_products():
    """``class_norm``'s three products on the desk beam's R=3 jet, Z @
    log(ZV), Zt @ T and P @ t0, as (out, inp, n_out, X) at each one's first
    X."""
    plan, cases = H._sparse_sums, []

    def recording(out, inp, n_out):
        apply, case = plan(out, inp, n_out), [out, inp, n_out]
        cases.append(case)

        def first(X):
            if len(case) == 3:
                case.append(X.copy())
            return apply(X)
        return first
    with mock.patch.object(H, "_sparse_sums", recording):
        class_norm(_batch_jet("desk_R3"), ClassNormParams(), W)
    return [tuple(case) for case in cases]


# output 0 sums 25 entries, 2 sums a repeated pair, 1 and 3 have none
@example(case=(np.array([0] * 25 + [2, 2]),
               np.array(list(range(24, -1, -1)) + [7, 7]), 4,
               np.exp(1j * np.arange(25.0)) * 10.0 ** np.arange(-12, 13)))
@example(case=_desk_products()[0])
@example(case=_desk_products()[1])
@example(case=_desk_products()[2])
@given(sparse_sum_operands())
def test_sparse_sums_match_scipy(case):
    """The kernel equals scipy.sparse's CSR and CSC products, bit for bit
    (``np.array_equal``, so up to the sign of a zero)."""
    out, inp, n_out, X = case
    got = H._sparse_sums(out, inp, n_out)(X)
    A = (np.ones(len(out)), (out, inp))
    for fmt in (sparse.csr_matrix, sparse.csc_matrix):
        want = fmt(A, shape=(n_out, len(X))) @ X
        assert got.shape == want.shape and np.array_equal(got, want)


def test_class_norm_homogeneous():
    rng = np.random.default_rng(5)
    f = random_poly(rng, n=1, nterms=8)
    p = ClassNormParams()
    assert class_norm(f.scale(2.5), p, W) == pytest.approx(
        2.5 * class_norm(f, p, W), rel=1e-9)


def test_hessian_decay_check():
    w = WeightParams(0.5, 1.0, 1.0, m_star=1.0)
    M = WeightedMatrix()
    min_C, viol = hessian_decay_check(M, w)
    assert min_C == 0.0 and viol == []
    # flat diagonal has no <a>^-kappa decay: minimal C grows with |a|
    for a in [(1, 0), (3, 0), (6, 0)]:
        M.set(a, a, np.eye(2))
    min_C, viol = hessian_decay_check(M, w, C=2.0)
    assert min_C == pytest.approx(36.0)
    assert any(v[0] == (6, 0) for v in viol)


def test_normal_form_hamiltonian_poly():
    part = build_partition(2, 3, 2, finite_set=[(0, 1)])
    h = NormalFormHamiltonian(omega=np.array([1.0, 2.0]), partition=part,
                              const=0.5)
    rng = np.random.default_rng(6)
    for ci, cl in enumerate(part.classes):
        if ci == part.finite_index:
            continue
        n = len(cl)
        Q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h.set_block(ci, (Q + Q.conj().T) / 2)
    H = rng.standard_normal((2, 2))
    h.hyperbolic_block = H + H.T
    poly = h.to_polynomial()
    assert reality_defect(poly, finite_set=[(0, 1)]) < 1e-12
    # quadratic form value matches direct matrix evaluation on a sample
    zvals = {}
    for s in part.sites():
        zvals[(s, 0)] = complex(rng.standard_normal(), rng.standard_normal())
        zvals[(s, 1)] = complex(rng.standard_normal(), rng.standard_normal())
    val = evaluate(poly, np.zeros(2), np.zeros(2), zvals)
    expect = 0.5
    for ci, cl in enumerate(part.classes):
        if ci == part.finite_index:
            continue
        Q = h.class_Q(ci)
        xi = np.array([zvals[(a, 0)] for a in cl])
        eta = np.array([zvals[(a, 1)] for a in cl])
        expect += xi @ Q @ eta
    wvec = np.array([zvals[((0, 1), c)] for c in (0, 1)])
    expect += 0.5 * wvec @ h.hyperbolic_block @ wvec
    assert val == pytest.approx(expect)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_set_block_rejects_a_non_finite_block(bad):
    """The Hermitian test alone reads an all-NaN block as Hermitian (NaN >
    bound is false), and eigh would fail on it later, unnamed."""
    part = build_partition(2, 3, 2)
    h = NormalFormHamiltonian(omega=np.zeros(0), partition=part)
    ci = max(part.nonfinite.tolist(), key=lambda c: len(part.classes[c]))
    m = len(part.classes[ci])
    assert m >= 2
    with pytest.raises(ValueError, match="finite"):
        h.set_block(ci, np.full((m, m), bad, dtype=complex))
    assert not h.elliptic_blocks


def test_normal_form_finite_class_holds_only_the_hyperbolic_block():
    """H starts as zeros over the finite class's components, and the
    finite class takes no elliptic block."""
    part = build_partition(2, 3, 2, finite_set=[(1, 0), (0, 1)])
    h = NormalFormHamiltonian(omega=np.array([1.0]), partition=part)
    assert h.hyperbolic_block.tobytes() == np.zeros((4, 4)).tobytes()
    with pytest.raises(ValueError, match="finite class"):
        h.set_block(part.finite_index, np.eye(2))
    assert not h.elliptic_blocks
