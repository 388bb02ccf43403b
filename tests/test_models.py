import gc
import itertools
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import binom

from kamkit.hamiltonian import ETA, XI, Polynomial
from kamkit.lattice import ball_points, norm_sq
from kamkit.models import (BeamModel, Letter, NlsModel, SingularBeamModel,
                           action_angle, build_beam, build_nls,
                           build_singular, expand_product, field_letters)

import _reference_models
from _reference_hamiltonian import (_z_derivative_table, as_dict, evaluate,
                                    reality_defect)
from _reference_models import _is_resonant_quartic, enumerate_Z4
from kamkit import models

TWO_PI = 2 * math.pi


# -- expansion machinery ------------------------------------------------

def test_expand_u2_closed_form():
    # integral of u^2 = sum_a xi_a eta_a / lam_a + off-diagonal pairings
    sites = [(-1,), (0,), (1,)]
    lam = {s: 2.0 for s in sites}
    p = expand_product(0, [(2, field_letters(sites, lam))], None, 1, 1.0)
    key = ((), (), ((((0,), XI), 1), (((0,), ETA), 1)))
    assert p.terms[key] == pytest.approx(1.0 / lam[(0,)])


def assert_same_terms(got: Polynomial, want: Polynomial):
    """Same keys in the same order, coefficients equal bit for bit."""
    assert list(got.terms) == list(want.terms)
    bits = lambda c: struct.pack("<dd", c.real, c.imag)
    assert [bits(c) for c in got.terms.values()] == \
        [bits(c) for c in want.terms.values()]


@st.composite
def expansion_cases(draw):
    d = draw(st.integers(1, 3))
    sites = list(itertools.product((-1, 0, 1), repeat=d))[:2]
    vec = st.tuples(*[st.integers(-1, 1)] * d)
    # shared variables and +-1 amplitudes make rows repeat and cancel
    letter = st.builds(Letter, mom=vec,
                       var=st.tuples(st.sampled_from(sites),
                                     st.sampled_from((XI, ETA))),
                       amp=st.sampled_from((1.0, -1.0, 0.5, 0.3, 0.0)))
    letters = st.one_of(st.just([]), st.lists(letter, min_size=1,
                                              max_size=6))
    pools = [(draw(st.integers(0, 5)), draw(letters))
             for _ in range(draw(st.integers(1, 2)))]
    xwave = draw(st.one_of(st.none(), st.tuples(*[st.integers(-2, 2)] * d)))
    k = draw(st.one_of(st.none(), st.tuples(st.integers(-2, 2))))
    coeff = draw(st.sampled_from((1.0, -0.75, 3e-3, 0.3 + 0.4j, -1j)))
    return (1, pools, xwave, d, coeff), k


@given(expansion_cases())
def test_expand_product_matches_monomial_loop(case):
    args, k = case
    assert_same_terms(expand_product(*args, k=k),
                      _reference_models.expand_product(*args, k=k))


def test_expand_product_cancelled_monomial_keeps_its_first_place():
    v, u, w = ((0,), XI), ((1,), XI), ((0,), ETA)
    heads = [Letter((0,), v, 1.0), Letter((0,), u, 1.0),
             Letter((0,), v, -1.0), Letter((0,), v, 0.5)]
    args = (0, [(1, heads), (1, [Letter((0,), w, 1.0)])], None, 1, 1.0)
    got = expand_product(*args)
    assert [z for _, _, z in got.terms] == [((v, 1), (w, 1)),
                                           ((w, 1), (u, 1))]
    assert_same_terms(got, _reference_models.expand_product(*args))


@pytest.mark.parametrize("block_rows", [None, 7])
def test_expand_product_field_letters_match_monomial_loop(monkeypatch,
                                                          block_rows):
    if block_rows:      # many small blocks: fronts split, one head per block
        monkeypatch.setattr(models, "_BLOCK_ROWS", block_rows)
    sites = ball_points(2.5, 2)
    lam = {a: math.sqrt(norm_sq(a) ** 2 + 1.37) for a in sites}
    letters = field_letters(sites, lam)
    nodes = ((0, 1), (1, -1))
    inner = [L for L in letters if L.var[0] in nodes]
    outer = [L for L in letters if L.var[0] not in nodes]
    for pools, xwave, k in (([(4, letters)], None, None),
                            ([(3, letters)], (1, 0), (1, -1)),
                            ([(3, inner), (2, outer)], None, None),
                            ([(2, letters), (0, outer)], (0, 0), None),
                            ([(0, letters)], None, (2, 0))):
        args = (2, pools, xwave, 2, 0.37)
        assert_same_terms(expand_product(*args, k=k),
                          _reference_models.expand_product(*args, k=k))


def beam_quartic_model(**kw):
    args = dict(d=2, radius=2, nodes=(), rho=(), actions=(),
                tail={0: 0.5}, nonlinearity=((4, None, 1.0),),
                epsilon=0.37, max_degree=8)
    args.update(kw)
    return BeamModel(**args)


def test_beam_quartic_fft_quadrature_oracle():
    model = beam_quartic_model()
    h, f = build_beam(model)
    sites = ball_points(2, 2)
    lam = {a: math.sqrt(norm_sq(a) ** 2 + (0.5 if norm_sq(a) == 0 else 0))
           for a in sites}
    rng = np.random.default_rng(11)
    xi = {a: complex(*rng.normal(scale=0.3, size=2)) for a in sites}
    zvals = {}
    for a in sites:
        zvals[(a, XI)] = xi[a]
        zvals[(a, ETA)] = np.conj(xi[a])
    N = 24
    x = TWO_PI * np.arange(N) / N
    X, Y = np.meshgrid(x, x, indexing="ij")
    u = np.zeros((N, N), dtype=complex)
    for a in sites:
        phase = np.exp(1j * (a[0] * X + a[1] * Y))
        u += (xi[a] * phase + np.conj(xi[a]) * np.conj(phase)) \
            / math.sqrt(2 * lam[a])
    u *= TWO_PI ** -1
    quad = (u.real ** 4).sum() * (TWO_PI / N) ** 2
    val = evaluate(f, [], [], zvals)
    assert abs(u.imag).max() < 1e-12
    assert val.imag == pytest.approx(0.0, abs=1e-10)
    assert val.real == pytest.approx(model.epsilon * quad, rel=1e-10)


def test_beam_cubic_with_forcing_wave_oracle():
    model = beam_quartic_model(nonlinearity=((3, (1, 0), 2.0),))
    h, f = build_beam(model)
    sites = ball_points(2, 2)
    lam = {a: math.sqrt(norm_sq(a) ** 2 + (0.5 if norm_sq(a) == 0 else 0))
           for a in sites}
    rng = np.random.default_rng(5)
    xi = {a: complex(*rng.normal(scale=0.3, size=2)) for a in sites}
    zvals = {(a, c): (xi[a] if c == XI else np.conj(xi[a]))
             for a in sites for c in (XI, ETA)}
    N = 24
    x = TWO_PI * np.arange(N) / N
    X, Y = np.meshgrid(x, x, indexing="ij")
    u = np.zeros((N, N), dtype=complex)
    for a in sites:
        ph = np.exp(1j * (a[0] * X + a[1] * Y))
        u += (xi[a] * ph + np.conj(xi[a] * ph)) / math.sqrt(2 * lam[a])
    u = u.real * TWO_PI ** -1
    quad = (np.exp(1j * X) * u ** 3).sum() * (TWO_PI / N) ** 2
    val = evaluate(f, [], [], zvals)
    assert val == pytest.approx(model.epsilon * 2.0 * quad, rel=1e-9)


# -- action-angle substitution ------------------------------------------

def test_action_angle_exact_even_power():
    node = (1, 0)
    p = Polynomial(1)
    p.add_term(1.0, z={(node, XI): 1, (node, ETA): 1})
    out = action_angle(p, (node,), (0.2,))
    assert out.terms[((0,), (0,), ())] == pytest.approx(0.2)
    assert out.terms[((0,), (1,), ())] == pytest.approx(1.0)


def test_action_angle_phase_and_sqrt_truncation():
    node = (1, 0)
    p = Polynomial(1)
    p.add_term(1.0, z={(node, XI): 1})
    out = action_angle(p, (node,), (0.25,), r_degree=1)
    assert out.terms[((1,), (0,), ())] == pytest.approx(0.5)    # sqrt(I)
    assert out.terms[((1,), (1,), ())] == pytest.approx(1.0)    # 1/(2 sqrt I)
    p2 = Polynomial(1)
    p2.add_term(1.0, z={(node, XI): 2})
    out2 = action_angle(p2, (node,), (0.25,))
    assert out2.terms[((2,), (0,), ())] == pytest.approx(0.25)
    assert out2.terms[((2,), (1,), ())] == pytest.approx(1.0)


def test_half_power_binomials_match_scipy():
    """The series coefficients of (I + r)^(e2/2) equal scipy.special.binom
    times I^(e2/2 - t) by ==, for e2 < 30 and every t up to the truncation,
    taken at r_degree 19, the last t of scipy's product loop."""
    for e2 in range(30):
        half = e2 / 2
        tmax = e2 // 2 if e2 % 2 == 0 else 19
        for t in range(tmax + 1):
            assert models._binom(half, t) == binom(half, t), (e2, t)
        for I in (0.05, 1.3e-4, 2.0):
            want = [(t, float(binom(half, t) * I ** (half - t)))
                    for t in range(tmax + 1)]
            assert models._half_power(e2, I, 19) == [w for w in want if w[1]]


NODES = ((1, 0), (0, 2))
OFF_NODES = ((2, 1), (1, 1), (-1, 2))
TERM_COEFFS = st.sampled_from([1.0, -1.0, 0.5, 1j, 1 - 1j, 0.3 + 0.1j]) | \
    st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                       allow_infinity=False)


@st.composite
def node_polynomials(draw, n):
    """Terms over node and non-node variables, powers up to 3; nodes are
    drawn twice as often, so terms often carry two of them."""
    sites = 2 * NODES[:n] + OFF_NODES
    p = Polynomial(n)
    for _ in range(draw(st.integers(1, 8))):
        k = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        m = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        z = draw(st.dictionaries(st.tuples(st.sampled_from(sites),
                                           st.sampled_from((XI, ETA))),
                                 st.integers(1, 3), max_size=3))
        p.add_term(draw(TERM_COEFFS), k=k, m=m, z=z)
    return p


def assert_same_repr(got: Polynomial, want: Polynomial):
    assert repr(list(got.terms.items())) == repr(list(want.terms.items()))


@given(st.data())
def test_action_angle_matches_per_term_products(data):
    n = data.draw(st.integers(1, 2))
    poly = data.draw(node_polynomials(n))
    actions = data.draw(st.lists(st.sampled_from((0.05, 0.04, 0.25, 1.3e-2)),
                                 min_size=n, max_size=n))
    kw = dict(r_degree=data.draw(st.integers(1, 2)),
              max_degree=data.draw(st.sampled_from((None, 4, 6))))
    assert_same_repr(action_angle(poly, NODES[:n], actions, **kw),
                     _reference_models.action_angle(poly, NODES[:n], actions,
                                                    **kw))


def _gauge_case(data, n):
    """node_of over the off-node sites, onto the first one or two nodes."""
    sites = data.draw(st.lists(st.sampled_from(OFF_NODES), min_size=1,
                               unique=True))
    return {b: data.draw(st.integers(0, n - 1)) for b in sites}


def assert_builders_match_per_term_loops(poly, n, actions, node_of, kw):
    assert_same_repr(action_angle(poly, NODES[:n], actions, **kw),
                     _reference_models.action_angle_per_term(
                         poly, NODES[:n], actions, **kw))
    assert_same_repr(models._gauge_k_shift(poly, node_of),
                     _reference_models._gauge_k_shift(poly, node_of))
    max_degree = kw["max_degree"]
    assert_same_repr(models._gauge_r_shift(poly, node_of, max_degree, n),
                     _reference_models._gauge_r_shift_per_term(
                         poly, node_of, max_degree, n))


@given(st.data())
def test_row_builders_match_per_term_loops(data):
    n = data.draw(st.integers(1, 2))
    poly = data.draw(node_polynomials(n))
    actions = data.draw(st.lists(st.sampled_from((0.05, 0.04, 0.25, 1.3e-2)),
                                 min_size=n, max_size=n))
    kw = dict(r_degree=data.draw(st.integers(1, 2)),
              max_degree=data.draw(st.sampled_from((None, 4, 6, 9))))
    assert_builders_match_per_term_loops(poly, n, actions,
                                         _gauge_case(data, n), kw)


def test_row_builders_two_nodes_and_cubed_actions():
    # NODES[1] sorts first: the series multiply in site order, not node order
    poly = Polynomial(2)
    poly.add_term(0.3 + 0.1j, k=(1, -2), m=(3, 2),
                  z={(NODES[0], XI): 2, (NODES[1], ETA): 1,
                     (OFF_NODES[0], XI): 1})
    poly.add_term(-1.0, m=(1, 3), z={(NODES[0], ETA): 1, (NODES[1], XI): 3})
    poly.add_term(0.7j, k=(0, 1), m=(3, 0), z={(OFF_NODES[1], ETA): 2})
    node_of = {OFF_NODES[0]: 1, OFF_NODES[1]: 0, OFF_NODES[2]: 0}
    for r_degree in (1, 2):
        for max_degree in (None, 8, 12):
            assert_builders_match_per_term_loops(
                poly, 2, (0.05, 1.3e-2), node_of,
                dict(r_degree=r_degree, max_degree=max_degree))


@given(st.data())
def test_gauge_r_shift_matches_per_term_products(data):
    shifted = data.draw(st.integers(1, 2))       # nodes carrying shifts
    n = data.draw(st.integers(shifted, 2))
    poly = data.draw(node_polynomials(n))
    sites = data.draw(st.lists(st.sampled_from(OFF_NODES), min_size=1,
                               unique=True))
    node_of = {b: data.draw(st.integers(0, shifted - 1)) for b in sites}
    max_degree = data.draw(st.sampled_from((None, 4, 6)))
    assert_same_repr(models._gauge_r_shift(poly, node_of, max_degree, n),
                     _reference_models._gauge_r_shift(poly, node_of,
                                                      max_degree, n))


# -- beam model ----------------------------------------------------------

def test_beam_zero_nonlinearity_quadratic():
    model = beam_quartic_model(nonlinearity=())
    h, f = build_beam(model)
    assert len(f) == 0
    poly = h.to_polynomial()
    assert all(sum(m) * 2 + sum(p for _, p in zk) == 2
               for (k, m, zk) in poly.terms)


def test_beam_degenerate_mu_rejected():
    with pytest.raises(ValueError):
        build_beam(beam_quartic_model(tail={}))       # mu_0 = 0
    with pytest.raises(ValueError):
        build_beam(beam_quartic_model(tail={0: 1.0, 1: 0.0, 2: -3.0}))


def test_beam_node_outside_the_ball_rejected():
    model = BeamModel(d=2, radius=1.5, nodes=((1, 0), (0, 2)), rho=(0.7, 1.3),
                      actions=(0.05, 0.04), tail={0: 0.5}, delta=2)
    with pytest.raises(ValueError, match=r"node \(0, 2\) lies outside"):
        build_beam(model)


def test_beam_positive_mu_has_no_hyperbolic_part():
    h, f = build_beam(beam_quartic_model())
    assert h.finite_set == ()
    assert h.hyperbolic_block.shape == (0, 0)


def test_beam_negative_mu_builds_hyperbolic_block():
    h, f = build_beam(beam_quartic_model(tail={0: -1.0}))
    assert h.finite_set == ((0, 0),)
    H = h.hyperbolic_block
    assert H.shape == (2, 2)
    assert H[0, 1] == pytest.approx(1.0)


def test_beam_internal_modes_leave_partition_and_f():
    model = beam_quartic_model(nodes=((1, 0), (0, 2)), rho=(0.3, 0.7),
                               actions=(1e-2, 2e-2),
                               nonlinearity=((3, None, 1.0),))
    h, f = build_beam(model)
    assert (1, 0) not in h.partition.class_of
    assert all(site not in model.nodes for site in as_dict(f).sites())
    assert h.omega[0] == pytest.approx(math.sqrt(1 + 0.3))
    assert reality_defect(f) < 1e-12


def test_beam_unperturbed_torus_invariant():
    # short integration of the normal-form flow conserves every |xi_a|^2
    model = beam_quartic_model(nodes=((1, 0),), rho=(0.3,), actions=(1e-2,),
                               radius=1.5, nonlinearity=())
    h, f = build_beam(model)
    poly = h.to_polynomial()
    sites = [s for s in h.partition.sites()]
    dpoly = _z_derivative_table(poly)
    dxi = {s: dpoly[(s, ETA)].scale(1j) for s in sites}
    deta = {s: dpoly[(s, XI)].scale(-1j) for s in sites}
    rng = np.random.default_rng(3)
    z = {(s, c): complex(*rng.normal(scale=0.1, size=2))
         for s in sites for c in (XI, ETA)}
    start = {s: abs(z[(s, XI)]) for s in sites}
    theta, r = [0.1], [0.0]
    dt = 0.01
    for _ in range(50):
        def rhs(zz):
            return {(s, c): (dxi if c == XI else deta)[s].evaluate(
                theta, r, zz) for s, c in zz}
        k1 = rhs(z)
        k2 = rhs({v: z[v] + dt / 2 * k1[v] for v in z})
        k3 = rhs({v: z[v] + dt / 2 * k2[v] for v in z})
        k4 = rhs({v: z[v] + dt * k3[v] for v in z})
        z = {v: z[v] + dt / 6 * (k1[v] + 2 * k2[v] + 2 * k3[v] + k4[v])
             for v in z}
    drift = max(abs(abs(z[(s, XI)]) - start[s]) for s in sites)
    assert drift < 1e-10


# -- NLS model -----------------------------------------------------------

def test_nls_pure_normal_form():
    model = NlsModel(d=2, radius=3, mass=1.0, alpha=0.5, rho=(1.3,))
    h, f = build_nls(model)
    assert len(f) == 0
    assert h.omega[0] == pytest.approx(1.3)
    Q = h.class_Q(h.partition.class_of[(1, 1)])
    assert Q[0, 0].real == pytest.approx(3.0)  # |a|^2 + m on the sphere


def test_nls_parameter_validation():
    with pytest.raises(ValueError):
        build_nls(NlsModel(d=2, radius=3, mass=1.0, alpha=0.0, rho=(1.0,)))
    with pytest.raises(ValueError):
        build_nls(NlsModel(d=2, radius=3, mass=-1.0, alpha=0.5, rho=(1.0,)))


def test_nls_smoothing_decay_exponent():
    alpha = 0.3
    model = NlsModel(d=2, radius=4, mass=1.0, alpha=alpha, rho=(1.0,),
                     forcing=(((1,), 1, 1, None, 1.0),))
    h, f = build_nls(model)
    pairs = []
    for (k, m, zk), c in f.terms.items():
        assert k == (1,)
        site = zk[0][0][0]
        assert norm_sq(site) > 0          # zero mode annihilated
        if len(zk) == 2 and zk[0][0][0] == zk[1][0][0]:
            pairs.append((norm_sq(site), abs(c)))
    pairs.sort()
    for nsq, c in pairs:
        assert c == pytest.approx(nsq ** (-2 * alpha), rel=1e-12)
    (n1, c1), (n2, c2) = pairs[0], pairs[-1]
    slope = math.log(c2 / c1) / math.log(n2 / n1)
    assert slope == pytest.approx(-2 * alpha, abs=1e-9)


# -- resonant quadruple enumeration --------------------------------------

def test_z4_example_quadruple_included():
    table = enumerate_Z4(2, (), d=2)
    quads = {q[:4] for q in table}
    assert ((1, 0), (0, 1), (-1, 0), (0, -1)) in quads
    for i, j, k, ell, kind in table:
        assert tuple(np.add(np.add(i, j), np.add(k, ell))) == (0, 0)


def test_z4_matches_brute_force():
    R, d = 2, 2
    pts = ball_points(R, d)
    expected = set()
    for i in pts:
        for j in pts:
            for k in pts:
                ell = tuple(-(a + b + c) for a, b, c in zip(i, j, k))
                if norm_sq(ell) > R * R:
                    continue
                ni, nj, nk, nl = map(norm_sq, (i, j, k, ell))
                if sorted((ni, nj)) == sorted((nk, nl)):
                    expected.add((i, j, k, ell))
    got = {q[:4] for q in enumerate_Z4(R, (), d=d)}
    assert got == expected


def test_z4_no_three_node_terms_for_admissible_set():
    nodes = ((0, 1), (1, -1))
    table = enumerate_Z4(4, nodes, d=2)
    kinds = [kind for *_, kind in table]
    assert kinds.count("three") == 0
    assert kinds.count("P") > 0 and kinds.count("Q") > 0
    assert kinds.count("internal") > 0


def test_z4_coefficients_match_quartic_expansion():
    # independent cross-check: the resonant coefficients of the integral of
    # u^4 equal (3/2)(2 pi)^{-d} / (lam_i lam_j) summed over the ordered
    # quadruples producing each monomial
    R, d, m = 2, 2, 1.37
    sites = ball_points(R, d)
    lam = {a: math.sqrt(norm_sq(a) ** 2 + m) for a in sites}
    f4 = expand_product(0, [(4, field_letters(sites, lam))], None, d, 1.0)
    nsq_of = {a: norm_sq(a) for a in sites}
    expected = {}
    for i, j, k, ell, kind in enumerate_Z4(R, (), d=d):
        zkey = {}
        for site in (i, j):
            v = (site, XI)
            zkey[v] = zkey.get(v, 0) + 1
        for site in (k, ell):
            v = (tuple(-x for x in site), ETA)
            zkey[v] = zkey.get(v, 0) + 1
        key = ((), (), tuple(sorted(zkey.items())))
        expected[key] = expected.get(key, 0.0) \
            + 1.5 * TWO_PI ** -d / (lam[i] * lam[j])
    got = {key: c for key, c in f4.terms.items()
           if _is_resonant_quartic(key[2], nsq_of)}
    assert set(got) == set(expected)
    for key in got:
        assert got[key] == pytest.approx(expected[key], rel=1e-12)


# -- singular beam -------------------------------------------------------

def singular_model(t=1e-3, **kw):
    args = dict(d=2, radius=5, nodes=((0, 1), (1, -1)), mass=1.37,
                actions=(t, 1.3 * t), quintic=1.0)
    args.update(kw)
    return SingularBeamModel(**args)


def test_singular_requires_strong_admissibility():
    with pytest.raises(ValueError):
        build_singular(singular_model(
            d=3, radius=2, nodes=((0, 1, 0), (1, -1, 0)), actions=(1e-3,
                                                                   1e-3)))


def test_singular_nongeneric_mass_detected():
    with pytest.raises(ValueError):
        build_singular(singular_model(radius=2, birkhoff_threshold=10.0))


@pytest.mark.parametrize("threshold", [10.0, 3.0])
def test_singular_nongeneric_mass_names_first_monomial(threshold):
    """The error names the first offending quartic monomial in the order
    of the per-monomial expansion, with its divisor."""
    model = singular_model(radius=2, birkhoff_threshold=threshold)
    sites = ball_points(2, 2)
    nsq_of = {a: norm_sq(a) for a in sites}
    lam = {a: math.sqrt(nsq_of[a] ** 2 + model.mass) for a in sites}
    f4 = _reference_models.expand_product(
        2, [(4, field_letters(sites, lam))], None, 2, 1.0)
    for (_, _, zk), _ in f4.terms.items():
        if _is_resonant_quartic(zk, nsq_of):
            continue
        div = 0.0
        for (site, comp), p in zk:
            div += (1 if comp == XI else -1) * p * lam[site]
        if abs(div) < threshold:
            break
    with pytest.raises(ValueError) as err:
        build_singular(model)
    assert str(err.value) == ("non-generic mass: Birkhoff divisor %.3e at %r"
                              % (div, zk))


def test_singular_build_does_not_depend_on_block_size(monkeypatch):
    """The quartic streams through the Birkhoff classification one block at
    a time.  Blocks of a few rows split the fronts, and some come out
    empty; the build keeps the same rows, bit for bit, the same counts and
    the same first offending monomial."""
    def outcome(model):
        try:
            return build_singular(model)
        except ValueError as exc:
            return str(exc)

    cases = [golden_singular_model()] + [
        singular_model(radius=2, birkhoff_threshold=t) for t in (10.0, 3.0)]
    want = [outcome(m) for m in cases]
    monkeypatch.setattr(models, "_BLOCK_ROWS", 7)
    expansion, sizes = models._expansion, []

    def counted(*args):
        zvars, blocks = expansion(*args)
        sizes.append([])

        def each(mine=sizes[-1]):
            for Z, c in blocks:
                mine.append(len(c))
                yield Z, c
        return zvars, each()

    monkeypatch.setattr(models, "_expansion", counted)
    got = [outcome(m) for m in cases]
    assert 0 in sizes[0]            # the first expansion is the quartic
    f, g = want[0].f_tilde, got[0].f_tilde
    assert f.zvars == g.zvars
    for a, b in zip(f.rows, g.rows):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got[0].birkhoff_killed == want[0].birkhoff_killed
    assert repr(got[0].birkhoff_min_divisor) \
        == repr(want[0].birkhoff_min_divisor)
    assert got[1:] == want[1:]
    assert all(msg.startswith("non-generic mass") for msg in got[1:])


def test_singular_build_memory_is_bounded():
    """The singular_build benchmark model: no quartic table outlives its
    block, so the traced peak stays under 12 MiB (34.6 MiB when the whole
    table was classified at once), and nothing but the result is kept
    (10.4 MiB when the table was cached for the process)."""
    model = singular_model(t=1e-2, max_degree=5)
    gc.collect()
    tracemalloc.start()
    try:
        nf = build_singular(model)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nf.birkhoff_killed > 0
    assert peak < 12 * 2 ** 20
    assert held < 3 * 2 ** 20


def test_singular_empty_node_set():
    nf = build_singular(singular_model(radius=2, nodes=(), actions=(),
                                       quintic=0.0))
    assert nf.lambda_f_sites == ()
    assert nf.lambda_h == ()
    assert len(nf.omega_I) == 0
    # external frequencies keep their unperturbed values
    assert nf.lambda_sites[(1, 0)] == pytest.approx(math.sqrt(1 + 1.37))


def test_singular_hyperbolic_modes_present():
    nf = build_singular(singular_model())
    assert len(nf.lambda_h) > 0
    assert nf.H_I.shape == (2 * len(nf.lambda_h), 2 * len(nf.lambda_h))
    assert np.allclose(nf.H_I, nf.H_I.T)
    # the indefinite block really is hyperbolic
    J = np.kron(np.eye(len(nf.lambda_h)), np.array([[0., 1.], [-1., 0.]]))
    ev = np.linalg.eigvals(J @ nf.H_I)
    assert np.abs(ev.real).max() > 1e-8


def test_singular_frequencies_and_remainder():
    nf = build_singular(singular_model())
    lam1 = math.sqrt(1 + 1.37)
    assert nf.omega_I[0] == pytest.approx(lam1, abs=0.1)
    assert abs(nf.omega_I[0] - lam1) > 1e-5       # quartic shift present
    assert reality_defect(nf.f_tilde) < 1e-10
    assert nf.birkhoff_killed > 0
    assert nf.birkhoff_min_divisor >= nf.model.birkhoff_threshold


def test_singular_scaling_probes():
    vals = []
    for t in (1e-3, 2.5e-4):
        nf = build_singular(singular_model(t=t))
        vals.append((nf.a2_floor, nf.jet().max_coeff()))
    (a1, j1), (a2, j2) = vals
    assert a1 / a2 == pytest.approx(4.0, rel=0.05)          # linear in |I|
    assert j1 / j2 == pytest.approx(8.0, rel=0.1)           # |I|^{3/2}


# -- golden regression ---------------------------------------------------
#
# Frozen outputs of a small singular build and a two-pool NLS build.  The
# files were written by ``_write_goldens`` before the expansion became an
# array pass; regenerate them only for an intended change of results:
#     cd tests && PYTHONPATH=../src python -c \
#         "import test_models as t; t._write_goldens()"

GOLDEN = Path(__file__).parent / "golden"


def golden_singular_model():
    return singular_model(radius=3)


def golden_nls_model():
    return NlsModel(d=2, radius=2, mass=1.0, alpha=0.5, rho=(1.3, 0.7),
                    forcing=(((1, 0), 1, 1, None, 1.0),
                             ((0, 1), 2, 1, (1, 0), 0.5),
                             ((1, -1), 1, 2, (0, 1), -0.3),
                             ((0, 0), 0, 3, (-1, 1), 0.25),
                             ((2, 0), 3, 0, None, 0.125)),
                    epsilon=0.7)


def singular_golden_files(nf) -> dict:
    summary = [f"omega_I {' '.join(map(repr, nf.omega_I.tolist()))}",
               f"const {nf.const!r}",
               f"birkhoff_killed {nf.birkhoff_killed}",
               f"birkhoff_min_divisor {nf.birkhoff_min_divisor!r}",
               f"lambda_h {' '.join(','.join(map(str, a)) for a in nf.lambda_h)}",
               f"H_I {nf.H_I.shape[0]}x{nf.H_I.shape[1]}"]
    summary += [" ".join(map(repr, row)) for row in nf.H_I.tolist()]
    summary += [f"lambda {','.join(map(str, a))} {v!r}"
                for a, v in nf.lambda_sites.items()]
    return {"summary.txt": "\n".join(summary) + "\n",
            "f_tilde.txt":
                "\n".join(as_dict(nf.f_tilde).dump_lines()) + "\n"}


def nls_golden_files(f) -> dict:
    return {"f.txt": "\n".join(as_dict(f).dump_lines()) + "\n"}


def _golden_outputs() -> dict:
    return {"singular_d2_R3": singular_golden_files(
                build_singular(golden_singular_model())),
            "nls_d2_R2": nls_golden_files(build_nls(golden_nls_model())[1])}


def _write_goldens():
    for case, files in _golden_outputs().items():
        (GOLDEN / case).mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (GOLDEN / case / name).write_text(text)


def test_singular_build_matches_golden():
    files = singular_golden_files(build_singular(golden_singular_model()))
    for name, text in files.items():
        assert text == (GOLDEN / "singular_d2_R3" / name).read_text(), name


def test_nls_build_matches_golden():
    files = nls_golden_files(build_nls(golden_nls_model())[1])
    for name, text in files.items():
        assert text == (GOLDEN / "nls_d2_R2" / name).read_text(), name
