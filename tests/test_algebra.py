import math

import numpy as np
import pytest

from kamkit.algebra import (I2, J2, WeightParams, decay_weight,
                            spectral_norm_2x2)
from kamkit.blockmatrix import (SeqVector, WeightedMatrix, _stack,
                                matrix_norm, seq_norm)
from kamkit.hamiltonian import NormalFormHamiltonian
from kamkit.lattice import ball_points, build_partition

from _reference_algebra import (_stack_from_dict, b_norm, bracket,
                                check_normal_form, involution, operator_norm,
                                pi_project, to_complex, to_real_matrix,
                                weight)
from _reference_class_norm import per_row_decay_norm


def random_matrix(rng, sites, density=0.3, truncation=8.0):
    A = WeightedMatrix(truncation=truncation)
    for a in sites:
        for b in sites:
            if rng.random() < density:
                A.set(a, b, rng.standard_normal((2, 2))
                      + 1j * rng.standard_normal((2, 2)))
    return A


def test_seq_norm_examples():
    w = WeightParams(gamma1=0.0, gamma2=1.0)
    assert seq_norm(SeqVector(), w) == 0.0
    z = SeqVector()
    z.set((2, 0), (1.0, 0.0))
    assert seq_norm(z, w) == pytest.approx(2.0)
    # flat weights: plain l2 of the stacked entries
    w0 = WeightParams(gamma1=0.0, gamma2=0.0)
    z2 = SeqVector()
    z2.set((1, 1), (3.0, 4.0))
    assert seq_norm(z2, w0) == pytest.approx(5.0)


def test_weight_examples():
    w0 = WeightParams(0.0, 0.0, 0.0)
    assert weight((2, 1), (2, 1), w0) == pytest.approx(1.0)
    w1 = WeightParams(0.5, 2.0, 1.0)
    assert weight((1, 0), (-1, 0), w1) == pytest.approx(1.0)
    w2 = WeightParams(1.0, 2.0, 1.0)
    assert weight((3, 0), (0, 0), w2) == pytest.approx(math.exp(3) * 9.0)
    # decay_weight on random pairs: bit for bit where only square roots
    # and products enter (the pseudo-distance and the brackets); numpy's
    # exp and pow may round differently from math's, by an ulp or two
    rng = np.random.default_rng(14)
    for d in (1, 2, 3):
        A, B = rng.integers(-12, 13, size=(2, 500, d))
        for w, rel in ((WeightParams(0.0, 1.0, 1.0), 0.0),
                       (WeightParams(0.3, 1.5, 0.5), 2e-15),
                       (WeightParams(1.0, 3.0, 1.5), 2e-15)):
            want = [weight(a, b, w) for a, b in zip(map(tuple, A.tolist()),
                                                    map(tuple, B.tolist()))]
            got = decay_weight(A, B, w)
            assert got.shape == (500,)
            if rel:
                assert got == pytest.approx(want, rel=rel, abs=0)
            else:
                assert got.tolist() == want


def test_matrix_norm_examples():
    w = WeightParams(0.0, 0.0, 0.0)
    assert matrix_norm(WeightedMatrix(), w) == 0.0
    A = WeightedMatrix()
    for a in ball_points(3, 2):
        A.set(a, a, I2)
    assert matrix_norm(A, w) == pytest.approx(1.0)


def test_matrix_norm_bruteforce():
    rng = np.random.default_rng(1)
    sites = ball_points(2, 2)
    A = random_matrix(rng, sites)
    w = WeightParams(0.3, 1.5, 0.5)
    # independent double loop over the definition
    rows = {a: 0.0 for a in sites}
    cols = {b: 0.0 for b in sites}
    for a in sites:
        for b in sites:
            v = np.linalg.norm(A.get(a, b), 2) * weight(a, b, w)
            rows[a] += v
            cols[b] += v
    expect = max(max(rows.values()), max(cols.values()))
    assert matrix_norm(A, w) == pytest.approx(expect, rel=1e-10)


def _random_unitary(rng):
    Q, R = np.linalg.qr(rng.standard_normal((2, 2))
                        + 1j * rng.standard_normal((2, 2)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def test_spectral_norm_2x2():
    rng = np.random.default_rng(2)
    for _ in range(30):
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert spectral_norm_2x2(M) == pytest.approx(np.linalg.norm(M, 2))
    # nearly coincident singular values 1 + t and 1, t in [1e-16, 1e-6]
    for t in np.logspace(-16, -6, 200):
        M = _random_unitary(rng) @ np.diag([1 + t, 1.0]) @ _random_unitary(rng)
        assert spectral_norm_2x2(M) == pytest.approx(np.linalg.norm(M, 2),
                                                     rel=1e-14)
    # batched (k, 2, 2) input
    Ms = rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2))
    Ms[:10] = [_random_unitary(rng) @ np.diag([1 + 1e-12, 1.0])
               @ _random_unitary(rng) for _ in range(10)]
    got = spectral_norm_2x2(Ms)
    assert got.shape == (50,)
    assert got == pytest.approx(np.linalg.norm(Ms, 2, axis=(1, 2)), rel=1e-14)


def _dense(A, sites):
    """Blocks -> (2n x 2n) array over the given site order."""
    idx = {s: i for i, s in enumerate(sites)}
    D = np.zeros((2 * len(sites), 2 * len(sites)), dtype=complex)
    for (a, b), M in A.blocks.items():
        i, j = idx[a], idx[b]
        D[2 * i:2 * i + 2, 2 * j:2 * j + 2] = M
    return D


def _dense_matrix_norm(D, sites, w):
    n = len(sites)
    bn = np.linalg.norm(D.reshape(n, 2, n, 2), 2, axis=(1, 3))
    wt = np.array([[weight(a, b, w) for b in sites] for a in sites])
    return max((bn * wt).sum(axis=1).max(), (bn * wt).sum(axis=0).max())


def _random_block(rng):
    return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))


def blocks_on(rng, rows, cols):
    """Random blocks on half of rows x cols."""
    A = WeightedMatrix()
    for a in rows:
        for b in cols:
            if rng.random() < 0.5:
                A.set(a, b, _random_block(rng))
    return A


def test_stacked_paths_match_dense():
    rng = np.random.default_rng(11)
    w = WeightParams(0.3, 1.5, 0.5)
    pts = ball_points(3, 2)
    S1, S2, S3 = pts[:9], pts[9:18], pts[18:]
    sites = pts
    A, B, E = blocks_on(rng, S1, S2), blocks_on(rng, S2, S3), WeightedMatrix()
    full = blocks_on(rng, pts, pts)
    z = SeqVector()
    for s in S2 + S3:
        z.set(s, rng.standard_normal(2) + 1j * rng.standard_normal(2))
    # an empty operand
    assert E.matmul(A).blocks == {} and A.matmul(E).blocks == {}
    assert E.apply(z).entries == {} and matrix_norm(E, w) == 0.0
    # operands on disjoint site sets: A B lives on S1 x S3, B A vanishes
    assert B.matmul(A).blocks == {}
    for X, Y in ((A, B), (full, A), (B, full), (full, full)):
        P = X.matmul(Y)
        want = _dense(X, sites) @ _dense(Y, sites)
        err = np.abs(_dense(P, sites) - want).max()
        assert err <= 1e-13 * np.abs(want).max()
        assert all(np.any(M != 0) for M in P.blocks.values())
        assert matrix_norm(P, w) == pytest.approx(
            _dense_matrix_norm(want, sites, w), rel=1e-12)
    for X in (A, B, full):
        y = X.apply(z)
        v = np.concatenate([z.get(s) for s in sites])
        want = (_dense(X, sites) @ v).reshape(-1, 2)
        got = np.array([y.get(s) for s in sites])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert set(y.entries) == {s for s, r in zip(sites, want) if r.any()}
    # a product whose blocks cancel exactly (integer entries, so every
    # partial sum is exact) is absent from .blocks
    a, b, c, d = pts[:4]
    M = rng.integers(-5, 6, (2, 2)) + 1j * rng.integers(-5, 6, (2, 2))
    N = rng.integers(-5, 6, (2, 2)).astype(float)
    X, Y = WeightedMatrix(), WeightedMatrix()
    X.set(a, b, M)
    X.set(a, c, -M)
    X.set(d, c, I2)
    Y.set(b, d, N)
    Y.set(c, d, N)
    P = X.matmul(Y)
    assert set(P.blocks) == {(d, d)}
    assert np.array_equal(P.get(d, d), N)


def _same_arrays(got, want):
    """Equal dtype, shape and bytes."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _same_stack(got, want):
    (sites, forms), (want_sites, want_forms) = got, want
    assert sites == want_sites and len(forms) == len(want_forms)
    for form, want_form in zip(forms, want_forms):
        for x, y in zip(form, want_form, strict=True):
            _same_arrays(x, y)


def _same_blocks(P, Q):
    """The same keys in the same order, and the same block bytes."""
    assert list(P.blocks) == list(Q.blocks)
    for M, N in zip(P.blocks.values(), Q.blocks.values()):
        _same_arrays(M, N)


def test_stack_matches_dict_stacking_bit_for_bit():
    """Stacking from the kept forms returns what stacking the dicts afresh
    returns, in the same order and with the same bytes."""
    rng = np.random.default_rng(17)
    pts = ball_points(3, 2)
    S1, S2, S3 = pts[:9], pts[9:18], pts[18:]
    A, B, C = (blocks_on(rng, S1, S2), blocks_on(rng, S2, S3),
               blocks_on(rng, S3, S3))
    E = WeightedMatrix()
    full = blocks_on(rng, pts, pts)
    # one matrix, stacked cold and then from its kept form
    for X in (A, full, full):
        _same_stack(_stack(X), _stack_from_dict(X))
    # several: overlapping (A, B share S2) and disjoint (A, C) site sets
    for mats in ((A, B), (B, A), (A, C), (A, full, B), (C, A, C)):
        _same_stack(_stack(*mats), _stack_from_dict(*mats))
    # an empty matrix, alone and beside others
    for mats in ((E,), (E, A), (A, E, B)):
        _same_stack(_stack(*mats), _stack_from_dict(*mats))
    # the forms products carry, an empty product among them
    products = [A.matmul(B), B.matmul(A), full.matmul(A), full.matmul(full)]
    assert products[1].blocks == {}
    # a product whose blocks cancel exactly (integer entries, so every
    # partial sum is exact): one block survives, on one of the four sites
    a, b, c, d = pts[:4]
    M = rng.integers(-5, 6, (2, 2)) + 1j * rng.integers(-5, 6, (2, 2))
    X, Y = WeightedMatrix(), WeightedMatrix()
    X.set(a, b, M)
    X.set(a, c, -M)
    X.set(d, c, I2)
    Y.set(b, d, I2)
    Y.set(c, d, I2)
    products.append(X.matmul(Y))
    assert list(products[-1].blocks) == [(d, d)]
    for P in products:
        _same_stack(_stack(P), _stack_from_dict(P))
        _same_stack(_stack(P, A), _stack_from_dict(P, A))


def test_stacked_form_follows_every_write():
    """After each kind of write to a matrix that was already stacked, its
    norm, products and application equal those of a fresh copy of the same
    blocks, bit for bit."""
    rng = np.random.default_rng(19)
    w = WeightParams(0.3, 1.5, 0.5)
    pts = ball_points(3, 2)
    A, B = random_matrix(rng, pts[:12]), random_matrix(rng, pts)
    z = SeqVector()
    for s in pts:
        z.set(s, rng.standard_normal(2) + 1j * rng.standard_normal(2))
    old = next(iter(A.blocks))
    new = (pts[20], pts[3])       # pts[20] is not yet a site of A
    writes = {
        "set a new block": lambda: A.set(*new, _random_block(rng)),
        "overwrite a block": lambda: A.set(*old, _random_block(rng)),
        "set a zero block": lambda: A.set(*old, np.zeros((2, 2))),
        "add": lambda: A.add(*new, _random_block(rng)),
        "assign .blocks": lambda: setattr(
            A, "blocks", dict(list(A.blocks.items())[::2])),
    }
    for what, write in writes.items():
        matrix_norm(A, w)
        write()
        F = WeightedMatrix(dict(A.blocks), A.truncation)
        assert matrix_norm(A, w) == matrix_norm(F, w), what
        _same_blocks(A.matmul(B), F.matmul(B))
        _same_blocks(B.matmul(A), B.matmul(F))
        y, y_fresh = A.apply(z), F.apply(z)
        assert list(y.entries) == list(y_fresh.entries), what
        for u, v in zip(y.entries.values(), y_fresh.entries.values()):
            _same_arrays(u, v)


def test_operator_norm_power_iteration_matches_svd():
    rng = np.random.default_rng(12)
    sites = ball_points(15, 2)
    assert len(sites) > 600            # past the dense-SVD cut-over
    A = WeightedMatrix()
    for a in sites:
        A.set(a, a, 0.1 * rng.standard_normal((2, 2)))
        for _ in range(2):
            b = sites[rng.integers(len(sites))]
            A.add(a, b, 0.1 * (rng.standard_normal((2, 2))
                               + 1j * rng.standard_normal((2, 2))))
    A.set(sites[0], sites[1], np.array([[3.0, 1.0], [0.0, 2.0]]))
    w = WeightParams(0.0, 0.5)
    ws = np.array([bracket(s) ** 0.5 for s in sites])
    D = _dense(A, sites) * np.repeat(ws, 2)[:, None] / np.repeat(ws, 2)[None]
    assert operator_norm(A, w) == pytest.approx(np.linalg.norm(D, 2),
                                                rel=1e-9)


def test_b_norm_zero_and_diagonal():
    w = WeightParams(0.2, 2.0, 0.5, m_star=1.0)
    assert b_norm(WeightedMatrix(), w) == 0.0
    lam = 1.7
    A = WeightedMatrix()
    sites = ball_points(3, 2)
    for a in sites:
        A.set(a, a, lam * I2)
    shifted = WeightParams(w.gamma1, w.gamma2 - w.m_star, w.kappa, w.m_star)
    wmax = max(weight(a, a, shifted) for a in sites)
    assert b_norm(A, w) == pytest.approx(lam * (1.0 + wmax), rel=1e-8)


def test_b_norm_requires_gamma2_margin():
    with pytest.raises(ValueError):
        b_norm(WeightedMatrix(), WeightParams(0.0, 0.5, 0.0, m_star=1.0))


def test_operator_norm_matches_svd_oracle():
    rng = np.random.default_rng(3)
    sites = ball_points(2, 2)
    A = random_matrix(rng, sites, density=1.0)
    w = WeightParams(0.1, 1.0, 0.0)
    idx = {s: i for i, s in enumerate(sites)}
    ws = [max(1.0, math.sqrt(sum(x * x for x in s)))
          * math.exp(0.1 * math.sqrt(sum(x * x for x in s))) for s in sites]
    n = len(sites)
    M = np.zeros((2 * n, 2 * n), dtype=complex)
    for a in sites:
        for b in sites:
            i, j = idx[a], idx[b]
            M[2 * i:2 * i + 2, 2 * j:2 * j + 2] = A.get(a, b) * ws[i] / ws[j]
    assert operator_norm(A, w) == pytest.approx(np.linalg.norm(M, 2), abs=1e-8)


def test_operator_bound_on_random_samples():
    rng = np.random.default_rng(4)
    sites = ball_points(3, 2)
    w = WeightParams(0.3, 2.0, 0.5)
    for wt in (WeightParams(0.0, 0.0), WeightParams(0.1, 1.0),
               WeightParams(0.3, 2.0)):
        for _ in range(5):
            A = random_matrix(rng, sites)
            z = SeqVector()
            for s in sites:
                z.set(s, rng.standard_normal(2) + 1j * rng.standard_normal(2))
            lhs = seq_norm(A.apply(z), wt)
            rhs = matrix_norm(A, w) * seq_norm(z, wt)
            assert lhs <= rhs * (1 + 1e-12)


def test_algebra_inequality_random():
    rng = np.random.default_rng(5)
    sites = ball_points(3, 2)
    w = WeightParams(0.4, 1.5, 1.0)
    w0 = WeightParams(0.4, 1.5, 0.0)
    for _ in range(10):
        A = random_matrix(rng, sites)
        B = random_matrix(rng, sites)
        lhs = matrix_norm(B.matmul(A), w)
        rhs = matrix_norm(A, w0) * matrix_norm(B, w)
        assert lhs <= rhs * (1 + 1e-12)


def _norm_algebra_operands(seed):
    """The (matrix, weight) pairs that the norm_algebra benchmark workload
    hands to matrix_norm at this seed, drawn in its order: per product,
    B.matmul(A) at w, A at w0 and B at w; per application, A at w."""
    rng = np.random.default_rng(42 + seed)
    sites = ball_points(8, 2)
    out = []
    for _ in range(3):
        g1, g2 = rng.uniform(0.05, 0.6), rng.uniform(0.5, 2.0)
        w = WeightParams(g1, g2, rng.uniform(0.0, g2))
        A = random_matrix(rng, sites, density=0.08)
        B = random_matrix(rng, sites, density=0.08)
        out += [(B.matmul(A), w), (A, WeightParams(g1, g2, 0.0)), (B, w)]
    for _ in range(3):
        g1, g2 = rng.uniform(0.05, 0.6), rng.uniform(0.5, 2.0)
        w = WeightParams(g1, g2, rng.uniform(0.0, g2))
        rng.uniform(0.0, g1), rng.uniform(0.0, g2)   # the sequence weight
        out.append((random_matrix(rng, sites, density=0.08), w))
        for _ in sites:                               # the vector z
            if rng.random() < 0.2:
                rng.standard_normal(2), rng.standard_normal(2)
    return out


@pytest.mark.parametrize("seed", range(8))
def test_matrix_norm_is_the_per_row_decay_norm_bit_for_bit(seed):
    """matrix_norm passes decay_norm one row of block norms; the result is
    the one-row decay norm's, byte for byte."""
    for M, w in _norm_algebra_operands(seed):
        sites, ((rows, cols, data),) = _stack(M)
        want = per_row_decay_norm(np.array(sites), rows, cols, [w])(
            spectral_norm_2x2(data))
        assert np.float64(matrix_norm(M, w)).tobytes() \
            == np.float64(want).tobytes()


def test_matrix_norm_is_a_norm():
    rng = np.random.default_rng(6)
    sites = ball_points(2, 2)
    w = WeightParams(0.2, 1.0, 0.3)
    for _ in range(10):
        A = random_matrix(rng, sites)
        B = random_matrix(rng, sites)
        assert matrix_norm(A + B, w) <= matrix_norm(A, w) + matrix_norm(B, w) + 1e-12
        c = rng.standard_normal()
        assert matrix_norm(A.scale(c), w) == pytest.approx(abs(c) * matrix_norm(A, w))


def test_pi_project():
    assert np.allclose(pi_project(I2), I2)
    assert np.allclose(pi_project(J2), J2)
    assert np.allclose(pi_project(np.diag([1.0, -1.0])), 0.0)
    # idempotent and HS self-adjoint
    rng = np.random.default_rng(7)
    for _ in range(10):
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        N = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        P = pi_project(M)
        assert np.allclose(pi_project(P), P)
        lhs = np.trace(pi_project(M).conj().T @ N)
        rhs = np.trace(M.conj().T @ pi_project(N))
        assert lhs == pytest.approx(rhs)


def test_involution_is_an_involution():
    rng = np.random.default_rng(8)
    z = SeqVector()
    for s in ball_points(2, 2):
        z.set(s, rng.standard_normal(2) + 1j * rng.standard_normal(2))
    zz = involution(involution(z, [(0, 1)]), [(0, 1)])
    for s in z.entries:
        assert np.allclose(zz.get(s), z.get(s))


def test_to_complex():
    A1 = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert np.allclose(to_complex(A1, np.zeros((2, 2))), A1)
    A2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    Q = to_complex(np.zeros((2, 2)), A2)
    assert np.allclose(Q.real, 0.0)
    assert np.allclose(Q, Q.conj().T)
    rng = np.random.default_rng(9)
    S = rng.standard_normal((4, 4))
    A1 = S + S.T
    K = rng.standard_normal((4, 4))
    A2 = K - K.T
    Q = to_complex(A1, A2)
    assert np.abs(Q - Q.conj().T).max() < 1e-12
    with pytest.raises(ValueError):
        to_complex(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))


def test_normal_form_roundtrip_and_check():
    p = build_partition(2, 4, 2, finite_set=[(0, 1)])
    nf = NormalFormHamiltonian(omega=np.zeros(0), partition=p)
    rng = np.random.default_rng(10)
    for ci, cl in enumerate(p.classes):
        if ci == p.finite_index:
            continue
        n = len(cl)
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        nf.set_block(ci, (M + M.conj().T) / 2)
    H = rng.standard_normal((2, 2))
    nf.hyperbolic_block = H + H.T
    A = to_real_matrix(nf)
    assert check_normal_form(A, p) == []
    # one off-block entry is reported
    a = p.classes[p.core_index][0]
    cls = [cl for i, cl in enumerate(p.classes)
           if i not in (p.core_index, p.finite_index) and cl]
    b = cls[0][0]
    A.set(a, b, I2)
    bad = check_normal_form(A, p)
    assert any(rec[:2] == (a, b) and rec[2] in ("block", "symmetric")
               for rec in bad)


def test_set_block_rejects_non_hermitian():
    p = build_partition(2, 3, 2)
    nf = NormalFormHamiltonian(omega=np.zeros(0), partition=p)
    with pytest.raises(ValueError):
        nf.set_block(p.core_index, np.array([[0.0, 1.0], [0.0, 0.0]]))
