"""Quadratic-form and norm checks that only the tests use, kept here as
oracles: the real-coordinate assembly of a normal form
(``to_real_matrix``), the normal-form check and its Pi projection, the
reality involution of a sequence vector, the real-to-Hermitian block map,
and the operator and boundary norms of a ``WeightedMatrix``.  They were
``kamkit.algebra`` definitions that no pipeline stage called; the bodies
are unchanged, ``to_real_matrix`` taking the normal form as an argument
instead of being its method.  Not used by the package."""
from __future__ import annotations

import math

import numpy as np

from kamkit.algebra import (I2, J2, SeqVector, WeightedMatrix, WeightParams,
                            _bsr, _stack, matrix_norm, site_weight)
from kamkit.lattice import BlockPartition


def involution(z: SeqVector, finite_set=()) -> SeqVector:
    """Reality involution: (xi, eta) -> (conj(eta), conj(xi)) on the infinite
    part; complex conjugation on the finite hyperbolic sites."""
    fset = set(tuple(p) for p in finite_set)
    out = SeqVector()
    for s, v in z.entries.items():
        if s in fset:
            out.set(s, np.conj(v))
        else:
            out.set(s, np.array([np.conj(v[1]), np.conj(v[0])]))
    return out


def operator_norm(A: WeightedMatrix, w: WeightParams, tol=1e-10,
                  max_iter=500) -> float:
    """Operator norm of A on the weighted sequence space.

    Conjugates by the diagonal site weight and takes the largest singular
    value: dense SVD up to 600 sites, power iteration on A^H A otherwise.
    """
    sites, ((rows, cols, data),) = _stack(A)
    if not sites:
        return 0.0
    ws = site_weight(sites, w)
    B = _bsr(rows, cols, data * (ws[rows] / ws[cols])[:, None, None],
             len(sites))
    if len(sites) <= 600:
        return float(np.linalg.norm(B.toarray(), 2))
    BH = B.conj().T
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(B.shape[0]) + 1j * rng.standard_normal(B.shape[0])
    x /= np.linalg.norm(x)
    prev = 0.0
    for _ in range(max_iter):
        y = BH @ (B @ x)
        ny = np.linalg.norm(y)
        if ny == 0:
            return 0.0
        x = y / ny
        est = math.sqrt(ny)
        if abs(est - prev) <= tol * max(est, 1.0):
            return est
        prev = est
    return prev


def b_norm(A: WeightedMatrix, w: WeightParams) -> float:
    """Operator norm on the weighted space plus the decay norm at the weight
    shifted down by the algebra threshold."""
    if w.gamma2 < w.m_star:
        raise ValueError("gamma2 must be >= m_star for the boundary norm")
    shifted = WeightParams(w.gamma1, w.gamma2 - w.m_star, w.kappa, w.m_star)
    return operator_norm(A, w) + matrix_norm(A, shifted)


def pi_project(M) -> np.ndarray:
    """Hilbert-Schmidt orthogonal projection of a 2x2 matrix onto
    span{I, J} (J the rotation by pi/2)."""
    M = np.asarray(M, dtype=complex).reshape(2, 2)
    cI = np.trace(M) / 2.0
    cJ = np.trace(J2.T @ M) / 2.0
    return cI * I2 + cJ * J2


def to_real_matrix(h) -> WeightedMatrix:
    """Assemble the real-coordinate block matrix of the normal form h."""
    p = h.partition
    A = WeightedMatrix(truncation=p.radius)
    for ci, Q in h.elliptic_blocks.items():
        if ci == p.finite_index:
            continue
        cl = p.classes[ci]
        for i, a in enumerate(cl):
            for j, b in enumerate(cl):
                q = Q[i, j]
                blk = q.real * I2 + q.imag * J2
                if np.any(blk != 0):
                    A.set(a, b, blk)
    if h.hyperbolic_block is not None and p.finite_index is not None:
        cl = p.classes[p.finite_index]
        H = np.asarray(h.hyperbolic_block, dtype=float)
        for i, a in enumerate(cl):
            for j, b in enumerate(cl):
                blk = H[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                if np.any(blk != 0):
                    A.set(a, b, blk)
    return A


def check_normal_form(A: WeightedMatrix, p: BlockPartition,
                      tol: float = 1e-12) -> list:
    """Violations of: (i) real, (ii) symmetric, (iii) block diagonal over the
    partition, (iv) Pi-invariance of each 2x2 entry outside the finite set.

    Returns a list of (a, b, kind) records; empty means normal form.
    """
    bad = []
    fset = set(p.finite_set)
    for (a, b), M in A.blocks.items():
        scale = max(1.0, float(np.abs(M).max()))
        if np.abs(M.imag).max() > tol * scale:
            bad.append((a, b, "real"))
        if np.abs(M - A.get(b, a).T).max() > tol * scale:
            bad.append((a, b, "symmetric"))
        if p.class_of.get(a) != p.class_of.get(b):
            bad.append((a, b, "block"))
        if a not in fset and b not in fset:
            if np.abs(pi_project(M) - M).max() > tol * scale:
                bad.append((a, b, "pi"))
    return bad


def to_complex(A1, A2, H=None):
    """Real quadratic data (A1 symmetric, A2 skew) -> Hermitian Q = A1 + iA2;
    the hyperbolic block is passed through unchanged."""
    A1 = np.asarray(A1, dtype=float)
    A2 = np.asarray(A2, dtype=float)
    if np.abs(A1 - A1.T).max() > 1e-10 * max(1.0, np.abs(A1).max()):
        raise ValueError("A1 must be symmetric")
    if np.abs(A2 + A2.T).max() > 1e-10 * max(1.0, np.abs(A2).max()):
        raise ValueError("A2 must be skew-symmetric")
    Q = A1 + 1j * A2
    if H is None:
        return Q
    return Q, np.asarray(H, dtype=float)
