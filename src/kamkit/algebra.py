"""Weighted sequence space: the symplectic form, the weights and the
decay norm of 2x2 block patterns.

Vectors over the truncated lattice carry a 2-component entry per site; in
complex coordinates the components are (xi_s, eta_s), related to the real
pair (p_s, q_s) by xi = (p + iq)/sqrt(2), eta = (p - iq)/sqrt(2) on the
infinite part of the lattice.  The finite hyperbolic node set keeps real
coordinates throughout, with the Poisson matrix ``symplectic(F)``.

The decay norm (``decay_norm``, which ``class_norm``'s hessian norm uses)
is batched block norms (``spectral_norm_2x2``) times vectorised decay
weights (``decay_weight``), whose pseudo-distances are
``lattice.pseudo_dist_sq`` on paired rows; each row or column sum adds its
blocks in block order.  The block-matrix classes (``WeightedMatrix``,
``SeqVector``, ``matrix_norm``, ``seq_norm``) live in ``blockmatrix``,
which imports scipy; this module reads them from there on first access,
so importing it loads no scipy.  Quadratic forms in normal form are
``hamiltonian.NormalFormHamiltonian``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import pseudo_dist_sq


def symplectic(F: int) -> np.ndarray:
    """Poisson matrix of F real pairs: kron(I_F, [[0, 1], [-1, 0]])."""
    return np.kron(np.eye(F), np.array([[0.0, 1.0], [-1.0, 0.0]]))


I2 = np.eye(2)
J2 = symplectic(1)


@dataclass(frozen=True)
class WeightParams:
    """Weights for the sequence space and the matrix decay norms.
    ``m_star`` enters no computation; only the tests' boundary-norm
    oracle reads it."""
    gamma1: float = 0.0
    gamma2: float = 1.0
    kappa: float = 0.0
    m_star: float = 1.0

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "kappa", "m_star"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


def decay_weight(Xa, Xb, w: WeightParams) -> np.ndarray:
    """Decay weight e^{g1 [a-b]} max([a-b],1)^{g2} min(<a>,<b>)^kappa,
    <a> = max(1, |a|), for the paired rows a, b of the int point arrays Xa
    and Xb (..., d), which broadcast against each other."""
    Xa = np.asarray(Xa, dtype=np.int64)
    Xb = np.asarray(Xb, dtype=np.int64)
    pd = np.sqrt(pseudo_dist_sq(Xa[..., None, :],
                                Xb[..., None, :])[..., 0, 0])
    nsq = np.minimum((Xa * Xa).sum(axis=-1), (Xb * Xb).sum(axis=-1))
    return (np.exp(w.gamma1 * pd) * np.maximum(pd, 1.0) ** w.gamma2
            * np.maximum(np.sqrt(nsq), 1.0) ** w.kappa)


def site_weight(X, w: WeightParams) -> np.ndarray:
    """Sequence-space weight <s>^{g2} e^{g1 |s|} of the rows of X (..., d)."""
    X = np.asarray(X, dtype=np.int64)
    nrm = np.sqrt((X * X).sum(axis=-1))
    return np.maximum(nrm, 1.0) ** w.gamma2 * np.exp(w.gamma1 * nrm)


def spectral_norm_2x2(M):
    """Operator norms of 2x2 complex blocks M (..., 2, 2); a scalar for one
    block.

    sigma_max^2 = (g00 + g11)/2 + hypot((g00 - g11)/2, |g01|) from the Gram
    matrix G = M^H M: every term is nonnegative, so no digits cancel when
    the two singular values nearly coincide.
    """
    M = np.asarray(M, dtype=complex)
    c0, c1 = M[..., :, 0], M[..., :, 1]
    g00 = (c0.real ** 2 + c0.imag ** 2).sum(axis=-1)
    g11 = (c1.real ** 2 + c1.imag ** 2).sum(axis=-1)
    g01 = np.abs((c0.conj() * c1).sum(axis=-1))
    return np.sqrt((g00 + g11) / 2 + np.hypot((g00 - g11) / 2, g01))[()]


def decay_norm(X, rows, cols, ws: list):
    """The decay norm on one pattern, blocks at (rows[i], cols[i]) over the
    sites X, as a function of a stack of block-norm rows bn (m, blocks):
    the max over the rows and over ``ws`` of the largest row or column sum
    of bn * decay_weight, weights computed once.  One bincount per weight
    and side serves every row, on ids offset by row (built once per stack
    height), so each bin still sums its blocks in block order."""
    S = len(X)
    weights = [decay_weight(X[rows], X[cols], w) for w in ws]
    sides = {}                        # stack height m -> offset ids

    def norm(bn):
        m = len(bn)
        if m not in sides:
            off = S * np.arange(m)[:, None]
            sides[m] = ((rows + off).ravel(), (cols + off).ravel())
        return max(np.bincount(ids, v, S * m).max()
                   for v in ((bn * wt).ravel() for wt in weights)
                   for ids in sides[m])
    return norm


def __getattr__(name: str):
    """The block-matrix names, from ``blockmatrix`` on first access."""
    if name in ("WeightedMatrix", "SeqVector", "matrix_norm", "seq_norm"):
        from . import blockmatrix
        return getattr(blockmatrix, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
