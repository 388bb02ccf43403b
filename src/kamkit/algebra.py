"""Weighted sequence space and the block-matrix norm stack.

Vectors over the truncated lattice carry a 2-component entry per site; in
complex coordinates the components are (xi_s, eta_s), related to the real
pair (p_s, q_s) by xi = (p + iq)/sqrt(2), eta = (p - iq)/sqrt(2) on the
infinite part of the lattice.  The finite hyperbolic node set keeps real
coordinates throughout, with the Poisson matrix ``symplectic(F)``.

A ``WeightedMatrix`` stores its 2x2 blocks in a dict keyed by site pairs.
Every product, application and norm stacks that dict once into int row and
column indices over a sorted site list plus an (nnz, 2, 2) block array, and
works on the arrays: products and applications through
``scipy.sparse.bsr_array``, the decay norm (``decay_norm``, which
``class_norm``'s hessian norm shares) through batched block norms
(``spectral_norm_2x2``) times vectorised decay weights (``decay_weight``),
whose pseudo-distances are ``lattice.pseudo_dist_sq`` on paired rows.
Quadratic forms in normal form are ``hamiltonian.NormalFormHamiltonian``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import bsr_array

from .lattice import pseudo_dist_sq


def symplectic(F: int) -> np.ndarray:
    """Poisson matrix of F real pairs: kron(I_F, [[0, 1], [-1, 0]])."""
    return np.kron(np.eye(F), np.array([[0.0, 1.0], [-1.0, 0.0]]))


I2 = np.eye(2)
J2 = symplectic(1)


@dataclass(frozen=True)
class WeightParams:
    """Weights for the sequence space and the matrix decay norms."""
    gamma1: float = 0.0
    gamma2: float = 1.0
    kappa: float = 0.0
    m_star: float = 1.0

    def __post_init__(self):
        if min(self.gamma1, self.gamma2, self.kappa, self.m_star) < 0:
            raise ValueError("weight parameters must be nonnegative")


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


@dataclass
class SeqVector:
    """Finitely supported map site -> 2-component complex entry."""
    entries: dict = field(default_factory=dict)

    def get(self, s) -> np.ndarray:
        return self.entries.get(tuple(s), np.zeros(2, dtype=complex))

    def set(self, s, val):
        v = np.asarray(val, dtype=complex).reshape(2)
        if v.any():
            self.entries[tuple(s)] = v
        else:
            self.entries.pop(tuple(s), None)


def seq_norm(z: SeqVector, w: WeightParams) -> float:
    """Weighted l2 norm: sum over sites of |z_s|^2 <s>^{2g2} e^{2g1|s|}."""
    if not z.entries:
        return 0.0
    v = np.array(list(z.entries.values()))
    ws = site_weight(list(z.entries), w)
    return math.sqrt(float(((v.real ** 2 + v.imag ** 2).sum(axis=1)
                            * ws * ws).sum()))


@dataclass
class WeightedMatrix:
    """Sparse block matrix over the truncated lattice; absent blocks are 0."""
    blocks: dict = field(default_factory=dict)  # (a, b) -> 2x2 complex
    truncation: float = math.inf

    def get(self, a, b) -> np.ndarray:
        return self.blocks.get((tuple(a), tuple(b)),
                               np.zeros((2, 2), dtype=complex))

    def set(self, a, b, M):
        M = np.asarray(M, dtype=complex).reshape(2, 2)
        key = (tuple(a), tuple(b))
        if M.any():
            self.blocks[key] = M
        else:
            self.blocks.pop(key, None)

    def add(self, a, b, M):
        self.set(a, b, self.get(a, b) + np.asarray(M, dtype=complex))

    def scale(self, c) -> "WeightedMatrix":
        out = WeightedMatrix(truncation=self.truncation)
        for (a, b), M in self.blocks.items():
            out.set(a, b, c * M)
        return out

    def __add__(self, other: "WeightedMatrix") -> "WeightedMatrix":
        out = WeightedMatrix(truncation=self.truncation)
        out.blocks = {k: M.copy() for k, M in self.blocks.items()}
        for (a, b), M in other.blocks.items():
            out.add(a, b, M)
        return out

    def matmul(self, other: "WeightedMatrix") -> "WeightedMatrix":
        sites, (A, B) = _stack(self, other)
        C = _bsr(*A, len(sites)) @ _bsr(*B, len(sites))
        rows = np.repeat(np.arange(len(sites)), np.diff(C.indptr))
        keep = C.data.reshape(-1, 4).any(axis=1)
        out = WeightedMatrix(truncation=self.truncation)
        out.blocks = {(sites[i], sites[j]): M for i, j, M in
                      zip(rows[keep].tolist(), C.indices[keep].tolist(),
                          C.data[keep])}
        return out

    def apply(self, z: SeqVector) -> SeqVector:
        sites, ((rows, cols, data),) = _stack(self)
        x = np.array([z.get(s) for s in sites], dtype=complex).reshape(-1)
        y = (_bsr(rows, cols, data, len(sites)) @ x).reshape(-1, 2)
        return SeqVector({sites[i]: y[i] for i in
                          np.flatnonzero(y.any(axis=1)).tolist()})


def _stack(*mats: WeightedMatrix):
    """The blocks of ``mats`` as arrays over one shared site list.

    Returns (sites, per-matrix (rows, cols, data)): ``sites`` is the sorted
    union of the sites the matrices touch, rows and cols index into it, and
    data is the (nnz, 2, 2) block array, all in ``.blocks`` order.
    """
    sites = sorted({s for A in mats for key in A.blocks for s in key})
    index = {s: i for i, s in enumerate(sites)}
    out = []
    for A in mats:
        n = len(A.blocks)
        ij = np.array([(index[a], index[b]) for a, b in A.blocks],
                      dtype=np.int64).reshape(n, 2)
        data = np.array(list(A.blocks.values()), dtype=complex)
        out.append((ij[:, 0], ij[:, 1], data.reshape(n, 2, 2)))
    return sites, out


def _bsr(rows, cols, data, n: int) -> bsr_array:
    """The (2n x 2n) BSR matrix with block data[k] at (rows[k], cols[k])."""
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return bsr_array((data[order], cols[order], indptr),
                     shape=(2 * n, 2 * n), blocksize=(2, 2))


def decay_norm(X, rows, cols, ws: list):
    """The decay norm on one pattern, blocks at (rows[i], cols[i]) over the
    sites X, as a function of the block norms bn: the max over ``ws`` of the
    largest row or column sum of bn * decay_weight, weights computed once."""
    weights = [decay_weight(X[rows], X[cols], w) for w in ws]

    def norm(bn):
        return max(max(np.bincount(rows, v, len(X)).max(),
                       np.bincount(cols, v, len(X)).max())
                   for v in (bn * wt for wt in weights))
    return norm


def matrix_norm(A: WeightedMatrix, w: WeightParams) -> float:
    """Decay norm: max over rows/cols of the weighted sum of 2x2 block norms."""
    sites, ((rows, cols, data),) = _stack(A)
    if not sites:
        return 0.0
    return float(decay_norm(np.array(sites), rows, cols, [w])(
        spectral_norm_2x2(data)))
