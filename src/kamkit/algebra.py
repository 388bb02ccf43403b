"""Weighted sequence space and the block-matrix norm stack.

Vectors over the truncated lattice carry a 2-component entry per site; in
complex coordinates the components are (xi_s, eta_s), related to the real
pair (p_s, q_s) by xi = (p + iq)/sqrt(2), eta = (p - iq)/sqrt(2) on the
infinite part of the lattice.  The finite hyperbolic node set keeps real
coordinates throughout, with the Poisson matrix ``symplectic(F)``.

A ``WeightedMatrix`` stores its 2x2 blocks in a dict keyed by site pairs.
Each matrix stacks that dict once into its stacked form, int row and column
indices over its sorted site list plus an (nnz, 2, 2) block array, and keeps
it until a block is written; a product carries the form of its kept blocks.
Products, applications and norms work on the arrays: products and
applications through
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
    """Sparse block matrix over the truncated lattice; absent blocks are 0.

    Blocks are written through ``set``/``add`` or by assigning a whole
    ``.blocks`` dict; either drops the stacked form.  An item written
    straight into ``.blocks`` is not seen by a form that was already
    stacked.
    """
    blocks: dict = field(default_factory=dict)  # (a, b) -> 2x2 complex
    truncation: float = math.inf
    # (the blocks dict it was built from, sites, rows, cols, data)
    _form: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

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
        self._form = None

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
        rows, cols = rows[keep], C.indices[keep].astype(np.int64)
        data = C.data[keep]
        out = WeightedMatrix(truncation=self.truncation)
        out.blocks = {(sites[i], sites[j]): M for i, j, M in
                      zip(rows.tolist(), cols.tolist(), data)}
        # the product's form: the sites it touches, ranked in sorted order
        touched = np.zeros(len(sites), dtype=bool)
        touched[rows] = touched[cols] = True
        rank = np.cumsum(touched) - 1
        out._form = (out.blocks, [s for s, t in zip(sites, touched.tolist())
                                  if t], rank[rows], rank[cols], data)
        return out

    def apply(self, z: SeqVector) -> SeqVector:
        sites, ((rows, cols, data),) = _stack(self)
        x = np.array([z.get(s) for s in sites], dtype=complex).reshape(-1)
        y = (_bsr(rows, cols, data, len(sites)) @ x).reshape(-1, 2)
        return SeqVector({sites[i]: y[i] for i in
                          np.flatnonzero(y.any(axis=1)).tolist()})


def _stacked(A: WeightedMatrix):
    """A's stacked form (sites, rows, cols, data), built on first use and
    kept while ``A.blocks`` is the dict it was built from."""
    if A._form is None or A._form[0] is not A.blocks:
        sites = sorted({s for key in A.blocks for s in key})
        index = {s: i for i, s in enumerate(sites)}
        n = len(A.blocks)
        ij = np.array([(index[a], index[b]) for a, b in A.blocks],
                      dtype=np.int64).reshape(n, 2)
        data = np.array(list(A.blocks.values()), dtype=complex)
        A._form = (A.blocks, sites, ij[:, 0], ij[:, 1], data.reshape(n, 2, 2))
    return A._form[1:]


def _stack(*mats: WeightedMatrix):
    """The blocks of ``mats`` as arrays over one shared site list.

    Returns (sites, per-matrix (rows, cols, data)): ``sites`` is the sorted
    union of the sites the matrices touch, rows and cols index into it, and
    data is the (nnz, 2, 2) block array, all in ``.blocks`` order.  Each
    matrix's rows and cols are remapped from its stacked form, whose data
    array is returned as it is: callers do not write to it.
    """
    forms = [_stacked(A) for A in mats]
    sites = sorted(set().union(*(f[0] for f in forms)))
    index = {s: i for i, s in enumerate(sites)}
    out = []
    for own, rows, cols, data in forms:
        remap = np.array([index[s] for s in own], dtype=np.int64)
        out.append((remap[rows], remap[cols], data))
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


def matrix_norm(A: WeightedMatrix, w: WeightParams) -> float:
    """Decay norm: max over rows/cols of the weighted sum of 2x2 block norms."""
    sites, ((rows, cols, data),) = _stack(A)
    if not sites:
        return 0.0
    return float(decay_norm(np.array(sites), rows, cols, [w])(
        spectral_norm_2x2(data)[None]))
