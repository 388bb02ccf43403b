"""Weighted sequence space, block-matrix norm stack, and normal-form
matrix structure.

Vectors over the truncated lattice carry a 2-component entry per site; in
complex coordinates the components are (xi_s, eta_s), related to the real
pair (p_s, q_s) by xi = (p + iq)/sqrt(2), eta = (p - iq)/sqrt(2) on the
infinite part of the lattice.  The finite hyperbolic node set keeps real
coordinates throughout, with the Poisson matrix ``symplectic(F)``.

A ``WeightedMatrix`` stores its 2x2 blocks in a dict keyed by site pairs.
Every product, application and norm stacks that dict once into int row and
column indices over a sorted site list plus an (nnz, 2, 2) block array, and
works on the arrays: products and the operator norm through
``scipy.sparse.bsr_array``, the decay norm through batched block norms
(``spectral_norm_2x2``) times vectorised decay weights (``decay_weight``).
The scalar ``weight`` is the definition those arrays are checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import bsr_array

from .lattice import BlockPartition, norm_sq, pseudo_dist, pseudo_dist_sq


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


def bracket(a) -> float:
    """<a> = max(1, |a|)."""
    return max(1.0, math.sqrt(norm_sq(a)))


def weight(a, b, w: WeightParams) -> float:
    """Decay weight e^{g1 [a-b]} max([a-b],1)^{g2} min(<a>,<b>)^kappa."""
    pd = pseudo_dist(a, b)
    return (math.exp(w.gamma1 * pd) * max(pd, 1.0) ** w.gamma2
            * min(bracket(a), bracket(b)) ** w.kappa)


def decay_weight(Xa, Xb, w: WeightParams) -> np.ndarray:
    """``weight(a, b, w)`` for the paired rows of the int point arrays Xa
    and Xb (..., d), which broadcast against each other."""
    Xa, Xb = np.broadcast_arrays(np.asarray(Xa, dtype=np.int64),
                                 np.asarray(Xb, dtype=np.int64))
    pd = np.sqrt(pseudo_dist_sq(np.stack([Xa, Xb], axis=-2))[..., 0, 1])
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


def matrix_norm(A: WeightedMatrix, w: WeightParams) -> float:
    """Decay norm: max over rows/cols of the weighted sum of 2x2 block norms."""
    sites, ((rows, cols, data),) = _stack(A)
    if not sites:
        return 0.0
    X = np.array(sites)
    v = spectral_norm_2x2(data) * decay_weight(X[rows], X[cols], w)
    return float(max(np.bincount(rows, v, len(sites)).max(),
                     np.bincount(cols, v, len(sites)).max()))


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


@dataclass
class NormalFormMatrix:
    """Block-diagonal real symmetric matrix: one Pi-invariant block per
    partition class on the infinite part, one unconstrained symmetric block
    on the finite hyperbolic node set.

    Elliptic class blocks are stored in complex coordinates as Hermitian
    matrices Q (site x site); the corresponding real block has 2x2 entries
    q_re*I + q_im*J which are automatically Pi-invariant.  The hyperbolic
    block is a real symmetric (2F x 2F) matrix in real coordinates.
    """
    partition: BlockPartition
    elliptic_blocks: dict = field(default_factory=dict)  # class idx -> Hermitian
    hyperbolic_block: np.ndarray | None = None

    def block_for(self, ci: int) -> np.ndarray:
        cl = self.partition.classes[ci]
        Q = self.elliptic_blocks.get(ci)
        if Q is None:
            return np.zeros((len(cl), len(cl)), dtype=complex)
        return Q

    def set_block(self, ci: int, Q):
        Q = np.asarray(Q, dtype=complex)
        if np.linalg.norm(Q - Q.conj().T) > 1e-10 * max(1.0, np.linalg.norm(Q)):
            raise ValueError("elliptic class block must be Hermitian")
        self.elliptic_blocks[ci] = Q

    def to_real_matrix(self) -> WeightedMatrix:
        """Assemble the real-coordinate block matrix."""
        p = self.partition
        A = WeightedMatrix(truncation=p.radius)
        for ci, Q in self.elliptic_blocks.items():
            if ci == p.finite_index:
                continue
            cl = p.classes[ci]
            for i, a in enumerate(cl):
                for j, b in enumerate(cl):
                    q = Q[i, j]
                    blk = q.real * I2 + q.imag * J2
                    if np.any(blk != 0):
                        A.set(a, b, blk)
        if self.hyperbolic_block is not None and p.finite_index is not None:
            cl = p.classes[p.finite_index]
            H = np.asarray(self.hyperbolic_block, dtype=float)
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
