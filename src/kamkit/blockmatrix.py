"""The 2x2 block-matrix algebra over the truncated lattice: weighted
sequence vectors and sparse block matrices with their decay norms.

No pipeline stage uses these classes; the tests check the algebra
properties of ``algebra.decay_norm`` through them.  This is the one kamkit
module that imports scipy.

A ``WeightedMatrix`` stores its 2x2 blocks in a dict keyed by site pairs.
Each matrix stacks that dict once into its stacked form, int row and column
indices over its sorted site list plus an (nnz, 2, 2) block array, and keeps
it until a block is written; a product carries the form of its kept blocks.
Products and applications work on the arrays through
``scipy.sparse.bsr_array``, and ``matrix_norm`` is ``algebra.decay_norm``
on the blocks' spectral norms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import bsr_array

from .algebra import (WeightParams, decay_norm, site_weight,
                      spectral_norm_2x2)


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


def matrix_norm(A: WeightedMatrix, w: WeightParams) -> float:
    """Decay norm: max over rows/cols of the weighted sum of 2x2 block norms."""
    sites, ((rows, cols, data),) = _stack(A)
    if not sites:
        return 0.0
    return float(decay_norm(np.array(sites), rows, cols, [w])(
        spectral_norm_2x2(data)[None]))
