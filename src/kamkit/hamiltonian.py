"""Polynomial Hamiltonians in angle-Fourier form, jets, Poisson brackets,
Lie transforms, and the sampled domain norm.

A Hamiltonian is a finite sum of monomials

    c * e^{i k.theta} * r^m * prod_v zeta_v^{p_v}

where k, m run over n internal angle/action pairs and the zeta variables are
(site, component) pairs over the truncated lattice: components (0, 1) mean
(xi, eta) on elliptic sites and the real symplectic pair on the finite
hyperbolic node set.  Degree counts r twice and each zeta once; the jet is
the part of degree <= 2 with no mixed r*zeta terms.

A ``Polynomial`` is a dict keyed by (k, m, z), z the sorted tuple of
(variable, power) pairs.  Every product is computed on a packed layout
(after Monagan & Pearce's packed sparse-polynomial arithmetic in Maple's
POLY): each operand becomes int64 rows of k and m, plus z as a fixed-width
row of variable ids in which a variable of power p repeats p times.  Ids
follow the sorted variable order, so a sorted id row decodes straight back
to a z-tuple.  The pairs passing the degree filter are formed in one
broadcast; their monomials get a mixed-radix int64 key (k and m digits, then
the sorted z ids), or, when the product of the digit spans would not fit in
int64, are grouped as rows; ``np.unique`` and ``bincount`` merge like terms
in pair order, left term outer, so each sum runs in the order of a loop
over term pairs.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (NormalFormMatrix, WeightParams, WeightedMatrix, _stack,
                      decay_weight, site_weight, spectral_norm_2x2)

XI, ETA = 0, 1

# (action degree, mode degree) pairs forming the normal-form jet
_JET_DEGREES = ((0, 0), (1, 0), (0, 1), (0, 2))


class StageAbort(RuntimeError):
    """A deliberate stop of the iteration, named by its stage.

    ``stage`` is one of ``divisors``, ``excision``, ``fold``, ``picard`` or
    ``lie``; ``key`` locates the failure inside the stage (a divisor key, a
    class index, a Fourier index, a round or an order) or is None."""

    def __init__(self, stage: str, key, detail: str):
        super().__init__(stage, key, detail)
        self.stage, self.key, self.detail = stage, key, detail

    def __str__(self) -> str:
        where = "" if self.key is None else f" at {self.key}"
        return f"{self.stage}{where}: {self.detail}"


def _zkey(z: dict) -> tuple:
    return tuple(sorted((v, p) for v, p in z.items() if p))


class Polynomial:
    """Sparse polynomial keyed by (k, m, z) monomial signatures."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        self.terms = terms if terms is not None else {}

    # -- construction -----------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c) -> "Polynomial":
        p = cls(n)
        if c != 0:
            p.terms[(((0,) * n), ((0,) * n), ())] = complex(c)
        return p

    def copy(self) -> "Polynomial":
        return Polynomial(self.n, dict(self.terms))

    def add_term(self, c, k=None, m=None, z=()):
        """Accumulate one monomial; z is a dict var->power or a zkey tuple."""
        if c == 0:
            return
        k = tuple(k) if k is not None else (0,) * self.n
        m = tuple(m) if m is not None else (0,) * self.n
        zk = _zkey(z) if isinstance(z, dict) else tuple(z)
        key = (k, m, zk)
        val = self.terms.get(key, 0.0) + complex(c)
        if val == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = val

    # -- ring operations ---------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self.copy()._iadd(other)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1.0)

    def scale(self, c) -> "Polynomial":
        if c == 0:
            return Polynomial(self.n)
        return Polynomial(self.n, {key: c * v for key, v in self.terms.items()})

    def mul(self, other: "Polynomial", max_degree: int | None = None,
            tol: float = 0.0) -> "Polynomial":
        """Product pruned at ``tol`` (|c| <= tol) with exact zeros dropped;
        pairs whose degrees sum above ``max_degree`` are skipped."""
        return _mul_packed(self, other, max_degree, tol)

    def _iadd(self, other: "Polynomial", sign: complex = 1.0):
        terms = self.terms
        for key, c in other.terms.items():
            val = terms.get(key, 0.0) + sign * c
            if val == 0:
                terms.pop(key, None)
            else:
                terms[key] = val
        return self

    def prune(self, tol: float):
        if not self.terms:
            return self
        drop = [key for key, c in self.terms.items() if abs(c) <= tol]
        for key in drop:
            del self.terms[key]
        return self

    def prune_split(self, jet_tol: float, rest_tol: float):
        """Prune with a tighter tolerance on normal-form-direction terms."""
        if not self.terms:
            return self
        drop = []
        for key, c in self.terms.items():
            _, m, z = key
            deg = (sum(m), sum(p for _, p in z))
            cut = jet_tol if deg in _JET_DEGREES else rest_tol
            if abs(c) <= cut:
                drop.append(key)
        for key in drop:
            del self.terms[key]
        return self

    def truncate_degree(self, max_degree: int) -> "Polynomial":
        out = Polynomial(self.n)
        for key, c in self.terms.items():
            _, m, z = key
            if 2 * sum(m) + sum(p for _, p in z) <= max_degree:
                out.terms[key] = c
        return out

    def max_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __len__(self):
        return len(self.terms)

    # -- calculus -----------------------------------------------------------
    def diff_r(self, j: int) -> "Polynomial":
        out = Polynomial(self.n)
        for (k, m, z), c in self.terms.items():
            if m[j]:
                mm = list(m)
                mm[j] -= 1
                out.add_term(c * m[j], k, tuple(mm), z)
        return out

    def z_vars(self) -> list:
        s = set()
        for (_, _, z) in self.terms:
            for v, _ in z:
                s.add(v)
        return sorted(s)

    def sites(self) -> list:
        return sorted({v[0] for v in self.z_vars()})

    def evaluate(self, theta, r, zvals: dict) -> complex:
        theta = np.asarray(theta, dtype=complex)
        r = np.asarray(r, dtype=complex)
        total = 0.0 + 0.0j
        for (k, m, z), c in self.terms.items():
            val = c * np.exp(1j * np.dot(k, theta))
            for j, mj in enumerate(m):
                if mj:
                    val *= r[j] ** mj
            for v, p in z:
                val *= zvals.get(v, 0.0) ** p
            total += val
        return total

    # -- structure -----------------------------------------------------------
    def _jet_part(self, inside: bool) -> "Polynomial":
        """The terms inside (or outside) the jet, in term order."""
        return Polynomial(self.n, {
            key: c for key, c in self.terms.items()
            if ((sum(key[1]), sum(p for _, p in key[2])) in _JET_DEGREES)
            == inside})

    def jet(self) -> "Polynomial":
        """Degree <= 2 part: constant, r-linear, zeta-linear, zeta-quadratic."""
        return self._jet_part(True)

    def without_jet(self) -> "Polynomial":
        """The terms ``jet`` leaves out, in term order."""
        return self._jet_part(False)

    def reality_defect(self, finite_set=()) -> float:
        """Max mismatch of coefficients under the reality involution.

        Real Hamiltonians satisfy conj(c(k, m, z)) = c(-k, m, z*) where z*
        swaps xi <-> eta on elliptic sites and fixes hyperbolic components.
        """
        fset = set(tuple(p) for p in finite_set)
        worst = 0.0
        for (k, m, z), c in self.terms.items():
            zz = {}
            for (s, comp), p in z:
                cc = comp if s in fset else 1 - comp
                zz[(s, cc)] = p
            mate = (tuple(-x for x in k), m, _zkey(zz))
            worst = max(worst, abs(np.conj(c) - self.terms.get(mate, 0.0)))
        return worst

    def dump_lines(self) -> list[str]:
        lines = []
        for (k, m, z), c in sorted(self.terms.items()):
            zs = ";".join(
                f"{','.join(str(x) for x in v[0])}:{v[1]}:{p}" for v, p in z)
            lines.append(
                f"k={','.join(map(str, k))} m={','.join(map(str, m))} "
                f"z={zs} c={c.real:.17g}{c.imag:+.17g}j")
        return lines


# -- products -------------------------------------------------------------------

def _pack(P: Polynomial, var_id: dict):
    """Columns of P in term order: C (N,) complex, K and M (N, n) int64,
    and Z (N, w) int64 rows of variable ids, where a variable of power p
    repeats p times, padded with -1 to P's largest z-degree w.  Variables
    missing from ``var_id`` get the next free id."""
    N, n = len(P.terms), P.n
    zidx: dict = {}
    zi = np.fromiter((zidx.setdefault(z, len(zidx)) for _, _, z in P.terms),
                     dtype=np.int64, count=N)
    rows = [[var_id.setdefault(v, len(var_id)) for v, p in z
             for _ in range(p)] for z in zidx]
    w = max(map(len, rows), default=0)
    Z = np.array([row + [-1] * (w - len(row)) for row in rows],
                 dtype=np.int64).reshape(len(rows), w)[zi]
    K = np.array([key[0] for key in P.terms], dtype=np.int64).reshape(N, n)
    M = np.array([key[1] for key in P.terms], dtype=np.int64).reshape(N, n)
    C = np.fromiter(P.terms.values(), dtype=complex, count=N)
    return C, K, M, Z


def _mul_packed(A: Polynomial, B: Polynomial, max_degree: int | None,
                tol: float) -> Polynomial:
    """Product as one broadcast over term pairs, merged by packed key.

    Like terms merge in pair order, left term outer and, under a degree
    filter, right terms by ascending degree; the output keeps their
    first-occurrence order.
    """
    var_id: dict = {}
    C1, K1, M1, Z1 = _pack(A, var_id)
    C2, K2, M2, Z2 = _pack(B, var_id)
    # renumber in sorted-variable order, pads last: rank[-1] is V
    zvars = sorted(var_id)
    V = len(zvars)
    rank = np.empty(V + 1, dtype=np.int64)
    rank[[var_id[v] for v in zvars]] = np.arange(V)
    rank[V] = V
    Z1, Z2 = rank[Z1], rank[Z2]
    if max_degree is None:
        i, j = np.divmod(np.arange(len(C1) * len(C2)), len(C2))
    else:
        d1 = 2 * M1.sum(axis=1) + (Z1 < V).sum(axis=1)
        d2 = 2 * M2.sum(axis=1) + (Z2 < V).sum(axis=1)
        # visit B by ascending degree, stably: this fixes first occurrences
        order = np.argsort(d2, kind="stable")
        C2, K2, M2, Z2, d2 = C2[order], K2[order], M2[order], Z2[order], \
            d2[order]
        i, j = np.nonzero(d1[:, None] + d2[None, :] <= max_degree)
    out = Polynomial(A.n)
    if not len(i):
        return out
    a, b = C1[i], C2[j]
    re = a.real * b.real - a.imag * b.imag   # Python's complex product
    im = a.real * b.imag + a.imag * b.real
    Z = np.sort(np.concatenate([Z1[i], Z2[j]], axis=1), axis=1)

    # mixed-radix key: k and m digits from each operand's offsets, then z
    X1, X2 = np.hstack([K1, M1]), np.hstack([K2, M2])
    lo1, lo2 = X1.min(axis=0), X2.min(axis=0)
    spans = (X1.max(axis=0) - lo1 + X2.max(axis=0) - lo2 + 1).tolist()
    spans += [V + 1] * Z.shape[1]
    if math.prod(spans) <= np.iinfo(np.int64).max:
        strides = np.cumprod([1] + spans[:-1], dtype=np.int64)
        nkm = X1.shape[1]
        key = ((X1 - lo1) @ strides[:nkm])[i] + ((X2 - lo2) @ strides[:nkm])[j]
        if Z.shape[1]:
            key += Z @ strides[nkm:]
        _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    else:
        rows = np.hstack([X1[i] + X2[j], Z])
        _, first, inv = np.unique(rows, axis=0, return_index=True,
                                  return_inverse=True)
    inv = inv.ravel()
    U = len(first)
    order = np.argsort(first)
    rep = first[order]
    c = np.empty(U, dtype=complex)
    c.real = np.bincount(inv, weights=re, minlength=U)[order]
    c.imag = np.bincount(inv, weights=im, minlength=U)[order]
    keep = np.abs(c) > tol if tol else c != 0
    rep, c = rep[keep], c[keep]

    iz, jz = i[rep], j[rep]
    keys = zip(_tuples(K1[iz] + K2[jz]), _tuples(M1[iz] + M2[jz]),
               _zkeys(Z[rep], zvars))
    out.terms = dict(zip(keys, c.tolist()))
    return out


def _tuples(X: np.ndarray) -> list:
    """Rows of an int matrix as tuples of Python ints."""
    return list(zip(*X.T.tolist())) if X.shape[1] else [()] * len(X)


def _zkeys(Z: np.ndarray, zvars: list) -> list:
    """``_pack``'s sorted id rows back to z-tuples ((var, p), ...)."""
    live = Z < len(zvars)
    start = live.copy()
    start[:, 1:] &= Z[:, 1:] != Z[:, :-1]
    rows, cols = np.nonzero(start)       # one entry per run, row-major
    if not len(rows):
        return [()] * len(Z)
    ends = np.append(cols[1:], 0)
    last = np.append(rows[1:] != rows[:-1], True)
    ends[last] = live.sum(axis=1)[rows[last]]
    q = Z.shape[1] + 1
    codes, inv = np.unique(Z[rows, cols] * q + ends - cols,
                           return_inverse=True)
    table = [(zvars[v], p) for v, p in zip(*(x.tolist()
                                             for x in np.divmod(codes, q)))]
    runs = iter(list(map(table.__getitem__, inv.tolist())))
    return [tuple(itertools.islice(runs, g))
            for g in start.sum(axis=1).tolist()]


def _z_derivative_table(P: Polynomial, sites=None) -> dict:
    """var -> dP/dvar for every mode variable, or only for those on
    ``sites`` when given, in one pass over P."""
    table: dict = {}
    for (k, m, z), c in P.terms.items():
        for i, (v, p) in enumerate(z):
            if sites is not None and v[0] not in sites:
                continue
            zz = list(z)
            if p == 1:
                zz.pop(i)
            else:
                zz[i] = (v, p - 1)
            d = table.get(v)
            if d is None:
                d = table[v] = Polynomial(P.n)
            key = (k, m, tuple(zz))
            val = d.terms.get(key, 0.0) + c * p
            if val == 0:
                d.terms.pop(key, None)
            else:
                d.terms[key] = val
    return table


def poisson(F: Polynomial, G: Polynomial, finite_set=(),
            max_degree: int | None = None, tol: float = 0.0) -> Polynomial:
    """Canonical bracket {F, G}.

    Convention: {F,G} = sum_j (dF/dr_j dG/dtheta_j - dF/dtheta_j dG/dr_j)
    plus, per lattice site, i(dF/dxi dG/deta - dF/deta dG/dxi) on elliptic
    sites and (dF/dp dG/dq - dF/dq dG/dp) on hyperbolic ones.
    """
    n = F.n
    fset = set(tuple(p) for p in finite_set)
    out = Polynomial(n)

    def k_scale(P: Polynomial, j: int) -> Polynomial:
        res = Polynomial(n)
        for (k, m, z), c in P.terms.items():
            if k[j]:
                res.terms[(k, m, z)] = 1j * k[j] * c
        return res

    for j in range(n):
        dFr = F.diff_r(j)
        if dFr.terms:
            out._iadd(dFr.mul(k_scale(G, j), max_degree, tol))
        dGr = G.diff_r(j)
        if dGr.terms:
            out._iadd(k_scale(F, j).mul(dGr, max_degree, tol), sign=-1.0)

    # G is the small side of most brackets: differentiate F only on its sites
    dG = _z_derivative_table(G)
    dF = _z_derivative_table(F, {v[0] for v in dG})
    sites = {v[0] for v in dF} & {v[0] for v in dG}
    empty = Polynomial(n)
    for s in sorted(sites):
        dF0, dF1 = dF.get((s, 0), empty), dF.get((s, 1), empty)
        dG0, dG1 = dG.get((s, 0), empty), dG.get((s, 1), empty)
        unit = 1.0 if s in fset else 1j
        if dF0.terms and dG1.terms:
            out._iadd(dF0.mul(dG1, max_degree, tol), sign=unit)
        if dF1.terms and dG0.terms:
            out._iadd(dF1.mul(dG0, max_degree, tol), sign=-unit)
    if tol:
        out.prune(tol)
    return out


def lie_transform(F: Polynomial, S: Polynomial, finite_set=(),
                  max_degree: int = 4, tol: float = 1e-18,
                  max_order: int = 16,
                  rest_tol: float | None = None) -> Polynomial:
    """F composed with the time-one flow of S: sum_m ad_S^m(F)/m!.

    ``rest_tol``, when given, prunes terms outside the normal-form jet
    directions at a looser threshold: those terms only influence later jets
    through further brackets, so they tolerate a coarser cut.  A series
    whose term of order ``max_order`` is still above ``tol`` raises
    ``StageAbort("lie", ...)`` rather than being cut there.
    """
    out = F.truncate_degree(max_degree)
    term = out
    for m in range(1, max_order + 1):
        term = poisson(term, S, finite_set, max_degree, tol).scale(1.0 / m)
        if rest_tol is not None:
            term.prune_split(tol, rest_tol)
        if not term.terms or term.max_coeff() < tol:
            break
        out = out + term
    else:
        raise StageAbort("lie", max_order,
                         f"term of order {max_order} is "
                         f"{term.max_coeff():.3e}, above tol {tol:.3e}")
    if rest_tol is not None:
        return out.prune_split(tol, rest_tol)
    return out.prune(tol)


# -- the codec: rows of (k, m, variable ids, coefficient) <-> polynomials ------

def site_layout(sites) -> dict:
    """Variable ids over a site set: (s, comp) -> 2 i + comp, i the rank of
    s among the sorted sites.  Ids follow the sorted variable order, and
    the two components of a site are adjacent, interleaved (s, 0), (s, 1)."""
    return {(s, c): 2 * i + c for i, s in enumerate(sorted(sites))
            for c in (0, 1)}


def class_ids(var_id: dict, sites) -> np.ndarray:
    """(2, len(sites)) ids of the (s, 0) and of the (s, 1) variables:
    ``.ravel()`` groups them by component, ``.T.ravel()`` interleaves."""
    return np.array([[var_id[(s, c)] for s in sites] for c in (0, 1)],
                    dtype=np.int64).reshape(2, len(sites))


def block_rows(n: int, blocks: list) -> tuple:
    """``encode``'s (Z, C, K, M) for the entries of blocks (k, m, u, v, X),
    in order.  X[i, j], row-major, is the coefficient of z_{u_i} z_{v_j};
    with v None, X[i] is that of z_{u_i}, and u_i = -1 stands for no
    variable.  Every entry carries e^{ik.theta}, and r^m for m an
    (len(X), n) array of exponents, or none for m None."""
    if not blocks:
        return (np.zeros((0, 2), dtype=np.int64), np.zeros(0),
                np.zeros((0, n), dtype=np.int64), np.zeros((0, n)))
    ks, ms, us, vs, xs = zip(*blocks)
    vs = [[-1] if v is None else v for v in vs]
    a, b = np.array([len(u) for u in us]), np.array([len(v) for v in vs])
    size = a * b
    at = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    width = np.repeat(b, size)
    U = np.concatenate(us)[np.repeat(np.cumsum(a) - a, size) + at // width]
    V = np.concatenate(vs)[np.repeat(np.cumsum(b) - b, size) + at % width]
    pair = V >= 0
    Z = np.stack([np.where(pair, np.minimum(U, V), U),
                  np.where(pair, np.maximum(U, V), V)], axis=1)
    M = [np.zeros((s, n)) if m is None else m for m, s in zip(ms, size)]
    return (Z, np.concatenate([np.ravel(x) for x in xs]),
            np.repeat(np.array(ks).reshape(len(ks), n), size, axis=0),
            np.concatenate(M))


def encode(n: int, zvars: list, Z, C, K=None, M=None) -> Polynomial:
    """The sum of the rows C e^{i K.theta} r^M z^Z as a Polynomial.

    Z rows hold ascending ids into the sorted variable list ``zvars``, an id
    repeated p times for power p, padded with -1 at the end (``_pack``'s
    layout); K and M broadcast to (N, n) int rows and default to zero.  The
    result has the keys, order and coefficient bits of feeding the rows to
    ``add_term`` one at a time: zero rows are skipped, keys keep their
    first-occurrence order, and a key is dropped while its sum is zero.
    """
    C = np.asarray(C, dtype=complex)
    live = C != 0
    if not live.any():
        return Polynomial(n)
    K, M = (np.broadcast_to(np.asarray(0 if X is None else X, dtype=np.int64),
                            (len(C), n))[live] for X in (K, M))
    Z, C = np.asarray(Z, dtype=np.int64)[live], C[live]
    X = np.hstack([K, M, Z])
    lo = X.min(axis=0)
    spans = (X.max(axis=0) - lo + 1).tolist()
    if math.prod(spans) <= np.iinfo(np.int64).max:
        code = (X - lo) @ np.cumprod([1] + spans, dtype=np.int64)[:-1]
        _, first, inv = np.unique(code, return_index=True,
                                  return_inverse=True)
    else:
        _, first, inv = np.unique(X, axis=0, return_index=True,
                                  return_inverse=True)
    inv = inv.ravel()
    Z = np.where(Z < 0, len(zvars), Z)         # _zkeys pads past every id
    intern = {}.setdefault

    def keys(rows):
        return list(zip([intern(t, t) for t in _tuples(K[rows])],
                        [intern(t, t) for t in _tuples(M[rows])],
                        _zkeys(Z[rows], zvars)))

    U = len(first)
    if np.bincount(inv, minlength=U).max() <= 2:
        # a running sum can vanish only at a key's last row: add in arrays
        order = np.argsort(first)
        c = np.empty(U, dtype=complex)
        c.real = np.bincount(inv, weights=C.real, minlength=U)[order]
        c.imag = np.bincount(inv, weights=C.imag, minlength=U)[order]
        keep = c != 0
        return Polynomial(n, dict(zip(keys(first[order][keep]),
                                      c[keep].tolist())))
    table, P = keys(first), Polynomial(n)
    for u, v in zip(inv.tolist(), C.tolist()):
        P.add_term(v, *table[u])
    return P


def decode_jet(P: Polynomial, var_id: dict | None = None):
    """The degree <= 2 jet of P as rows: ``encode``'s inverse, and the one
    place that reads a quadratic monomial as a form entry.

    Returns (var_id, K, M, U, V, C).  ``var_id`` maps variables to ids; by
    default it numbers the jet's variables in sorted order, and variables
    missing from a given map get the next free ids.  Each jet term gives a
    row, in term order: K and M its (N, n) k and m, U and V its variable
    ids or -1 (both -1 without z, V = -1 for a linear term), C its
    coefficient.  Quadratic rows hold entries of the symmetric H of
    1/2 <Hz, z>: a z_v^2 monomial carries H_vv/2, so its row holds 2c; a
    distinct pair z_u z_v carries H_uv, so its row holds c, and a mirror
    row (v, u) after all term rows holds H_vu = c.  Over ``site_layout``
    ids the hyperbolic variables are interleaved, (s, 0), (s, 1), which is
    the layout of the real hyperbolic block.
    """
    J = P.jet()
    if var_id is None:
        var_id = {v: i for i, v in enumerate(J.z_vars())}
    C, K, M, Z = _pack(J, var_id)
    U, V = np.hstack([Z, np.full((len(C), 2 - Z.shape[1]), -1)]).T
    C = np.where((U == V) & (U >= 0), 2 * C, C)
    two = (U != V) & (V >= 0)
    return (var_id, np.vstack([K, K[two]]), np.vstack([M, M[two]]),
            np.concatenate([U, V[two]]), np.concatenate([V, U[two]]),
            np.concatenate([C, C[two]]))


def normal_form_polynomial(p, n: int, const, chi, blocks: dict,
                           H) -> Polynomial:
    """c + <chi, r> + sum_ab Q_ab xi_a eta_b + 1/2 <w, H w> on partition p.

    ``blocks`` maps class indices to Hermitian Q (the finite class is
    skipped); H is the real block over the interleaved components w of the
    finite node set, or None; chi may be None.
    """
    var_id = site_layout(p.sites())
    zero = (0,) * n
    parts = [(zero, None, [-1], None, [const])]
    if chi is not None:
        parts.append((zero, np.eye(n), [-1] * n, None, chi))
    for ci, Q in blocks.items():
        if ci != p.finite_index:
            ids = class_ids(var_id, p.classes[ci])
            parts.append((zero, None, ids[XI], ids[ETA], Q))
    if H is not None and p.finite_index is not None:
        # the monomials of 1/2 <w, Hw>, as decode_jet reads them
        w = class_ids(var_id, p.classes[p.finite_index]).T.ravel()
        parts.append((zero, None, w, w,
                      np.triu(H, 1) + np.diag(np.diag(H) / 2)))
    return encode(n, list(var_id), *block_rows(n, parts))


@dataclass
class HamiltonianJet:
    """Fourier tables of the degree <= 2 part of a Hamiltonian over the
    variable list ``zvars``: f_theta[k] a number, f_r[k] an n-vector,
    f_zeta[k] a vector over zvars and f_zetazeta[k] the matrix H of
    1/2 <Hz, z>; read and written through ``decode_jet`` and ``encode``."""
    n: int
    zvars: list = field(default_factory=list)
    f_theta: dict = field(default_factory=dict)
    f_r: dict = field(default_factory=dict)
    f_zeta: dict = field(default_factory=dict)
    f_zetazeta: dict = field(default_factory=dict)

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "HamiltonianJet":
        var_id, K, M, U, V, C = decode_jet(poly)
        jet = cls(poly.n, list(var_id))
        nv = len(var_id)
        for k, m, u, v, c in zip(_tuples(K), M.tolist(), U.tolist(),
                                 V.tolist(), C.tolist()):
            if v >= 0:
                jet.f_zetazeta.setdefault(
                    k, np.zeros((nv, nv), dtype=complex))[u, v] = c
            elif u >= 0:
                jet.f_zeta.setdefault(k, np.zeros(nv, dtype=complex))[u] = c
            elif any(m):
                jet.f_r.setdefault(k, np.zeros(poly.n, dtype=complex))[
                    m.index(1)] = c
            else:
                jet.f_theta[k] = c
        return jet

    def to_polynomial(self) -> Polynomial:
        ids = np.arange(len(self.zvars))
        blocks = [(k, None, [-1], None, [c]) for k, c in self.f_theta.items()]
        blocks += [(k, np.eye(self.n), [-1] * self.n, None, vec)
                   for k, vec in self.f_r.items()]
        blocks += [(k, None, ids, None, vec) for k, vec in self.f_zeta.items()]
        blocks += [(k, None, ids, ids, H / 2)
                   for k, H in self.f_zetazeta.items()]
        return encode(self.n, self.zvars, *block_rows(self.n, blocks))


# -- normal-form Hamiltonians --------------------------------------------------

@dataclass
class NormalFormHamiltonian:
    """h = const + omega.r + sum of Hermitian class forms + hyperbolic form.

    The elliptic quadratic part is stored per partition class as a Hermitian
    matrix Q with h_cl = sum_{a,b} Q_ab xi_a eta_b; the hyperbolic part is
    1/2 <w, H w> over the real components of the finite node set.
    """
    omega: np.ndarray
    nf: NormalFormMatrix
    const: float = 0.0
    rho_star: np.ndarray | None = None
    omega_fn: object = None       # rho -> n-vector (model closed form)
    lambda_fn: object = None      # (site, rho) -> real (model closed form)

    @property
    def n(self) -> int:
        return len(self.omega)

    @property
    def partition(self):
        return self.nf.partition

    @property
    def finite_set(self):
        return self.nf.partition.finite_set

    def class_Q(self, ci: int) -> np.ndarray:
        return self.nf.block_for(ci)

    def to_polynomial(self) -> Polynomial:
        return normal_form_polynomial(
            self.partition, self.n, self.const, self.omega,
            self.nf.elliptic_blocks, self.nf.hyperbolic_block)


# -- sampled domain norm -------------------------------------------------------

@dataclass(frozen=True)
class ClassNormParams:
    """Sampling controls for the analytic-domain norm."""
    sigma: float = 0.3
    mu: float = 0.25
    s_star: int = 0
    n_theta: int = 8
    n_dirs: int = 3
    radial_levels: int = 2
    seed: int = 2024

    def __post_init__(self):
        if not (0 < self.sigma <= 1 and 0 < self.mu <= 1):
            raise ValueError("sigma and mu must lie in (0, 1]")
        for name in ("n_theta", "n_dirs", "radial_levels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


def _halving_grid(top: float, floor: float) -> list[float]:
    vals = []
    v = top
    while v >= floor and len(vals) < 12:
        vals.append(v)
        v /= 2.0
    return vals or [top]


def class_norm(poly: Polynomial, p: ClassNormParams, w: WeightParams) -> float:
    """Sampled sup of max(|f|, mu*grad-norm, mu^2*hessian-norm).

    The sup runs over a deterministic sample of the analytic domain:
    complex angles with |Im theta| on a halving grid below sigma, actions
    |r| on a halving grid below mu^2, and seeded mode directions scaled to
    weighted norm <= mu, at weights gamma' in {0, gamma/2, gamma}.  The
    halving grids share a fixed floor, so doubling sigma or mu (or refining
    the grids) enlarges the sample set and never decreases the value.

    The sample set is evaluated one angle at a time, as the columns of one
    (terms, samples) array, so memory is bounded by one angle's samples.
    Each column is reduced on its own, never by a matrix product across
    columns, so a sample's value does not depend on its batch.  The hessian
    is taken at each angle's first sample.
    """
    if not poly.terms:
        return 0.0
    from scipy import sparse as _sparse
    n = poly.n
    rng = np.random.default_rng(p.seed)
    zvars = poly.z_vars()
    V = len(zvars)
    C, K, M, Zid = _pack(poly, {v: i for i, v in enumerate(zvars)})
    N = len(C)
    rows, cols = np.nonzero(Zid >= 0)
    Z = _sparse.csr_matrix((np.ones(len(rows)), (rows, Zid[rows, cols])),
                           shape=(N, V))          # repeated ids sum to powers
    Zt = Z.T.tocsr()

    # angle samples along a fixed direction; nested under n_theta doubling
    direction = np.array([1.0 + 0.61803398875 * j for j in range(n)])
    imag_levels = [0.0]
    for v in _halving_grid(p.sigma, 0.05):
        imag_levels += [v, -v]
    thetas = [np.zeros(0)] if n == 0 else [
        2 * math.pi * i / p.n_theta * direction + 1j * im * np.ones(n)
        for i in range(p.n_theta) for im in imag_levels]

    # seeded mode directions of weighted norm 1, scaled by the radial grid
    zsites = np.array([v[0] for v in zvars], dtype=np.int64)
    zsites = zsites.reshape(V, -1 if V else 0)
    sw = site_weight(zsites, w)
    dirs = []
    for _ in range(p.n_dirs):
        raw = rng.standard_normal(V) + 1j * rng.standard_normal(V)
        nrm = math.sqrt(float(np.sum(np.abs(raw * sw) ** 2)))
        if nrm > 0:
            dirs.append(raw / nrm)
    radii = _halving_grid(p.mu, 0.02)[:p.radial_levels + 2]
    r_vals = _halving_grid(p.mu ** 2, 4e-4)[:3]

    gammas = [WeightParams(0.0, 0.0, w.kappa, w.m_star),
              WeightParams(w.gamma1 / 2, w.gamma2 / 2, w.kappa, w.m_star),
              w]
    grad_w = np.array([site_weight(zsites, gp)
                       for gp in gammas]).reshape(3, V, 1)

    # per-term factors r^m (terms, actions) and zeta^p (terms, (dir, radius))
    Rf = np.stack([np.exp(M @ np.log(np.full(n, rmag))) for rmag in r_vals],
                  axis=1)
    if V:
        ZV = np.stack([rad * dvec for dvec in dirs for rad in radii], axis=1)
        Zf = np.exp(Z @ np.log(ZV))
        ZVs = np.repeat(ZV, len(r_vals), axis=1)   # zeta of each sample
    else:
        Zf = np.ones((N, 1))

    # hessian pattern P[(a, b), t] = Z_ta Z_tb - [a == b] Z_ta: the ordered
    # pairs of distinct slots of term t's id row, in the padded site layout
    has_quad = Zid.shape[1] >= 2
    if has_quad:
        sites = sorted({v[0] for v in zvars})
        si = {s: i for i, s in enumerate(sites)}
        S2 = 2 * len(sites)
        pad = np.array([2 * si[v[0]] + v[1] for v in zvars], dtype=np.int64)
        slot = np.where(Zid >= 0, pad[Zid], -1)
        i, j = np.nonzero(~np.eye(Zid.shape[1], dtype=bool))
        Pa, Pb = slot[:, i], slot[:, j]
        t, q = np.nonzero((Pa >= 0) & (Pb >= 0))
        P = _sparse.csc_matrix((np.ones(len(t)), (Pa[t, q] * S2 + Pb[t, q], t)),
                               shape=(S2 * S2, N))     # repeated pairs sum
        zpad = np.ones(S2, dtype=complex)
        zpad[pad] = ZV[:, 0]
        X = np.array(sites, dtype=np.int64)
        block_w = [decay_weight(X[:, None], X[None], gp) for gp in gammas]

    def sample_norm(phase):
        # column (d, a) of T is phase * r^m * zeta^p at direction-radius
        # pair d and action a, in the loop order (direction, radius, action)
        T = ((phase[:, None] * Rf)[:, None, :] * Zf[:, :, None]).reshape(N, -1)
        val = np.abs(T.sum(axis=0)).max()
        if V:
            ag2 = np.abs((Zt @ T) / ZVs) ** 2
            val = max(val, p.mu * np.sqrt((ag2 * grad_w * grad_w)
                                          .sum(axis=1)).max())
        return val

    def hessian_norm(t0):
        H = (P @ t0).reshape(S2, S2)
        H /= zpad[:, None]
        H /= zpad[None, :]
        bn = spectral_norm_2x2(H.reshape(len(sites), 2, len(sites), 2)
                               .transpose(0, 2, 1, 3))
        return p.mu ** 2 * max(max(wb.sum(axis=1).max(), wb.sum(axis=0).max())
                               for wb in (bn * wt for wt in block_w))

    # one angle's samples at a time: T and H are freed before the next
    best = 0.0
    for th in thetas:
        phase = np.exp(1j * (K @ th)) * C
        best = max(best, sample_norm(phase))
        if has_quad:         # at the angle's first sample, column 0 of T
            best = max(best, hessian_norm(phase * Rf[:, 0] * Zf[:, 0]))
    return float(best)


def hessian_decay_check(M: WeightedMatrix, w: WeightParams,
                        C: float | None = None):
    """Compare hessian blocks against C e^{-g1 [a-b]} <a>^{-kappa} <b>^{-kappa}.

    Returns (minimal C making the bound hold, list of violations for the
    supplied C).
    """
    if not M.blocks:
        return 0.0, []
    sites, ((rows, cols, data),) = _stack(M)
    X = np.array(sites, dtype=np.int64)
    brk = site_weight(X, WeightParams(0.0, w.kappa))        # <s>^kappa
    bound = 1.0 / (decay_weight(X[rows], X[cols], WeightParams(w.gamma1, 0.0))
                   * brk[rows] * brk[cols])
    nb = spectral_norm_2x2(data)
    violations = []
    if C is not None:
        for i in np.flatnonzero(nb > C * bound * (1 + 1e-12)).tolist():
            violations.append((sites[rows[i]], sites[cols[i]], float(nb[i]),
                               C * float(bound[i])))
    return float((nb / bound).max()), violations
