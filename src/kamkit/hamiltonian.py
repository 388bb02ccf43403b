"""Polynomial Hamiltonians in angle-Fourier form, jets, Poisson brackets,
Lie transforms, the normal-form Hamiltonian and the sampled domain norm.

A Hamiltonian is a finite sum of monomials

    c * e^{i k.theta} * r^m * prod_v zeta_v^{p_v}

where k, m run over n internal angle/action pairs and the zeta variables are
(site, component) pairs over the truncated lattice: components (0, 1) mean
(xi, eta) on elliptic sites and the real symplectic pair on the finite
hyperbolic node set.  Degree counts r twice and each zeta once; the jet is
the part of degree <= 2 (``Polynomial._in_jet``, the one jet rule).

A ``Polynomial`` is rows of distinct monomials, the packed layout of
Monagan & Pearce's sparse-polynomial arithmetic in Maple's POLY: C (N,)
complex, K and M (N, n) int64 rows of k and m, and Z, a row of ids into the
sorted variable list ``zvars`` per monomial, a variable of power p
repeated p times, ascending, padded at the end with len(zvars), the one
pad.  ``zvars`` may hold variables no row uses.  ``terms`` is a read-only
copy as a dict {(k, m, z): c} in row order, z the sorted (variable, power)
pairs, for the tests; ``Polynomial(n, terms)`` and ``add_term`` take such
keys in.  Each operation is an array pass over the rows, after aligning its
operands' variable lists (``_align``).

Like terms sum by one rule (``_merge``): a monomial's sum starts at 0.0
and adds its rows in row order, the monomial keeps the place of its first
row, and sums that are exactly zero are dropped at the end of the
operation.  ``add_term`` adds one row, so a key whose sum reaches zero
there is dropped and a later ``add_term`` puts it back last.  With every
coefficient formed by Python's complex formulas, part by part (``_cmul``,
``_abs``), the keys, their order and the coefficient bits are those of the
dict loops kept as the tests' oracles.

One kernel, ``_product``, forms the pairs of two operands that pass the
degree filter in one broadcast; their monomials get a mixed-radix int64 key
(k and m digits, then the sorted z ids), or, when the product of the digit
spans would not fit in int64, a key folded by dense ranks (``_key``);
``_merge`` sums like
terms in pair order, left term outer, so each sum runs in the order of a
loop over term pairs.  ``Polynomial.mul`` is one call of it.  In
``poisson``, d/dr_j keeps the rows with m_j > 0, d/dtheta_j scales the rows
with k_j != 0 by i k_j, and d/dz_v drops one v from each id row that holds
it.  The bracket is a sum of products, its factors, in this order: for
each action j, dF/dr_j dG/dtheta_j (sign +1) then dF/dtheta_j dG/dr_j
(sign -1); then for each site that F and G share, in ascending order,
dF/dz_(s,0) dG/dz_(s,1) (sign +u) then dF/dz_(s,1) dG/dz_(s,0) (sign -u),
with u = 1 on the hyperbolic sites of ``finite_set`` and i elsewhere.  One
``_product`` call forms them all: the factors' rows are stacked into one
left and one right operand, each row tagged by its factor, only rows of
one factor pair, and the factor is a digit of the key, so each factor's
product is merged and cut at ``tol`` as if on its own.  ``_merge`` then
adds the signed rows in factor order and cuts the sums at ``tol``.  Every
cut is one rule (``_kept``), which never drops a non-finite coefficient.
``lie_transform`` scales each order's bracket by 1/m and, given
``rest_tol``, cuts it at ``tol`` in the jet and ``rest_tol`` outside before
adding it; it also screens its brackets' products (``_pairs``): a pair
whose monomial is outside the jet is not formed when |c_a| |c_b| <=
rest_tol / min(|A|, |B|), |A| and |B| the rows of its factor, which takes
at most ``rest_tol`` from a coefficient per product; jet pairs are always
formed, so the jet rows are those of the exact bracket.  ``poisson`` and
``Polynomial.mul`` take no screen: their products are exact.

``class_norm``'s three sparse products (the rows' log-powers Z @
log(zeta), the gradient Zt @ T and the hessian entries P @ t0) go through
one numpy kernel, ``_sparse_sums``: each output is 0 plus its entries,
weighted by their multiplicity, added a row at a time in ascending input
order, the order of scipy.sparse's CSR and CSC products, so each sum is
scipy's up to the sign of a zero, which every consumer drops (an abs or a
Gram matrix).

``NormalFormHamiltonian`` is the one normal-form type: a constant, a
frequency vector, one Hermitian block per partition class and one complex
symmetric hyperbolic block.  The model builders' h, the homological
solver's h_tilde and the super step's fold are all of this type, and
``to_polynomial`` writes each through ``encode``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
# numpy loads these two on first use, inside a run: numpy.ma at the
# first np.unique, numpy.random at class_norm's first default_rng
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .algebra import (WeightParams, decay_norm, site_weight,
                      spectral_norm_2x2)
from .lattice import BlockPartition, _ranges, _tuples

XI, ETA = 0, 1


class StageAbort(RuntimeError):
    """A deliberate stop of the iteration, named by its stage.

    ``stage`` is one of ``tables``, ``divisors``, ``excision``, ``fold``,
    ``picard``, ``lie`` or ``norm``; ``key`` locates the failure inside
    the stage (a divisor key, a class index, a Fourier index, a round or
    an order) or is None."""

    def __init__(self, stage: str, key, detail: str):
        super().__init__(stage, key, detail)
        self.stage, self.key, self.detail = stage, key, detail

    def __str__(self) -> str:
        where = "" if self.key is None else f" at {self.key}"
        return f"{self.stage}{where}: {self.detail}"


def _id_type(V: int):
    """Variable ids only index and compare, and a product's pairs copy and
    sort them: int16, or int32 from 2**15 variables on."""
    return np.int16 if V < 2 ** 15 else np.int32


class Polynomial:
    """Sparse polynomial as rows of distinct monomials (module docstring)."""

    __slots__ = ("n", "zvars", "C", "K", "M", "Z")

    def __init__(self, n: int, terms: dict | None = None):
        """From a dict {(k, m, z): c}, z the sorted (variable, power)
        pairs, keeping its order: the one way in from dict keys, for tests
        and hand-written inputs."""
        terms = terms or {}
        N = len(terms)
        zvars = sorted({v for _, _, z in terms for v, _ in z})
        at = {v: i for i, v in enumerate(zvars)}
        ids = [[at[v] for v, p in z for _ in range(p)] for _, _, z in terms]
        w = max(map(len, ids), default=0)
        Z = np.array([r + [len(zvars)] * (w - len(r)) for r in ids],
                     dtype=_id_type(len(zvars))).reshape(N, w)
        self.n, self.zvars, self.Z = n, zvars, np.sort(Z, axis=1)
        self.K, self.M = (np.array([key[i] for key in terms], dtype=np.int64)
                          .reshape(N, n) for i in (0, 1))
        self.C = np.array(list(terms.values()), dtype=complex).reshape(N)

    @classmethod
    def _of(cls, n: int, zvars: list, C, K, M, Z) -> "Polynomial":
        P = object.__new__(cls)
        P.n, P.zvars, P.C, P.K, P.M, P.Z = n, zvars, C, K, M, Z
        return P

    @property
    def rows(self) -> tuple:
        return self.C, self.K, self.M, self.Z

    def _take(self, keep) -> "Polynomial":
        return Polynomial._of(self.n, self.zvars, *_cut(self.rows, keep))

    def _keep(self, keep) -> "Polynomial":
        """Drop the other rows, in place."""
        self.C, self.K, self.M, self.Z = _cut(self.rows, keep)
        return self

    @property
    def terms(self) -> dict:
        """The monomials as a new dict {(k, m, z): c} in row order: a
        read-only copy, for the tests."""
        intern = {}.setdefault
        keys = zip([intern(t, t) for t in _tuples(self.K)],
                   [intern(t, t) for t in _tuples(self.M)],
                   _zkeys(self.Z, self.zvars))
        return dict(zip(keys, self.C.tolist()))

    # -- construction -----------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls._of(n, [], *_no_rows(n, 0))

    def add_term(self, c, k=None, m=None, z=()):
        """Accumulate one monomial; z is a dict var->power or a zkey tuple."""
        if c == 0:
            return
        k = tuple(k) if k is not None else (0,) * self.n
        m = tuple(m) if m is not None else (0,) * self.n
        z = tuple(dict(z).items())        # Polynomial() sorts, skips p = 0
        zvars, (A, B) = _align(self,
                               Polynomial(self.n, {(k, m, z): complex(c)}))
        self.zvars = zvars
        self.C, self.K, self.M, self.Z = _add(A, B, len(zvars))

    # -- ring operations ---------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        zvars, (A, B) = _align(self, other)
        return Polynomial._of(self.n, zvars, *_add(A, B, len(zvars)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1.0)

    def scale(self, c) -> "Polynomial":
        if c == 0:
            return Polynomial.zero(self.n)
        c = complex(c)
        return Polynomial._of(
            self.n, self.zvars,
            _complex(*_cmul(c.real, c.imag, self.C.real, self.C.imag)),
            self.K, self.M, self.Z)

    def mul(self, other: "Polynomial", max_degree: int | None = None,
            tol: float = 0.0) -> "Polynomial":
        """Product pruned at ``tol`` (|c| <= tol) with exact zeros dropped;
        pairs whose degrees sum above ``max_degree`` are skipped."""
        zvars, (A, B) = _align(self, other)
        return Polynomial._of(self.n, zvars, *_product(A, B, len(zvars),
                                                       max_degree, tol))

    def prune(self, tol: float, rest_tol: float | None = None):
        """Drop the terms with |c| <= tol, in place; given ``rest_tol``,
        the cut is ``rest_tol`` outside the jet."""
        cut = tol if rest_tol is None else \
            np.where(self._in_jet(), tol, rest_tol)
        return self._keep(_kept(self.C, cut))

    def truncate_degree(self, max_degree: int) -> "Polynomial":
        return self._take(_degree(self.M, self.Z, len(self.zvars))
                          <= max_degree)

    def max_coeff(self) -> float:
        return float(_abs(self.C).max(initial=0.0))

    def __len__(self):
        return len(self.C)

    # -- structure -----------------------------------------------------------
    def _in_jet(self) -> np.ndarray:
        """The one jet rule, of ``jet``, ``prune`` and the pair screen
        (``_pair_runs``): the mask of the rows of degree <= 2."""
        return _degree(self.M, self.Z, len(self.zvars)) <= 2

    def jet(self) -> "Polynomial":
        """The terms in the jet, in term order."""
        return self._take(self._in_jet())

    def without_jet(self) -> "Polynomial":
        """The terms ``jet`` leaves out, in term order."""
        return self._take(~self._in_jet())


# -- rows: alignment, merging, views ------------------------------------------

def _remap(Z, zvars: list, onto: list) -> np.ndarray:
    """Z's ids into ``zvars`` as ids into ``onto``, which holds them all;
    pads become len(onto).  For sorted lists the rows stay sorted."""
    at = {v: i for i, v in enumerate(onto)}
    lookup = np.array([at[v] for v in zvars] + [len(onto)],
                      dtype=_id_type(len(onto)))
    return lookup[Z]


def _align(*polys) -> tuple:
    """The rows of each polynomial over the union of their variable lists:
    (sorted variables, [(C, K, M, Z) per polynomial])."""
    zvars = polys[0].zvars
    if any(P.zvars != zvars for P in polys):
        zvars = sorted(set().union(*(P.zvars for P in polys)))
    return zvars, [P.rows if P.zvars == zvars else
                   (P.C, P.K, P.M, _remap(P.Z, P.zvars, zvars))
                   for P in polys]


def _stack_z(Zs: list, V: int) -> np.ndarray:
    """Z blocks padded with V to one width and stacked, in their common
    dtype."""
    out = np.full((sum(len(z) for z in Zs), max(z.shape[1] for z in Zs)), V,
                  dtype=np.result_type(*Zs))
    at = 0
    for z in Zs:
        out[at:at + len(z), :z.shape[1]] = z
        at += len(z)
    return out


def _add(A: tuple, B: tuple, V: int) -> tuple:
    """The rows of A + B: A's rows then B's, summed by ``_merge``."""
    C, K, M = (np.concatenate([a, b]) for a, b in zip(A[:3], B[:3]))
    if not len(C):
        return A
    Z = _stack_z([A[3], B[3]], V)
    at, C = _merge(_key(K, M, Z), C.real, C.imag)
    return C, K[at], M[at], Z[at]


def _live(P: Polynomial) -> tuple:
    """The variables P's rows use, sorted, and P's Z over them: ids ranked
    among them, pads -1, without pad-only columns."""
    V = len(P.zvars)
    Z = _live_width(P.Z, V)
    used = np.unique(Z[Z < V])
    rank = np.full(V + 1, -1, dtype=np.int64)
    rank[used] = np.arange(len(used))
    return [P.zvars[i] for i in used.tolist()], rank[Z]


def _degree(M, Z, V: int) -> np.ndarray:
    """The degree of each row: r counts twice, each z once."""
    return 2 * M.sum(axis=1) + (Z < V).sum(axis=1)


# -- products and brackets on packed rows -------------------------------------

def _complex(re, im) -> np.ndarray:
    c = np.empty(len(re), dtype=complex)
    c.real, c.imag = re, im
    return c


def _cmul(ar, ai, br, bi) -> tuple:
    """Python's complex product (ar + i ai)(br + i bi), part by part; a
    real factor enters with imaginary part 0.0, as Python converts it."""
    return ar * br - ai * bi, ar * bi + ai * br


def _live_width(Z, V: int):
    """Z without the columns that hold only pads (pads sort last)."""
    return Z[:, :(Z < V).sum(axis=1).max(initial=0)]


def _product(A: tuple, B: tuple, V: int, max_degree: int | None,
             tol: float, screen: float | None = None,
             fa=None, fb=None, sign=None) -> tuple:
    """The product of two operands' rows over one variable list of length
    V (``_align``) as one broadcast over term pairs, summed by ``_merge``
    on a packed key.

    A and B may stack the rows of several factors, ``fa`` and ``fb`` the
    ascending factor index of each row (one factor, 0, without them): only
    rows of one factor pair, and each factor's product comes out as if on
    its own, times its ``sign`` when given.  Pairs run factor by factor,
    left term outer and, under a degree filter, right terms by ascending
    degree, stably; like terms sum in that pair order.  With a ``screen``,
    the non-jet pairs it drops are never formed.  ``_pairs`` hands the
    pairs over in chunks of consecutive factors, each formed and merged on
    its own.  Returns the rows (C, K, M, Z) of each factor's monomials in
    the order of their first pair, without those with |c| <= ``tol``
    (exact zeros for tol 0), factor after factor.
    """
    C1, K1, M1, Z1 = A
    C2, K2, M2, Z2 = B
    fa = np.zeros(len(C1), dtype=np.int64) if fa is None else fa
    fb = np.zeros(len(C2), dtype=np.int64) if fb is None else fb
    Z1, Z2 = _live_width(Z1, V), _live_width(Z2, V)
    W = Z1.shape[1] + Z2.shape[1]
    if max_degree is not None:          # past it, the columns are all pads
        W = max(min(W, max_degree), 0)
    if not (len(C1) and len(C2)):
        return _no_rows(K1.shape[1], W)
    if max_degree is not None:
        # visit B by ascending degree, stably: this fixes first occurrences
        order = np.lexsort((_degree(M2, Z2, V), fb))
        C2, K2, M2, Z2, fb = _cut((C2, K2, M2, Z2, fb), order)

    # mixed-radix key: the factor, k and m digits from each operand's
    # offsets, then z; packed, X1 and X2 become the codes of their digits
    X1 = np.hstack([K1, M1, fa[:, None]])
    X2 = np.hstack([K2, M2, np.zeros((len(C2), 1), dtype=np.int64)])
    lo1, lo2 = X1.min(axis=0), X2.min(axis=0)
    spans = (X1.max(axis=0) - lo1 + X2.max(axis=0) - lo2 + 1).tolist()
    spans += [V + 1] * W
    if math.prod(spans) <= _INT64_MAX:
        strides = np.cumprod([1] + spans[:-1], dtype=np.int64)
        nx = X1.shape[1]
        X1, X2 = (X1 - lo1) @ strides[:nx], (X2 - lo2) @ strides[:nx]
        strides = strides[nx:]

    def chunk(i, j):                  # the rows of the pairs' factors
        a, b = C1[i], C2[j]
        re, im = _cmul(a.real, a.imag, b.real, b.imag)
        del a, b
        Z = np.sort(np.concatenate([Z1[i], Z2[j]], axis=1), axis=1)[:, :W]
        if X1.ndim == 1:
            key = X1[i] + X2[j]
            for col, stride in zip(Z.T, strides):
                # in int64: NumPy 1.x would multiply an int16 column by a
                # small np.int64 stride in int16, and wrap
                key += np.multiply(col, stride, dtype=np.int64)
        else:
            key = _key(X1[i] + X2[j], Z)
        at, c = _merge(key, re, im)
        keep = _kept(c, tol)
        at, c = at[keep], c[keep]
        i, j = i[at], j[at]
        if sign is not None:
            u = sign[fa[i]]
            c = _complex(*_cmul(u.real, u.imag, c.real, c.imag))
        return c, K1[i] + K2[j], M1[i] + M2[j], Z[at]

    parts = [chunk(i, j) for i, j in
             _pairs((C1, M1, Z1), (C2, M2, Z2), V, max_degree, screen,
                    fa, fb)]
    if not parts:
        return _no_rows(K1.shape[1], W)
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(x) for x in zip(*parts))


# the pairs that one chunk of a batched product forms and merges, unless
# one factor alone forms more: at 2**15 the kam_desk workload's peak memory
# rose by 0.7 MB over one product per factor
_CHUNK_PAIRS = 1 << 12


def _passes_screen(a, b, cut):
    """The pair screen's one float test: a non-jet pair whose coefficients
    have sizes a and b (``_abs``) is formed unless a * b <= cut, the
    comparison of ``_kept``, so a non-finite product is always formed."""
    return ~np.less_equal(a * b, cut)


def _pairs(A: tuple, B: tuple, V: int, max_degree: int | None,
           screen: float | None, fa=None, fb=None):
    """The row pairs (i, j) a product of the rows A = (C, M, Z) and B
    forms: those of rows of one factor (``fa`` and ``fb``, ascending, as in
    ``_product``; one factor without them) whose degrees sum to at most
    ``max_degree`` (all without one) and that pass the ``screen``
    (``_pair_runs``), left row outer and right rows in B's order;
    ``np.nonzero`` of the pair mask.  They are yielded in chunks of
    consecutive factors, of at most max(``_CHUNK_PAIRS``, the largest
    factor's) pairs, each formed only when it is asked for."""
    nA, nB = len(A[0]), len(B[0])
    fa = np.zeros(nA, dtype=np.int64) if fa is None else fa
    fb = np.zeros(nB, dtype=np.int64) if fb is None else fb
    if not (nA and nB):
        return
    nF = int(max(fa[-1], fb[-1])) + 1
    qi, at, count, by_size = _pair_runs(A, B, V, max_degree, screen, fa, fb,
                                        nF)
    ends = np.cumsum(np.bincount(fa[qi], weights=count, minlength=nF)
                     .astype(np.int64))
    limit = max(int(np.diff(ends, prepend=0).max()), _CHUNK_PAIRS)
    runs = np.searchsorted(fa[qi], np.arange(nF + 1))
    f0 = 0
    while f0 < nF:
        f1 = int(np.searchsorted(ends, (ends[f0 - 1] if f0 else 0) + limit,
                                 "right"))
        r0, r1 = runs[f0], runs[f1]
        f0 = f1
        # the pairs as codes i nB + j, sorted back to the mask's order:
        # left row outer, right rows ascending
        code = np.repeat(qi[r0:r1] * nB, count[r0:r1])
        if not len(code):
            continue
        code += by_size[_ranges(at[r0:r1], count[r0:r1])]
        code.sort()
        i, j = np.divmod(code, nB)
        del code
        yield i, j


def _pair_runs(A: tuple, B: tuple, V: int, max_degree: int | None,
               screen: float | None, fa, fb, nF: int) -> tuple:
    """``_pairs``' pairs as runs (qi, at, count, by_size), in the order of
    their left rows: left row qi[r] pairs with the right rows
    by_size[at[r]:at[r] + count[r]].

    With a ``screen``, a pair whose monomial is outside the jet (of degree
    above 2) is kept only when it passes the screen at cut = screen /
    min(|A_f|, |B_f|), |A_f| and |B_f| the rows of its factor.  Right rows
    give a fixed left row distinct monomials, so a monomial gets at most
    min(|A_f|, |B_f|) pairs and loses at most ``screen`` in all.  Those
    pairs are never formed: B's rows are grouped by their factor and two
    degrees and sorted by |c| within a group, so each left row keeps a
    suffix of each group of its factor (``_screen_counts``), counted for
    all factors at once, one pair of degrees at a time."""
    (C1, M1, Z1), (C2, M2, Z2) = A, B
    nB = len(C2)
    sizeB = np.bincount(fb, minlength=nF)
    s1, s2 = M1.sum(axis=1), M2.sum(axis=1)
    z1, z2 = (Z1 < V).sum(axis=1), (Z2 < V).sum(axis=1)
    width = int(max(z1.max(), z2.max())) + 1
    code = s2 * width + z2
    # the left rows' distinct (action, mode) degrees, and each row's
    degrees, d1 = np.unique(s1 * width + z1, return_inverse=True)
    del s1, z1
    b = None if screen is None else _abs(C2)
    # by factor, then degrees, then |c| under a screen
    by_size = np.lexsort((code, fb) if b is None else (b, code, fb))
    f, g = fb[by_size], code[by_size]
    lo = np.flatnonzero(np.r_[True, (f[1:] != f[:-1]) | (g[1:] != g[:-1])])
    hi = np.r_[lo[1:], nB]
    if screen is not None:
        b = b[by_size]
        cut = screen / np.maximum(np.minimum(np.bincount(fa, minlength=nF),
                                             sizeB), 1)
    # one degree code at a time: a run per left row i and the group q of
    # its factor with that code
    group, runs = np.full(nF, -1), []
    for c in np.unique(g[lo]).tolist():
        q = np.flatnonzero(g[lo] == c)
        group[:] = -1
        group[f[lo[q]]] = q
        i = np.flatnonzero(group[fa] >= 0)
        q = group[fa[i]]
        deg = 2 * (degrees // width + c // width) + degrees % width + c % width
        fits = np.full(len(degrees), True) if max_degree is None else \
            deg <= max_degree
        # per left degrees: the group's pairs all formed, or screened
        whole = fits if screen is None else fits & (deg <= 2)
        count = np.where(whole[d1[i]], hi[q] - lo[q], 0)
        if screen is not None:
            rest = np.flatnonzero((fits & ~whole)[d1[i]])
            count[rest] = _screen_counts(_abs(C1[i[rest]]), b, lo[q[rest]],
                                         hi[q[rest]], cut[fa[i[rest]]])
        live = np.flatnonzero(count)
        runs.append((i[live], hi[q[live]] - count[live], count[live]))
    qi, at, count = (np.concatenate(x) for x in zip(*runs))
    order = np.argsort(qi, kind="stable")
    return qi[order], at[order], count[order], by_size


def _screen_counts(a, b, lo, hi, cut) -> np.ndarray:
    """How many of the sizes b[lo:hi], ascending, pass the screen with the
    size a at its cut, for each query (a, lo, hi, cut): the test is
    monotone in b, so they are a suffix, found by a bisection of all the
    queries at once on ``_passes_screen`` itself.  Queries that even the
    largest size cannot lift past the cut count 0 without a search."""
    first = hi.copy()
    live = np.flatnonzero(_passes_screen(a, b[hi - 1], cut))
    top = hi[live] - 1                # passes; the first pass is in lo..top
    bot = lo[live]
    while len(live):
        mid = (bot + top) // 2
        ok = _passes_screen(a[live], b[mid], cut[live])
        top = np.where(ok, mid, top)
        bot = np.where(ok, bot, mid + 1)
        done = bot == top
        first[live[done]] = top[done]
        live, bot, top = live[~done], bot[~done], top[~done]
    return hi - first


def _no_rows(n: int, w: int) -> tuple:
    return (np.zeros(0, dtype=complex), np.zeros((0, n), dtype=np.int64),
            np.zeros((0, n), dtype=np.int64), np.zeros((0, w), dtype=np.int64))


def _runs(Z: np.ndarray, V: int) -> tuple:
    """The runs of equal ids in sorted id rows padded with V, row-major:
    their rows, first columns and lengths (a variable and its power)."""
    live = Z < V
    start = live.copy()
    start[:, 1:] &= Z[:, 1:] != Z[:, :-1]
    rows, cols = np.nonzero(start)
    if not len(rows):
        return rows, cols, cols
    ends = np.append(cols[1:], 0)
    last = np.append(rows[1:] != rows[:-1], True)
    ends[last] = live.sum(axis=1)[rows[last]]
    return rows, cols, ends - cols


def _zkeys(Z: np.ndarray, zvars: list) -> list:
    """Sorted id rows padded with len(zvars) back to z-tuples
    ((var, p), ...)."""
    rows, cols, p = _runs(Z, len(zvars))
    if not len(rows):
        return [()] * len(Z)
    q = Z.shape[1] + 1
    codes, inv = np.unique(Z[rows, cols].astype(np.int64) * q + p,
                           return_inverse=True)
    table = [(zvars[v], p) for v, p in zip(*(x.tolist()
                                             for x in np.divmod(codes, q)))]
    runs = iter(list(map(table.__getitem__, inv.tolist())))
    return [tuple(itertools.islice(runs, g))
            for g in np.bincount(rows, minlength=len(Z)).tolist()]


_INT64_MAX = np.iinfo(np.int64).max


def _key(*blocks) -> np.ndarray:
    """An int64 key of each row of the integer matrices ``blocks``, read
    side by side, equal rows alike: the mixed-radix code of the row, one
    digit per column, counted from the column's least entry.  Before a
    digit would overflow int64, the code so far, and if need be the column,
    is replaced by its dense rank among the rows (``_rank``)."""
    key, span = np.zeros(len(blocks[0]), dtype=np.int64), 1
    for col in (c for X in blocks for c in X.T):
        lo = int(col.min())
        col, s = col - lo, int(col.max()) - lo + 1
        if span * s > _INT64_MAX:
            key, span = _rank(key)
            if span * s > _INT64_MAX:
                col, s = _rank(col)
        key *= s
        key += col
        span *= s
    return key


def _rank(x) -> tuple:
    """The dense rank of each entry of x among its distinct values, and
    their count."""
    values, rank = np.unique(x, return_inverse=True)
    return rank.ravel(), len(values)


def _merge(key: np.ndarray, re, im) -> tuple:
    """Like rows summed, the one rule of every sum: rows with equal keys
    (``_key``) are one monomial.  Its sum starts at 0.0 and adds its rows in
    row order (``bincount``), the monomial keeps the place of its first
    row, and sums that are exactly zero are dropped.  Returns the first row
    of each kept monomial, in row order, and its sum.

    No stable sort is needed: the runs of equal keys after any sort are the
    monomials, and the least row of each run is its first."""
    by_key = np.argsort(key)
    sk = key[by_key]
    start = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
    del sk
    first = np.minimum.reduceat(by_key, start) if len(key) else start
    inv = np.empty(len(key), dtype=np.int64)
    inv[by_key] = np.repeat(np.arange(len(start)),
                            np.diff(np.r_[start, len(key)]))
    order = np.argsort(first)
    c = _complex(np.bincount(inv, weights=re)[order],
                 np.bincount(inv, weights=im)[order])
    keep = c != 0
    return first[order][keep], c[keep]


def _kept(C, cut) -> np.ndarray:
    """The one coefficient cut: the mask of the rows to keep, those
    without |c| <= ``cut``, a scalar or one value per row.  A non-finite
    |c| is never <= a cut, so it is never dropped."""
    return ~(_abs(C, cut) <= cut)


def _cut(rows: tuple, keep) -> tuple:
    return tuple(x[keep] for x in rows)


def _abs(C, cut=None) -> np.ndarray:
    """|c| as Python's ``abs`` computes it (``np.abs`` can differ in the
    last bits).  Given a ``cut`` to compare the sizes with (0 or normal
    floats), the sizes come from the faster ``np.abs`` and only those
    within ``_NEAR`` of the cut, relative, are recomputed: every comparison
    with the cut, and the max's, is then that of the exact sizes."""
    if cut is None:
        return np.hypot(C.real, C.imag)
    a = np.abs(C)
    near = np.flatnonzero(np.abs(a - cut) <= _NEAR * cut)
    a[near] = np.hypot(C.real[near], C.imag[near])
    return a


# NumPy 2.4's np.abs came within 2.2 eps (relative) of hypot on 4M random
# values of every scale; this margin is a hundredfold
_NEAR = 2.0 ** -44


def _times(C, p) -> tuple:
    """c p for integer counts p, and the mask of the nonzero results.  (The
    sign of a zero part never reaches a bracket: every sum of products
    starts at 0.0.)"""
    c = _complex(*_cmul(C.real, C.imag, p.astype(float), 0.0))
    return c, c != 0


def _diff_r(P: tuple, j: int) -> tuple:
    """dP/dr_j: the rows with m_j > 0 times m_j, exact zeros dropped, and
    m_j lowered by one."""
    C, K, M, Z = P
    sel = np.flatnonzero(M[:, j])
    c, nz = _times(C[sel], M[sel, j])
    sel = sel[nz]
    M = M[sel]
    M[:, j] -= 1
    return c[nz], K[sel], M, Z[sel]


def _k_scale(P: tuple, j: int) -> tuple:
    """dP/dtheta_j: the rows with k_j != 0, times (1j k_j)."""
    C, K, M, Z = P
    sel = np.flatnonzero(K[:, j])
    fr, fi = _cmul(0.0, 1.0, K[sel, j].astype(float), 0.0)
    return (_complex(*_cmul(fr, fi, C.real[sel], C.imag[sel])), K[sel],
            M[sel], Z[sel])


def _diff_z(P: tuple, V: int, keep) -> tuple:
    """dP/dz_v for every variable id v of P with keep[v]: the ids,
    ascending, one per derivative row, and the rows (C, K, M, Z), grouped
    by id and in P's order within each.  A row of power p in v gives c p,
    exact zeros dropped, and its Z row with one v removed."""
    C, K, M, Z = P
    rows, cols, p = _runs(Z, V)
    ids = Z[rows, cols]
    order = np.flatnonzero(keep[ids])
    order = order[np.argsort(ids[order], kind="stable")]
    c, nz = _times(C[rows[order]], p[order])
    rows, cols = rows[order][nz], cols[order][nz]
    w = np.arange(Z.shape[1] - 1)
    drop = Z[rows[:, None], w + (w >= cols[:, None])]
    return Z[rows, cols], (c[nz], K[rows], M[rows], drop)


def _bracket(F: tuple, G: tuple, zvars: list, finite_set,
             max_degree: int | None, tol: float,
             screen: float | None = None) -> tuple:
    """{F, G} on rows over ``zvars`` (``_align``), in ``poisson``'s
    term order (see the module docstring).  The derivatives are array
    passes over F's and G's rows, stacked into one left and one right
    operand with the factor index of each row: the 2n r/theta factors,
    then two per shared site in ascending order.  One ``_product`` forms
    every factor's product within ``max_degree`` (with ``screen``, the Lie
    series' pair screen), each row takes its factor's sign, ``_merge`` sums
    the rows in bracket order, and the sums with |c| <= ``tol`` are
    dropped (``_kept``)."""
    V = len(zvars)
    n = F[1].shape[1]
    left, right, signs = [], [], [1.0, -1.0] * n
    for j in range(n):
        left += [_diff_r(F, j), _k_scale(F, j)]
        right += [_k_scale(G, j), _diff_r(G, j)]
    site = [v[0] for v in zvars]

    def sites(Z):                     # of the variables the rows use
        return {site[v] for v in np.unique(Z[Z < V]).tolist()}
    shared = sorted(sites(F[3]) & sites(G[3]))
    fset = {tuple(s) for s in finite_set}
    for s in shared:
        unit = 1.0 if s in fset else 1j
        signs += [unit, -unit]
    # dD/dz_(s,c) rows are in factor 2n + 2 rank(s) + c on the left, and in
    # their partner's, c flipped, on the right; -1 off the shared sites
    rank = {s: 2 * n + 2 * r for r, s in enumerate(shared)}
    slot = np.array([rank[s] + c if s in rank else -1 for s, c in zvars],
                    dtype=np.int64)
    (vf, dF), (vg, dG) = (_diff_z(D, V, slot >= 0) for D in (F, G))
    lf, rf = slot[vf], slot[vg] ^ 1
    order = np.argsort(rf, kind="stable")
    fa = np.concatenate([np.full(len(X[0]), f) for f, X in enumerate(left)]
                        + [lf])
    fb = np.concatenate([np.full(len(X[0]), f) for f, X in enumerate(right)]
                        + [rf[order]])
    A = _stack_rows(left + [dF], V)
    B = _stack_rows(right + [_cut(dG, order)], V)
    del left, right, dF, dG
    C, K, M, Z = _product(A, B, V, max_degree, tol, screen, fa, fb,
                          np.array(signs, dtype=complex))
    del A, B
    if not len(C):
        return _no_rows(n, 0)
    Z = _live_width(Z, V)
    at, C = _merge(_key(K, M, Z), C.real, C.imag)
    keep = _kept(C, tol)
    at = at[keep]
    return C[keep], K[at], M[at], Z[at]


def _stack_rows(parts: list, V: int) -> tuple:
    """The rows (C, K, M, Z) of ``parts``, one after the other."""
    if len(parts) == 1:
        return parts[0]
    C, K, M, Z = zip(*parts)
    return (*(np.concatenate(x) for x in (C, K, M)), _stack_z(Z, V))


def poisson(F: Polynomial, G: Polynomial, finite_set=(),
            max_degree: int | None = None, tol: float = 0.0) -> Polynomial:
    """Canonical bracket {F, G}.

    Convention: {F,G} = sum_j (dF/dr_j dG/dtheta_j - dF/dtheta_j dG/dr_j)
    plus, per lattice site, i(dF/dxi dG/deta - dF/deta dG/dxi) on elliptic
    sites and (dF/dp dG/dq - dF/dq dG/dp) on hyperbolic ones.  Products
    skip pairs above ``max_degree``; each product and the bracket drop
    terms with |c| <= ``tol``.
    """
    zvars, (PF, PG) = _align(F, G)
    return Polynomial._of(F.n, zvars, *_bracket(PF, PG, zvars, finite_set,
                                                max_degree, tol))


def lie_transform(F: Polynomial, S: Polynomial, finite_set=(),
                  max_degree: int | None = None, tol: float = 1e-18,
                  max_order: int = 16,
                  rest_tol: float | None = None) -> Polynomial:
    """F composed with the time-one flow of S: sum_m ad_S^m(F)/m!.

    ``max_degree`` caps F and every bracket.  It defaults to the degree of
    F, which brackets with a jet S (degree <= 2) never exceed, so that cap
    cuts nothing.  Each order's bracket is cut at ``tol`` and scaled by
    1/m.  ``rest_tol``, when given, prunes terms outside the jet at a
    looser threshold (``prune``), each order's before it is added and
    feeds the next: those terms only influence later jets through further
    brackets.  It also screens each bracket's products: a pair of rows
    whose monomial is outside the jet is never formed when |c_a| |c_b| <=
    rest_tol / min(|A|, |B|), |A| and |B| the factors' rows.  That moves a
    coefficient by at most ``rest_tol`` per product and leaves each
    bracket's jet rows exact.  Without ``rest_tol`` the brackets are exact,
    as ``poisson`` and ``Polynomial.mul`` always are.  A term that is not
    finite, or one of order ``max_order`` still above ``tol``, raises
    ``StageAbort("lie", order)`` rather than being cut there.
    """
    if max_degree is None:
        max_degree = int(_degree(F.M, F.Z, len(F.zvars)).max(initial=0))
    out = F.truncate_degree(max_degree)
    zvars, (rows, PS) = _align(out, S)
    for m in range(1, max_order + 1):
        term = Polynomial._of(out.n, zvars, *_bracket(
            rows, PS, zvars, finite_set, max_degree, tol, rest_tol))
        del rows                      # freed before this order is added
        check_finite(term, "lie", m)
        term = term.scale(1.0 / m)
        if rest_tol is not None:
            term.prune(tol, rest_tol)
        if not len(term) or _abs(term.C, tol).max() < tol:
            break
        out = out + term
        rows = term.rows
    else:
        raise StageAbort("lie", max_order,
                         f"term of order {max_order} is "
                         f"{term.max_coeff():.3e}, above tol {tol:.3e}")
    return out.prune(tol, rest_tol)


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
    repeated p times for power p, padded at the end with -1 or len(zvars)
    (``Polynomial``'s layout); K and M broadcast to (N, n) int rows and
    default to zero.  Zero rows are skipped and the others summed by
    ``_merge``: each monomial's sum starts at 0.0 and adds its rows in row
    order, the monomial keeps the place of its first row, and exactly zero
    sums are dropped.
    """
    C = np.asarray(C, dtype=complex)
    live = C != 0
    if not live.any():
        return Polynomial.zero(n)
    K, M = (np.broadcast_to(np.asarray(0 if X is None else X, dtype=np.int64),
                            (len(C), n))[live] for X in (K, M))
    Z = np.asarray(Z)[live].astype(_id_type(len(zvars)), copy=False)
    Z, C = np.where(Z < 0, len(zvars), Z), C[live]
    at, C = _merge(_key(K, M, Z), C.real, C.imag)
    return Polynomial._of(n, list(zvars), C, K[at], M[at], Z[at])


def decode_jet(P: Polynomial, var_id: dict):
    """The degree <= 2 jet of P as rows: ``encode``'s inverse, and the one
    place that reads a quadratic monomial as a form entry.

    Returns (K, M, U, V, C).  ``var_id`` maps variables to ids and must
    hold every variable of the jet; a missing one is a KeyError, and the
    map is only read.  The jet's rows are read from P's: in place when
    every row of P is in the jet (the solver's f_T), else sliced.  Each jet
    term gives a row, in term order: K and M its (N, n) k and m, U and V
    its variable ids or -1 (both -1 without z, V = -1 for a linear term), C
    its coefficient.  Quadratic rows hold entries of the symmetric H of
    1/2 <Hz, z>: a z_v^2 monomial carries H_vv/2, so its row holds 2c; a
    distinct pair z_u z_v carries H_uv, so its row holds c, and a mirror
    row (v, u) after all term rows holds H_vu = c.  Over ``site_layout``
    ids the hyperbolic variables are interleaved, (s, 0), (s, 1), which is
    the layout of the real hyperbolic block.
    """
    inside = P._in_jet()
    J = P if inside.all() else P._take(inside)
    zvars, Z = _live(J)
    ids = np.array([var_id[v] for v in zvars] + [-1],
                   dtype=np.int64)                 # the -1 pads stay -1
    C, K, M = J.C, J.K, J.M
    U, V = np.hstack([ids[Z], np.full((len(C), 2 - Z.shape[1]), -1)]).T
    C = np.where((U == V) & (U >= 0), 2 * C, C)
    two = (U != V) & (V >= 0)
    return (np.vstack([K, K[two]]), np.vstack([M, M[two]]),
            np.concatenate([U, V[two]]), np.concatenate([V, U[two]]),
            np.concatenate([C, C[two]]))


# -- normal-form Hamiltonians --------------------------------------------------

@dataclass
class NormalFormHamiltonian:
    """h = const + <omega, r> + sum_ab Q_ab xi_a eta_b + 1/2 <w, H w> on a
    partition: the one normal-form type, of the model builders' h, the
    solver's h_tilde and the super step's fold.

    ``elliptic_blocks`` maps a class index to the Hermitian Q over the
    class's sites, set through ``set_block``; the finite class has none.
    ``hyperbolic_block`` is the complex symmetric (2F, 2F) H over the
    interleaved components w of the F sites of the finite class, in its
    (sorted) order: zeros until set, and (0, 0) without a finite set.  The
    model builders' H is real; a solve's k = 0 block keeps its imaginary
    part, and H is real under sigma: (a, c) -> (-a, c) on the finite set.
    """
    omega: np.ndarray
    partition: BlockPartition
    const: complex = 0.0
    elliptic_blocks: dict = field(default_factory=dict)  # class idx -> Q
    hyperbolic_block: np.ndarray = field(init=False)
    rho_star: np.ndarray | None = None
    omega_fn: object = None       # rho on the last axis -> omega (closed form)
    lambda_fn: object = None      # (X, rho stack) -> Lambda, a row per point

    def __post_init__(self):
        m = 2 * len(self.partition.finite_set)
        self.hyperbolic_block = np.zeros((m, m))

    @property
    def n(self) -> int:
        return len(self.omega)

    @property
    def finite_set(self):
        return self.partition.finite_set

    def class_Q(self, ci: int) -> np.ndarray:
        Q = self.elliptic_blocks.get(ci)
        if Q is None:
            m = len(self.partition.classes[ci])
            return np.zeros((m, m), dtype=complex)
        return Q

    def set_block(self, ci: int, Q):
        if ci == self.partition.finite_index:
            raise ValueError("the finite class has no elliptic block")
        Q = np.asarray(Q, dtype=complex)
        if not (np.isfinite(Q).all() and np.linalg.norm(Q - Q.conj().T)
                <= 1e-10 * max(1.0, np.linalg.norm(Q))):
            raise ValueError("elliptic class block must be finite and "
                             "Hermitian")
        self.elliptic_blocks[ci] = Q

    def to_polynomial(self) -> Polynomial:
        p, n = self.partition, self.n
        var_id = site_layout(p.sites())
        zero = (0,) * n
        parts = [(zero, None, [-1], None, [self.const]),
                 (zero, np.eye(n), [-1] * n, None, self.omega)]
        for ci, Q in self.elliptic_blocks.items():
            ids = class_ids(var_id, p.classes[ci])
            parts.append((zero, None, ids[XI], ids[ETA], Q))
        # the monomials of 1/2 <w, Hw>, as decode_jet reads them
        H = self.hyperbolic_block
        w = class_ids(var_id, sorted(p.finite_set)).T.ravel()
        parts.append((zero, None, w, w,
                      np.triu(H, 1) + np.diag(np.diag(H) / 2)))
        return encode(n, list(var_id), *block_rows(n, parts))


# -- sampled domain norm -------------------------------------------------------

def check_finite(P: Polynomial, stage: str, key=None):
    """``StageAbort(stage, key, ...)`` when a coefficient of P, which no
    cut drops (``_kept``), is not finite."""
    bad = np.flatnonzero(~np.isfinite(P.C))
    if len(bad):
        raise StageAbort(stage, key, f"{len(bad)} of {len(P)} coefficients "
                         f"are not finite, the first {P.C[bad[0]]}")


@dataclass(frozen=True)
class ClassNormParams:
    """Sampling controls for the analytic-domain norm."""
    sigma: float = 0.3
    mu: float = 0.25
    n_theta: int = 8
    n_dirs: int = 3
    radial_levels: int = 2
    seed: int = 2024

    def __post_init__(self):
        if not (0 < self.sigma <= 1 and 0 < self.mu <= 1):
            raise ValueError("sigma and mu must lie in (0, 1]")
        for name, low in (("n_theta", 1), ("n_dirs", 1), ("radial_levels", 1),
                          ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}")


_SAMPLE_BUDGET = 1 << 14   # array entries per batch of class_norm's angles


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

    The sample set is evaluated a batch of angles at a time, as the columns
    of one (terms, samples) array ordered (angle, direction-radius,
    action); a batch's largest array stays within ``_SAMPLE_BUDGET``
    entries, or holds one angle's samples when one angle alone is larger.
    Each column is reduced on its own, never by a matrix product across
    columns, so a sample's value does not depend on its batch.  The hessian
    is taken at each angle's first sample, on the site blocks that the
    rows name only (``_hessian_norm``), after the batches, for groups of
    angles at once.  A non-finite coefficient, or a sample that overflows
    or turns invalid, raises ``StageAbort("norm", ...)``: no finite sup
    could be taken.
    """
    if not len(poly):
        return 0.0
    check_finite(poly, "norm")
    n = poly.n
    rng = np.random.default_rng(p.seed)
    zvars, Zid = _live(poly)      # ids over the variables in use, pads -1
    V = len(zvars)
    C, K, M = poly.C, poly.K, poly.M
    N = len(C)
    rows, cols = np.nonzero(Zid >= 0)
    ids = Zid[rows, cols]
    Z = _sparse_sums(rows, ids, N)    # repeated ids sum to powers
    Zt = _sparse_sums(ids, rows, V)

    # angle samples along a fixed direction; nested under n_theta doubling
    direction = np.array([1.0 + 0.61803398875 * j for j in range(n)])
    imag_levels = [0.0]
    for v in _halving_grid(p.sigma, 0.05):
        imag_levels += [v, -v]
    turns = 2 * math.pi * np.arange(p.n_theta) / p.n_theta
    thetas = np.zeros((1, 0)) if n == 0 else (
        turns[:, None, None] * direction
        + 1j * np.array(imag_levels)[:, None] * np.ones(n)).reshape(-1, n)

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
        Zf = np.exp(Z(np.log(ZV)))
        ZVs = np.repeat(ZV, len(r_vals), axis=1)   # zeta of each sample
    else:
        Zf = np.ones((N, 1))

    has_quad = Zid.shape[1] >= 2
    if has_quad:
        hessian_norm = _hessian_norm(Zid, zvars, ZV[:, 0], gammas)

    def sample_norm(Ph):
        # column (b, d, a) of T is phase * r^m * zeta^p at angle b of the
        # batch Ph, direction-radius pair d and action a
        T = ((Ph[:, :, None] * Rf[:, None, :])[:, :, None, :]
             * Zf[:, None, :, None]).reshape(N, -1)
        val = np.abs(T.sum(axis=0)).max()
        if V:
            G = Zt(T).reshape(V, Ph.shape[1], -1) / ZVs[:, None]
            ag2 = (np.abs(G) ** 2).reshape(V, -1)
            val = max(val, p.mu * np.sqrt((ag2 * grad_w * grad_w)
                                          .sum(axis=1)).max())
        return val

    # angles per batch: T (N, samples) and the gradient's (3, V, samples)
    # stay within the budget.  A lone sample column per angle stays one
    # angle per batch: numpy would sum it pairwise, not row by row.
    DR = Zf.shape[1] * len(r_vals)
    step = max(1, _SAMPLE_BUDGET // (max(N, 3 * V) * DR)) if DR > 1 else 1
    best = 0.0
    firsts = []          # each angle's first sample (d = a = 0)
    try:                 # the coefficients enter the samples only here
        with np.errstate(over="raise", invalid="raise"):
            for first in range(0, len(thetas), step):
                phases = [np.exp(1j * (K @ th)) * C
                          for th in thetas[first:first + step]]
                Ph = np.stack(phases, axis=1) if step > 1 else \
                    phases[0][:, None]
                best = max(best, sample_norm(Ph))
                firsts.append(Ph * Rf[:, :1] * Zf[:, :1])
            if has_quad:
                best = max(best, p.mu ** 2
                           * hessian_norm(np.hstack(firsts)))
    except FloatingPointError as exc:
        raise StageAbort("norm", None, f"a sample is not finite ({exc})") \
            from None
    return float(best)


def _hessian_norm(Zid, zvars: list, zeta, gammas: list):
    """The hessian norm of ``class_norm`` at points, as a function of the
    rows' values t0 there, an (N,) or (N, m) block with one column per
    point: the max over the points and over the weights ``gammas`` of the
    largest row or column sum of the decay-weighted spectral norms of the
    hessian's 2x2 site blocks, over the (xi, eta) pairs of the sites of
    ``zvars``.  Zid holds the rows' ids into ``zvars`` (pads -1, as
    ``_live`` gives them) and ``zeta`` the point, one value per variable.

    The hessian of z^p is z^p (p_a p_b - [a == b] p_a) / (z_a z_b): a sum
    over the ordered pairs of distinct slots of the row's ids.  So a row
    names the site blocks of those pairs, and only the named blocks are
    formed: the sparse P maps t0 to their entries, P's rows indexing (named
    block, 2x2 entry), and ``algebra.decay_norm`` takes the row and column
    sums over the blocks' sites.  No (sites x sites) array is formed.  The
    points go through in groups whose blocks hold at most
    ``_SAMPLE_BUDGET`` entries; each point's value is its own, so the
    grouping does not change the max."""
    sites = sorted({v[0] for v in zvars})
    S = len(sites)
    at = {s: i for i, s in enumerate(sites)}
    slot = np.array([2 * at[s] + c for s, c in zvars], dtype=np.int64)
    i, j = np.nonzero(~np.eye(Zid.shape[1], dtype=bool))
    Pa, Pb = Zid[:, i], Zid[:, j]
    t, q = np.nonzero((Pa >= 0) & (Pb >= 0))
    a, b = slot[Pa[t, q]], slot[Pb[t, q]]
    blocks, blk = np.unique(a // 2 * S + b // 2, return_inverse=True)
    P = _sparse_sums(4 * blk + 2 * (a % 2) + b % 2, t,
                     4 * len(blocks))                     # pairs sum
    sa, sb = np.divmod(blocks, S)
    zpad = np.ones(2 * S, dtype=complex)        # 1 at absent components
    zpad[slot] = zeta
    e = np.arange(2)
    za = zpad[2 * sa[:, None, None] + e[:, None]]
    zb = zpad[2 * sb[:, None, None] + e]
    block_norm = decay_norm(np.array(sites, dtype=np.int64), sa, sb, gammas)
    step = max(1, _SAMPLE_BUDGET // (4 * len(blocks)))

    def norm(t0):
        t0 = t0.reshape(len(t0), -1)
        best = 0.0
        for first in range(0, t0.shape[1], step):
            # (point, named block, 2x2 entry) for the group's points
            H = np.ascontiguousarray(P(t0[:, first:first + step])
                                     .reshape(len(blocks), 2, 2, -1)
                                     .transpose(3, 0, 1, 2))
            H /= za
            H /= zb
            best = max(best, block_norm(spectral_norm_2x2(H)))
        return best
    return norm


def _sparse_sums(out, inp, n_out: int):
    """The product A @ X, A the (n_out, inputs) matrix with a one added at
    (out[k], inp[k]) for each k, as a function of a complex X, (inputs,) or
    (inputs, m).

    Output o is 0 plus, over o's distinct inputs in ascending order, the
    input's count times its row of X, added a row at a time: the order of
    scipy.sparse's CSR and CSC products, so each sum is theirs up to the
    sign of a zero.  The outputs are ranked by entry count, descending, and
    the entries laid out rank-major, so one slice add adds the r-th entry
    of every output that has more than r; the rows are gathered from a
    float view of X, and only those whose count is not 1 are scaled."""
    n_in = int(inp.max()) + 1 if len(inp) else 1
    keys, count = np.unique(out * n_in + inp, return_counts=True)
    o, i = np.divmod(keys, n_in)            # sorted by (out, in)
    per_out = np.bincount(o, minlength=n_out)
    rank = np.arange(len(keys)) - (np.cumsum(per_out) - per_out)[o]
    lay = np.lexsort((o, -per_out[o], rank))
    src, count = i[lay], count[lay]
    scaled = np.flatnonzero(count != 1)
    weight = count[scaled, None].astype(float)
    heights = np.bincount(rank).tolist()
    ends = np.cumsum([0] + heights).tolist()
    rounds = [(slice(0, h), slice(e, e + h))
              for h, e in zip(heights[1:], ends[1:])]
    filled = np.argsort(-per_out, kind="stable")[:np.count_nonzero(per_out)]

    def apply(X):
        Xf = np.ascontiguousarray(X, dtype=complex)
        G = np.take(Xf.reshape(len(Xf), -1).view(np.float64), src, axis=0)
        G[scaled] *= weight
        for ys, gs in rounds:
            G[ys] += G[gs]
        Y = np.zeros((n_out, G.shape[1]))
        Y[filled] = G[:len(filled)]
        return Y.view(complex).reshape((n_out,) + np.shape(X)[1:])
    return apply
