"""Code that ``kamkit.hamiltonian`` replaced, kept as oracles: the dict
``Polynomial`` (now packed rows), with its per-term ``evaluate`` loop;
``_pack``, its dict-to-columns packing; the term-pair loop of
``Polynomial.mul`` (now the packed product kernel), which also takes the
Lie series' pair screen; and ``poisson``, its derivative tables and
``lie_transform`` as dict passes over term-pair loop products (now one
packed bracket); and ``bracket_per_factor``, the packed bracket as it was
before its factors were batched: one ``_product`` call per factor.  The
dict class's ``mul`` runs the package's product through ``as_rows``.

Sums follow the package's rule: ``+``, the term-pair loop and the bracket
sum each key from complex 0 in term order, a key keeps its first place
even while its sum is zero, and zero sums are dropped at the end of the
operation.  ``add_term`` adds one term at a time, dropping a key whose sum
reaches zero.

Code that only the tests call moved here from the package unchanged:
``reality_defect`` of a package polynomial and ``evaluate``, its
vectorised value at a point (once its methods), and
``hessian_decay_check`` of a ``WeightedMatrix``.  Not used by the
package."""
from __future__ import annotations

import numpy as np

from kamkit import hamiltonian as rows
from kamkit.algebra import (WeightParams, decay_weight, site_weight,
                            spectral_norm_2x2)
from kamkit.blockmatrix import WeightedMatrix, _stack
from kamkit.hamiltonian import StageAbort, _passes_screen, _remap

# the (action degree, mode degree) pairs of the jet, the oracle's own
# statement of the package's rule of degree <= 2
_JET_DEGREES = ((0, 0), (1, 0), (0, 1), (0, 2))


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

    def add_term(self, c, k=None, m=None, z=()):
        """Accumulate one monomial; z is a dict var->power or a zkey tuple.
        The sum is ``self + c z``, so a key whose sum reaches zero is
        dropped, and a later ``add_term`` puts it back last."""
        if c == 0:
            return
        k = tuple(k) if k is not None else (0,) * self.n
        m = tuple(m) if m is not None else (0,) * self.n
        zk = _zkey(z) if isinstance(z, dict) else tuple(z)
        one = Polynomial(self.n, {(k, m, zk): complex(c)})
        self.terms = (self + one).terms

    # -- ring operations ---------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(self.n)._iadd(self)._iadd(other).prune(0.0)

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
        """Add sign * c for each term of other; a new key's sum starts at
        complex 0, and zero sums stay until the operation's ``prune``."""
        terms = self.terms
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0j) + sign * c
        return self

    def prune(self, tol: float, rest_tol: float | None = None):
        """Drop the terms with |c| <= tol, or, given ``rest_tol``, with
        |c| <= rest_tol outside the jet."""
        if not self.terms:
            return self
        drop = []
        for key, c in self.terms.items():
            _, m, z = key
            deg = (sum(m), sum(p for _, p in z))
            cut = tol if rest_tol is None or deg in _JET_DEGREES \
                else rest_tol
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


def as_dict(P) -> Polynomial:
    """A package polynomial as the dict class, same keys, order and bits."""
    return Polynomial(P.n, P.terms)


def as_rows(P: Polynomial) -> rows.Polynomial:
    return rows.Polynomial(P.n, P.terms)


def _mul_packed(A: Polynomial, B: Polynomial, max_degree: int | None,
                tol: float) -> Polynomial:
    """The package's product of two dict polynomials, as a dict one."""
    return as_dict(as_rows(A).mul(as_rows(B), max_degree, tol))


def _pack(P: Polynomial, var_id: dict):
    """Columns of P in term order: C (N,) complex, K and M (N, n) int64,
    and Z (N, w) int64 rows of variable ids, where a variable of power p
    repeats p times, padded with -1 to P's largest z-degree w.  Variables
    missing from ``var_id`` get the next free id."""
    N, n = len(P.terms), P.n
    zidx: dict = {}
    zi = np.fromiter((zidx.setdefault(z, len(zidx)) for _, _, z in P.terms),
                     dtype=np.int64, count=N)
    # each distinct z once: its (variable, power) runs, then rows of ids
    runs = [vp for z in zidx for vp in z]
    ids = np.fromiter((var_id.setdefault(v, len(var_id)) for v, _ in runs),
                      dtype=np.int64, count=len(runs))
    power = np.fromiter((p for _, p in runs), dtype=np.int64, count=len(runs))
    nruns = np.fromiter(map(len, zidx), dtype=np.int64, count=len(zidx))
    deg = np.bincount(np.repeat(np.arange(len(zidx)), nruns), weights=power,
                      minlength=len(zidx)).astype(np.int64)
    Z = np.full((len(zidx), deg.max(initial=0)), -1, dtype=np.int64)
    row = np.repeat(np.arange(len(zidx)), deg)
    Z[row, np.arange(len(row)) - np.repeat(np.cumsum(deg) - deg, deg)] = \
        np.repeat(ids, power)
    Z = Z[zi]
    K = np.array([key[0] for key in P.terms], dtype=np.int64).reshape(N, n)
    M = np.array([key[1] for key in P.terms], dtype=np.int64).reshape(N, n)
    C = np.fromiter(P.terms.values(), dtype=complex, count=N)
    return C, K, M, Z


def _mul_dict(A: Polynomial, B: Polynomial, max_degree: int | None,
              tol: float, screen: float | None = None) -> Polynomial:
    """Product by a loop over term pairs, accumulating into a dict.  With
    a ``screen``, a pair whose monomial is outside the jet is skipped
    unless it passes the screen at screen / min(|A|, |B|)."""
    out = Polynomial(A.n)
    terms = out.terms
    if screen is not None and A.terms and B.terms:
        cut = screen / min(len(A.terms), len(B.terms))
    rhs = [(key, c, sum(key[1]), sum(p for _, p in key[2]))
           for key, c in B.terms.items()]
    if max_degree is not None:           # enables early exit by degree
        rhs.sort(key=lambda t: 2 * t[2] + t[3])
    for (k1, m1, z1), c1 in A.terms.items():
        s1, p1 = sum(m1), sum(p for _, p in z1)
        for (k2, m2, z2), c2, s2, p2 in rhs:
            if max_degree is not None and 2 * (s1 + s2) + p1 + p2 > max_degree:
                break
            if (screen is not None and (s1 + s2, p1 + p2) not in _JET_DEGREES
                    and not _passes_screen(abs(c1), abs(c2), cut)):
                continue
            m = tuple(x + y for x, y in zip(m1, m2))
            if z2:
                zd = dict(z1)
                for v, p in z2:
                    zd[v] = zd.get(v, 0) + p
                zk = _zkey(zd)
            else:
                zk = z1
            key = (tuple(x + y for x, y in zip(k1, k2)), m, zk)
            terms[key] = terms.get(key, 0j) + c1 * c2
    return out.prune(tol)


def diff_r(P: Polynomial, j: int) -> Polynomial:
    out = Polynomial(P.n)
    for (k, m, z), c in P.terms.items():
        if m[j]:
            mm = list(m)
            mm[j] -= 1
            out.add_term(c * m[j], k, tuple(mm), z)
    return out


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
            max_degree: int | None = None, tol: float = 0.0,
            screen: float | None = None) -> Polynomial:
    """Canonical bracket {F, G}, its products by the term-pair loop, each
    screened at ``screen`` when given.

    Convention: {F,G} = sum_j (dF/dr_j dG/dtheta_j - dF/dtheta_j dG/dr_j)
    plus, per lattice site, i(dF/dxi dG/deta - dF/deta dG/dxi) on elliptic
    sites and (dF/dp dG/dq - dF/dq dG/dp) on hyperbolic ones.
    """
    n = F.n
    fset = set(tuple(p) for p in finite_set)
    out = Polynomial(n)

    def mul(P: Polynomial, Q: Polynomial) -> Polynomial:
        return _mul_dict(P, Q, max_degree, tol, screen)

    def k_scale(P: Polynomial, j: int) -> Polynomial:
        res = Polynomial(n)
        for (k, m, z), c in P.terms.items():
            if k[j]:
                res.terms[(k, m, z)] = 1j * k[j] * c
        return res

    for j in range(n):
        dFr = diff_r(F, j)
        if dFr.terms:
            out._iadd(mul(dFr, k_scale(G, j)))
        dGr = diff_r(G, j)
        if dGr.terms:
            out._iadd(mul(k_scale(F, j), dGr), sign=-1.0)

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
            out._iadd(mul(dF0, dG1), sign=unit)
        if dF1.terms and dG0.terms:
            out._iadd(mul(dF1, dG0), sign=-unit)
    return out.prune(tol)


def lie_transform(F: Polynomial, S: Polynomial, finite_set=(),
                  max_degree: int | None = None, tol: float = 1e-18,
                  max_order: int = 16,
                  rest_tol: float | None = None) -> Polynomial:
    """F composed with the time-one flow of S: sum_m ad_S^m(F)/m!.

    ``rest_tol``, when given, prunes terms outside the normal-form jet
    directions at a looser threshold: those terms only influence later jets
    through further brackets, so they tolerate a coarser cut.  It also
    screens the brackets' products at ``rest_tol``.  A series whose term of
    order ``max_order`` is still above ``tol`` raises ``StageAbort("lie",
    ...)`` rather than being cut there.  ``max_degree`` defaults to the
    degree of F.
    """
    if max_degree is None:
        max_degree = max((2 * sum(m) + sum(p for _, p in z)
                          for _, m, z in F.terms), default=0)
    out = F.truncate_degree(max_degree)
    term = out
    for m in range(1, max_order + 1):
        term = poisson(term, S, finite_set, max_degree, tol,
                       rest_tol).scale(1.0 / m)
        if rest_tol is not None:
            term.prune(tol, rest_tol)
        if not term.terms or term.max_coeff() < tol:
            break
        out = out + term
    else:
        raise StageAbort("lie", max_order,
                         f"term of order {max_order} is "
                         f"{term.max_coeff():.3e}, above tol {tol:.3e}")
    return out.prune(tol, rest_tol)


def bracket_per_factor(F: tuple, G: tuple, zvars: list, finite_set,
                       max_degree: int | None, tol: float,
                       screen: float | None = None) -> tuple:
    """``rows._bracket`` as a loop over its factors: one ``_product`` per
    factor, in bracket order, the r/theta factors then the site factors
    sliced out of the derivative rows site by site; ``_merge`` sums the
    signed products' rows in that order, and the sums with |c| <= ``tol``
    are dropped."""
    V = len(zvars)
    n = F[1].shape[1]
    factors = []
    for j in range(n):
        factors.append((rows._diff_r(F, j), rows._k_scale(G, j), 1.0))
        factors.append((rows._k_scale(F, j), rows._diff_r(G, j), -1.0))
    every = np.ones(V, dtype=bool)
    (vf, dF), (vg, dG) = rows._diff_z(F, V, every), rows._diff_z(G, V, every)
    fset = {tuple(s) for s in finite_set}
    var_id = {v: i for i, v in enumerate(zvars)}

    def part(var, D, v):              # the rows of dD/dz_v
        i = var.dtype.type(var_id.get(v, V))
        return rows._cut(D, slice(np.searchsorted(var, i, "left"),
                                  np.searchsorted(var, i, "right")))

    sites = {zvars[v][0] for v in set(vf.tolist())} \
        & {zvars[v][0] for v in set(vg.tolist())}
    for s in sorted(sites):
        unit = 1.0 if s in fset else 1j
        factors.append((part(vf, dF, (s, 0)), part(vg, dG, (s, 1)), unit))
        factors.append((part(vf, dF, (s, 1)), part(vg, dG, (s, 0)), -unit))

    outs = []
    for A, B, sign in factors:
        if len(A[0]) and len(B[0]):
            C, K, M, Z = rows._product(A, B, V, max_degree, tol, screen)
            if not len(C):
                continue
            sign = complex(sign)
            outs.append((*rows._cmul(sign.real, sign.imag, C.real, C.imag),
                         K, M, Z))
    if not outs:
        return rows._no_rows(n, 0)
    re, im, K, M, Z = zip(*outs)
    re, im, K, M = (np.concatenate(x) for x in (re, im, K, M))
    Z = rows._live_width(rows._stack_z(Z, V), V)
    at, C = rows._merge(rows._key(K, M, Z), re, im)
    keep = ~(rows._abs(C, tol) <= tol)
    at = at[keep]
    return C[keep], K[at], M[at], Z[at]


def reality_defect(P: rows.Polynomial, finite_set=()) -> float:
    """Max mismatch of coefficients under the reality involution.

    Real Hamiltonians satisfy conj(c(k, m, z)) = c(-k, m, z*) where z*
    swaps xi <-> eta on elliptic sites and fixes hyperbolic components.
    The mismatches are the terms of P* - P, P* the terms conj(c) at
    (-k, m, z*).
    """
    fset = set(tuple(p) for p in finite_set)
    mates = [(s, c if s in fset else 1 - c) for s, c in P.zvars]
    zvars = sorted(set(P.zvars) | set(mates))
    mate = rows.Polynomial._of(P.n, zvars, P.C.conj(), -P.K, P.M,
                               np.sort(_remap(P.Z, mates, zvars), axis=1))
    return (mate - P).max_coeff()


def evaluate(P: rows.Polynomial, theta, r, zvals: dict) -> complex:
    """The sum of c e^{i k.theta} r^m z^p over the terms, in one pass;
    variables missing from ``zvals`` are 0."""
    theta = np.asarray(theta, dtype=complex)
    r = np.asarray(r, dtype=complex)
    z = np.array([zvals.get(v, 0.0) for v in P.zvars] + [1.0],
                 dtype=complex)          # the pad reads 1
    return complex((P.C * np.exp(1j * (P.K @ theta))
                    * np.prod(r ** P.M, axis=1)
                    * np.prod(z[P.Z], axis=1)).sum())


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
