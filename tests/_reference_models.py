"""Loops that ``kamkit.models`` replaced, kept as oracles: the
per-monomial loop of ``expand_product`` (now an array expansion), which
sums like monomials by the package's rule (from complex 0, in loop order,
each at its first place, zero sums dropped at the end);
``action_angle`` and ``_gauge_r_shift`` as per-term ``Polynomial.mul``
chains, and ``action_angle_per_term``, ``_gauge_k_shift`` and
``_gauge_r_shift_per_term``, the per-term expansions that replaced those
chains (all three now row passes).  Also ``_is_resonant_quartic``, the
per-monomial resonance test that ``build_singular`` replaced with
``_classify_quartic``.  All run on the dict ``Polynomial`` of
``_reference_hamiltonian``.  Also ``enumerate_Z4`` with its ``_z4_kind``,
the table of resonant quadruples that only the tests read.  Not used by
the package."""
from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
from scipy.special import binom as _binom

from kamkit.hamiltonian import ETA, XI
from kamkit.lattice import ball_points
from kamkit.models import TWO_PI, _cwr, _multinomial

from _reference_hamiltonian import Polynomial, _zkey


def _perm_count(idx: tuple) -> int:
    c = math.factorial(len(idx))
    for m in Counter(idx).values():
        c //= math.factorial(m)
    return c


def _add_monomial(poly: Polynomial, coeff, letters, k=None):
    """Add a nonzero monomial to its key's sum, which starts at complex 0;
    zero sums stay until ``expand_product`` drops them at its end."""
    z = {}
    for L in letters:
        z[L.var] = z.get(L.var, 0) + 1
    for L in letters:
        coeff *= L.amp
    if coeff != 0:
        zero = (0,) * poly.n
        key = (zero if k is None else tuple(k), zero, _zkey(z))
        poly.terms[key] = poly.terms.get(key, 0j) + complex(coeff)


def expand_product(n: int, pools, xwave, d: int, coeff, k=None) -> Polynomial:
    """Integral over the torus of a product of field-factor powers.

    pools: list of (count, letters).  Emits every monomial whose letter
    momenta sum to -xwave, with the multiset permutation count of each pool
    as combinatorial factor and (2 pi)^{d(1 - total/2)} normalization.
    """
    total = sum(c for c, _ in pools)
    pref = coeff * TWO_PI ** (d * (1 - total / 2.0))
    poly = Polynomial(n)
    xwave = tuple(xwave) if xwave else (0,) * d
    pools = [(c, ls) for c, ls in pools if c > 0]
    if not pools:
        poly.add_term(pref, k=k)
        return poly
    *head, (cl, tail) = pools
    lookup = {}
    for idx, L in enumerate(tail):
        lookup.setdefault(L.mom, []).append(idx)
    head_lists = [list(itertools.combinations_with_replacement(
        range(len(ls)), c)) for c, ls in head]

    for choice in itertools.product(*head_lists):
        hmult = 1
        hmom = list(xwave)
        hletters = []
        for (c, ls), idx in zip(head, choice):
            hmult *= _perm_count(idx)
            for i in idx:
                hletters.append(ls[i])
                for t in range(d):
                    hmom[t] += ls[i].mom[t]
        for front in itertools.combinations_with_replacement(
                range(len(tail)), cl - 1):
            need = list(hmom)
            for i in front:
                for t in range(d):
                    need[t] += tail[i].mom[t]
            cands = lookup.get(tuple(-x for x in need), ())
            lo = front[-1] if front else -1
            for last in cands:
                if last < lo:
                    continue
                idxs = front + (last,)
                mult = hmult * _perm_count(idxs)
                _add_monomial(poly, pref * mult,
                              hletters + [tail[i] for i in idxs], k=k)
    return poly.prune(0.0)


def _half_power_poly(n: int, j: int, e2: int, Ij: float,
                     r_degree: int) -> Polynomial:
    """(I_j + r_j)^(e2/2) as a polynomial in r_j (exact when e2 is even,
    truncated at r_degree otherwise)."""
    out = Polynomial(n)
    half = e2 / 2.0
    tmax = e2 // 2 if e2 % 2 == 0 else r_degree
    for t in range(tmax + 1):
        m = [0] * n
        m[j] = t
        out.add_term(_binom(half, t) * Ij ** (half - t), m=m)
    return out


def action_angle(poly: Polynomial, nodes, actions, r_degree: int = 1,
                 max_degree: int | None = None) -> Polynomial:
    """Substitute xi_a = sqrt(I_a + r_a) e^{i theta_a} on the node sites.

    Square roots are Taylor-expanded in r to r_degree (exact for even total
    powers).  Node-site mode variables disappear; their phases feed the
    angle index k.
    """
    n = poly.n
    node_index = {a: j for j, a in enumerate(nodes)}
    out = Polynomial(n)
    for (k, m, zk), c in poly.terms.items():
        knew = list(k)
        counts = {}          # node j -> [xi power, eta power]
        zrest = []
        for (site, comp), p in zk:
            j = node_index.get(site)
            if j is None:
                zrest.append(((site, comp), p))
            else:
                pc = counts.setdefault(j, [0, 0])
                pc[comp] += p
        base = Polynomial(n)
        base.add_term(c, k=None, m=m, z=tuple(zrest))
        for j, (px, pe) in counts.items():
            knew[j] += px - pe
            base = base.mul(_half_power_poly(n, j, px + pe, actions[j],
                                             r_degree),
                            max_degree=max_degree)
        for (kb, mb, zb), cb in base.terms.items():
            out.add_term(cb, k=tuple(a + b for a, b in zip(kb, knew)),
                         m=mb, z=zb)
    if max_degree is not None:
        out = out.truncate_degree(max_degree)
    return out
def _gauge_r_shift(poly: Polynomial, node_of: dict, max_degree: int,
                   n: int) -> Polynomial:
    """Compensating action shift r_j -> r_j - sum_{node_of[b]=j}
    xi_b eta_b."""
    shifts = {}
    for site, j in node_of.items():
        sp = shifts.setdefault(j, Polynomial(n))
        sp.add_term(-1.0, z={(site, XI): 1, (site, ETA): 1})
    for j in shifts:
        m = [0] * n
        m[j] = 1
        shifts[j].add_term(1.0, m=m)      # r_j itself
    out = Polynomial(n)
    for (k, m, zk), c in poly.terms.items():
        if not any(m[j] for j in shifts):
            out.add_term(c, k=k, m=m, z=zk)
            continue
        base = Polynomial(n)
        mres = tuple(0 if j in shifts else mj for j, mj in enumerate(m))
        base.add_term(c, k=k, m=mres, z=zk)
        for j, sp in shifts.items():
            for _ in range(m[j]):
                base = base.mul(sp, max_degree=max_degree)
        out._iadd(base)
    return out


def _is_resonant_quartic(zk, nsq_of) -> bool:
    xi_norms, eta_norms = [], []
    for (site, comp), p in zk:
        (xi_norms if comp == XI else eta_norms).extend([nsq_of[site]] * p)
    if len(xi_norms) != 2 or len(eta_norms) != 2:
        return False
    return sorted(xi_norms) == sorted(eta_norms)


def action_angle_per_term(poly: Polynomial, nodes, actions,
                          r_degree: int = 1,
                          max_degree: int | None = None) -> Polynomial:
    """Substitute xi_a = sqrt(I_a + r_a) e^{i theta_a} on the node sites.

    Each term is expanded directly.  A node j with xi power px and eta
    power pe turns into the phase k_j += px - pe times the series of
    (I_j + r_j)^(e/2), e = px + pe, which is exact for even e and
    Taylor-truncated at r_degree otherwise.  The series multiply in the
    order the nodes appear in the term's z-tuple, one rounding per factor;
    the rows are merged by ``add_term`` in that order, and rows of degree
    above ``max_degree`` are dropped.
    """
    n = poly.n
    node_index = {a: j for j, a in enumerate(nodes)}
    series: dict = {}       # (j, e) -> [(t, coefficient of r_j^t)]

    def half_power(j: int, e2: int) -> list:
        if (j, e2) not in series:
            half = e2 / 2.0
            tmax = e2 // 2 if e2 % 2 == 0 else r_degree
            coeffs = [(t, _binom(half, t) * actions[j] ** (half - t))
                      for t in range(tmax + 1)]
            series[j, e2] = [(t, float(v)) for t, v in coeffs if v]
        return series[j, e2]

    out = Polynomial(n)
    for (k, m, zk), c in poly.terms.items():
        knew = list(k)
        counts = {}          # node j -> [xi power, eta power]
        zrest = []
        for (site, comp), p in zk:
            j = node_index.get(site)
            if j is None:
                zrest.append(((site, comp), p))
            else:
                pc = counts.setdefault(j, [0, 0])
                pc[comp] += p
        rows = [(list(m), c)]
        for j, (px, pe) in counts.items():
            knew[j] += px - pe
            rows = [(mb[:j] + [mb[j] + t] + mb[j + 1:], cb * s)
                    for mb, cb in rows for t, s in half_power(j, px + pe)]
        zrest = tuple(zrest)
        top = math.inf if max_degree is None \
            else max_degree - sum(p for _, p in zrest)
        for mb, cb in rows:
            if 2 * sum(mb) <= top:
                out.add_term(cb, knew, mb, zrest)
    return out


def _gauge_k_shift(poly: Polynomial, node_of: dict) -> Polynomial:
    """Rotating frame xi_b -> e^{i theta_j} xi_b on the resonant external
    sites: the phases move into the angle index."""
    out = Polynomial(poly.n)
    for (k, m, zk), c in poly.terms.items():
        knew = list(k)
        for (site, comp), p in zk:
            j = node_of.get(site)
            if j is not None:
                knew[j] += p if comp == XI else -p
        out.add_term(c, k=knew, m=m, z=zk)
    return out


def _gauge_r_shift_per_term(poly: Polynomial, node_of: dict,
                            max_degree: int, n: int) -> Polynomial:
    """Compensating action shift r_j -> r_j - sum_{node_of[b]=j}
    xi_b eta_b.

    Each term is expanded directly.  (r_j - sum_b xi_b eta_b)^(m_j) is the
    sum over the combinations with replacement of node j's shift terms
    (its sites in ``node_of`` order, then r_j) of their multinomial count
    times (-1)^(number of xi_b eta_b factors); the nodes follow their first
    appearance in ``node_of``.  A term with a shifted action and a degree
    above ``max_degree`` drops out.  The rows are merged by ``add_term`` in
    combination order.
    """
    sites_of: dict = {}
    for site, j in node_of.items():
        sites_of.setdefault(j, []).append(site)
    powers: dict = {}       # (j, m_j) -> [(sites, r power, signed count)]

    def expansion(j: int, mj: int) -> list:
        if (j, mj) not in powers:
            pool = sites_of[j]            # id len(pool) stands for r_j
            rows = _cwr(len(pool) + 1, mj)
            t = (rows == len(pool)).sum(axis=1)
            count = (-1) ** (mj - t) * _multinomial(rows)
            powers[j, mj] = [([pool[i] for i in row[:mj - r]], r, c)
                             for row, r, c in zip(rows.tolist(), t.tolist(),
                                                  count.tolist())]
        return powers[j, mj]

    out = Polynomial(n)
    for (k, m, zk), c in poly.terms.items():
        shifted = [(j, m[j]) for j in sites_of if m[j]]
        if not shifted:
            out.add_term(c, k=k, m=m, z=zk)
            continue
        if max_degree is not None and \
                2 * sum(m) + sum(p for _, p in zk) > max_degree:
            continue
        rows = [(list(m), [], c)]
        for j, mj in shifted:
            rows = [(mb[:j] + [t] + mb[j + 1:], sb + sites, count * cb)
                    for mb, sb, cb in rows
                    for sites, t, count in expansion(j, mj)]
        for mb, sites, cb in rows:
            z = zk
            if sites:
                zz = dict(zk)
                for b in sites:
                    for v in ((b, XI), (b, ETA)):
                        zz[v] = zz.get(v, 0) + 1
                z = tuple(sorted(zz.items()))
            out.add_term(cb, k, mb, z)
    return out


def _z4_kind(i, j, k, ell, nodes) -> str:
    """Classification by node membership of the monomial sites: the xi
    slots are i, j; the eta slots sit at -k, -ell."""
    mk = tuple(-x for x in k)
    ml = tuple(-x for x in ell)
    xi_in = (i in nodes) + (j in nodes)
    eta_in = (mk in nodes) + (ml in nodes)
    tot = xi_in + eta_in
    if tot == 4:
        return "internal"
    if tot == 3:
        return "three"
    if tot == 2:
        return "P" if xi_in != 1 else "Q"
    if tot == 1:
        return "one"
    return "external"


def enumerate_Z4(R: float, nodes, d: int = 2) -> list:
    """Ordered zero-momentum quadruples (i, j, k, ell) within the truncation
    whose norm multisets match ({|i|,|j|} = {|k|,|ell|}), classified by node
    membership."""
    nodes = tuple(tuple(a) for a in nodes)
    pts = ball_points(R, d)
    arr = np.array(pts, dtype=int)
    nsq = (arr * arr).sum(axis=1)
    index = {tuple(p): t for t, p in enumerate(pts)}
    out = []
    for ii, i in enumerate(pts):
        for jj, j in enumerate(pts):
            s = np.array(i, dtype=int) + np.array(j, dtype=int)
            ls = -s - arr                      # ell for every candidate k
            inside = (ls * ls).sum(axis=1) <= R * R
            nl = (ls * ls).sum(axis=1)
            ni, nj = nsq[ii], nsq[jj]
            match = ((nsq == ni) & (nl == nj)) | ((nsq == nj) & (nl == ni))
            for kk in np.nonzero(inside & match)[0]:
                k = pts[kk]
                ell = tuple(int(x) for x in ls[kk])
                if ell not in index:
                    continue
                out.append((i, j, k, ell, _z4_kind(i, j, k, ell, nodes)))
    return out
