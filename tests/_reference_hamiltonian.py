"""Loops that ``kamkit.hamiltonian`` replaced, kept verbatim as oracles:
the term-pair loop of ``Polynomial.mul`` (now the packed product kernel),
and ``poisson``, its derivative tables and ``lie_transform`` as dict passes
over per-product ``Polynomial.mul`` calls (now one packed bracket).  Not
used by the package."""
from __future__ import annotations

from kamkit.hamiltonian import Polynomial, StageAbort


def _zkey(z: dict) -> tuple:
    return tuple(sorted((v, p) for v, p in z.items() if p))


def _mul_dict(A: Polynomial, B: Polynomial, max_degree: int | None,
              tol: float) -> Polynomial:
    """Product by a loop over term pairs, accumulating into a dict."""
    out = Polynomial(A.n)
    terms = out.terms
    rhs = [(key, c, 2 * sum(key[1]) + sum(p for _, p in key[2]))
           for key, c in B.terms.items()]
    if max_degree is not None:
        rhs.sort(key=lambda t: t[2])     # enables early exit by degree
    for (k1, m1, z1), c1 in A.terms.items():
        d1 = 2 * sum(m1) + sum(p for _, p in z1)
        for (k2, m2, z2), c2, d2 in rhs:
            if max_degree is not None and d1 + d2 > max_degree:
                break
            m = tuple(x + y for x, y in zip(m1, m2))
            if z2:
                zd = dict(z1)
                for v, p in z2:
                    zd[v] = zd.get(v, 0) + p
                zk = _zkey(zd)
            else:
                zk = z1
            key = (tuple(x + y for x, y in zip(k1, k2)), m, zk)
            val = terms.get(key, 0.0) + c1 * c2
            if val == 0:
                terms.pop(key, None)
            else:
                terms[key] = val
    if tol:
        out.prune(tol)
    return out


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
        dFr = diff_r(F, j)
        if dFr.terms:
            out._iadd(dFr.mul(k_scale(G, j), max_degree, tol))
        dGr = diff_r(G, j)
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
