"""The term-pair loop that ``kamkit.hamiltonian.Polynomial.mul`` replaced
with the packed product kernel, kept verbatim as an oracle for it.  Not used
by the package."""
from __future__ import annotations

from kamkit.hamiltonian import Polynomial


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
