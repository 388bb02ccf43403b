"""The per-monomial loop that ``kamkit.models.expand_product`` replaced,
kept verbatim as an oracle for the array expansion.  Not used by the
package."""
from __future__ import annotations

import itertools
import math
from collections import Counter

from kamkit.hamiltonian import Polynomial
from kamkit.models import TWO_PI


def _perm_count(idx: tuple) -> int:
    c = math.factorial(len(idx))
    for m in Counter(idx).values():
        c //= math.factorial(m)
    return c


def _add_monomial(poly: Polynomial, coeff, letters, k=None):
    z = {}
    for L in letters:
        z[L.var] = z.get(L.var, 0) + 1
    for L in letters:
        coeff *= L.amp
    poly.add_term(coeff, k=k, z=z)


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
    return poly
