"""Blockwise solution of the nonlinear homological equation.

Given a normal-form Hamiltonian h = c + omega.r + quadratic and a
perturbation f, find a generating jet S with

    {h, S} + jet({f - jet(f), S}) + jet(f) = h_tilde,

where h_tilde keeps only the parts that cannot be removed: a constant, an
r-linear term, and a quadratic part in normal form, so it is a
``NormalFormHamiltonian`` on h's partition.  Everything is solved per
Fourier index k and per partition class pair; small divisors below the
guard threshold are recorded and the corresponding terms left in place.

h's classes are read from one table built once per h (``class_tables``).
The quadratic part is solved in array passes: the jet's rows are scattered
into one block per (k, class pair, channel), the blocks of one shape are
stacked, and each stack is solved in one pass.  The finite (hyperbolic)
class's systems are dense: each zeta-linear, hyperbolic or mixed item is
one stack for the guarded solve (``_solve_guarded``).  The solve order is the
contract (``solve_linear``): guard failures, the divisor log and h_tilde's
blocks come out in it, and one stable sort puts S's rows in it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (WeightParams, decay_weight, spectral_norm_2x2,
                      symplectic)
from .hamiltonian import (
    ETA,
    XI,
    NormalFormHamiltonian,
    Polynomial,
    StageAbort,
    _key,
    block_rows,
    class_ids,
    decode_jet,
    encode,
    poisson,
    site_layout,
)
from .lattice import _tuples, pseudo_dist_sq


@dataclass
class DivisorGuard:
    """Threshold and failure log for small-divisor protected solves."""
    delta0: float = 1e-8
    failures: list = field(default_factory=list)  # (k, classes, channel, val)

    def check(self, value: float, k, classes, channel) -> bool:
        if value < self.delta0:
            self.failures.append((k, classes, channel, float(value)))
            return False
        return True


@dataclass
class HomologicalSolution:
    S: Polynomial
    h_tilde: NormalFormHamiltonian    # on h's partition, chi as its omega
    skipped_report: list          # (k, ci, cj, coeff_norm, bound)
    divisor_log: dict             # (k, ci, cj, channel) -> tuple of divisors
    guard: DivisorGuard
    picard_updates: list
    h: NormalFormHamiltonian      # operands of the residual
    f_T: Polynomial
    f_rest: Polynomial
    prune_tol: float

    @cached_property
    def residual(self) -> Polynomial:
        """{h,S} + jet({f - jet(f), S}) + jet(f) - h_tilde, evaluated
        independently with full polynomial brackets on first read."""
        fset = self.h.finite_set
        residual = (poisson(self.h.to_polynomial(), self.S, finite_set=fset,
                            max_degree=2, tol=self.prune_tol).jet()
                    + poisson(self.f_rest, self.S, finite_set=fset,
                              max_degree=2, tol=self.prune_tol).jet()
                    + self.f_T - self.h_tilde.to_polynomial())
        return residual.prune(self.prune_tol)


# -- the class table ----------------------------------------------------------

@dataclass
class ClassTable:
    """h's classes as arrays, built once per h (``class_tables``): the
    variable layout of h's partition, lookups per site and per class, the
    elliptic classes' eigenpairs stacked by class size (a class's ``slot``
    is its row in the stacks of its size), and the finite class's
    interleaved ids with J H and H J."""
    var_id: dict                  # site_layout of the partition's sites
    pts: np.ndarray               # the sites, in the order of var_id
    class_of: np.ndarray          # site -> class
    pos: np.ndarray               # site -> its place in its class
    size: np.ndarray              # class -> number of sites
    hyperbolic: np.ndarray        # class -> the finite class or not
    nsq: np.ndarray               # class -> |a|^2 of its first site
    slot: np.ndarray              # elliptic class -> row in its size's stacks
    lam: dict                     # size -> (classes, size) eigenvalues
    V: dict                       # size -> (classes, 2, size, size) bases
    ids: dict                     # size -> (classes, 2, size) variable ids
    w: np.ndarray | None          # the finite class's ids, interleaved
    JH: np.ndarray | None
    HJ: np.ndarray | None

    def elliptic(self, ci: int) -> tuple:
        """(lam, V, ids) of the elliptic class ci, from its size's stacks."""
        m, s = self.size[ci], self.slot[ci]
        return self.lam[m][s], self.V[m][s], self.ids[m][s]


def class_tables(h: NormalFormHamiltonian) -> ClassTable:
    p = h.partition
    sites = sorted(p.sites())      # in the order of site_layout
    var_id = site_layout(sites)
    place = {s: i for cl in p.classes for i, s in enumerate(cl)}
    slot = np.zeros(len(p.classes), dtype=np.int64)
    by_size: dict = {}
    w = JH = HJ = None
    for ci, cl in enumerate(p.classes):
        ids = class_ids(var_id, cl)
        if ci == p.finite_index:
            F = len(p.finite_set)
            H = h.hyperbolic_block
            if H is None:
                H = np.zeros((2 * F, 2 * F))
            J = symplectic(F)
            w, JH, HJ = ids.T.ravel(), J @ H, H @ J
            continue
        lam, U = np.linalg.eigh(h.class_Q(ci))
        group = by_size.setdefault(len(cl), [])
        slot[ci] = len(group)
        group.append((lam, np.stack([U, np.conj(U)]), ids))
    stacks = {m: [np.stack(x) for x in zip(*group)]
              for m, group in by_size.items()}
    lead = p.points[p.ends[:-1]]
    return ClassTable(
        var_id, np.array(sites, dtype=np.int64),
        np.array([p.class_of[s] for s in sites], dtype=np.int64),
        np.array([place[s] for s in sites], dtype=np.int64),
        np.diff(p.ends), np.arange(len(p.ends) - 1) == p.finite_index,
        (lead * lead).sum(axis=1), slot,
        *({m: x[i] for m, x in stacks.items()} for i in range(3)), w, JH, HJ)


# -- elementary inversions --------------------------------------------------------

def _elliptic_divisors(kw, lam_L, sL, lam_R, sR):
    """kw + sL lam_L[i] + sR lam_R[j], added in that order; over stacks
    (leading axes) as well, with kw, sL and sR of shape (..., 1, 1)."""
    return kw + sL * lam_L[..., :, None] + sR * lam_R[..., None, :]


def _elliptic_solve(V_L, V_R, R, div):
    """X with (kw)X + sL P_L X + sR X P_R = R, P = V diag(lam) V^{-1} and
    ``div`` from ``_elliptic_divisors``: X = V_L ((V_L^H R V_R) / div) V_R^H,
    the products associated left to right; over stacks of blocks as well
    (one ``matmul`` per product).  The vector equation (kw I + sL P_L) x = R
    is the one-column case: lam_R = zeros(1), sR = 0, V_R = ones((1, 1))."""
    Rt = np.swapaxes(V_L.conj(), -1, -2) @ R @ V_R
    return V_L @ (Rt / div) @ np.swapaxes(V_R.conj(), -1, -2)


def _solve_guarded(L, rhs, guard: DivisorGuard, keys):
    """Solve the stack of systems L[s] x = rhs[s], (s, m, m) and (s, m, 1),
    unless one is too close to singular.  One batched ``svd`` gives each
    system's smallest singular value; the guard checks them in stack order,
    system s with keys[s], and stops at the first failure; one batched
    ``solve`` runs only when every system passes.  Returns (x or None, the
    singular values checked, as a tuple)."""
    smin = np.linalg.svd(L, compute_uv=False)[:, -1].tolist()
    for s, key in enumerate(keys):
        if not guard.check(smin[s], *key):
            return None, tuple(smin[:s + 1])
    return np.linalg.solve(L, rhs), tuple(smin)


# -- the main solver ----------------------------------------------------------------

def _k_groups(K: np.ndarray) -> tuple:
    """(ks, g): the distinct rows of K as tuples, in order of first
    occurrence, and the index in ks of each row's k.  (One ``np.unique``
    of the rows' int64 codes, ``_key``: a tenth of the time of
    ``np.unique(K, axis=0)``.)"""
    if not len(K):
        return [], np.zeros(0, dtype=np.int64)
    _, first, at = np.unique(_key(K), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return _tuples(K[first[order]]), rank[at]


def _k_rows(K: np.ndarray, sel: np.ndarray) -> list:
    """(k, row indices) for the distinct rows of K among the rows ``sel``,
    in order of first occurrence."""
    rows = np.flatnonzero(sel)
    ks, g = _k_groups(K[rows])
    split = np.cumsum(np.bincount(g, minlength=len(ks)))[:-1]
    return list(zip(ks, np.split(rows[np.argsort(g, kind="stable")], split)))


def solve_linear(h: NormalFormHamiltonian, F_poly: Polynomial,
                 guard: DivisorGuard, gamma1: float, tables: ClassTable):
    """One linear homological solve {h,S} + F = h_tilde, with h's class
    table (``class_tables``, built once per h).

    F's jet is decoded once over the table's variables.  The theta, r and
    zeta-linear rows are solved per Fourier index k (and per class).  The
    zeta-quadratic rows are solved in array passes (``_solve_quadratic``):
    scattered into one block per (k, class pair, channel), and solved in
    one stacked pass per block shape.  Returns (S polynomial, h_tilde,
    skipped_report, divisor_log): h_tilde is a ``NormalFormHamiltonian`` on
    h's partition, with the k = 0 constant as its ``const`` and chi as its
    ``omega``.

    The order of the solve is the contract: k in order of first occurrence,
    then class pairs (ci <= cj) ascending, then channels xi-xi, xi-eta,
    eta-xi, eta-eta.  Guard failures, divisor-log entries, ``set_block``
    calls and the skip report come in it; one stable sort puts S's rows in
    it (each block's mirror right after it) for the one ``encode``.
    """
    t = tables
    n = h.n
    omega = np.asarray(h.omega, dtype=float)
    _, K, M, U, V, C = decode_jet(F_poly, t.var_id)
    ht = NormalFormHamiltonian(omega=np.zeros(n, dtype=complex),
                               partition=h.partition)
    divlog = {}
    solved = []                # S as block_rows blocks
    place = []                 # their places in the solve order

    # -- theta and r parts ----------------------------------------------------
    none, on_r = U < 0, M.any(axis=1)
    for k, (i,) in _k_rows(K, none & ~on_r):
        c = C[i].item()
        kw = float(np.dot(k, omega))
        if not any(k):
            ht.const = ht.const + c
            continue
        divlog[(k, (), "theta")] = (kw,)
        if guard.check(abs(kw), k, (), "theta"):
            solved.append((k, None, [-1], None, [c / (-1j * kw)]))
    for k, gi in _k_rows(K, none & on_r):
        vec = np.zeros(n, dtype=complex)
        vec[M[gi].argmax(axis=1)] += C[gi]
        kw = float(np.dot(k, omega))
        if not any(k):
            ht.omega = ht.omega + vec
            continue
        divlog[(k, (), "r")] = (kw,)
        if guard.check(abs(kw), k, (), "r"):
            solved.append((k, np.eye(n), [-1] * n, None, vec / (-1j * kw)))

    # -- zeta-linear part -----------------------------------------------------
    for k, gi in _k_rows(K, (U >= 0) & (V < 0)):
        kw = float(np.dot(k, omega))
        Fk = np.zeros(len(t.var_id), dtype=complex)
        Fk[U[gi]] += C[gi]
        for ci in np.unique(t.class_of[U[gi] // 2]).tolist():
            if t.hyperbolic[ci]:
                key = (k, (ci,), "lin-hyp")
                x, divlog[key] = _solve_guarded(
                    (1j * kw * np.eye(len(t.w)) + t.HJ)[None],
                    -Fk[t.w][None, :, None], guard, [key])
                if x is not None:
                    solved.append((k, None, t.w, None, x.ravel()))
                continue
            # i[(kw)I - Q] v_xi = -F_xi ; i[(kw)I + conj(Q)] v_eta = -F_eta
            lam, Vc, ids = t.elliptic(ci)
            for comp in (XI, ETA):
                key = (k, (ci,), ("lin-xi", "lin-eta")[comp])
                div = _elliptic_divisors(kw, lam, 2 * comp - 1, np.zeros(1), 0)
                divlog[key] = tuple(np.sort(div, axis=None))
                if guard.check(float(np.abs(div).min()), *key):
                    solved.append((k, None, ids[comp], None, _elliptic_solve(
                        Vc[comp], np.ones((1, 1)), 1j * Fk[ids[comp], None],
                        div)))
    place += [-1] * len(solved)        # before every quadratic block

    q = V >= 0
    ell, skipped = _solve_quadratic(h, K[q], U[q], V[q], C[q], t, guard,
                                    gamma1, ht, divlog, solved, place)
    Z, Cs, Ks, Ms, code = (np.concatenate(x) for x in zip(
        (*block_rows(n, solved), np.repeat(np.array(place, dtype=np.int64),
                                            [np.size(b[4]) for b in solved])),
        ell))
    live = np.flatnonzero(Cs)          # encode would skip the zero rows
    order = live[np.argsort(code[live], kind="stable")]
    S = encode(n, list(t.var_id), Z[order], Cs[order], Ks[order], Ms[order])
    return S, ht, skipped, divlog


def _solve_quadratic(h, K, U, V, C, t, guard, gamma1, ht, divlog, solved,
                     place) -> tuple:
    """The zeta-quadratic rows (K, U, V, C) of ``solve_linear``'s jet,
    solved in array passes.  Fills ``ht``, ``divlog`` and the guard's log,
    appends the hyperbolic items' blocks of S to ``solved`` and their
    places in the solve order to ``place``, and returns (the elliptic
    blocks' rows of S as (Z, C, K, M, place), skipped_report).

    Items are the (k, class pair ci <= cj) that hold a row, in solve order.
    An elliptic pair's rows are scattered into one block per channel
    (c1, c2) of shape (|ci|, |cj|), the blocks of one shape stacked
    together, and each stack solves (kw)X + sL Q_ci X + sR X Q_cj = iG in
    one pass.  A hyperbolic or mixed pair is one stack of dense systems for
    ``_solve_guarded``: one Kronecker system for a hyperbolic pair, and for
    a mixed pair one row system per component and elliptic eigenvalue, the
    xi rows then the eta rows, which stops at its first failing system.  One
    walk over the items, in order, emits the guard checks, divisor log,
    ``set_block`` calls and skip report.  A solved block's place is
    2 (4 item + channel), and 1 more for its mirror (cj, ci); a hyperbolic
    item's is 8 item.
    """
    n = h.n
    ncl = len(t.size)
    omega = np.asarray(h.omega, dtype=float)
    ks, g = _k_groups(K)
    kws = np.array([float(np.dot(k, omega)) for k in ks])
    zero_k = np.array([not any(k) for k in ks], dtype=bool)
    a, b = U // 2, V // 2              # sites, and the components
    cu, cv = U % 2, V % 2
    ca, cb = t.class_of[a], t.class_of[b]

    # -- the 2x2 site blocks of every k: norms, C_fit, and the items -------
    ns = len(t.pts)
    site_pair, at = np.unique((g * ns + a) * ns + b, return_inverse=True)
    blocks = np.zeros(4 * len(site_pair), dtype=complex)
    np.add.at(blocks, 4 * at + 2 * cu + cv, C)
    norms = spectral_norm_2x2(blocks.reshape(-1, 2, 2))
    del blocks
    sg, sab = np.divmod(site_pair, ns * ns)
    sa, sb = np.divmod(sab, ns)
    off = sa != sb
    C_fit = float(np.max(norms[off] * decay_weight(
        t.pts[sa[off]], t.pts[sb[off]], WeightParams(gamma1, 0.0)),
        initial=0.0))          # fitted decay constant for the skip-rule bound
    fwd = t.class_of[sa] <= t.class_of[sb]
    items, at = np.unique(((sg * ncl + t.class_of[sa]) * ncl
                           + t.class_of[sb])[fwd], return_inverse=True)
    peak = np.full(len(items), -np.inf)     # largest site-block norm
    np.maximum.at(peak, at, norms[fwd])
    ig, pair = np.divmod(items, ncl * ncl)
    ci, cj = np.divmod(pair, ncl)
    hyp = t.hyperbolic[ci] | t.hyperbolic[cj]
    # skip rule: same sphere, different classes, elliptic pair
    skip = (ci != cj) & ~hyp & (t.nsq[ci] == t.nsq[cj])
    ell = ~hyp & ~skip
    gap = {x: math.sqrt(pseudo_dist_sq(*(h.partition.classes[c] for c in
                                         divmod(x, ncl))).min())
           for x in np.unique(pair[skip]).tolist()}

    # -- entries: item * 4 + channel, channel 2 c1 + c2 ---------------------
    # each pair's rows oriented ci <= cj; k = 0 diagonal blocks go to
    # set_block (xi-eta, present with or without rows; eta-xi dropped)
    rows = np.flatnonzero(ca <= cb)
    ri = np.searchsorted(items, (g[rows] * ncl + ca[rows]) * ncl + cb[rows])
    diag0 = ell & (ci == cj) & zero_k[ig]
    ent = 4 * ri + 2 * cu[rows] + cv[rows]
    keep = ell[ri] & ~(diag0[ri] & (ent % 4 == 2))
    rows, ent = rows[keep], ent[keep]
    entries = np.union1d(ent, 4 * np.flatnonzero(diag0) + 1)
    eitem, ech = np.divmod(entries, 4)
    c1, c2 = np.divmod(ech, 2)
    eci, ecj = ci[eitem], cj[eitem]
    na, nb = t.size[eci], t.size[ecj]
    set_b = diag0[eitem] & (ech == 1)

    # -- scatter: one contiguous stack per block shape ----------------------
    shape = na * (t.size.max() + 1) + nb
    by_shape = np.argsort(shape, kind="stable")
    width = na * nb
    base = np.empty(len(entries), dtype=np.int64)
    base[by_shape] = np.cumsum(width[by_shape]) - width[by_shape]
    G = np.zeros(int(width.sum()), dtype=complex)
    e = np.searchsorted(entries, ent)
    np.add.at(G, base[e] + t.pos[a[rows]] * nb[e] + t.pos[b[rows]],
              C[rows])
    del rows, ent, e

    # -- divisors per stack -------------------------------------------------
    dmin = np.zeros(len(entries))
    sorted_div = [None] * len(entries)
    herm = {}
    stacks = []
    runs = np.flatnonzero(np.diff(shape[by_shape])) + 1
    for E in np.split(by_shape, runs) if len(entries) else []:
        m, w = int(na[E[0]]), int(nb[E[0]])
        Gs = G[base[E[0]]:base[E[0]] + len(E) * m * w].reshape(len(E), m, w)
        hs = set_b[E]
        if hs.any():
            H = Gs[hs]
            herm.update(zip(E[hs].tolist(),
                            (H + H.conj().transpose(0, 2, 1)) / 2))
        live = ~hs & Gs.any(axis=(1, 2))
        if not live.any():
            continue
        Es = E[live]
        div = _elliptic_divisors(
            kws[ig[eitem[Es]]][:, None, None], t.lam[m][t.slot[eci[Es]]],
            (2.0 * c1[Es] - 1)[:, None, None], t.lam[w][t.slot[ecj[Es]]],
            (2.0 * c2[Es] - 1)[:, None, None])
        dmin[Es] = np.abs(div).min(axis=(1, 2))
        for i, d in zip(Es.tolist(),
                        np.sort(div.reshape(len(Es), -1), axis=1).tolist()):
            sorted_div[i] = tuple(d)
        stacks.append((Es, np.flatnonzero(live), Gs, div, m, w))

    # -- the walk, in solve order -------------------------------------------
    hyp_rows = _rows_by_item(items, hyp, g, ca, cb, ncl)
    first = np.searchsorted(entries, 4 * np.arange(len(items) + 1)).tolist()
    ok = np.zeros(len(entries), dtype=bool)
    tags = [f"q-{x}{y}" for x in (XI, ETA) for y in (XI, ETA)]
    skipped = []
    set_b_, ech_, dmin_ = (x.tolist() for x in (set_b, ech, dmin))
    for i, (gi, cl_i, cl_j, skip_i, hyp_i) in enumerate(zip(
            ig.tolist(), ci.tolist(), cj.tolist(), skip.tolist(),
            hyp.tolist())):
        k, classes = ks[gi], (cl_i, cl_j)
        if skip_i:
            skipped.append((k, cl_i, cl_j, float(peak[i]),
                            gap[cl_i * ncl + cl_j]))
            continue
        if hyp_i:
            r = hyp_rows[i]
            block = _solve_hyperbolic_pair(
                k, float(kws[gi]), cl_i, cl_j, t, a[r], b[r], cu[r], cv[r],
                C[r], ca[r], guard, ht, divlog)
            if block is not None:
                solved.append(block)
                place.append(8 * i)
            continue
        for x in range(first[i], first[i + 1]):
            if set_b_[x]:
                ht.set_block(cl_i, herm[x])
            elif sorted_div[x] is not None:
                key = (k, classes, tags[ech_[x]])
                divlog[key] = sorted_div[x]
                ok[x] = guard.check(dmin_[x], *key)

    # -- S's rows: each solved block, and its mirror (cj, ci) --------------
    out = [(np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=complex),
            np.zeros(0, dtype=np.int64))]
    for Es, at, Gs, div, m, w in stacks:
        good = ok[Es]
        Es, at = Es[good], at[good]
        X = _elliptic_solve(t.V[m][t.slot[eci[Es]], c1[Es]],
                            t.V[w][t.slot[ecj[Es]], 1 - c2[Es]],
                            1j * Gs[at], div[good])
        Ue = t.ids[m][t.slot[eci[Es]], c1[Es]][:, :, None]
        Ve = t.ids[w][t.slot[ecj[Es]], c2[Es]][:, None, :]
        Z = np.stack([np.minimum(Ue, Ve), np.maximum(Ue, Ve)], axis=-1)
        both = np.concatenate([np.arange(len(Es)),
                               np.flatnonzero(eci[Es] != ecj[Es])])
        code = 2 * entries[Es[both]]
        code[len(Es):] += 1
        out.append((Z[both].reshape(-1, 2), X[both].ravel() / 2,
                    np.repeat(code, m * w)))
    Z, Cs, code = (np.concatenate(x) for x in zip(*out))
    Ks = np.array(ks, dtype=np.int64).reshape(len(ks), n)[ig[code // 8]]
    skipped = [(k, i, j, coeff, C_fit * math.exp(-gamma1 * gp))
               for k, i, j, coeff, gp in skipped]
    return (Z, Cs, Ks, np.zeros((len(Cs), n)), code), skipped


def _rows_by_item(items, sel, g, ca, cb, ncl) -> dict:
    """item -> its rows, in either orientation, for the items i with
    sel[i] (the hyperbolic and mixed pairs)."""
    want = np.flatnonzero(sel)
    if not len(want):
        return {}
    code = (g * ncl + np.minimum(ca, cb)) * ncl + np.maximum(ca, cb)
    order = np.argsort(code, kind="stable")
    lo, hi = (np.searchsorted(code[order], items[want], side)
              for side in ("left", "right"))
    return {i: order[x:y] for i, x, y in zip(want.tolist(), lo.tolist(),
                                             hi.tolist())}


def _solve_hyperbolic_pair(k, kw, ci, cj, t, a, b, cu, cv, C, ca, guard, ht,
                           divlog):
    """One item (k, ci <= cj) with the finite (hyperbolic) class, from its
    rows (sites a, b, components cu, cv, coefficients C, class of a: ca).
    Returns its block of S for ``block_rows``, or None."""
    m = len(t.w)
    if t.hyperbolic[ci] and t.hyperbolic[cj]:
        Gi = np.zeros(m * m, dtype=complex)
        np.add.at(Gi, (2 * t.pos[a] + cu) * m + 2 * t.pos[b] + cv, C)
        Gi = Gi.reshape(m, m)
        if not any(k):
            ht.hyperbolic_block = ((Gi + Gi.T) / 2).real
            return None
        # i(kw)Y + HJ Y - Y JH = -G in the Kronecker form
        key = (k, (ci, cj), "hyp")
        Y, divlog[key] = _solve_guarded(
            (1j * kw * np.eye(m * m) + np.kron(t.HJ, np.eye(m))
             - np.kron(np.eye(m), t.JH.T))[None], -Gi.reshape(1, m * m, 1),
            guard, [key])
        return None if Y is None else (k, None, t.w, t.w, Y.reshape(m, m) / 2)

    # rows of the elliptic class per component, columns of the hyperbolic
    # class interleaved
    e_i = cj if t.hyperbolic[ci] else ci
    lam, Vc, ids = t.elliptic(e_i)
    ne = len(lam)
    r = ca == e_i
    D = np.zeros(2 * ne * m, dtype=complex)
    np.add.at(D, (cu[r] * ne + t.pos[a[r]]) * m + 2 * t.pos[b[r]] + cv[r],
              C[r])
    D = D.reshape(2, ne, m)
    # one row system x (coef I - JH) = -(V^H D)[c, i] per component c and
    # eigenvalue i, coef = i(kw -+ lam_i), as the column system with JH^T:
    # the xi rows, then the eta rows
    coef = 1j * (kw + np.array([-1, 1])[:, None] * lam).ravel()
    x, divlog[(k, (ci, cj), "mixed")] = _solve_guarded(
        coef[:, None, None] * np.eye(m) - t.JH.T,
        -(np.swapaxes(Vc.conj(), 1, 2) @ D).reshape(2 * ne, m, 1), guard,
        [(k, (ci, cj), f"mix-{c}-{i}") for c in ("xi", "eta")
         for i in range(ne)])
    if x is None:
        return None
    return (k, None, ids.ravel(), t.w,
            (Vc @ x.reshape(2, ne, m)).reshape(2 * ne, m))


def solve_homological(h: NormalFormHamiltonian, f: Polynomial,
                      guard: DivisorGuard, gamma1: float = 1.0,
                      max_picard: int = 3, tol: float = 1e-14,
                      prune_tol: float = 1e-20,
                      tables: ClassTable | None = None) -> HomologicalSolution:
    """Solve {h,S} + jet({f - jet(f), S}) + jet(f) = h_tilde.

    Picard rounds: the first solve is linear; each following round feeds the
    nonlinear bracket of the previous S back into the right-hand side.  The
    residual is evaluated independently with full polynomial brackets, on
    the first read of ``residual``.
    """
    fset = h.finite_set
    inside = f._in_jet()
    f_T, f_rest = f._take(inside), f._take(~inside)
    if tables is None:
        tables = class_tables(h)
    updates = []
    S, ht, skipped, divlog = solve_linear(h, f_T, guard, gamma1, tables)
    scale = max(f_T.max_coeff(), 1e-300)
    for _ in range(max_picard - 1):
        if not len(f_rest) or not len(S):
            break
        # only the jet of the bracket feeds back, so degree 2 suffices
        corr = poisson(f_rest, S, finite_set=fset,
                       max_degree=2, tol=prune_tol).jet()
        if not len(corr):
            break
        guard2 = DivisorGuard(delta0=guard.delta0)
        S_new, ht, skipped, divlog = solve_linear(h, f_T + corr, guard2,
                                                  gamma1, tables)
        upd = (S_new - S).max_coeff()
        updates.append(upd)
        S = S_new
        guard.failures = guard2.failures
        if upd <= tol * max(S.max_coeff(), scale):
            break
        if len(updates) >= 2 and updates[-1] > updates[-2]:
            raise StageAbort("picard", len(updates),
                             "nonlinear feedback is not contracting: "
                             f"updates {updates}")
    return HomologicalSolution(S=S, h_tilde=ht, skipped_report=skipped,
                               divisor_log=divlog, guard=guard,
                               picard_updates=updates, h=h, f_T=f_T,
                               f_rest=f_rest, prune_tol=prune_tol)
