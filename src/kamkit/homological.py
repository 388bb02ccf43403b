"""Blockwise solution of the nonlinear homological equation.

Given a normal-form Hamiltonian h = c + omega.r + quadratic and a
perturbation f, find a generating jet S with

    {h, S} + jet({f - jet(f), S}) + jet(f) = h_tilde,

where h_tilde keeps only the parts that cannot be removed: a constant, an
r-linear term, and a quadratic part in normal form, so it is a
``NormalFormHamiltonian`` on h's partition.  Everything is solved per
Fourier index k and per partition class pair; small divisors below the
guard threshold are recorded and the corresponding terms left in place.

h's classes are read from one table built once per h (``class_tables``),
which holds one eigenbasis per class: ``eigh`` of an elliptic class's Q,
and one complex ``eig`` of J H = V diag(nu) V^{-1} for the finite
(hyperbolic) class.  The zeta part is solved in array passes: the jet's
rows are scattered into one block per (k, class pair, channel), a
zeta-linear row's pair being its class and the table's one-column unit,
the blocks of one pair of class groups are stacked, and each stack with
rows is checked and divided by its divisors in one pass.  The finite
class is one channel over its 2F interleaved components, with lam = i
nu, so its divisors (times -i) are k.omega + i nu_i (``lin-hyp``),
k.omega + i (nu_i + nu_j) (``hyp``) and k.omega -+ lam_i + i nu_j
(``mix-xi``, ``mix-eta``), each channel checked on its least |d| as an
elliptic one is.  Each check's equation as a dense system (i kw I
+ H J; its Kronecker form; i(kw -+ lam_i) I - (J H)^T) has its smallest
singular value in [min|d| / cond(V)^p, min|d| cond(V)^p], with
p = 2 for ``hyp`` and 1 for ``lin-hyp`` and the mixed channels; a J H
with cond(V) > 1/sqrt(machine epsilon), a Jordan block as at a Krein
collision, stops the run at stage ``tables``.  The solve order is the
contract (``solve_linear``): guard checks (logged in ``DivisorGuard.log``),
h_tilde's blocks and, by one stable sort, S's rows come in it; a KAM
block's divisors are frozen in ``DivisorGuard.frozen``.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

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
    check_finite,
    class_ids,
    decode_jet,
    encode,
    poisson,
    site_layout,
)
from .lattice import _tuples, pseudo_dist_sq

PRUNE_TOL = 1e-18       # the Picard brackets drop terms below


@dataclass
class DivisorGuard:
    """The one record of a KAM block's divisor checks: the last solve's
    (``log`` and ``failures``) and the block's (``frozen``)."""
    delta0: float = 1e-8
    log: dict = field(default_factory=dict)       # key -> sorted divisors
    failures: list = field(default_factory=list)  # (k, classes, channel, val)
    frozen: dict = field(default_factory=dict)

    def check(self, key, value: float, divisors) -> bool:
        """Log divisors under key = (k, classes, channel); fail if value
        (their least |d|) is below delta0."""
        self.log[key] = divisors
        if value < self.delta0:
            self.failures.append((*key, float(value)))
            return False
        return True

    def freeze(self):
        """Add the log to ``frozen``; keys frozen before must match bitwise."""
        for key, d in self.log.items():
            if self.frozen.setdefault(key, d).tobytes() != d.tobytes():
                raise StageAbort("divisors", key,
                                 "divisor drift within a super block")


@dataclass
class HomologicalSolution:
    S: Polynomial
    h_tilde: NormalFormHamiltonian    # on h's partition, chi as its omega
    skipped_report: list          # (k, ci, cj, coeff_norm, bound)
    guard: DivisorGuard           # its log: the last linear solve's checks
    picard_updates: list


# -- the class table ----------------------------------------------------------

@dataclass
class ClassTable:
    """h's classes as arrays, built once per h (``class_tables``): the
    variable layout of h's partition, lookups per site, per variable and
    per class, and each class's eigenbasis, stacked by group (a class's
    ``slot`` is its row in its group's stacks).  An elliptic class of m
    sites is in group m, with two channels of size m (its xi and its eta
    sites); the finite class is group 0, with one channel, ETA, over its
    2F interleaved variables w.  The last class, the unit, is a zeta-linear
    row's one-column right side: lam = 0, basis 1, variable id -1 (site
    -1, ``class_of``, ``row`` and ``chan``'s last entry).  Per group:
    ``lam`` the eigenvalues, ``V[.., c]`` the basis that channel c enters
    with as a left factor and channel 1 - c as a right factor, ``W`` its
    dual basis (``W^H = V^{-1}``), and ``ids[.., c]`` channel c's ids."""
    var_id: dict                  # site_layout of the partition's sites
    pts: np.ndarray               # the sites, in the order of var_id
    class_of: np.ndarray          # site -> class
    row: np.ndarray               # variable -> its row in its class's block
    chan: np.ndarray              # variable -> its channel
    dim: np.ndarray               # class -> the size of its channels
    hyperbolic: np.ndarray        # class -> the finite class or not
    nsq: np.ndarray               # class -> |a|^2 of its first site (unit -1)
    group: np.ndarray             # class -> its stacks' key
    slot: np.ndarray              # class -> row in its group's stacks
    lam: dict                     # group -> (classes, dim) eigenvalues
    V: dict                       # group -> (classes, 2, dim, dim) bases
    W: dict                       # group -> their dual bases
    ids: dict                     # group -> (classes, 2, dim) variable ids


# cond(V) above which J H counts as not diagonalizable: a Jordan block, as
# at a Krein collision, puts V's columns within roundoff of each other
COND_MAX = 1 / math.sqrt(sys.float_info.epsilon)


def class_tables(h: NormalFormHamiltonian) -> ClassTable:
    """h's class table.  An elliptic class's basis is the unitary U of
    Q = U diag(lam) U^H (``eigh``): U for its xi channel and conj(U) for
    its eta channel, each its own dual.  The finite class's is one complex
    ``eig`` of J H = V diag(nu) V^{-1}, with lam = i nu.  Since H J =
    -(J H)^T, the finite class enters a solve on the left as V^{-T} (dual
    conj(V)) and on the right as V (dual V^{-H}): its divisors are those
    of an elliptic channel of sign +1 with lam = i nu (``solve_linear``).
    The unit is in group 1, channel ETA (its divisor term is +0.0).
    ``StageAbort("tables")`` when cond(V) exceeds ``COND_MAX``, which is
    1/sqrt(machine epsilon)."""
    p = h.partition
    sites = sorted(p.sites())      # in the order of site_layout
    var_id = site_layout(sites)
    unit = len(p.classes)
    dim = np.append(np.diff(p.ends), 1)
    group, slot = dim.copy(), np.zeros(len(dim), dtype=np.int64)
    by_group: dict = {}
    for ci in p.nonfinite.tolist():
        cl = p.classes[ci]
        lam, U = np.linalg.eigh(h.class_Q(ci))
        V = np.stack([U, np.conj(U)])
        members = by_group.setdefault(len(cl), [])
        slot[ci] = len(members)
        members.append((lam, V, V, class_ids(var_id, cl)))
    slot[unit] = len(by_group.setdefault(1, []))
    by_group[1].append((np.zeros(1), np.ones((2, 1, 1)), np.ones((2, 1, 1)),
                        np.full((2, 1), -1)))
    place = {s: i for cl in p.classes for i, s in enumerate(cl)}
    row = np.array([place[s] for s, _ in var_id] + [0], dtype=np.int64)
    chan = np.array([c for _, c in var_id] + [ETA], dtype=np.int64)
    fi = p.finite_index
    if fi is not None:
        F = len(p.finite_set)
        nu, V = np.linalg.eig(symplectic(F) @ h.hyperbolic_block)
        cond = float(np.linalg.cond(V))
        if not cond <= COND_MAX:
            raise StageAbort("tables", fi, f"J H has no eigenbasis within "
                             f"roundoff: cond(V) = {cond:.3g}")
        Vinv = np.linalg.inv(V)
        w = class_ids(var_id, p.classes[fi]).T.ravel()
        row[w], chan[w] = np.arange(2 * F), ETA
        dim[fi], group[fi] = 2 * F, 0
        by_group[0] = [(1j * nu, np.stack([V, Vinv.T]),
                        np.stack([Vinv.conj().T, V.conj()]), np.stack([w, w]))]
    stacks = {g: [np.stack(x) for x in zip(*members)]
              for g, members in by_group.items()}
    lead = p.points[p.ends[:-1]]
    return ClassTable(
        var_id, np.array(sites, dtype=np.int64),
        np.array([p.class_of[s] for s in sites] + [unit], dtype=np.int64),
        row, chan, dim, np.arange(len(dim)) == fi,
        np.append((lead * lead).sum(axis=1), -1), group, slot,
        *({g: x[i] for g, x in stacks.items()} for i in range(4)))


# -- elementary inversions --------------------------------------------------------

def _elliptic_divisors(kw, lam_L, sL, lam_R, sR):
    """kw + sL lam_L[i] + sR lam_R[j], added in that order; over stacks
    (leading axes) as well, with kw, sL and sR of shape (..., 1, 1)."""
    return kw + sL * lam_L[..., :, None] + sR * lam_R[..., None, :]


def _elliptic_solve(V_L, W_L, V_R, W_R, R, div):
    """X with (kw)X + sL P_L X + sR X P_R = R, P = V diag(lam) V^{-1}, W
    the dual bases (W^H = V^{-1}) and ``div`` from ``_elliptic_divisors``:
    X = V_L ((W_L^H R V_R) / div) W_R^H, the products associated left to
    right; over stacks of blocks as well (one ``matmul`` per product).  The
    vector equation (kw I + sL P_L) x = R is the one-column case, the
    table's unit: lam_R = zeros(1), V_R = W_R = ones((1, 1))."""
    Rt = np.swapaxes(W_L.conj(), -1, -2) @ R @ V_R
    return V_L @ (Rt / div) @ np.swapaxes(W_R.conj(), -1, -2)


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

    F's jet is decoded once over the table's variables.  The theta and r
    rows are solved per Fourier index k.  The zeta-linear and quadratic
    rows are solved in array passes (``_solve_zeta``): scattered into
    one block per (k, class pair, channel), and solved in one stacked pass
    per pair of class groups.  Returns (S polynomial, h_tilde,
    skipped_report): h_tilde is a ``NormalFormHamiltonian`` on h's
    partition, with the k = 0 constant as its ``const`` and chi as its
    ``omega``.  The solve's checks replace ``guard.log`` and ``failures``.

    The order of the solve is the contract: the theta rows, the r rows,
    the zeta-linear and the zeta-quadratic items, each kind with its k in
    order of first occurrence among its own rows, then class pairs (ci <=
    cj) ascending, then channels xi-xi, xi-eta, eta-xi, eta-eta (the
    finite class's one channel is eta).  Guard failures, log entries,
    h_tilde's blocks and the skip report come in it; one stable sort puts
    S's rows in it for the one ``encode``.
    """
    t = tables
    n = h.n
    omega = np.asarray(h.omega, dtype=float)
    K, M, U, V, C = decode_jet(F_poly, t.var_id)
    ht = NormalFormHamiltonian(omega=np.zeros(n, dtype=complex),
                               partition=h.partition)
    guard.log, guard.failures = {}, []
    solved = []                # S's theta and r rows as block_rows blocks

    # -- theta and r parts ----------------------------------------------------
    none, on_r = U < 0, M.any(axis=1)
    for k, (i,) in _k_rows(K, none & ~on_r):
        c = C[i].item()
        kw = float(np.dot(k, omega))
        if not any(k):
            ht.const = ht.const + c
            continue
        if guard.check((k, (), "theta"), abs(kw), np.array([kw])):
            solved.append((k, None, [-1], None, [c / (-1j * kw)]))
    for k, gi in _k_rows(K, none & on_r):
        vec = np.zeros(n, dtype=complex)
        vec[M[gi].argmax(axis=1)] += C[gi]
        kw = float(np.dot(k, omega))
        if not any(k):
            ht.omega = ht.omega + vec
            continue
        if guard.check((k, (), "r"), abs(kw), np.array([kw])):
            solved.append((k, np.eye(n), [-1] * n, None, vec / (-1j * kw)))

    z = U >= 0
    zeta, skipped = _solve_zeta(h, K[z], U[z], V[z], C[z], t, guard,
                                     gamma1, ht)
    low = block_rows(n, solved)        # placed before every zeta block
    Z, Cs, Ks, Ms, code = (np.concatenate(x) for x in zip(
        (*low, np.full(len(low[1]), -1, dtype=np.int64)), zeta))
    live = np.flatnonzero(Cs)          # encode would skip the zero rows
    order = live[np.argsort(code[live], kind="stable")]
    S = encode(n, list(t.var_id), Z[order], Cs[order], Ks[order], Ms[order])
    return S, ht, skipped


def _solve_zeta(h, K, U, V, C, t, guard, gamma1, ht) -> tuple:
    """The zeta rows (K, U, V, C) of ``solve_linear``'s jet, linear and
    quadratic, solved in array passes.  Fills ``ht`` and the guard's log,
    and returns (S's rows as (Z, C, K, M, place), skipped_report).

    Items are the (k, class pair ci <= cj) that hold a row, in solve order;
    a zeta-linear row's pair is (its class, the unit), checked under the
    key (k, (ci,), "lin-*"), and kept out of the 2x2 site blocks and the
    skip rule.  Each pair's rows are scattered into one block per channel
    (c1, c2) of shape (dim ci, dim cj), the blocks of one pair of groups
    stacked together, and each stack solves (kw)X + sL P_ci X + sR X P_cj
    = iG in one pass in the classes' eigenbases (``class_tables``).  The
    finite class has one channel, so a hyperbolic item (both classes
    finite) has one block and a mixed item one per elliptic component.
    One walk over the items, in order, emits the guard checks (each logs a
    row of its stack's sorted divisors; a block without rows has none),
    h_tilde's blocks and the skip report.  Each solved block is emitted
    once, at place 4 item + channel; a same-class block carries X/2, since
    its transposed entries lie in the same block.
    """
    n = h.n
    ncl = len(t.dim)                   # the unit is the last class
    omega = np.asarray(h.omega, dtype=float)
    q = V >= 0
    (ks, g_lin), (ks_q, g_q) = _k_groups(K[~q]), _k_groups(K[q])
    g = np.zeros(len(K), dtype=np.int64)   # each kind in its own k order
    g[~q], g[q], ks = g_lin, g_q + len(ks), ks + ks_q
    kws = np.array([float(np.dot(k, omega)) for k in ks])
    zero_k = np.array([not any(k) for k in ks], dtype=bool)
    a, b = U // 2, V // 2              # sites (the unit's is -1)
    ca, cb = t.class_of[a], t.class_of[b]
    rows = np.flatnonzero(ca <= cb)    # oriented ci <= cj, the unit last
    items, ri = np.unique(((g * ncl + ca) * ncl + cb)[rows],
                          return_inverse=True)

    # -- the quadratic rows' 2x2 site blocks: norms, C_fit, the peaks ------
    ns = len(t.pts)
    site_pair, at = np.unique(((g * ns + a) * ns + b)[q], return_inverse=True)
    blocks = np.zeros(4 * len(site_pair), dtype=complex)
    np.add.at(blocks, 4 * at + (2 * (U % 2) + V % 2)[q], C[q])
    norms = spectral_norm_2x2(blocks.reshape(-1, 2, 2))
    del blocks
    sg, sab = np.divmod(site_pair, ns * ns)
    sa, sb = np.divmod(sab, ns)
    off = sa != sb
    C_fit = float(np.max(norms[off] * decay_weight(
        t.pts[sa[off]], t.pts[sb[off]], WeightParams(gamma1, 0.0)),
        initial=0.0))          # fitted decay constant for the skip-rule bound
    fwd = t.class_of[sa] <= t.class_of[sb]
    peak = np.full(len(items), -np.inf)     # largest site-block norm
    np.maximum.at(peak, np.searchsorted(items, (
        (sg * ncl + t.class_of[sa]) * ncl + t.class_of[sb])[fwd]), norms[fwd])
    ig, pair = np.divmod(items, ncl * ncl)
    ci, cj = np.divmod(pair, ncl)
    hyp = t.hyperbolic[ci] | t.hyperbolic[cj]
    # skip rule: same sphere, different classes, elliptic pair (the unit's
    # nsq, -1, is no sphere)
    skip = (ci != cj) & ~hyp & (t.nsq[ci] == t.nsq[cj])
    gap = {x: math.sqrt(pseudo_dist_sq(*(h.partition.classes[c] for c in
                                         divmod(x, ncl))).min())
           for x in np.unique(pair[skip]).tolist()}

    # -- entries: item * 4 + channel, channel 2 c1 + c2 ---------------------
    # each pair's rows oriented ci <= cj; the k = 0 blocks of h_tilde: an
    # elliptic class's xi-eta block (present with or without rows; eta-xi
    # dropped) and the finite class's block
    diag0 = (ci == cj) & zero_k[ig]
    ent = 4 * ri + 2 * t.chan[U[rows]] + t.chan[V[rows]]
    keep = ~skip[ri] & ~(diag0[ri] & (ent % 4 == 2))
    rows, ent = rows[keep], ent[keep]
    entries = np.union1d(ent, 4 * np.flatnonzero(diag0 & ~hyp) + 1)
    eitem, ech = np.divmod(entries, 4)
    c1, c2 = np.divmod(ech, 2)
    eci, ecj = ci[eitem], cj[eitem]
    na, nb = t.dim[eci], t.dim[ecj]
    to_ht = diag0[eitem] & ((ech == 1) | hyp[eitem])

    # -- scatter: one contiguous stack per pair of groups -------------------
    gl, gr = t.group[eci], t.group[ecj]
    shape = gl * (t.group.max() + 1) + gr
    by_shape = np.argsort(shape, kind="stable")
    width = na * nb
    base = np.empty(len(entries), dtype=np.int64)
    base[by_shape] = np.cumsum(width[by_shape]) - width[by_shape]
    G = np.zeros(int(width.sum()), dtype=complex)
    e = np.searchsorted(entries, ent)
    np.add.at(G, base[e] + t.row[U[rows]] * nb[e] + t.row[V[rows]], C[rows])
    del rows, ent, e

    # -- divisors per stack -------------------------------------------------
    dmin = np.zeros(len(entries))
    sorted_div = {}
    normal = {}                # h_tilde's blocks
    stacks = []
    runs = np.flatnonzero(np.diff(shape[by_shape])) + 1
    for E in np.split(by_shape, runs) if len(entries) else []:
        L, R = int(gl[E[0]]), int(gr[E[0]])
        m, w = int(na[E[0]]), int(nb[E[0]])
        Gs = G[base[E[0]]:base[E[0]] + len(E) * m * w].reshape(len(E), m, w)
        hs = to_ht[E]
        if hs.any():
            # Q's Hermitian part; the finite class's H is complex symmetric
            B = Gs[hs]
            Bt = np.swapaxes(B, 1, 2)
            normal.update(zip(E[hs].tolist(),
                              (B + (Bt if hyp[eitem[E[0]]] else Bt.conj()))
                              / 2))
        live = ~hs & Gs.any(axis=(1, 2))
        if not live.any():
            continue
        Es = E[live]
        div = _elliptic_divisors(
            kws[ig[eitem[Es]]][:, None, None], t.lam[L][t.slot[eci[Es]]],
            (2.0 * c1[Es] - 1)[:, None, None], t.lam[R][t.slot[ecj[Es]]],
            (2.0 * c2[Es] - 1)[:, None, None])
        dmin[Es] = np.abs(div).min(axis=(1, 2))
        sorted_div.update(zip(Es.tolist(),
                              np.sort(div.reshape(len(Es), -1), axis=1)))
        stacks.append((Es, np.flatnonzero(live), Gs, div, L, R))

    # -- the walk, in solve order -------------------------------------------
    first = np.searchsorted(entries, 4 * np.arange(len(items) + 1)).tolist()
    ok = np.zeros(len(entries), dtype=bool)
    tags = [f"q-{x}{y}" for x in (XI, ETA) for y in (XI, ETA)]
    skipped = []
    to_ht_, ech_, dmin_ = (x.tolist() for x in (to_ht, ech, dmin))
    for i, (gi, cl_i, cl_j, skip_i, hyp_i) in enumerate(zip(
            ig.tolist(), ci.tolist(), cj.tolist(), skip.tolist(),
            hyp.tolist())):
        lin = cl_j == ncl - 1
        k, classes = ks[gi], (cl_i,) if lin else (cl_i, cl_j)
        if skip_i:
            skipped.append((k, cl_i, cl_j, float(peak[i]),
                            gap[cl_i * ncl + cl_j]))
            continue
        for x in range(first[i], first[i + 1]):
            if to_ht_[x] and hyp_i:
                ht.hyperbolic_block = normal[x]
            elif to_ht_[x]:
                ht.set_block(cl_i, normal[x])
            elif x in sorted_div:
                tag = (("lin-xi", "lin-eta", "lin-hyp")[ech_[x] // 2 + hyp_i]
                       if lin else tags[ech_[x]] if not hyp_i
                       else "hyp" if cl_i == cl_j
                       else ("mix-xi", "mix-eta")[ech_[x] % 2])
                ok[x] = guard.check((k, classes, tag), dmin_[x],
                                    sorted_div[x])

    # -- S's rows: each solved block once ------------------------------------
    out = [(np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=complex),
            np.zeros(0, dtype=np.int64))]
    for Es, at, Gs, div, L, R in stacks:
        good = ok[Es]
        Es, at = Es[good], at[good]
        sl, sr = t.slot[eci[Es]], t.slot[ecj[Es]]
        X = _elliptic_solve(t.V[L][sl, c1[Es]], t.W[L][sl, c1[Es]],
                            t.V[R][sr, 1 - c2[Es]], t.W[R][sr, 1 - c2[Es]],
                            1j * Gs[at], div[good])
        X[eci[Es] == ecj[Es]] /= 2
        Ue = t.ids[L][sl, c1[Es]][:, :, None]
        Ve = t.ids[R][sr, c2[Es]][:, None, :]
        pad = Ve < 0                   # the unit's -1 goes last
        Z = np.stack([np.where(pad, Ue, np.minimum(Ue, Ve)),
                      np.where(pad, Ve, np.maximum(Ue, Ve))], axis=-1)
        out.append((Z.reshape(-1, 2), X.ravel(),
                    np.repeat(entries[Es], Gs[0].size)))
    Z, Cs, code = (np.concatenate(x) for x in zip(*out))
    Ks = np.array(ks, dtype=np.int64).reshape(len(ks), n)[ig[code // 4]]
    skipped = [(k, i, j, coeff, C_fit * math.exp(-gamma1 * gp))
               for k, i, j, coeff, gp in skipped]
    return (Z, Cs, Ks, np.zeros((len(Cs), n)), code), skipped


def solve_homological(h: NormalFormHamiltonian, f: Polynomial,
                      guard: DivisorGuard, gamma1: float = 1.0, *,
                      tables: ClassTable) -> HomologicalSolution:
    """Solve {h,S} + jet({f - jet(f), S}) + jet(f) = h_tilde, with h's
    class table ``tables`` (``class_tables``).

    The equation is triangular in S's degree (r counts 2, each z 1): {h, .}
    keeps degrees, and a row of {f - jet(f), S} has degree deg f + deg S -
    2, so jet({f - jet(f), S}), the bracket capped at degree 2, pairs only
    S's rows of degree <= 1 with f's of degree <= 4 (it is given only
    those: the others form no pair, so no bit changes), and has no row of
    degree 0.  So the solve of jet(f) fixes S's angle-only rows, and each
    feedback solve, of jet(f) plus that bracket of the last S, one degree
    more.  A solve that leaves the rows of degree <= 1 as they were ends
    the loop (the next would repeat it bit for bit); a third that moves
    them, or a non-finite bracket, stops at stage ``picard``.  ``guard``
    keeps the last solve's log.
    """
    f_T = f.jet()
    updates = []
    S, ht, skipped = solve_linear(h, f_T, guard, gamma1, tables)
    for _ in range(2):
        S_low = S.truncate_degree(1)
        if not len(S_low):
            break
        corr = poisson(f.without_jet().truncate_degree(4), S_low,
                       finite_set=h.finite_set, max_degree=2, tol=PRUNE_TOL)
        if not len(corr):
            break
        check_finite(corr, "picard", len(updates) + 1)
        prev = S
        S, ht, skipped = solve_linear(h, f_T + corr, guard, gamma1, tables)
        D = S - prev
        updates.append(D.max_coeff())
        if not len(D.truncate_degree(1)):
            break
    else:
        raise StageAbort("picard", 2, "the third solve still moves S's rows "
                         f"of degree <= 1: updates {updates}")
    return HomologicalSolution(S=S, h_tilde=ht, skipped_report=skipped,
                               guard=guard, picard_updates=updates)
