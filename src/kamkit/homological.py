"""Blockwise solution of the nonlinear homological equation.

Given a normal-form Hamiltonian h = c + omega.r + quadratic and a
perturbation f, find a generating jet S with

    {h, S} + jet({f - jet(f), S}) + jet(f) = h_tilde,

where h_tilde keeps only the parts that cannot be removed: a constant, an
r-linear term, and a quadratic part in normal form, so it is a
``NormalFormHamiltonian`` on h's partition.  Everything is solved
per Fourier index k and per partition class pair; small divisors below the
guard threshold are recorded and the corresponding terms left in place.
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
    _tuples,
    block_rows,
    class_ids,
    decode_jet,
    encode,
    poisson,
    site_layout,
)
from .lattice import norm_sq, pseudo_dist_sq


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


# -- class tables ---------------------------------------------------------------

@dataclass
class _ClassData:
    sites: tuple
    hyperbolic: bool
    ids: np.ndarray               # class_ids over the partition's layout
    lam: np.ndarray | None = None
    V: tuple = ()                 # eigenbases of the xi and eta components
    JH: np.ndarray | None = None
    HJ: np.ndarray | None = None


def class_tables(h: NormalFormHamiltonian) -> dict:
    p = h.partition
    var_id = site_layout(p.sites())
    tables = {}
    F = len(p.finite_set)
    for ci, cl in enumerate(p.classes):
        ids = class_ids(var_id, cl)
        if ci == p.finite_index:
            H = h.hyperbolic_block
            if H is None:
                H = np.zeros((2 * F, 2 * F))
            J = symplectic(F)
            tables[ci] = _ClassData(cl, True, ids, JH=J @ H, HJ=H @ J)
        else:
            Q = h.class_Q(ci)
            lam, U = np.linalg.eigh(Q)
            tables[ci] = _ClassData(cl, False, ids, lam=lam,
                                    V=(U, np.conj(U)))
    return tables


# -- elementary inversions --------------------------------------------------------

def invert_L_elliptic(kw: float, lam_L, V_L, sL: int, lam_R, V_R, sR: int,
                      R: np.ndarray, guard: DivisorGuard, key):
    """Solve (kw)X + sL*P_L X + sR*X P_R = R with P = V diag(lam) V^{-1}.

    Returns (X or None, divisors).  For lam_R/V_R None, solves the vector
    equation (kw I + sL P_L) x = R instead.
    """
    if lam_R is None:
        Rt = V_L.conj().T @ R
        div = kw + sL * lam_L
        if not guard.check(float(np.abs(div).min()), *key):
            return None, div
        return V_L @ (Rt / div), div
    Rt = V_L.conj().T @ R @ V_R
    div = kw + sL * lam_L[:, None] + sR * lam_R[None, :]
    if not guard.check(float(np.abs(div).min()), *key):
        return None, div
    return V_L @ (Rt / div) @ V_R.conj().T, div


def invert_L_mixed(coef: complex, JH: np.ndarray, F_rows: np.ndarray,
                   guard: DivisorGuard, key):
    """Solve X(coef*I - JH) = F for row-vector blocks (rows of F).

    Records the smallest singular value of the operator.
    """
    L = coef * np.eye(JH.shape[0]) - JH
    smin = float(np.linalg.svd(L, compute_uv=False)[-1])
    if not guard.check(smin, *key):
        return None, smin
    X = np.linalg.solve(L.T, np.atleast_2d(F_rows).T).T
    return X.reshape(F_rows.shape), smin


def invert_L_hyperbolic(kw: float, HJ: np.ndarray, JH: np.ndarray,
                        G: np.ndarray, guard: DivisorGuard, key):
    """Solve i(kw)Y + HJ Y - Y JH = -G densely via the Kronecker form."""
    m = HJ.shape[0]
    L = (1j * kw * np.eye(m * m)
         + np.kron(HJ, np.eye(m)) - np.kron(np.eye(m), JH.T))
    smin = float(np.linalg.svd(L, compute_uv=False)[-1])
    if not guard.check(smin, *key):
        return None, smin
    Y = np.linalg.solve(L, -G.reshape(m * m)).reshape(m, m)
    return Y, smin


# -- the main solver ----------------------------------------------------------------

def _k_groups(K: np.ndarray, sel: np.ndarray) -> list:
    """(k, row indices) for the distinct rows of K among the rows ``sel``,
    in order of first occurrence."""
    groups: dict = {}
    for i, k in zip(np.flatnonzero(sel).tolist(), _tuples(K[sel])):
        groups.setdefault(k, []).append(i)
    return [(k, np.array(ix)) for k, ix in groups.items()]


def solve_linear(h: NormalFormHamiltonian, F_poly: Polynomial,
                 guard: DivisorGuard, gamma1: float, tables: dict):
    """One linear homological solve {h,S} + F = h_tilde, with the class
    tables of h (``class_tables``).

    F's jet is decoded once over the partition's variables.  Each Fourier
    index k fills one form matrix, and each class pair reads its block by
    index.  The solved rows of S are collected in solve order and encoded
    once.  Returns (S polynomial, h_tilde, skipped_report, divisor_log):
    h_tilde is a ``NormalFormHamiltonian`` on h's partition, with the
    k = 0 constant as its ``const`` and chi as its ``omega``.
    """
    p = h.partition
    n = h.n
    omega = np.asarray(h.omega, dtype=float)
    var_id = site_layout(p.sites())
    nv = len(var_id)
    sites = sorted(p.sites())      # in the order of site_layout
    class_of = np.array([p.class_of[s] for s in sites], dtype=np.int64)
    _, K, M, U, V, C = decode_jet(F_poly, var_id)
    ht = NormalFormHamiltonian(omega=np.zeros(n, dtype=complex), partition=p)
    skipped = []
    divlog = {}
    solved = []                # S as block_rows blocks, in solve order

    # -- theta and r parts ----------------------------------------------------
    none, on_r = U < 0, M.any(axis=1)
    for k, (i,) in _k_groups(K, none & ~on_r):
        c = C[i].item()
        kw = float(np.dot(k, omega))
        if not any(k):
            ht.const = ht.const + c
            continue
        divlog[(k, (), "theta")] = (kw,)
        if guard.check(abs(kw), k, (), "theta"):
            solved.append((k, None, [-1], None, [c / (-1j * kw)]))
    for k, gi in _k_groups(K, none & on_r):
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
    for k, gi in _k_groups(K, (U >= 0) & (V < 0)):
        kw = float(np.dot(k, omega))
        Fk = np.zeros(nv, dtype=complex)
        Fk[U[gi]] += C[gi]
        for ci in np.unique(class_of[U[gi] // 2]).tolist():
            cd = tables[ci]
            if cd.hyperbolic:
                w = cd.ids.T.ravel()
                L = 1j * kw * np.eye(len(w)) + cd.HJ
                smin = float(np.linalg.svd(L, compute_uv=False)[-1])
                divlog[(k, (ci,), "lin-hyp")] = (smin,)
                if guard.check(smin, k, (ci,), "lin-hyp"):
                    solved.append((k, None, w, None,
                                   np.linalg.solve(L, -Fk[w])))
                continue
            # i[(kw)I - Q] v_xi = -F_xi ; i[(kw)I + conj(Q)] v_eta = -F_eta
            for comp in (XI, ETA):
                tag = ("lin-xi", "lin-eta")[comp]
                x, div = invert_L_elliptic(kw, cd.lam, cd.V[comp], 2 * comp - 1,
                                           None, None, 0, 1j * Fk[cd.ids[comp]],
                                           guard, (k, (ci,), tag))
                divlog[(k, (ci,), tag)] = tuple(np.sort(div))
                if x is not None:
                    solved.append((k, None, cd.ids[comp], None, x))

    # -- zeta-quadratic part: one form matrix per k, blocks by class pair -----
    pts = np.array(sites, dtype=np.int64)
    C_fit = 0.0                # fitted decay constant for the skip-rule bound
    ncl = len(p.classes)
    for k, gi in _k_groups(K, V >= 0):
        kw = float(np.dot(k, omega))
        Mk = np.zeros((nv, nv), dtype=complex)
        Mk[U[gi], V[gi]] += C[gi]
        a, b = np.divmod(np.unique(U[gi] // 2 * len(sites) + V[gi] // 2),
                         len(sites))
        norms = spectral_norm_2x2(
            Mk.reshape(len(sites), 2, len(sites), 2)[a, :, b, :])
        off = a != b
        if off.any():
            C_fit = max(C_fit, float((norms[off] * decay_weight(
                pts[a[off]], pts[b[off]], WeightParams(gamma1, 0.0))).max()))
        # class pairs (ci <= cj) that hold blocks, with their largest norm
        pairs = class_of[a] * ncl + class_of[b]
        for pid in np.unique(pairs[class_of[a] <= class_of[b]]).tolist():
            ci, cj = divmod(pid, ncl)
            ca, cb = tables[ci], tables[cj]

            # skip rule: same sphere, different classes, elliptic pair
            if (ci != cj and not ca.hyperbolic and not cb.hyperbolic
                    and norm_sq(ca.sites[0]) == norm_sq(cb.sites[0])):
                na = len(ca.sites)
                gap = math.sqrt(
                    pseudo_dist_sq(ca.sites + cb.sites)[:na, na:].min())
                skipped.append((k, ci, cj, float(norms[pairs == pid].max()),
                                gap))
                continue

            if ca.hyperbolic and cb.hyperbolic:
                w = ca.ids.T.ravel()
                Gi = Mk[np.ix_(w, w)]
                if not any(k):
                    ht.hyperbolic_block = ((Gi + Gi.T) / 2).real
                    continue
                Y, smin = invert_L_hyperbolic(kw, ca.HJ, cb.JH, Gi, guard,
                                              (k, (ci, cj), "hyp"))
                divlog[(k, (ci, cj), "hyp")] = (smin,)
                if Y is not None:
                    solved.append((k, None, w, w, Y / 2))
                continue

            if ca.hyperbolic or cb.hyperbolic:
                # rows of the elliptic class per component, columns of the
                # hyperbolic class interleaved
                ell, hyp = (cb, ca) if ca.hyperbolic else (ca, cb)
                w = hyp.ids.T.ravel()
                divs, rows_x = [], []
                for crow in (XI, ETA):
                    Gt = ell.V[crow].conj().T @ Mk[np.ix_(ell.ids[crow], w)]
                    for i, lam in enumerate(ell.lam):
                        tag = f"mix-{('xi', 'eta')[crow]}-{i}"
                        x, smin = invert_L_mixed(
                            1j * (kw + (2 * crow - 1) * lam), hyp.JH, -Gt[i],
                            guard, (k, (ci, cj), tag))
                        divs.append(smin)
                        if x is None:
                            break
                        rows_x.append(x)
                    if x is None:
                        break
                divlog[(k, (ci, cj), "mixed")] = tuple(divs)
                if x is not None:
                    ne = len(ell.sites)
                    solved.append((k, None, ell.ids.ravel(), w, np.vstack(
                        [ell.V[c] @ np.array(rows_x[c * ne:][:ne])
                         for c in (XI, ETA)])))
                continue

            # elliptic-elliptic: solve per channel
            for c1, c2 in ((XI, XI), (XI, ETA), (ETA, XI), (ETA, ETA)):
                Gc = Mk[np.ix_(ca.ids[c1], cb.ids[c2])]
                if not any(k) and ci == cj and c1 != c2:
                    if c1 == XI:
                        ht.set_block(ci, (Gc + Gc.conj().T) / 2)
                    continue
                if not np.any(Gc):
                    continue
                tag = f"q-{c1}{c2}"
                X, div = invert_L_elliptic(
                    kw, ca.lam, ca.V[c1], 2 * c1 - 1, cb.lam, cb.V[1 - c2],
                    2 * c2 - 1, 1j * Gc, guard, (k, (ci, cj), tag))
                divlog[(k, (ci, cj), tag)] = tuple(np.sort(div.ravel()))
                if X is not None:
                    # a pair of classes also holds the mirror block (cj, ci)
                    solved += [(k, None, ca.ids[c1], cb.ids[c2], X / 2)] \
                        * (1 if ci == cj else 2)

    skipped = [(k, ci, cj, coeff, C_fit * math.exp(-gamma1 * gap))
               for k, ci, cj, coeff, gap in skipped]
    S = encode(n, list(var_id), *block_rows(n, solved))
    return S, ht, skipped, divlog


def solve_homological(h: NormalFormHamiltonian, f: Polynomial,
                      guard: DivisorGuard, gamma1: float = 1.0,
                      max_picard: int = 3, tol: float = 1e-14,
                      prune_tol: float = 1e-20,
                      tables: dict | None = None) -> HomologicalSolution:
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
