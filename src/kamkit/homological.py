"""Blockwise solution of the nonlinear homological equation.

Given a normal-form Hamiltonian h = c + omega.r + quadratic and a
perturbation f, find a generating jet S with

    {h, S} + jet({f - jet(f), S}) + jet(f) = h_tilde,

where h_tilde keeps only the parts that cannot be removed: a constant, an
r-linear term, and a quadratic part in normal form.  Everything is solved
per Fourier index k and per partition class pair; small divisors below the
guard threshold are recorded and the corresponding terms left in place.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (WeightParams, _stack, decay_weight, spectral_norm_2x2,
                      symplectic)
from .hamiltonian import (
    ETA,
    XI,
    HamiltonianJet,
    NormalFormHamiltonian,
    Polynomial,
    StageAbort,
    poisson,
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
class HTilde:
    """The unremovable part: c + <chi, r> + normal-form quadratic."""
    n: int
    c: dict = field(default_factory=dict)        # k=0 constants; keyed k for logs
    chi: np.ndarray | None = None
    B_elliptic: dict = field(default_factory=dict)   # class idx -> Hermitian
    B_hyperbolic: np.ndarray | None = None

    def to_polynomial(self, h: NormalFormHamiltonian) -> Polynomial:
        p = h.partition
        poly = Polynomial(self.n)
        for k, c in self.c.items():
            poly.add_term(c, k=k)
        if self.chi is not None:
            for j, c in enumerate(self.chi):
                if c != 0:
                    m = [0] * self.n
                    m[j] = 1
                    poly.add_term(c, m=m)
        for ci, Q in self.B_elliptic.items():
            cl = p.classes[ci]
            for i, a in enumerate(cl):
                for j, b in enumerate(cl):
                    if Q[i, j] != 0:
                        poly.add_term(Q[i, j], z={(a, XI): 1, (b, ETA): 1})
        if self.B_hyperbolic is not None and p.finite_index is not None:
            cl = p.classes[p.finite_index]
            comps = [(s, c) for s in cl for c in (0, 1)]
            H = self.B_hyperbolic
            for i in range(len(comps)):
                for j in range(len(comps)):
                    if H[i, j] != 0:
                        if i == j:
                            poly.add_term(H[i, i] / 2, z={comps[i]: 2})
                        elif i < j:
                            poly.add_term(H[i, j],
                                          z={comps[i]: 1, comps[j]: 1})
        return poly


@dataclass
class HomologicalSolution:
    S: Polynomial
    h_tilde: HTilde
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
                    + self.f_T - self.h_tilde.to_polynomial(self.h))
        return residual.prune(self.prune_tol)


# -- class tables ---------------------------------------------------------------

@dataclass
class _ClassData:
    index: int
    sites: tuple
    hyperbolic: bool
    lam: np.ndarray | None = None
    U: np.ndarray | None = None
    H: np.ndarray | None = None
    JH: np.ndarray | None = None
    HJ: np.ndarray | None = None


def class_tables(h: NormalFormHamiltonian) -> dict:
    p = h.partition
    tables = {}
    F = len(p.finite_set)
    for ci, cl in enumerate(p.classes):
        if ci == p.finite_index:
            H = h.nf.hyperbolic_block
            if H is None:
                H = np.zeros((2 * F, 2 * F))
            J = symplectic(F)
            tables[ci] = _ClassData(ci, cl, True, H=np.asarray(H, float),
                                    JH=J @ H, HJ=H @ J)
        else:
            Q = h.class_Q(ci)
            lam, U = np.linalg.eigh(Q)
            tables[ci] = _ClassData(ci, cl, False, lam=lam, U=U)
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
    m = JH.shape[0]
    if m == 0:
        return np.zeros_like(F_rows), 0.0
    L = coef * np.eye(m) - JH
    smin = float(np.linalg.svd(L, compute_uv=False)[-1])
    if not guard.check(smin, *key):
        return None, smin
    X = np.linalg.solve(L.T, np.atleast_2d(F_rows).T).T
    return X.reshape(F_rows.shape), smin


def invert_L_hyperbolic(kw: float, HJ: np.ndarray, JH: np.ndarray,
                        G: np.ndarray, guard: DivisorGuard, key):
    """Solve i(kw)Y + HJ Y - Y JH = -G densely via the Kronecker form."""
    m = HJ.shape[0]
    if m == 0:
        return np.zeros_like(G), 0.0
    L = (1j * kw * np.eye(m * m)
         + np.kron(HJ, np.eye(m)) - np.kron(np.eye(m), JH.T))
    smin = float(np.linalg.svd(L, compute_uv=False)[-1])
    if not guard.check(smin, *key):
        return None, smin
    Y = np.linalg.solve(L, -G.reshape(m * m)).reshape(m, m)
    return Y, smin


def det_certificate(L_of_t, delta0: float, j_max: int, t_span=(0.0, 1.0),
                    samples: int = 33):
    """First derivative order j <= j_max with |d^j det L / dt^j| >= delta0
    everywhere on the section; returns (j, min |d^j det|) or (None, best)."""
    ts = np.linspace(t_span[0], t_span[1], samples)
    dets = np.array([complex(np.linalg.det(np.atleast_2d(L_of_t(t))))
                     for t in ts])
    dt = ts[1] - ts[0]
    cur = dets
    best = (None, 0.0)
    for j in range(1, j_max + 1):
        cur = np.diff(cur) / dt
        m = float(np.abs(cur).min()) if len(cur) else 0.0
        if m >= delta0:
            return j, m
        if m > best[1]:
            best = (None, m)
    return None, best[1]


# -- the main solver ----------------------------------------------------------------


def _gather_block(M, rows_sites, cols_sites):
    """Stack 2x2 site blocks into a (2ra x 2cb) comp matrix (xi/eta grouped)."""
    ra, cb = len(rows_sites), len(cols_sites)
    G = np.zeros((2 * ra, 2 * cb), dtype=complex)
    for i, a in enumerate(rows_sites):
        for j, b in enumerate(cols_sites):
            blk = M.blocks.get((a, b))
            if blk is None:
                continue
            for c1 in (0, 1):
                for c2 in (0, 1):
                    G[c1 * ra + i, c2 * cb + j] = blk[c1, c2]
    return G


def _interleave(G_grouped, na, nb):
    """xi/eta-grouped (2na x 2nb) -> per-site interleaved comp layout."""
    out = np.zeros_like(G_grouped)
    for i in range(na):
        for c1 in (0, 1):
            for j in range(nb):
                for c2 in (0, 1):
                    out[2 * i + c1, 2 * j + c2] = G_grouped[c1 * na + i,
                                                            c2 * nb + j]
    return out


def solve_linear(h: NormalFormHamiltonian, F_poly: Polynomial,
                 guard: DivisorGuard, gamma1: float = 1.0,
                 tables: dict | None = None):
    """One linear homological solve {h,S} + F = h_tilde.

    Returns (S polynomial, HTilde, skipped_report, divisor_log).
    """
    p = h.partition
    n = h.n
    omega = np.asarray(h.omega, dtype=float)
    jet = HamiltonianJet.from_polynomial(F_poly)
    if tables is None:
        tables = class_tables(h)
    S = Polynomial(n)
    ht = HTilde(n=n, chi=np.zeros(n, dtype=complex))
    skipped = []
    divlog = {}

    # fitted decay constant for the skip-rule bound
    C_fit = 0.0
    for M in jet.f_zetazeta.values():
        sites, ((rows, cols, data),) = _stack(M)
        off = rows != cols
        if off.any():
            X = np.array(sites, dtype=np.int64)
            C_fit = max(C_fit, float(
                (spectral_norm_2x2(data[off])
                 * decay_weight(X[rows[off]], X[cols[off]],
                                WeightParams(gamma1, 0.0))).max()))

    # -- theta part ------------------------------------------------------
    for k, c in jet.f_theta.items():
        kw = float(np.dot(k, omega))
        if all(x == 0 for x in k):
            ht.c[k] = ht.c.get(k, 0.0) + c
            continue
        key = (k, (), "theta")
        divlog[key] = (kw,)
        if guard.check(abs(kw), k, (), "theta"):
            S.add_term(c / (-1j * kw), k=k)

    # -- r part ------------------------------------------------------------
    for k, vec in jet.f_r.items():
        kw = float(np.dot(k, omega))
        if all(x == 0 for x in k):
            ht.chi = ht.chi + vec
            continue
        key = (k, (), "r")
        divlog[key] = (kw,)
        if guard.check(abs(kw), k, (), "r"):
            for j, c in enumerate(vec):
                if c != 0:
                    m = [0] * n
                    m[j] = 1
                    S.add_term(c / (-1j * kw), k=k, m=m)

    # -- zeta-linear part -----------------------------------------------------
    for k, sv in jet.f_zeta.items():
        kw = float(np.dot(k, omega))
        by_class = {}
        for s, v in sv.entries.items():
            by_class.setdefault(p.class_of[s], {})[s] = v
        for ci, entries in sorted(by_class.items()):
            cd = tables[ci]
            cl = cd.sites
            if cd.hyperbolic:
                mdim = 2 * len(cl)
                Fv = np.zeros(mdim, dtype=complex)
                for i, s in enumerate(cl):
                    if s in entries:
                        Fv[2 * i:2 * i + 2] = entries[s]
                L = 1j * kw * np.eye(mdim) + cd.HJ
                smin = float(np.linalg.svd(L, compute_uv=False)[-1])
                key = (k, (ci,), "lin-hyp")
                divlog[key] = (smin,)
                if guard.check(smin, k, (ci,), "lin-hyp"):
                    x = np.linalg.solve(L, -Fv)
                    for i, s in enumerate(cl):
                        for c2 in (0, 1):
                            if x[2 * i + c2] != 0:
                                S.add_term(x[2 * i + c2], k=k,
                                           z={(s, c2): 1})
                continue
            na = len(cl)
            Fxi = np.array([entries.get(s, np.zeros(2))[0] for s in cl])
            Feta = np.array([entries.get(s, np.zeros(2))[1] for s in cl])
            # i[(kw)I - Q] v_xi = -F_xi ; i[(kw)I + conj(Q)] v_eta = -F_eta
            key = (k, (ci,), "lin-xi")
            x, div = invert_L_elliptic(kw, cd.lam, cd.U, -1, None, None, 0,
                                       1j * Fxi, guard, (k, (ci,), "lin-xi"))
            divlog[key] = tuple(np.sort(div))
            if x is not None:
                for i, s in enumerate(cl):
                    if x[i] != 0:
                        S.add_term(x[i], k=k, z={(s, XI): 1})
            key = (k, (ci,), "lin-eta")
            x, div = invert_L_elliptic(kw, cd.lam, np.conj(cd.U), 1, None,
                                       None, 0, 1j * Feta, guard,
                                       (k, (ci,), "lin-eta"))
            divlog[key] = tuple(np.sort(div))
            if x is not None:
                for i, s in enumerate(cl):
                    if x[i] != 0:
                        S.add_term(x[i], k=k, z={(s, ETA): 1})

    # -- zeta-quadratic part -----------------------------------------------------
    for k, M in jet.f_zetazeta.items():
        kw = float(np.dot(k, omega))
        k_is_zero = all(x == 0 for x in k)
        # largest block norm per class pair (ci <= cj) that holds blocks
        sites, ((rows, cols, data),) = _stack(M)
        cls = np.array([p.class_of[s] for s in sites], dtype=np.int64)
        ci_, cj_ = cls[rows], cls[cols]
        up = ci_ <= cj_
        pair_ids, inv = np.unique(ci_[up] * len(p.classes) + cj_[up],
                                  return_inverse=True)
        coeffs = np.zeros(len(pair_ids))
        np.maximum.at(coeffs, inv, spectral_norm_2x2(data[up]))
        for pid, coeff in zip(pair_ids.tolist(), coeffs.tolist()):
            ci, cj = divmod(pid, len(p.classes))
            ca, cb = tables[ci], tables[cj]
            cla, clb = ca.sites, cb.sites
            na, nb = len(cla), len(clb)
            G = _gather_block(M, cla, clb)

            # skip rule: same sphere, different classes, elliptic pair
            if (ci != cj and not ca.hyperbolic and not cb.hyperbolic
                    and norm_sq(cla[0]) == norm_sq(clb[0])):
                gap = math.sqrt(pseudo_dist_sq(cla + clb)[:na, na:].min())
                skipped.append((k, ci, cj, coeff,
                                C_fit * math.exp(-gamma1 * gap)))
                continue

            if ca.hyperbolic and cb.hyperbolic:
                if k_is_zero:
                    add = _interleave_identity(G, na)
                    if ht.B_hyperbolic is None:
                        ht.B_hyperbolic = np.zeros_like(add)
                    ht.B_hyperbolic = ht.B_hyperbolic + add
                    continue
                Gi = _interleave(G, na, nb)
                Y, smin = invert_L_hyperbolic(kw, ca.HJ, cb.JH, Gi, guard,
                                              (k, (ci, cj), "hyp"))
                divlog[(k, (ci, cj), "hyp")] = (smin,)
                if Y is not None:
                    _emit_quadratic(S, k, cla, clb, Y, interleaved=True)
                continue

            if ca.hyperbolic or cb.hyperbolic:
                # canonicalize: elliptic class on the left
                if ca.hyperbolic:
                    ca, cb = cb, ca
                    cla, clb = ca.sites, cb.sites
                    na, nb = len(cla), len(clb)
                    G = _gather_block(M, cla, clb)
                Gi_right = _interleave_cols(G, na, nb)
                Y = np.zeros((2 * na, 2 * nb), dtype=complex)
                ok = True
                divs = []
                for crow, sgn, V in ((0, -1, ca.U), (1, 1, np.conj(ca.U))):
                    Grow = Gi_right[crow * na:(crow + 1) * na, :]
                    Gt = V.conj().T @ Grow
                    Xt = np.zeros_like(Gt)
                    for idx in range(na):
                        lam = ca.lam[idx]
                        coef = 1j * (kw + sgn * lam)
                        tag = f"mix-{'xi' if crow == 0 else 'eta'}-{idx}"
                        x, smin = invert_L_mixed(coef, cb.JH, -Gt[idx],
                                                 guard, (k, (ci, cj), tag))
                        divs.append(smin)
                        if x is None:
                            ok = False
                            break
                        Xt[idx] = x
                    if not ok:
                        break
                    Y[crow * na:(crow + 1) * na, :] = V @ Xt
                divlog[(k, (ci, cj), "mixed")] = tuple(divs)
                if ok:
                    _emit_mixed(S, k, cla, clb, Y)
                continue

            # elliptic-elliptic: solve per channel
            channels = {
                (XI, XI): (-1, ca.U, -1, np.conj(cb.U)),
                (XI, ETA): (-1, ca.U, 1, cb.U),
                (ETA, XI): (1, np.conj(ca.U), -1, np.conj(cb.U)),
                (ETA, ETA): (1, np.conj(ca.U), 1, cb.U),
            }
            for (c1, c2), (sL, VL, sR, VR) in channels.items():
                Gc = G[c1 * na:(c1 + 1) * na, c2 * nb:(c2 + 1) * nb]
                tag = f"q-{c1}{c2}"
                if k_is_zero and ci == cj and {c1, c2} == {XI, ETA}:
                    if c1 == XI:
                        Q = (Gc + Gc.conj().T) / 2
                        prev = ht.B_elliptic.get(ci,
                                                 np.zeros_like(Q))
                        ht.B_elliptic[ci] = prev + Q
                    continue
                if not np.any(Gc):
                    continue
                X, div = invert_L_elliptic(kw, ca.lam, VL, sL, cb.lam, VR,
                                           sR, 1j * Gc, guard,
                                           (k, (ci, cj), tag))
                divlog[(k, (ci, cj), tag)] = tuple(np.sort(div.ravel()))
                if X is not None:
                    _emit_channel(S, k, cla, clb, c1, c2, X, same=(ci == cj))
    S.prune(0.0)
    return S, ht, skipped, divlog


def _interleave_identity(G_grouped, n):
    """Grouped (2n x 2n) symmetric block -> interleaved real symmetric."""
    Gi = _interleave(G_grouped, n, n)
    return ((Gi + Gi.T) / 2).real


def _interleave_cols(G, na, nb):
    """Group rows by comp, interleave columns per site."""
    out = np.zeros_like(G)
    for c1 in (0, 1):
        for j in range(nb):
            for c2 in (0, 1):
                out[c1 * na:(c1 + 1) * na, 2 * j + c2] = \
                    G[c1 * na:(c1 + 1) * na, c2 * nb + j]
    return out


def _emit_channel(S, k, cla, clb, c1, c2, X, same):
    """Add the solved channel to S as 1/2-form monomials.

    X holds the form-matrix entries for (row site, c1) x (col site, c2);
    the mirror positions are implied by symmetry, so each entry contributes
    half, exactly like the jet round trip.
    """
    for i, a in enumerate(cla):
        for j, b in enumerate(clb):
            val = X[i, j]
            if val == 0:
                continue
            v1, v2 = (a, c1), (b, c2)
            if v1 == v2:
                S.add_term(val / 2, k=k, z={v1: 2})
            else:
                S.add_term(val / 2, k=k, z={v1: 1, v2: 1})
    if not same:
        # mirror sub-block (cj, ci) carries the transpose; same weight again
        for i, a in enumerate(cla):
            for j, b in enumerate(clb):
                val = X[i, j]
                if val == 0:
                    continue
                v1, v2 = (a, c1), (b, c2)
                if v1 != v2:
                    S.add_term(val / 2, k=k, z={v1: 1, v2: 1})


def _emit_mixed(S, k, cla, clb, Y):
    """Elliptic (grouped rows) x hyperbolic (interleaved cols) block."""
    na = len(cla)
    for crow in (0, 1):
        for i, a in enumerate(cla):
            for j, b in enumerate(clb):
                for c2 in (0, 1):
                    val = Y[crow * na + i, 2 * j + c2]
                    if val != 0:
                        S.add_term(val, k=k, z={(a, crow): 1, (b, c2): 1})


def _emit_quadratic(S, k, cla, clb, Y, interleaved: bool):
    """Hyperbolic-hyperbolic interleaved symmetric block -> monomials."""
    comps_a = [(s, c) for s in cla for c in (0, 1)]
    comps_b = [(s, c) for s in clb for c in (0, 1)]
    for i, v1 in enumerate(comps_a):
        for j, v2 in enumerate(comps_b):
            val = Y[i, j]
            if val == 0:
                continue
            if v1 == v2:
                S.add_term(val / 2, k=k, z={v1: 2})
            else:
                S.add_term(val / 2, k=k, z={v1: 1, v2: 1})


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
    f_T = f.jet()
    f_rest = f.without_jet()
    if tables is None:
        tables = class_tables(h)
    updates = []
    S, ht, skipped, divlog = solve_linear(h, f_T, guard, gamma1, tables)
    scale = max(f_T.max_coeff(), 1e-300)
    for _ in range(max_picard - 1):
        if not f_rest.terms or not S.terms:
            break
        # only the jet of the bracket feeds back, so degree 2 suffices
        corr = poisson(f_rest, S, finite_set=fset,
                       max_degree=2, tol=prune_tol).jet()
        if not corr.terms:
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
