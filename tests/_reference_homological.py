"""Oracles that only the tests call, moved here from
``kamkit.homological`` unchanged.  Not used by the package.

- ``det_certificate``: the determinant certificate of a one-parameter
  matrix family.
- ``_solve_guarded``, ``invert_L_mixed`` and ``invert_L_hyperbolic``: the
  one-system guarded solves, one call per system, that the stacked
  ``_solve_guarded`` replaced.
- ``class_tables``: the per-class tables (a dict of ``_ClassData``) that
  the per-pair ``solve_linear`` reads.
- ``solve_linear``: the per-pair linear homological solve, one dense form
  matrix per Fourier index k and one block gathered and solved per class
  pair and channel; the oracle of the batched ``solve_linear``.  It solves
  each block with its own copy of ``invert_L_elliptic``, so it shares no
  divisor or product kernel with the batched solve.
- ``residual``: {h,S} + jet({f - jet(f), S}) + jet(f) - h_tilde of a
  solution, with full polynomial brackets (once a property of the
  solution, which kept h and f's two parts for it).
"""
import math
from dataclasses import dataclass

import numpy as np

from kamkit.algebra import (WeightParams, decay_weight, spectral_norm_2x2,
                            symplectic)
from kamkit.hamiltonian import (ETA, XI, NormalFormHamiltonian, Polynomial,
                                block_rows, class_ids, decode_jet, encode,
                                poisson, site_layout)
from kamkit.homological import PRUNE_TOL, DivisorGuard
from kamkit.lattice import _tuples, norm_sq, pseudo_dist_sq


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


def residual(h: NormalFormHamiltonian, f: Polynomial, sol) -> Polynomial:
    """{h,S} + jet({f - jet(f), S}) + jet(f) - h_tilde of sol, the
    ``solve_homological`` solution for (h, f), evaluated independently
    with full polynomial brackets; f is split as the solver splits it."""
    fset = h.finite_set
    inside = f._in_jet()
    f_T, f_rest = f._take(inside), f._take(~inside)
    residual = (poisson(h.to_polynomial(), sol.S, finite_set=fset,
                        max_degree=2, tol=PRUNE_TOL).jet()
                + poisson(f_rest, sol.S, finite_set=fset,
                          max_degree=2, tol=PRUNE_TOL).jet()
                + f_T - sol.h_tilde.to_polynomial())
    return residual.prune(PRUNE_TOL)


def _solve_guarded(L, rhs, guard: DivisorGuard, key):
    """Solve L x = rhs unless the smallest singular value of L is below the
    guard threshold.  Returns (x or None, that singular value)."""
    smin = float(np.linalg.svd(L, compute_uv=False)[-1])
    if not guard.check(smin, *key):
        return None, smin
    return np.linalg.solve(L, rhs), smin


def invert_L_mixed(coef: complex, JH: np.ndarray, F_rows: np.ndarray,
                   guard: DivisorGuard, key):
    """Solve X(coef*I - JH) = F for row-vector blocks (rows of F), as the
    column system (coef*I - JH)^T X^T = F^T.

    Records the smallest singular value of the operator.
    """
    Lt = coef * np.eye(JH.shape[0]) - JH.T
    X, smin = _solve_guarded(Lt, np.atleast_2d(F_rows).T, guard, key)
    return (None if X is None else X.T.reshape(F_rows.shape)), smin


def invert_L_hyperbolic(kw: float, HJ: np.ndarray, JH: np.ndarray,
                        G: np.ndarray, guard: DivisorGuard, key):
    """Solve i(kw)Y + HJ Y - Y JH = -G densely via the Kronecker form."""
    m = HJ.shape[0]
    L = (1j * kw * np.eye(m * m)
         + np.kron(HJ, np.eye(m)) - np.kron(np.eye(m), JH.T))
    Y, smin = _solve_guarded(L, -G.reshape(m * m), guard, key)
    return (None if Y is None else Y.reshape(m, m)), smin


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
    K, M, U, V, C = decode_jet(F_poly, var_id)
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
                x, smin = _solve_guarded(1j * kw * np.eye(len(w)) + cd.HJ,
                                         -Fk[w], guard, (k, (ci,), "lin-hyp"))
                divlog[(k, (ci,), "lin-hyp")] = (smin,)
                if x is not None:
                    solved.append((k, None, w, None, x))
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
                gap = math.sqrt(pseudo_dist_sq(ca.sites, cb.sites).min())
                skipped.append((k, ci, cj, float(norms[pairs == pid].max()),
                                gap))
                continue

            if ca.hyperbolic and cb.hyperbolic:
                w = ca.ids.T.ravel()
                Gi = Mk[np.ix_(w, w)]
                if not any(k):
                    ht.hyperbolic_block = (Gi + Gi.T) / 2
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
