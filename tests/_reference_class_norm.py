"""Sample-by-sample ``class_norm``, kept only as a test oracle.

This is the loop ``kamkit.hamiltonian.class_norm`` ran before its samples
were batched per angle: one scipy.sparse product per sample and a dense
hessian per angle.  The batched version visits the same sample set, so the
two agree up to summation order.

``dense_hessian_norm`` is ``hamiltonian._hessian_norm`` as it was before
it formed only the site blocks the rows name: a dense (2S)x(2S) hessian
and the weighted norms of all S^2 site blocks.
"""
import math

import numpy as np

from kamkit.algebra import WeightParams, decay_weight, spectral_norm_2x2
from kamkit.hamiltonian import (ClassNormParams, Polynomial, _halving_grid,
                                site_layout)
from kamkit.lattice import norm_sq

from _reference_hamiltonian import _pack


def _site_geometry(sites: list):
    """Pairwise pseudo-distances min(|a-b|, |a+b|) and site brackets."""
    X = np.array(sites, dtype=np.int64)
    dm = ((X[:, None] - X[None]) ** 2).sum(axis=2)
    dp = ((X[:, None] + X[None]) ** 2).sum(axis=2)
    br = np.maximum(np.sqrt((X * X).sum(axis=1)), 1.0)
    return np.sqrt(np.minimum(dm, dp)), br


def _weighted_block_norm(B: np.ndarray, pd, br, w: WeightParams) -> float:
    """Row/col weighted sums of 2x2-block spectral norms (vectorized)."""
    G = np.einsum("abki,abkj->abij", B.conj(), B)
    t = (G[..., 0, 0] + G[..., 1, 1]).real
    det = (G[..., 0, 0] * G[..., 1, 1] - G[..., 0, 1] * G[..., 1, 0]).real
    disc = np.clip(t * t - 4 * det, 0.0, None)
    bn = np.sqrt(np.clip((t + np.sqrt(disc)) / 2, 0.0, None))
    wt = (np.exp(w.gamma1 * pd) * np.maximum(pd, 1.0) ** w.gamma2
          * np.minimum(br[:, None], br[None, :]) ** w.kappa)
    wb = bn * wt
    if wb.size == 0:
        return 0.0
    return max(wb.sum(axis=1).max(), wb.sum(axis=0).max())


def reference_class_norm(poly: Polynomial, p: ClassNormParams,
                         w: WeightParams) -> float:
    if not poly.terms:
        return 0.0
    from scipy import sparse as _sparse
    n = poly.n
    rng = np.random.default_rng(p.seed)
    zvars = poly.z_vars()
    V = len(zvars)
    C, K, M, Zid = _pack(poly, {v: i for i, v in enumerate(zvars)})
    rows, cols = np.nonzero(Zid >= 0)
    Z = _sparse.csr_matrix((np.ones(len(rows)), (rows, Zid[rows, cols])),
                           shape=(len(C), V))     # repeated ids sum to powers
    has_quad = Zid.shape[1] >= 2

    # angle samples along a fixed direction; nested under n_theta doubling
    direction = np.array([1.0 + 0.61803398875 * j for j in range(n)])
    imag_levels = [0.0]
    for v in _halving_grid(p.sigma, 0.05):
        imag_levels += [v, -v]
    thetas = [np.zeros(0)] if n == 0 else [
        2 * math.pi * i / p.n_theta * direction + 1j * im * np.ones(n)
        for i in range(p.n_theta) for im in imag_levels]

    # seeded mode directions of weighted norm 1, scaled by the radial grid
    site_norm = np.array([math.sqrt(norm_sq(v[0])) for v in zvars])
    site_br = np.maximum(site_norm, 1.0)
    dirs = []
    for _ in range(p.n_dirs):
        raw = rng.standard_normal(V) + 1j * rng.standard_normal(V)
        sw = site_br ** w.gamma2 * np.exp(w.gamma1 * site_norm)
        nrm = math.sqrt(float(np.sum(np.abs(raw * sw) ** 2)))
        if nrm > 0:
            dirs.append(raw / nrm)
    radii = _halving_grid(p.mu, 0.02)[:max(p.radial_levels, 1) + 2]
    r_vals = _halving_grid(p.mu ** 2, 4e-4)[:3]

    gammas = [WeightParams(0.0, 0.0, w.kappa, w.m_star),
              WeightParams(w.gamma1 / 2, w.gamma2 / 2, w.kappa, w.m_star),
              w]
    grad_w = [site_br ** gp.gamma2 * np.exp(gp.gamma1 * site_norm)
              for gp in gammas]

    # padded site/block layout for vectorized hessian norms
    sites = sorted({v[0] for v in zvars})
    si = {s: i for i, s in enumerate(sites)}
    pad = np.array([2 * si[v[0]] + v[1] for v in zvars], dtype=int)
    pd, br = _site_geometry(sites) if sites else (np.zeros((0, 0)),
                                                  np.zeros(0))
    best = 0.0
    for th in thetas:
        phase = np.exp(1j * (K @ th)) * C
        first = True
        for dvec in (dirs or [np.zeros(0)]):
            for rad in radii:
                zv = rad * dvec
                logz = np.log(zv) if V else None
                zfac = np.exp(Z @ logz) if V else 1.0
                for rmag in r_vals:
                    rfac = np.exp(M @ np.log(np.full(n, rmag))) if n else 1.0
                    tv = phase * rfac * zfac
                    best = max(best, abs(tv.sum()))
                    if V:
                        grad = np.asarray(Z.T @ tv).ravel() / zv
                        ag2 = np.abs(grad) ** 2
                        for gw in grad_w:
                            best = max(best, p.mu
                                       * math.sqrt(float((ag2 * gw * gw).sum())))
                    if has_quad and first:
                        first = False
                        D = _sparse.diags(tv)
                        H = np.asarray((Z.T @ D @ Z).todense(), dtype=complex)
                        H[np.diag_indices(V)] -= np.asarray(Z.T @ tv).ravel()
                        H = H / zv[:, None] / zv[None, :]
                        Hp = np.zeros((2 * len(sites), 2 * len(sites)),
                                      dtype=complex)
                        Hp[np.ix_(pad, pad)] = H
                        B = Hp.reshape(len(sites), 2, len(sites), 2) \
                            .transpose(0, 2, 1, 3)
                        for gp in gammas:
                            best = max(best, p.mu ** 2
                                       * _weighted_block_norm(B, pd, br, gp))
    return best


def dense_hessian_norm(Zid, zvars: list, zeta, gammas: list):
    """``_hessian_norm``'s function t0 -> norm, on the dense hessian: P
    maps t0 to all (2S)^2 entries in the padded site layout, and the row
    and column sums run over the (S, S) weighted block norms."""
    from scipy import sparse as _sparse
    sites = sorted({v[0] for v in zvars})
    S2 = 2 * len(sites)
    var_id = site_layout(sites)
    pad = np.array([var_id[v] for v in zvars], dtype=np.int64)
    slot = np.where(Zid >= 0, pad[Zid], -1)
    i, j = np.nonzero(~np.eye(Zid.shape[1], dtype=bool))
    Pa, Pb = slot[:, i], slot[:, j]
    t, q = np.nonzero((Pa >= 0) & (Pb >= 0))
    P = _sparse.csc_matrix((np.ones(len(t)), (Pa[t, q] * S2 + Pb[t, q], t)),
                           shape=(S2 * S2, len(Zid)))     # repeated pairs sum
    zpad = np.ones(S2, dtype=complex)
    zpad[pad] = zeta
    X = np.array(sites, dtype=np.int64)
    block_w = [decay_weight(X[:, None], X[None], gp) for gp in gammas]

    def norm(t0):
        H = (P @ t0).reshape(S2, S2)
        H /= zpad[:, None]
        H /= zpad[None, :]
        bn = spectral_norm_2x2(H.reshape(len(sites), 2, len(sites), 2)
                               .transpose(0, 2, 1, 3))
        return max(max(wb.sum(axis=1).max(), wb.sum(axis=0).max())
                   for wb in (bn * wt for wt in block_w))
    return norm
