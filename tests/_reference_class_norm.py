"""Sample-by-sample ``class_norm``, kept only as a test oracle.

This is the loop ``kamkit.hamiltonian.class_norm`` ran before its samples
were batched per angle: one scipy.sparse product per sample and a dense
hessian per angle.  The batched version visits the same sample set, so the
two agree up to summation order.

``dense_hessian_norm`` is ``hamiltonian._hessian_norm`` as it was before
it formed only the site blocks the rows name: a dense (2S)x(2S) hessian
and the weighted norms of all S^2 site blocks.

``per_angle_class_norm``, ``per_angle_hessian_norm`` and
``per_row_decay_norm`` are ``class_norm``, ``_hessian_norm`` and
``algebra.decay_norm`` as they were before the angles were batched: one
angle's samples, one hessian point and one row of block norms per call.
The batched code must equal them bit for bit.
"""
import math

import numpy as np

from kamkit.algebra import (WeightParams, decay_weight, site_weight,
                            spectral_norm_2x2)
from kamkit.hamiltonian import (ClassNormParams, Polynomial, _halving_grid,
                                _live, site_layout)
from kamkit.lattice import norm_sq

from _reference_hamiltonian import _pack, as_dict


def _site_geometry(sites: list):
    """Pairwise pseudo-distances min(|a-b|, |a+b|) and site brackets."""
    X = np.array(sites, dtype=np.int64)
    dm = ((X[:, None] - X[None]) ** 2).sum(axis=2)
    dp = ((X[:, None] + X[None]) ** 2).sum(axis=2)
    br = np.maximum(np.sqrt((X * X).sum(axis=1)), 1.0)
    return np.sqrt(np.minimum(dm, dp)), br


def _weighted_block_norm(B: np.ndarray, pd, br, w: WeightParams) -> float:
    """Row/col weighted sums of 2x2-block spectral norms (vectorized)."""
    bn = np.linalg.svd(B, compute_uv=False)[..., 0]
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
    zvars = as_dict(poly).z_vars()
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


def dense_hessian(Zid, zvars: list, zeta):
    """``_hessian_norm``'s hessian as a function t0 -> its (S, S, 2, 2)
    site blocks, dense: P maps t0 to all (2S)^2 entries in the padded site
    layout."""
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

    def blocks(t0):
        H = (P @ t0).reshape(S2, S2)
        H /= zpad[:, None]
        H /= zpad[None, :]
        return H.reshape(len(sites), 2, len(sites), 2).transpose(0, 2, 1, 3)
    return blocks


def dense_hessian_norm(Zid, zvars: list, zeta, gammas: list):
    """``_hessian_norm``'s function t0 -> norm, on the dense hessian
    (``dense_hessian``): the row and column sums run over the (S, S)
    weighted block norms."""
    X = np.array(sorted({v[0] for v in zvars}), dtype=np.int64)
    block_w = [decay_weight(X[:, None], X[None], gp) for gp in gammas]
    hessian = dense_hessian(Zid, zvars, zeta)

    def norm(t0):
        bn = spectral_norm_2x2(hessian(t0))
        return max(max(wb.sum(axis=1).max(), wb.sum(axis=0).max())
                   for wb in (bn * wt for wt in block_w))
    return norm


def per_angle_class_norm(poly: Polynomial, p: ClassNormParams,
                         w: WeightParams) -> float:
    """Sampled sup of max(|f|, mu*grad-norm, mu^2*hessian-norm).

    The sup runs over a deterministic sample of the analytic domain:
    complex angles with |Im theta| on a halving grid below sigma, actions
    |r| on a halving grid below mu^2, and seeded mode directions scaled to
    weighted norm <= mu, at weights gamma' in {0, gamma/2, gamma}.  The
    halving grids share a fixed floor, so doubling sigma or mu (or refining
    the grids) enlarges the sample set and never decreases the value.

    The sample set is evaluated one angle at a time, as the columns of one
    (terms, samples) array, so memory is bounded by one angle's samples.
    Each column is reduced on its own, never by a matrix product across
    columns, so a sample's value does not depend on its batch.  The hessian
    is taken at each angle's first sample, on the site blocks that the
    rows name only (``per_angle_hessian_norm``).
    """
    if not len(poly):
        return 0.0
    from scipy import sparse as _sparse
    n = poly.n
    rng = np.random.default_rng(p.seed)
    zvars, Zid = _live(poly)      # ids over the variables in use, pads -1
    V = len(zvars)
    C, K, M = poly.C, poly.K, poly.M
    N = len(C)
    rows, cols = np.nonzero(Zid >= 0)
    Z = _sparse.csr_matrix((np.ones(len(rows)), (rows, Zid[rows, cols])),
                           shape=(N, V))          # repeated ids sum to powers
    Zt = Z.T.tocsr()

    # angle samples along a fixed direction; nested under n_theta doubling
    direction = np.array([1.0 + 0.61803398875 * j for j in range(n)])
    imag_levels = [0.0]
    for v in _halving_grid(p.sigma, 0.05):
        imag_levels += [v, -v]
    thetas = [np.zeros(0)] if n == 0 else [
        2 * math.pi * i / p.n_theta * direction + 1j * im * np.ones(n)
        for i in range(p.n_theta) for im in imag_levels]

    # seeded mode directions of weighted norm 1, scaled by the radial grid
    zsites = np.array([v[0] for v in zvars], dtype=np.int64)
    zsites = zsites.reshape(V, -1 if V else 0)
    sw = site_weight(zsites, w)
    dirs = []
    for _ in range(p.n_dirs):
        raw = rng.standard_normal(V) + 1j * rng.standard_normal(V)
        nrm = math.sqrt(float(np.sum(np.abs(raw * sw) ** 2)))
        if nrm > 0:
            dirs.append(raw / nrm)
    radii = _halving_grid(p.mu, 0.02)[:p.radial_levels + 2]
    r_vals = _halving_grid(p.mu ** 2, 4e-4)[:3]

    gammas = [WeightParams(0.0, 0.0, w.kappa, w.m_star),
              WeightParams(w.gamma1 / 2, w.gamma2 / 2, w.kappa, w.m_star),
              w]
    grad_w = np.array([site_weight(zsites, gp)
                       for gp in gammas]).reshape(3, V, 1)

    # per-term factors r^m (terms, actions) and zeta^p (terms, (dir, radius))
    Rf = np.stack([np.exp(M @ np.log(np.full(n, rmag))) for rmag in r_vals],
                  axis=1)
    if V:
        ZV = np.stack([rad * dvec for dvec in dirs for rad in radii], axis=1)
        Zf = np.exp(Z @ np.log(ZV))
        ZVs = np.repeat(ZV, len(r_vals), axis=1)   # zeta of each sample
    else:
        Zf = np.ones((N, 1))

    has_quad = Zid.shape[1] >= 2
    if has_quad:
        hessian_norm = per_angle_hessian_norm(Zid, zvars, ZV[:, 0], gammas)

    def sample_norm(phase):
        # column (d, a) of T is phase * r^m * zeta^p at direction-radius
        # pair d and action a, in the loop order (direction, radius, action)
        T = ((phase[:, None] * Rf)[:, None, :] * Zf[:, :, None]).reshape(N, -1)
        val = np.abs(T.sum(axis=0)).max()
        if V:
            ag2 = np.abs((Zt @ T) / ZVs) ** 2
            val = max(val, p.mu * np.sqrt((ag2 * grad_w * grad_w)
                                          .sum(axis=1)).max())
        return val

    # one angle's samples at a time: T and H are freed before the next
    best = 0.0
    for th in thetas:
        phase = np.exp(1j * (K @ th)) * C
        best = max(best, sample_norm(phase))
        if has_quad:         # at the angle's first sample, column 0 of T
            best = max(best, p.mu ** 2
                       * hessian_norm(phase * Rf[:, 0] * Zf[:, 0]))
    return float(best)


def per_angle_hessian_norm(Zid, zvars: list, zeta, gammas: list):
    """The hessian norm of ``class_norm`` at one point, as a function of
    the rows' values t0 there: the max over the weights ``gammas`` of the
    largest row or column sum of the decay-weighted spectral norms of the
    hessian's 2x2 site blocks, over the (xi, eta) pairs of the sites of
    ``zvars``.  Zid holds the rows' ids into ``zvars`` (pads -1, as
    ``_live`` gives them) and ``zeta`` the point, one value per variable.

    The hessian of z^p is z^p (p_a p_b - [a == b] p_a) / (z_a z_b): a sum
    over the ordered pairs of distinct slots of the row's ids.  So a row
    names the site blocks of those pairs, and only the named blocks are
    formed: the sparse P maps t0 to their entries, P's rows indexing (named
    block, 2x2 entry), and ``algebra.decay_norm`` takes the row and column
    sums over the blocks' sites.  No (sites x sites) array is formed."""
    from scipy import sparse as _sparse
    sites = sorted({v[0] for v in zvars})
    S = len(sites)
    at = {s: i for i, s in enumerate(sites)}
    slot = np.array([2 * at[s] + c for s, c in zvars], dtype=np.int64)
    i, j = np.nonzero(~np.eye(Zid.shape[1], dtype=bool))
    Pa, Pb = Zid[:, i], Zid[:, j]
    t, q = np.nonzero((Pa >= 0) & (Pb >= 0))
    a, b = slot[Pa[t, q]], slot[Pb[t, q]]
    blocks, blk = np.unique(a // 2 * S + b // 2, return_inverse=True)
    entry = 4 * blk + 2 * (a % 2) + b % 2
    P = _sparse.csc_matrix((np.ones(len(t)), (entry, t)),
                           shape=(4 * len(blocks), len(Zid)))  # pairs sum
    sa, sb = np.divmod(blocks, S)
    zpad = np.ones(2 * S, dtype=complex)        # 1 at absent components
    zpad[slot] = zeta
    e = np.arange(2)
    za = zpad[2 * sa[:, None, None] + e[:, None]]
    zb = zpad[2 * sb[:, None, None] + e]
    block_norm = per_row_decay_norm(np.array(sites, dtype=np.int64), sa, sb, gammas)

    def norm(t0):
        H = (P @ t0).reshape(len(blocks), 2, 2)
        H /= za
        H /= zb
        return block_norm(spectral_norm_2x2(H))
    return norm


def per_row_decay_norm(X, rows, cols, ws: list):
    """The decay norm on one pattern, blocks at (rows[i], cols[i]) over the
    sites X, as a function of the block norms bn: the max over ``ws`` of the
    largest row or column sum of bn * decay_weight, weights computed once."""
    weights = [decay_weight(X[rows], X[cols], w) for w in ws]

    def norm(bn):
        return max(max(np.bincount(rows, v, len(X)).max(),
                       np.bincount(cols, v, len(X)).max())
                   for v in (bn * wt for wt in weights))
    return norm
