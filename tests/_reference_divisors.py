"""The per-site scans that ``kamkit.divisors`` replaced, kept as oracles.

``check_A1`` and ``melnikov_scan`` are the versions that called
``lambda_fn(site, rho)`` once per site and cell, and took one SVD per
distinct eigenvalue in condition (c).  ``beam_lambda`` and ``nls_lambda``
are the scalar closed forms of the beam's and the NLS model's Lambda_a that
went with them.  The array scans and the array Lambda_a must agree with
these exactly.

``lemma_hermitian`` and ``lemma_cj``, the two measure lemmas of hyperbolic
divisor control checked by sampling, moved here from the package
unchanged.  Not used by the package.
"""
from __future__ import annotations

import math

import numpy as np

from kamkit.algebra import symplectic
from kamkit.divisors import (DivisorReport, ParameterGrid,
                             _k_vectors, _min_abs_sum_pairs,
                             _min_cross_class_gap)
from kamkit.lattice import BlockPartition, norm_sq
from kamkit.models import BeamModel


def beam_mu(model: BeamModel, a, rho=None) -> float:
    rho = model.rho if rho is None else rho
    if a in model.nodes:
        return norm_sq(a) ** 2 + rho[model.nodes.index(a)]
    return norm_sq(a) ** 2 + model.tail.get(norm_sq(a), 0.0)


def beam_lambda(model: BeamModel):
    """The beam's scalar ``lambda_fn(site, rho)``."""
    def lambda_fn(site, rho):
        return math.sqrt(abs(beam_mu(model, site, rho=tuple(rho))))
    return lambda_fn


def nls_lambda(mass: float):
    """The NLS model's scalar ``lambda_fn(site, rho)``."""
    return lambda site, rho: norm_sq(site) + mass


def check_A1(sites, lambda_fn, partition: BlockPartition, grid: ParameterGrid,
             delta0: float, beta: float, c_const: float,
             H_fn=None) -> DivisorReport:
    """Spectral asymptotics and separation on every surviving grid cell.

    (a) |L_a| >= delta0; (b) |L_a - |a|^2| <= c <a>^-beta;
    (c) smallest singular values of JH and L_a I - iJH >= delta0;
    (d) |L_a + L_b| >= delta0; (e) |L_a - L_b| >= delta0 across classes.
    """
    sites = list(sites)
    labels = np.array([partition.class_of[s] for s in sites])
    nsq = np.array([norm_sq(s) for s in sites], dtype=float)
    br_pow = np.maximum(np.sqrt(nsq), 1.0) ** (-beta)
    bad = {}
    details = {"a": 0, "b": 0, "c": 0, "d": 0, "e": 0}
    centers = grid.centers()
    alive = grid.mask.ravel()
    F = len(partition.finite_set)
    J = symplectic(F)
    for ic, rho in enumerate(centers):
        if not alive[ic]:
            continue
        lam = np.array([lambda_fn(s, rho) for s in sites])
        fails = []
        if np.abs(lam).min() < delta0:
            fails.append("a")
        if np.any(np.abs(lam - nsq) > c_const * br_pow):
            fails.append("b")
        if H_fn is not None and F > 0:
            H = np.asarray(H_fn(rho), dtype=float)
            JH = J @ H
            if np.linalg.svd(JH, compute_uv=False)[-1] < delta0:
                fails.append("c")
            else:
                for la in np.unique(lam):
                    L = la * np.eye(2 * F) - 1j * JH
                    if np.linalg.svd(L, compute_uv=False)[-1] < delta0:
                        fails.append("c")
                        break
        if _min_abs_sum_pairs(lam) < delta0:
            fails.append("d")
        if _min_cross_class_gap(lam, labels) < delta0:
            fails.append("e")
        for f in fails:
            details[f] += 1
        if fails:
            bad[ic] = fails
    return DivisorReport(
        tag="A1", bad_cells=sorted(bad), bad_measure=len(bad)
        * grid.cell_measure,
        params={"delta0": delta0, "beta": beta, "c": c_const},
        details={"per_condition_bad_cells": details,
                 "per_cell": {k: tuple(v) for k, v in sorted(bad.items())}})


def melnikov_scan(omega_fn, lambda_fn, partition: BlockPartition,
                  grid: ParameterGrid, C: float, tau: float,
                  K_max: int) -> DivisorReport:
    """Second-order Melnikov margins |k.w - (L_a - L_b)| - C|k|^-tau.

    Class pairs are deduplicated through per-class frequency values; pairs
    of two core-class points are excluded.  Reports the worst margin per
    surviving cell and whether some cell passes everything.
    """
    probe = np.asarray(omega_fn(grid.centers()[0]), dtype=float)
    K = _k_vectors(len(probe), K_max)
    Knorm = np.sqrt((K * K).sum(axis=1))
    thresh = C * Knorm ** (-tau)
    reps = []
    for ci, cl in enumerate(partition.classes):
        if ci == partition.finite_index:
            continue
        reps.append((ci, cl[0]))
    bad = {}
    worst = {}
    centers = grid.centers()
    alive = grid.mask.ravel()
    for ic, rho in enumerate(centers):
        if not alive[ic]:
            continue
        omega = np.asarray(omega_fn(rho), dtype=float)
        lam = np.array([lambda_fn(s, rho) for (ci, s) in reps])
        core = np.array([ci == partition.core_index for (ci, s) in reps])
        dl = lam[:, None] - lam[None, :]
        keep = ~(core[:, None] & core[None, :])
        diffs = np.unique(dl[keep])
        targets = K @ omega
        pos = np.searchsorted(diffs, targets)
        dist = np.full(len(targets), math.inf)
        for shift in (-1, 0):
            j = np.clip(pos + shift, 0, len(diffs) - 1)
            dist = np.minimum(dist, np.abs(targets - diffs[j]))
        margin = dist - thresh
        w = float(margin.min())
        worst[ic] = w
        if w < 0:
            bad[ic] = w
    some_pass = any(ic not in bad for ic in worst)
    return DivisorReport(
        tag="A3", bad_cells=sorted(bad), bad_measure=len(bad)
        * grid.cell_measure,
        params={"C": C, "tau": tau, "K_max": K_max},
        details={"some_cell_passes": some_pass,
                 "worst_margin": min(worst.values(), default=math.inf)})


def lemma_hermitian(A_path, B_path, eps: float, N: int, samples: int = 4096,
                    interval=(0.0, 1.0)):
    """Measured size of {t : smallest singular value of A(t)+B(t) < eps}.

    A(t) is diagonal with derivatives >= 1, B(t) Hermitian with derivative
    norm <= 1/2 (checked by finite differences, reported not asserted).
    Returns (bad_measure, hypothesis_report).
    """
    ts = np.linspace(interval[0], interval[1], samples)
    dt = ts[1] - ts[0]
    bad = 0
    for t in ts:
        M = np.diag(np.asarray(A_path(t), dtype=complex)) \
            + np.asarray(B_path(t), dtype=complex)
        if np.linalg.svd(M, compute_uv=False)[-1] < eps:
            bad += 1
    # hypothesis spot checks
    h = dt / 4
    mid = (interval[0] + interval[1]) / 2
    dA = (np.asarray(A_path(mid + h)) - np.asarray(A_path(mid - h))) / (2 * h)
    dB = (np.asarray(B_path(mid + h), dtype=complex)
          - np.asarray(B_path(mid - h), dtype=complex)) / (2 * h)
    report = {
        "diag_derivative_min": float(np.min(dA.real)),
        "diag_derivative_ok": bool(np.min(dA.real) >= 1.0 - 1e-6),
        "B_derivative_norm": float(np.linalg.norm(dB, 2)),
        "B_derivative_ok": bool(np.linalg.norm(dB, 2) <= 0.5 + 1e-6),
        "N": N, "eps": eps,
    }
    measure = bad / samples * (interval[1] - interval[0])
    return measure, report


def lemma_cj(f, j: int, delta: float, eps: float, samples: int = 8192,
             interval=(-1.0, 1.0)):
    """Measured size of {x : |f(x)| < eps} with a j-th derivative floor.

    The floor |f^(j)| >= delta is checked by central finite differences on a
    coarse subsample; returns (bad_measure, hypothesis_report).
    """
    xs = np.linspace(interval[0], interval[1], samples)
    vals = np.array([f(x) for x in xs])
    bad = int((np.abs(vals) < eps).sum())
    measure = bad / samples * (interval[1] - interval[0])
    # j-th derivative by iterated differences on a coarse grid
    coarse = np.linspace(interval[0], interval[1], 65)
    fv = np.array([f(x) for x in coarse])
    dx = coarse[1] - coarse[0]
    for _ in range(j):
        fv = np.diff(fv) / dx
    report = {
        "deriv_min": float(np.abs(fv).min()) if len(fv) else 0.0,
        "deriv_ok": bool(len(fv) and np.abs(fv).min() >= delta * (1 - 1e-6)),
        "j": j, "delta": delta, "eps": eps,
        "closed_form_bound": 2 * (eps / delta) ** (1.0 / j),
    }
    return measure, report
