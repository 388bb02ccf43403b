"""Spectral-hypothesis scans on parameter grids, bad-set excision, and the
two measure lemmas used for hyperbolic divisor control.

The parameter domain (an open ball in the paper) is approximated by its
bounding box with an inside-ball mask; all measure statements are exact cell
counts times the cell measure, accurate to one cell layer.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import symplectic
from .lattice import BlockPartition, norm_sq


@dataclass
class ParameterGrid:
    """Axis-aligned box, uniformly subdivided, with a surviving-cell mask."""
    bounds: list            # [(lo, hi)] per axis
    resolution: int = 64
    ball: bool = False      # restrict to the inscribed ball
    mask: np.ndarray | None = None

    def __post_init__(self):
        shape = (self.resolution,) * len(self.bounds)
        if self.mask is None:
            self.mask = np.ones(shape, dtype=bool)
            if self.ball:
                c = self.centers()
                mid = np.array([(lo + hi) / 2 for lo, hi in self.bounds])
                rad = min((hi - lo) / 2 for lo, hi in self.bounds)
                inside = ((c - mid) ** 2).sum(axis=1) <= rad * rad
                self.mask = inside.reshape(shape)

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def cell_measure(self) -> float:
        return math.prod((hi - lo) / self.resolution
                         for lo, hi in self.bounds)

    def axis_centers(self, i: int) -> np.ndarray:
        lo, hi = self.bounds[i]
        step = (hi - lo) / self.resolution
        return lo + step * (np.arange(self.resolution) + 0.5)

    def centers(self) -> np.ndarray:
        """Cell centers, shape (#cells, dim), row-major cell order."""
        axes = [self.axis_centers(i) for i in range(self.dim)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def measure(self) -> float:
        return float(self.mask.sum()) * self.cell_measure

    def copy(self) -> "ParameterGrid":
        return ParameterGrid(bounds=list(self.bounds),
                             resolution=self.resolution, ball=self.ball,
                             mask=self.mask.copy())

    def mask_bits(self) -> bytes:
        """Row-major bitmap of surviving cells (for external plotting)."""
        return np.packbits(self.mask.ravel().astype(np.uint8)).tobytes()


@dataclass
class DivisorReport:
    tag: str
    bad_cells: list
    bad_measure: float
    params: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.bad_cells

    def dump_lines(self) -> list[str]:
        lines = [f"tag={self.tag} bad_measure={self.bad_measure:.6g} "
                 f"bad_cells={len(self.bad_cells)} "
                 + " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))]
        for key, val in sorted(self.details.items()):
            lines.append(f"  {key}: {val}")
        return lines


def _min_abs_sum_pairs(vals: np.ndarray) -> float:
    """min over ordered pairs (a, b), a != b, of |v_a + v_b|.

    In one array pass: each value is summed with the three neighbours
    p - 1, p, p + 1 of its negative's place p in the sorted values, less
    its own slot (the a == b coincidence)."""
    n = len(vals)
    order = np.argsort(vals)
    s = vals[order]
    own = np.empty(n, dtype=np.int64)
    own[order] = np.arange(n)
    j = np.searchsorted(s, -vals)[:, None] + np.arange(-1, 2)
    ok = (j >= 0) & (j < n) & (j != own[:, None])
    if not ok.any():
        return math.inf
    return float(np.abs(s[np.clip(j, 0, n - 1)] + vals[:, None])[ok].min())


def _min_cross_class_gap(vals: np.ndarray, labels: np.ndarray) -> float:
    order = np.argsort(vals)
    v, lab = vals[order], labels[order]
    dv = np.diff(v)
    diff_class = lab[1:] != lab[:-1]
    if not diff_class.any():
        return math.inf
    return float(np.abs(dv[diff_class]).min())


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


def _k_vectors(n: int, K_max: int) -> np.ndarray:
    ks = [k for k in itertools.product(range(-K_max, K_max + 1), repeat=n)
          if any(k)]
    return np.array(ks, dtype=float)


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


def excise(divisor_family, grid: ParameterGrid, eps: float):
    """Remove cells where any family member has magnitude < eps.

    Returns (bad_measure, surviving grid copy).
    """
    out = grid.copy()
    if eps <= 0 or not divisor_family:
        return 0.0, out
    centers = grid.centers()
    alive = out.mask.ravel()
    bad = np.zeros(len(centers), dtype=bool)
    for fn in divisor_family:
        vals = np.array([fn(rho) for rho in centers])
        bad |= np.abs(vals) < eps
    bad &= alive
    flat = out.mask.ravel()
    flat[bad] = False
    out.mask = flat.reshape(out.mask.shape)
    return float(bad.sum()) * grid.cell_measure, out


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
