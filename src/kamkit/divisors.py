"""Spectral-hypothesis scans on parameter grids and bad-set excision.

The parameter domain (an open ball in the paper) is approximated by its
bounding box with an inside-ball mask; all measure statements are exact cell
counts times the cell measure, accurate to one cell layer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import symplectic
from .lattice import BlockPartition, box_points


@dataclass
class ParameterGrid:
    """Axis-aligned box, uniformly subdivided, with a surviving-cell mask."""
    bounds: list            # [(lo, hi)] per axis
    resolution: int = 64
    ball: bool = False      # restrict to the inscribed ball
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.resolution <= 0:
            raise ValueError("resolution must be positive, got "
                             f"{self.resolution!r}")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ValueError(f"bounds must have lo < hi, got ({lo}, {hi})")
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
        return bytes(np.packbits(self.mask.ravel().astype(np.uint8)))


@dataclass
class DivisorReport:
    tag: str
    bad_cells: list
    bad_measure: float
    params: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

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
             H: np.ndarray) -> DivisorReport:
    """Spectral asymptotics and separation on every surviving grid cell.

    (a) |L_a| >= delta0; (b) |L_a - |a|^2| <= c <a>^-beta;
    (c) smallest singular values of JH and L_a I - iJH >= delta0, for the
    hyperbolic block H over the finite set ((0, 0) and no check without
    one);
    (d) |L_a + L_b| >= delta0; (e) |L_a - L_b| >= delta0 across classes.

    ``lambda_fn(X, rho)`` takes the sites as the rows of an (m, d) int64
    array and parameter points on rho's last axis, as ``omega_fn`` does,
    and returns L_a on its last axis.  It is called once, on the surviving
    cells' centres; each distinct row of L is judged once, and its verdicts
    count for every cell that has it.
    """
    sites = list(sites)
    labels = np.array([partition.class_of[s] for s in sites])
    X = np.array(sites, dtype=np.int64).reshape(len(sites), partition.d)
    nsq = (X * X).sum(axis=1).astype(float)
    br_pow = np.maximum(np.sqrt(nsq), 1.0) ** (-beta)
    F = len(partition.finite_set)
    JH = symplectic(F) @ H if F > 0 else None

    def c_fails(lam) -> bool:
        L = np.unique(lam)[:, None, None] * np.eye(2 * F) - 1j * JH
        return (np.linalg.svd(JH, compute_uv=False)[-1] < delta0
                or np.linalg.svd(L, compute_uv=False)[:, -1].min() < delta0)

    def fails(lam) -> tuple:
        return tuple(f for f, failed in (
            ("a", np.abs(lam).min() < delta0),
            ("b", np.any(np.abs(lam - nsq) > c_const * br_pow)),
            ("c", JH is not None and c_fails(lam)),
            ("d", _min_abs_sum_pairs(lam) < delta0),
            ("e", _min_cross_class_gap(lam, labels) < delta0)) if failed)

    alive, rows, inv = _lambda_rows(lambda_fn, X, grid)
    verdicts = [fails(lam) for lam in rows]
    per_row = np.bincount(inv, minlength=len(rows)).tolist()
    bad = {ic: verdicts[i] for ic, i in zip(alive, inv.tolist())
           if verdicts[i]}
    return DivisorReport(
        tag="A1", bad_cells=[*bad], bad_measure=len(bad) * grid.cell_measure,
        params={"delta0": delta0, "beta": beta, "c": c_const},
        details={"per_condition_bad_cells": {
                     f: sum(n for v, n in zip(verdicts, per_row) if f in v)
                     for f in "abcde"},
                 "per_cell": bad})


def _lambda_rows(lambda_fn, X, grid: ParameterGrid):
    """(surviving cell indices, distinct rows of L, each cell's row) from
    one ``lambda_fn`` call on the surviving centres.  A map that ignores
    the stack fails the reshape to (cells, sites)."""
    alive = np.flatnonzero(grid.mask.ravel())
    lam = np.asarray(lambda_fn(X, grid.centers()[alive]), dtype=float)
    rows, inv = np.unique(lam.reshape(len(alive), len(X)), axis=0,
                          return_inverse=True)
    return alive.tolist(), rows, inv


def _k_vectors(n: int, K_max: int) -> np.ndarray:
    K = box_points(K_max, n)
    return K[K.any(axis=1)].astype(float)


def melnikov_scan(omega_fn, lambda_fn, partition: BlockPartition,
                  grid: ParameterGrid, C: float, tau: float,
                  K_max: int) -> DivisorReport:
    """Second-order Melnikov margins |k.w - (L_a - L_b)| - C|k|^-tau.

    Class pairs are deduplicated through per-class frequency values; pairs
    of two core-class points are excluded.  Reports the worst margin per
    surviving cell and whether some cell passes everything.  Where no
    difference remains (every class but the finite one is the core), every
    margin is +inf.

    ``omega_fn`` and ``lambda_fn`` are as in ``check_A1``; each is called
    once, on the surviving cells' centres (``lambda_fn`` on the classes'
    first points).  The sorted differences are built once per distinct row
    of L, and only the targets k.omega(rho) are per cell.
    """
    ids = partition.nonfinite
    X = partition.points[partition.ends[ids]]
    alive, rows, inv = _lambda_rows(lambda_fn, X, grid)
    omegas = np.asarray(omega_fn(grid.centers()[alive]), dtype=float)
    K = _k_vectors(omegas.shape[-1], K_max)
    Knorm = np.sqrt((K * K).sum(axis=1))
    thresh = C * Knorm ** (-tau)
    core = ids == partition.core_index
    keep = ~(core[:, None] & core[None, :])
    diffs_of = [np.unique((lam[:, None] - lam[None, :])[keep]) for lam in rows]
    bad, worst = [], []
    for ic, omega, i in zip(alive, omegas, inv.tolist(), strict=True):
        diffs = diffs_of[i]
        targets = K @ omega
        dist = np.full(len(targets), math.inf)
        if len(diffs):
            pos = np.searchsorted(diffs, targets)
            for shift in (-1, 0):
                j = np.clip(pos + shift, 0, len(diffs) - 1)
                dist = np.minimum(dist, np.abs(targets - diffs[j]))
        margin = dist - thresh
        worst.append(float(margin.min()))
        if worst[-1] < 0:
            bad.append(ic)
    return DivisorReport(
        tag="A3", bad_cells=bad, bad_measure=len(bad) * grid.cell_measure,
        params={"C": C, "tau": tau, "K_max": K_max},
        details={"some_cell_passes": len(bad) < len(worst),
                 "worst_margin": min(worst, default=math.inf)})


def excise(grid: ParameterGrid, bad):
    """Remove the cells where ``bad``, one boolean per cell in ``centers()``
    order, holds: the one way a grid loses cells.

    Returns (measure removed from the surviving cells, surviving grid copy).
    """
    out = grid.copy()
    bad = np.asarray(bad, dtype=bool).reshape(out.mask.shape) & out.mask
    out.mask &= ~bad
    return float(bad.sum()) * grid.cell_measure, out
