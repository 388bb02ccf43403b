"""Two-level iteration driver: blocks of inner steps at a fixed resonance
partition and frozen divisors, separated by super steps that fold the
accumulated normal-form correction (the last step's h_tilde, a
``NormalFormHamiltonian``) into h block by block, coarsen the partition and
shrink the analyticity domain.  Each parameter of the iteration lives in one
place: Delta in the partition of the current normal form (the first is the
model's), gamma in the state's ``WeightParams``, the domain (sigma, mu) in
its ``ClassNormParams`` and a block's divisors in its ``DivisorGuard``.

A block runs at most K = ceil(log 1/eps) inner steps.  It ends early when
eps reaches the target, or when a step leaves eps above ``STALL_RATIO``
(one half) times its value before that step: past that point the step no
longer contracts, whether at the roundoff floor or because skipped terms
wait for a coarser partition, and only the next super step can help.  Each
block's reason, ``target``, ``stalled`` or ``count``, is kept in the
metrics and the report.  Deliberate aborts raise ``StageAbort``, which
names the stage; ``run`` reports those and lets any other error through.

The method's choices are module constants, fixed for every run: the
partition growth ``DELTA_THETA``, the decays ``GAMMA_DECAY`` and
``DOMAIN_DECAY``, the prune cuts ``REL_PRUNE`` and ``REL_PRUNE_REST``
(floored at the Picard cut ``homological.PRUNE_TOL``), ``STALL_RATIO`` and
the spectrum's ``UNSTABLE_FACTOR``.  A ``Schedule`` holds only what a run
varies.  No constant caps the degree: the Lie series keeps that of its
input, so f keeps the model's ``max_degree``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import I2, J2, WeightParams, symplectic
from .divisors import ParameterGrid, excise
from .hamiltonian import (ClassNormParams, NormalFormHamiltonian, Polynomial,
                          StageAbort, class_norm, lie_transform)
from .homological import (PRUNE_TOL, ClassTable, DivisorGuard,
                          class_tables, solve_homological)
from .lattice import BlockPartition, build_partition

# a block ends once a step leaves eps above this fraction of its old value
STALL_RATIO = 0.5
# Delta_{k+1} = ceil(Delta_k ** DELTA_THETA); at least 1, since the fold
# assumes that the partition only coarsens
DELTA_THETA = 2.0
GAMMA_DECAY = 0.9       # gamma_{k+1} = GAMMA_DECAY * gamma_k
DOMAIN_DECAY = 0.5      # approach to the sigma/2, mu/2 endpoint
REL_PRUNE = 1e-10       # cutoff relative to the f scale
# looser cutoff for non-jet terms, relative to the f scale; the Lie series
# also screens its brackets' non-jet pairs at it
REL_PRUNE_REST = 1e-6
UNSTABLE_FACTOR = 10    # unstable: real part above this times the roundoff


@dataclass
class Schedule:
    """What a run varies: the eps target and the budgets of super steps
    and of inner steps per block (the cap on K_k)."""
    eps_target: float = 1e-12
    max_super: int = 6
    max_inner: int = 25

    def __post_init__(self):
        for name in ("max_super", "max_inner"):
            if (v := getattr(self, name)) < 1:
                raise ValueError(f"{name} must be at least 1, got {v!r}")
        if not self.eps_target >= 0:
            raise ValueError("eps_target must be nonnegative, got "
                             f"{self.eps_target!r}")


@dataclass
class IterationState:
    """What the iteration changes: Delta is that of ``h.partition``;
    ``weights.gamma1`` decays and the domain (``norm``'s sigma and mu)
    shrinks toward ``sigma_end`` and ``mu_end`` at each super step.
    ``h_acc`` is the last step's h_tilde, None before a block's first."""
    h: NormalFormHamiltonian
    f: Polynomial
    weights: WeightParams
    norm: ClassNormParams
    step: int = 0
    eps: float = math.inf                 # inf until the first norm
    K: int = 0
    h_acc: NormalFormHamiltonian | None = None
    grid: ParameterGrid | None = None
    sigma_end: float = 0.0
    mu_end: float = 0.0
    transform_log: list = field(default_factory=list)
    guard: DivisorGuard = field(default_factory=DivisorGuard)
    metrics: list = field(default_factory=list)


def jet_norm(state: IterationState) -> float:
    return class_norm(state.f.jet(), state.norm, state.weights)


def _measure(state: IterationState, schedule: Schedule) -> IterationState:
    """Set eps, the jet norm, and K, the block's inner-step budget."""
    state.eps = jet_norm(state)
    state.K = inner_count(state.eps, schedule)
    return state


def _new_state(h, f, weights, norm, grid, guard_delta0) -> IterationState:
    return IterationState(h, f, weights, norm, grid=grid,
                          sigma_end=norm.sigma / 2, mu_end=norm.mu / 2,
                          guard=DivisorGuard(guard_delta0))


def initial_state(h: NormalFormHamiltonian, f: Polynomial,
                  schedule: Schedule, weights: WeightParams,
                  norm: ClassNormParams = ClassNormParams(),
                  grid: ParameterGrid | None = None,
                  guard_delta0: float = 1e-8) -> IterationState:
    return _measure(_new_state(h, f, weights, norm, grid, guard_delta0),
                    schedule)


def inner_count(eps: float, schedule: Schedule) -> int:
    if eps <= 0:
        return 1
    return max(1, min(schedule.max_inner, math.ceil(math.log(1.0 / eps))))


def _excise_failures(state: IterationState):
    """Shrink the surviving grid around the step's failed divisor checks.

    Each failed check (``guard.failures``) gives its logged divisor nearest
    zero, extended off the reference parameter to first order through the
    model frequency map: d* + k.(omega(rho) - omega*) at each cell centre,
    excised where its modulus is below delta0.  The shift moves the real
    part, k.omega (-+ lam_i), of a signed divisor, so the band is cut on
    its own side; a finite-class divisor keeps its imaginary part i nu
    (``homological.class_tables``)."""
    guard = state.guard
    if state.grid is None or not guard.failures or state.h.omega_fn is None:
        return
    centres = state.grid.centers()
    omegas = np.asarray(state.h.omega_fn(np.vstack([state.h.rho_star,
                                                    centres])), dtype=float)
    shift = omegas[1:] - omegas[0]
    bad = np.zeros(len(centres), dtype=bool)
    for k, classes, channel, _ in guard.failures:
        d = guard.log[k, classes, channel]
        val = d[np.abs(d).argmin()]
        # one dot product per cell: a stacked product (shift @ k) can
        # round k.(omega - omega*) differently in the last bit
        kv = np.array(k, dtype=float)
        bad |= np.abs([val + kv @ s for s in shift]) < guard.delta0
    _, state.grid = excise(state.grid, bad)
    if state.grid.measure() == 0.0:
        raise StageAbort("excision", None,
                         "empty surviving grid after divisor excision")


def inner_step(state: IterationState, tables: ClassTable,
               h_poly: Polynomial) -> IterationState:
    """One homological solve and jet transform at frozen normal form and
    divisors: ``state.guard`` checks them and freezes them for the block.

    ``tables`` and ``h_poly`` are h's class table (``class_tables``) and
    polynomial; they depend on h alone, which a block holds fixed.
    """
    h = state.h
    F = (state.f if state.h_acc is None
         else state.h_acc.to_polynomial() + state.f)
    sol = solve_homological(h, F, state.guard, gamma1=state.weights.gamma1,
                            tables=tables)
    state.guard.freeze()
    _excise_failures(state)
    ht_poly = sol.h_tilde.to_polynomial()
    scale = F.max_coeff()
    cut = max(PRUNE_TOL, REL_PRUNE * scale)
    cut_rest = max(cut, REL_PRUNE_REST * scale)
    G = lie_transform(h_poly + F, sol.S, finite_set=h.finite_set, tol=cut,
                      rest_tol=cut_rest)
    f_next = G - h_poly - ht_poly
    f_next.prune(cut, cut_rest)
    state.f = f_next
    state.h_acc = sol.h_tilde
    state.transform_log.append(sol.S)
    state.step += 1
    state.eps = jet_norm(state)
    state.metrics.append({
        "step": state.step, "eps": state.eps, "K": state.K,
        "delta": h.partition.delta, "gamma": state.weights.gamma1,
        "sigma": state.norm.sigma, "mu": state.norm.mu,
        "skipped": len(sol.skipped_report),
        "guard_failures": len(state.guard.failures),
        "measure": state.grid.measure() if state.grid else None,
    })
    return state


def _fold_h_acc(h: NormalFormHamiltonian, h_acc: NormalFormHamiltonian,
                p_new: BlockPartition) -> NormalFormHamiltonian:
    """Fold the correction h_acc, a normal form on h's partition, into h on
    ``p_new``, which is h's partition or a coarser one over the same sites.

    The blocks add: omega, const and the hyperbolic blocks directly, and the
    Q of each of h's classes into one dense (sites x sites) array, from
    which each class of ``p_new`` gathers its Q."""
    p = h.partition
    at = {s: i for i, s in enumerate(p.sites())}      # p.points' order
    Q_all = np.zeros((len(at),) * 2, dtype=complex)
    ends = p.ends.tolist()
    for ci in p.nonfinite.tolist():
        s, e = ends[ci], ends[ci + 1]
        Q_all[s:e, s:e] = h.class_Q(ci) + h_acc.class_Q(ci)
    h_new = NormalFormHamiltonian(
        omega=h.omega + h_acc.omega.real, partition=p_new,
        const=float((h.const + h_acc.const).real),
        rho_star=h.rho_star, omega_fn=h.omega_fn, lambda_fn=h.lambda_fn)
    for ci in p_new.nonfinite.tolist():
        ix = [at[s] for s in p_new.classes[ci]]
        try:                # the Hermitian check is the normal-form gate
            h_new.set_block(ci, Q_all[np.ix_(ix, ix)])
        except ValueError as exc:
            raise StageAbort("fold", ci, str(exc)) from exc
    h_new.hyperbolic_block = h.hyperbolic_block + h_acc.hyperbolic_block
    return h_new


def super_step(state: IterationState, schedule: Schedule) -> IterationState:
    """Fold corrections, coarsen the partition, shrink the domain."""
    p = state.h.partition
    delta = (p.delta if math.isinf(p.delta)
             else math.ceil(p.delta ** DELTA_THETA))
    p_new = build_partition(delta, p.radius, p.d, finite_set=p.finite_set,
                            core_cutoff=p.core_cutoff, exclude=p.exclude)
    state.h = _fold_h_acc(state.h, state.h_acc, p_new)
    state.h_acc = None
    state.guard = DivisorGuard(state.guard.delta0)
    w, nrm, decay = state.weights, state.norm, DOMAIN_DECAY
    state.weights = replace(w, gamma1=w.gamma1 * GAMMA_DECAY)
    state.norm = replace(
        nrm, sigma=state.sigma_end + (nrm.sigma - state.sigma_end) * decay,
        mu=state.mu_end + (nrm.mu - state.mu_end) * decay)
    return _measure(state, schedule)


@dataclass
class RunReport:
    state: IterationState
    omega_final: np.ndarray
    omega_drift: float
    unstable_count: int
    a_inf_max_real: float
    eps_history: list                 # eps at each super-step boundary
    block_stops: list                 # per block: target, stalled or count
    reached_target: bool
    aborted: StageAbort | None = None

    def dump_lines(self) -> list[str]:
        lines = [
            f"reached_target={self.reached_target} "
            f"eps_final={self.state.eps:.6g}",
            f"omega_drift={self.omega_drift:.6g}",
            f"unstable_count={self.unstable_count} "
            f"a_inf_max_real={self.a_inf_max_real:.3e}",
            "eps_history=" + " ".join(f"{e:.6g}" for e in self.eps_history),
            "stops=" + " ".join(self.block_stops),
        ]
        if self.aborted is not None:
            lines.append(f"aborted={self.aborted}")
        return lines


def _spectrum_report(h: NormalFormHamiltonian):
    """Eigenvalue classification of the final quadratic part."""
    Hf = h.hyperbolic_block
    ev = np.linalg.eigvals(symplectic(len(Hf) // 2) @ Hf)
    tol = 1e-10 * max(1.0, np.abs(ev).max(initial=0.0))
    unstable = int((ev.real > UNSTABLE_FACTOR * tol).sum())
    a_inf_real = 0.0
    for ci in h.partition.nonfinite.tolist():
        Q = h.class_Q(ci)
        # real form of the Hermitian block: eigenvalues come in +-i pairs
        R = np.kron(Q.real, I2) + np.kron(Q.imag, J2)
        ev = np.linalg.eigvals(symplectic(Q.shape[0]) @ R)
        a_inf_real = max(a_inf_real, float(np.abs(ev.real).max()))
    return unstable, a_inf_real


def run(h: NormalFormHamiltonian, f: Polynomial, schedule: Schedule,
        weights: WeightParams, guard_delta0: float = 1e-8,
        norm: ClassNormParams = ClassNormParams(),
        grid: ParameterGrid | None = None) -> RunReport:
    """Full two-level iteration; see the step operations for the bookkeeping.

    Stops at the eps target, the super-step budget, or a ``StageAbort``,
    reported in ``aborted`` (the first norm's too); other errors propagate.
    """
    state = _new_state(h, f, weights, norm, grid, guard_delta0)
    omega0 = np.array(state.h.omega, dtype=float)
    eps_history, block_stops, aborted = [], [], None
    try:
        eps_history.append(_measure(state, schedule).eps)
        for _ in range(schedule.max_super):
            if state.eps <= schedule.eps_target:
                break
            tables, h_poly = class_tables(state.h), state.h.to_polynomial()
            stop = "count"
            for _ in range(state.K):
                eps_before = state.eps
                state = inner_step(state, tables=tables, h_poly=h_poly)
                if state.eps <= schedule.eps_target:
                    stop = "target"
                    break
                if state.eps > STALL_RATIO * eps_before:
                    stop = "stalled"
                    break
            state.metrics[-1]["stop"] = stop
            block_stops.append(stop)
            if stop == "target":
                eps_history.append(state.eps)
                break
            state = super_step(state, schedule)
            eps_history.append(state.eps)
    except StageAbort as exc:
        aborted = exc
    h_final = (state.h if state.h_acc is None
               else _fold_h_acc(state.h, state.h_acc, state.h.partition))
    unstable, a_inf_real = _spectrum_report(h_final)
    omega_final = np.array(h_final.omega, dtype=float)
    return RunReport(
        state=state, omega_final=omega_final,
        omega_drift=float(np.abs(omega_final - omega0).max(initial=0.0)),
        unstable_count=unstable, a_inf_max_real=a_inf_real,
        eps_history=eps_history, block_stops=block_stops,
        reached_target=state.eps <= schedule.eps_target, aborted=aborted)


def singular_gate_inputs(nform, norm_params: ClassNormParams,
                         weights: WeightParams) -> tuple:
    """(eps, delta0, chi, xi), the inputs of ``singular_threshold`` from a
    ``SingularNormalForm``: eps the class norm of its jet, delta0 its
    smallest resonant frequency magnitude, chi the largest shift of the
    internal frequencies, and xi the larger of the resonant form's largest
    entry and the largest shift of a nonresonant external frequency."""
    eps = class_norm(nform.jet(), norm_params, weights)
    lam0 = np.array([nform.lam[tuple(a)] for a in nform.model.nodes])
    chi = float(np.abs(nform.omega_I - lam0).max())
    xi = float(np.abs(nform.C_real).max()) if nform.C_real.size else 0.0
    resonant = set(nform.lambda_f_sites)
    for a, lam in nform.lambda_sites.items():
        if a in resonant:
            continue
        xi = max(xi, abs(lam - nform.lam[a]))
    return eps, nform.a2_floor, chi, xi


# the theorem constants of the singular gate, with their defaults
THRESHOLD_CONSTANTS = {"eps0": 1.0, "kappa": 1.0, "beta_bar": 1.0,
                       "aleph": 0.25, "c29": 1.0}


def singular_threshold(eps: float, delta0: float, chi: float, xi: float,
                       constants: dict | None = None):
    """Smallness gate for the singular application.

    Checks chi, xi <= c * delta0^(1 - aleph) and
    eps * log(1/eps)^beta_bar <= eps0 * delta0^(1 + kappa*aleph).
    Returns (ok, margins), the bound/value ratios (>= 1 passes; 0 gives
    inf).  eps >= 1, where log(1/eps) is not positive, fails with an eps
    margin of 0.
    """
    unknown = set(constants or ()) - set(THRESHOLD_CONSTANTS)
    if unknown:
        raise ValueError("unknown threshold constants: "
                         + ", ".join(sorted(unknown)))
    c = {**THRESHOLD_CONSTANTS, **(constants or {})}
    if delta0 <= 0 or min(eps, chi, xi) < 0:
        raise ValueError("need delta0 > 0 and eps, chi, xi >= 0")
    gate = c["c29"] * delta0 ** (1.0 - c["aleph"])
    rhs = c["eps0"] * delta0 ** (1.0 + c["kappa"] * c["aleph"])
    margins = {
        "chi": gate / chi if chi > 0 else math.inf,
        "xi": gate / xi if xi > 0 else math.inf,
        "eps": (math.inf if eps == 0 else 0.0 if eps >= 1 else
                rhs / (eps * math.log(1.0 / eps) ** c["beta_bar"])),
    }
    ok = all(v >= 1.0 for v in margins.values())
    return ok, margins
