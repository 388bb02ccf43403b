"""Two-level iteration driver: blocks of inner steps at a fixed resonance
partition and frozen divisors, separated by super steps that fold the
accumulated normal-form corrections, coarsen the partition and shrink the
analyticity domain.

A block runs at most K = ceil(log 1/eps) inner steps.  It ends early when
eps reaches the target, or when a step leaves eps above ``STALL_RATIO``
(one half) times its value before that step: past that point the step no
longer contracts, whether at the roundoff floor or because skipped terms
wait for a coarser partition, and only the next super step can help.  Each
block's reason, ``target``, ``stalled`` or ``count``, is kept in the
metrics and the report.  Deliberate aborts raise ``StageAbort``, which
names the stage; ``run`` reports those and lets any other error through.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import I2, J2, WeightParams, symplectic
from .divisors import ParameterGrid, excise
from .hamiltonian import (ClassNormParams, ETA, XI, NormalFormHamiltonian,
                          Polynomial, StageAbort, class_ids, class_norm,
                          decode_jet, lie_transform, site_layout)
from .homological import (ClassTable, DivisorGuard, class_tables,
                          solve_homological)
from .lattice import build_partition, norm_sq

# a block ends once a step leaves eps above this fraction of its old value
STALL_RATIO = 0.5


@dataclass
class Schedule:
    """Outer-loop knobs: partition growth, domain decay, stop rules.

    Inner blocks also stop on a stall, a step that leaves eps above
    ``STALL_RATIO`` (0.5) times its previous value; that ratio is a module
    constant, not a knob.
    """
    delta0: float = 2.0
    delta_theta: float = 2.0          # Delta_{k+1} = ceil(Delta_k ** theta)
    gamma_decay: float = 0.9
    domain_decay: float = 0.5         # approach to the sigma/2, mu/2 endpoint
    eps_target: float = 1e-12
    max_super: int = 6
    max_inner: int = 25               # cap on K_k
    work_degree: int = 4
    max_picard: int = 3
    prune_tol: float = 1e-18
    rel_prune: float = 1e-10          # cutoff relative to the f scale
    # looser cutoff for non-jet terms, relative to the f scale; the Lie
    # series also screens its brackets' non-jet pairs at it
    rel_prune_rest: float = 1e-6

    def __post_init__(self):
        for name, low in (("max_super", 1), ("max_inner", 1),
                          ("max_picard", 1), ("work_degree", 2)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < low:
                raise ValueError(f"{name} must be an integer of at least "
                                 f"{low}, got {v!r}")

        def number(name, ok, want):
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or not ok(v)):
                raise ValueError(f"{name} must be {want}, got {v!r}")
        number("delta0", lambda v: v > 0, "positive")
        # the fold assumes that the partition only coarsens
        number("delta_theta", lambda v: 1 <= v < math.inf,
               "a finite number of at least 1")
        number("gamma_decay", lambda v: 0 < v <= 1, "in (0, 1]")
        number("domain_decay", lambda v: 0 <= v <= 1, "in [0, 1]")
        for name in ("eps_target", "prune_tol", "rel_prune",
                     "rel_prune_rest"):
            number(name, lambda v: v >= 0, "nonnegative")


@dataclass
class IterationState:
    step: int
    eps: float
    delta: float
    gamma: float
    sigma: float
    mu: float
    K: int
    h: NormalFormHamiltonian
    f: Polynomial
    h_acc: Polynomial                 # normal-form corrections, not yet folded
    grid: ParameterGrid | None = None
    sigma_end: float = 0.0
    mu_end: float = 0.0
    transform_log: list = field(default_factory=list)
    divisor_table: dict = field(default_factory=dict)
    metrics: list = field(default_factory=list)

    def weights(self, base: WeightParams) -> WeightParams:
        return WeightParams(gamma1=self.gamma, gamma2=base.gamma2,
                            kappa=base.kappa, m_star=base.m_star)

    def norm_params(self) -> ClassNormParams:
        return ClassNormParams(sigma=self.sigma, mu=self.mu)


def jet_norm(state: IterationState, base_w: WeightParams) -> float:
    return class_norm(state.f.jet(), state.norm_params(),
                      state.weights(base_w))


def initial_state(h: NormalFormHamiltonian, f: Polynomial,
                  schedule: Schedule, base_w: WeightParams,
                  sigma: float = 0.3, mu: float = 0.25,
                  grid: ParameterGrid | None = None) -> IterationState:
    st = IterationState(step=0, eps=math.inf, delta=schedule.delta0,
                        gamma=base_w.gamma1, sigma=sigma, mu=mu, K=0,
                        h=h, f=f, h_acc=Polynomial.zero(h.n), grid=grid,
                        sigma_end=sigma / 2, mu_end=mu / 2)
    st.eps = jet_norm(st, base_w)
    st.K = inner_count(st.eps, schedule)
    return st


def inner_count(eps: float, schedule: Schedule) -> int:
    if eps <= 0:
        return 1
    return max(1, min(schedule.max_inner, math.ceil(math.log(1.0 / eps))))


def _merge_divisors(table: dict, log: dict):
    """Frozen-divisor bookkeeping: a key recorded twice must agree bitwise."""
    for key, val in log.items():
        old = table.get(key)
        if old is not None and old != val:
            raise StageAbort("divisors", key,
                             "divisor drift within a super block")
        table[key] = val


def _excise_failures(state: IterationState, failures, delta0: float):
    """Shrink the surviving grid around guard failures.

    Each failing divisor is extended off the reference parameter to first
    order through the model frequency map."""
    if state.grid is None or not failures or state.h.omega_fn is None:
        return
    rho_star = np.asarray(state.h.rho_star, dtype=float)
    omega_star = np.asarray(state.h.omega_fn(rho_star), dtype=float)
    fam = []
    for k, classes, channel, val in failures:
        kv = np.array(k, dtype=float)

        def fn(rho, kv=kv, val=val):
            om = np.asarray(state.h.omega_fn(rho), dtype=float)
            return val + kv @ (om - omega_star)
        fam.append(fn)
    bad, state.grid = excise(fam, state.grid, delta0)
    if state.grid.measure() == 0.0:
        raise StageAbort("excision", None,
                         "empty surviving grid after divisor excision")


def inner_step(state: IterationState, schedule: Schedule,
               base_w: WeightParams, guard_delta0: float,
               tables: ClassTable | None = None,
               h_poly: Polynomial | None = None) -> IterationState:
    """One homological solve and jet transform at frozen normal form.

    ``tables`` and ``h_poly`` (h's class table and polynomial) depend on h
    alone, which a block holds fixed; they are built here when not given.
    """
    h = state.h
    guard = DivisorGuard(delta0=guard_delta0)
    if tables is None:
        tables = class_tables(h)
    if h_poly is None:
        h_poly = h.to_polynomial()
    F = state.h_acc + state.f
    sol = solve_homological(h, F, guard, gamma1=state.gamma,
                            max_picard=schedule.max_picard,
                            prune_tol=schedule.prune_tol, tables=tables)
    _merge_divisors(state.divisor_table, sol.divisor_log)
    _excise_failures(state, guard.failures, guard_delta0)
    ht_poly = sol.h_tilde.to_polynomial()
    scale = F.max_coeff()
    cut = max(schedule.prune_tol, schedule.rel_prune * scale)
    cut_rest = max(cut, schedule.rel_prune_rest * scale)
    G = lie_transform(h_poly + F, sol.S, finite_set=h.finite_set,
                      max_degree=schedule.work_degree, tol=cut,
                      rest_tol=cut_rest)
    f_next = G - h_poly - ht_poly
    f_next.prune_split(cut, cut_rest)
    state.f = f_next
    state.h_acc = ht_poly
    state.transform_log.append(sol.S)
    state.step += 1
    state.eps = jet_norm(state, base_w)
    state.metrics.append({
        "step": state.step, "eps": state.eps, "K": state.K,
        "delta": state.delta,
        "gamma": state.gamma, "sigma": state.sigma, "mu": state.mu,
        "skipped": len(sol.skipped_report),
        "guard_failures": len(guard.failures),
        "measure": state.grid.measure() if state.grid else None,
    })
    return state


def _fold_h_acc(h: NormalFormHamiltonian, h_acc: Polynomial,
                delta_next: float) -> NormalFormHamiltonian:
    """Fold corrections into a new normal form on the coarser partition.

    The jet of h + h_acc is read back through the codec: Hermitian Q_ab
    from the xi_a eta_b entries, gathered per class of the new partition,
    and the hyperbolic block from the entries over the finite node set."""
    p_old = h.partition
    var_id = site_layout(p_old.sites())
    _, K, M, U, V, C = decode_jet(h.to_polynomial() + h_acc, var_id)
    bad = np.flatnonzero(K.any(axis=1))
    if len(bad):
        raise StageAbort("fold", tuple(K[bad[0]].tolist()),
                         "accumulated correction has angle dependence")
    omega = np.zeros(h.n)
    on_r = (U < 0) & M.any(axis=1)
    omega[np.nonzero(M[on_r])[1]] += C[on_r].real
    ell = (V >= 0) & (U % 2 == XI) & (V % 2 == ETA)
    Q_all = np.zeros((len(var_id) // 2,) * 2, dtype=complex)
    Q_all[U[ell] // 2, V[ell] // 2] += C[ell]

    p_new = build_partition(delta_next, p_old.radius, p_old.d,
                            finite_set=p_old.finite_set,
                            core_cutoff=p_old.core_cutoff,
                            exclude=p_old.exclude)
    h_new = NormalFormHamiltonian(
        omega=omega, partition=p_new,
        const=float(C[(U < 0) & ~on_r].real.sum()),
        rho_star=h.rho_star, omega_fn=h.omega_fn, lambda_fn=h.lambda_fn)
    for ci, cl in enumerate(p_new.classes):
        if ci == p_new.finite_index:
            continue
        ix = class_ids(var_id, cl)[XI] // 2
        try:                # the Hermitian check is the normal-form gate
            h_new.set_block(ci, Q_all[np.ix_(ix, ix)])
        except ValueError as exc:
            raise StageAbort("fold", ci, str(exc)) from exc
    if p_new.finite_index is not None:
        w = class_ids(var_id, p_new.classes[p_new.finite_index]).T.ravel()
        fin = np.full(len(var_id), -1)
        fin[w] = np.arange(len(w))
        hyp = (V >= 0) & (fin[U] >= 0) & (fin[V] >= 0)
        H = np.zeros((len(w), len(w)))
        H[fin[U[hyp]], fin[V[hyp]]] += C[hyp].real
        h_new.hyperbolic_block = H
    return h_new


def super_step(state: IterationState, schedule: Schedule,
               base_w: WeightParams) -> IterationState:
    """Fold corrections, coarsen the partition, shrink the domain."""
    delta_next = (state.delta if math.isinf(state.delta)
                  else math.ceil(state.delta ** schedule.delta_theta))
    state.h = _fold_h_acc(state.h, state.h_acc, delta_next)
    state.h_acc = Polynomial.zero(state.h.n)
    state.delta = delta_next
    state.gamma *= schedule.gamma_decay
    state.sigma = state.sigma_end \
        + (state.sigma - state.sigma_end) * schedule.domain_decay
    state.mu = state.mu_end + (state.mu - state.mu_end) * schedule.domain_decay
    state.eps = jet_norm(state, base_w)
    state.K = inner_count(state.eps, schedule)
    return state


@dataclass
class RunReport:
    state: IterationState
    omega_initial: np.ndarray
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
    unstable = 0
    a_inf_real = 0.0
    Hf = h.hyperbolic_block
    if Hf is not None and Hf.size:
        F = Hf.shape[0] // 2
        ev = np.linalg.eigvals(symplectic(F) @ Hf)
        tol = 1e-10 * max(1.0, np.abs(ev).max())
        unstable = int((ev.real > 10 * tol).sum())
    p = h.partition
    for ci in range(len(p.classes)):
        if ci == p.finite_index:
            continue
        Q = h.class_Q(ci)
        if not Q.size:
            continue
        # real form of the Hermitian block: eigenvalues come in +-i pairs
        R = np.kron(Q.real, I2) + np.kron(Q.imag, J2)
        ev = np.linalg.eigvals(symplectic(Q.shape[0]) @ R)
        a_inf_real = max(a_inf_real, float(np.abs(ev.real).max()))
    return unstable, a_inf_real


def run(h: NormalFormHamiltonian, f: Polynomial, schedule: Schedule,
        base_w: WeightParams, guard_delta0: float = 1e-8,
        sigma: float = 0.3, mu: float = 0.25,
        grid: ParameterGrid | None = None) -> RunReport:
    """Full two-level iteration; see the step operations for the bookkeeping.

    Stops at the eps target, the super-step budget, or a ``StageAbort``,
    which is reported in ``aborted``; any other exception propagates.
    """
    state = initial_state(h, f, schedule, base_w, sigma=sigma, mu=mu,
                          grid=grid)
    omega0 = np.array(state.h.omega, dtype=float)
    eps_history = [state.eps]
    block_stops = []
    aborted = None
    try:
        for _ in range(schedule.max_super):
            if state.eps <= schedule.eps_target:
                break
            tables, h_poly = class_tables(state.h), state.h.to_polynomial()
            state.divisor_table = {}
            stop = "count"
            for _ in range(state.K):
                eps_before = state.eps
                state = inner_step(state, schedule, base_w, guard_delta0,
                                   tables=tables, h_poly=h_poly)
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
            state = super_step(state, schedule, base_w)
            eps_history.append(state.eps)
    except StageAbort as exc:
        aborted = exc
    h_final = (_fold_h_acc(state.h, state.h_acc, state.delta)
               if len(state.h_acc) else state.h)
    unstable, a_inf_real = _spectrum_report(h_final)
    omega_final = np.array(h_final.omega, dtype=float)
    return RunReport(
        state=state, omega_initial=omega0, omega_final=omega_final,
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
    lam0 = np.array([math.sqrt(norm_sq(a) ** 2 + nform.model.mass)
                     for a in nform.model.nodes])
    chi = float(np.abs(nform.omega_I - lam0).max())
    xi = float(np.abs(nform.C_real).max()) if nform.C_real.size else 0.0
    resonant = set(nform.lambda_f_sites)
    for a, lam in nform.lambda_sites.items():
        if a in resonant:
            continue
        xi = max(xi, abs(lam - math.sqrt(norm_sq(a) ** 2
                                         + nform.model.mass)))
    return eps, nform.a2_floor, chi, xi


def singular_threshold(eps: float, delta0: float, chi: float, xi: float,
                       constants: dict | None = None):
    """Smallness gate for the singular application.

    Checks chi, xi <= c * delta0^(1 - aleph) and
    eps * log(1/eps)^beta_bar <= eps0 * delta0^(1 + kappa*aleph).
    Returns (ok, margins); margins are bound/value ratios (>= 1 passes).
    """
    c = dict(eps0=1.0, kappa=1.0, beta_bar=1.0, aleph=0.25, c29=1.0)
    if constants:
        c.update(constants)
    if min(eps, delta0) <= 0 or chi < 0 or xi < 0:
        raise ValueError("inputs must be positive")
    gate = c["c29"] * delta0 ** (1.0 - c["aleph"])
    lhs = eps * max(math.log(1.0 / eps), 1e-300) ** c["beta_bar"]
    rhs = c["eps0"] * delta0 ** (1.0 + c["kappa"] * c["aleph"])
    margins = {
        "chi": gate / chi if chi > 0 else math.inf,
        "xi": gate / xi if xi > 0 else math.inf,
        "eps": rhs / lhs,
    }
    ok = all(v >= 1.0 for v in margins.values())
    return ok, margins
