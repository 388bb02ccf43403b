import math

import numpy as np
import pytest

from kamkit.algebra import WeightParams
from kamkit.divisors import ParameterGrid
from kamkit import kam
from kamkit.hamiltonian import Polynomial, StageAbort, poisson, lie_transform
from kamkit.homological import class_tables, solve_homological, DivisorGuard
from kamkit.kam import (Schedule, inner_count, inner_step, initial_state,
                        run, singular_threshold, super_step)
from kamkit.models import BeamModel, build_beam

W = WeightParams(gamma1=0.4, gamma2=1.0, kappa=0.5, m_star=1.0)


def beam_instance(epsilon=1e-4, radius=2.0, delta=2):
    model = BeamModel(d=2, radius=radius, nodes=((1, 0), (0, 2)),
                      rho=(0.7, 1.3), actions=(0.05, 0.04),
                      tail={0: 0.5}, nonlinearity=((3, (0, 0), 1.0),),
                      epsilon=epsilon, delta=delta, max_degree=4)
    return build_beam(model)


def test_inner_count_matches_log_rule():
    assert inner_count(math.exp(-1.0), Schedule()) == 1
    assert inner_count(1e-4, Schedule()) == 10
    assert inner_count(0.0, Schedule()) == 1
    assert inner_count(1e-300, Schedule(max_inner=25)) == 25


def test_zero_perturbation_is_a_fixed_point():
    h, _ = beam_instance()
    report = run(h, Polynomial.zero(h.n), Schedule(), W)
    assert report.reached_target
    assert report.state.step == 0
    assert report.omega_drift == 0.0
    assert report.eps_history[0] == 0.0
    assert report.aborted is None


def test_inner_step_contracts_the_jet():
    h, f = beam_instance()
    sched = Schedule()
    st = initial_state(h, f, sched, W)
    eps0 = st.eps
    assert eps0 > 0
    st = inner_step(st, sched, W, guard_delta0=1e-10)
    assert st.eps < 0.2 * eps0
    st = inner_step(st, sched, W, guard_delta0=1e-10)
    assert st.eps < 0.2 * eps0 ** 1.5


def test_accumulated_correction_stays_in_normal_form():
    h, f = beam_instance()
    sched = Schedule()
    st = initial_state(h, f, sched, W)
    st = inner_step(st, sched, W, guard_delta0=1e-10)
    zero = (0,) * h.n
    for (k, m, zk), c in st.h_acc.terms.items():
        assert k == zero
        deg = (sum(m), sum(p for _, p in zk))
        assert deg in {(0, 0), (1, 0), (0, 2)}


def test_divisor_log_is_frozen_across_steps():
    h, f = beam_instance()
    guard = DivisorGuard(delta0=1e-10)
    tables = class_tables(h)
    sol1 = solve_homological(h, f, guard, gamma1=0.4, tables=tables)
    f2 = f + sol1.h_tilde.to_polynomial()      # perturb the right-hand side
    sol2 = solve_homological(h, f2, DivisorGuard(delta0=1e-10),
                             gamma1=0.4, tables=tables)
    shared = set(sol1.divisor_log) & set(sol2.divisor_log)
    assert shared
    for key in shared:
        assert sol1.divisor_log[key] == sol2.divisor_log[key]


def test_transform_is_symplectic_on_probes():
    h, f = beam_instance()
    sched = Schedule()
    st = initial_state(h, f, sched, W)
    st = inner_step(st, sched, W, guard_delta0=1e-10)
    S = st.transform_log[0]
    n, fset = h.n, h.finite_set
    F = Polynomial(n)
    F.add_term(1.0, m=[1] + [0] * (n - 1))
    site = h.partition.classes[0][0]
    G = Polynomial(n)
    G.add_term(1.0, z={(site, 0): 1, (site, 1): 1})

    def push(P):
        return lie_transform(P, S, finite_set=fset, max_degree=3)

    lhs = poisson(push(F), push(G), finite_set=fset, max_degree=2)
    rhs = push(poisson(F, G, finite_set=fset, max_degree=2)).truncate_degree(2)
    diff = (lhs.truncate_degree(2) - rhs).max_coeff()
    scale = max(rhs.max_coeff(), 1.0)
    assert diff <= 1e-8 * scale


def test_super_step_folds_and_coarsens():
    h, f = beam_instance(delta=2)
    sched = Schedule(max_inner=3)
    st = initial_state(h, f, sched, W)
    omega0 = np.array(st.h.omega)
    for _ in range(2):
        st = inner_step(st, sched, W, guard_delta0=1e-10)
    assert st.h_acc.terms
    eps_before = st.eps
    st = super_step(st, sched, W)
    assert st.delta == 4
    assert not st.h_acc.terms
    assert np.abs(np.array(st.h.omega) - omega0).max() > 0
    # folding changes coordinates of the books, not the perturbation size
    assert st.eps <= 10 * eps_before
    for ci in range(len(st.h.partition.classes)):
        if ci == st.h.partition.finite_index:
            continue
        Q = st.h.class_Q(ci)
        assert np.linalg.norm(Q - Q.conj().T) <= 1e-10 * max(
            1.0, np.linalg.norm(Q))


def test_run_two_super_steps_superexponential():
    h, f = beam_instance(epsilon=1e-3)
    sched = Schedule(max_super=3, eps_target=1e-13)
    report = run(h, f, sched, W)
    assert report.aborted is None
    hist = report.eps_history
    assert len(hist) >= 3
    for a, b in zip(hist, hist[1:]):
        if a > 1e-12:
            assert b <= a ** 1.5
    assert report.omega_drift > 0
    assert report.a_inf_max_real <= 1e-8


def test_run_without_internal_nodes_finishes():
    # n = 0: no frequencies to drift, so the report's drift is 0
    h, f = build_beam(BeamModel(d=2, radius=2, nodes=(), rho=(), actions=(),
                                tail={0: 0.5},
                                nonlinearity=((3, (0, 0), 1.0),),
                                epsilon=1e-4, delta=2, max_degree=4))
    report = run(h, f, Schedule(max_super=1), W)
    assert report.aborted is None
    assert report.omega_drift == 0.0
    assert "omega_drift=0" in report.dump_lines()


def test_run_with_grid_keeps_survivors():
    h, f = beam_instance()
    grid = ParameterGrid(bounds=[(0.5, 0.9), (1.1, 1.5)], resolution=8)
    m0 = grid.measure()
    report = run(h, f, Schedule(max_super=2), W, grid=grid)
    assert report.aborted is None
    assert 0 < report.state.grid.measure() <= m0


def test_divisor_drift_aborts_at_a_named_stage(monkeypatch):
    h, f = beam_instance()
    calls = []

    def drifting_solve(*args, **kwargs):
        sol = solve_homological(*args, **kwargs)
        key = min(sol.divisor_log, key=repr)
        sol.divisor_log[key] = (float(len(calls)),)
        calls.append(key)
        return sol

    monkeypatch.setattr(kam, "solve_homological", drifting_solve)
    report = run(h, f, Schedule(max_super=2), W)
    assert len(calls) == 2
    assert isinstance(report.aborted, StageAbort)
    assert report.aborted.stage == "divisors"
    assert report.aborted.key == calls[0]
    assert report.block_stops == []
    assert report.dump_lines()[-1] == f"aborted={report.aborted}"
    assert str(report.aborted).startswith("divisors at ")


def test_unrelated_error_in_an_inner_step_propagates(monkeypatch):
    h, f = beam_instance()

    def broken(*args, **kwargs):
        raise ValueError("not a stage abort")

    monkeypatch.setattr(kam, "lie_transform", broken)
    with pytest.raises(ValueError, match="not a stage abort"):
        run(h, f, Schedule(max_super=2), W)


def test_angle_dependent_correction_aborts_the_fold():
    h, _ = beam_instance()
    h_acc = Polynomial(h.n)
    h_acc.add_term(1e-6, k=(1,) + (0,) * (h.n - 1))
    with pytest.raises(StageAbort) as err:
        kam._fold_h_acc(h, h_acc, 4)
    assert err.value.stage == "fold"
    assert err.value.key == (1,) + (0,) * (h.n - 1)


def test_singular_threshold_gate():
    ok, margins = singular_threshold(1e-12, 0.1, 1e-3, 1e-3)
    assert ok and all(v >= 1 for v in margins.values())
    ok, margins = singular_threshold(0.05, 0.1, 1e-3, 1e-3)
    assert not ok and margins["eps"] < 1
    ok, margins = singular_threshold(1e-12, 0.1, 1.0, 1e-3)
    assert not ok and margins["chi"] < 1
    with pytest.raises(ValueError):
        singular_threshold(-1.0, 0.1, 0.0, 0.0)
