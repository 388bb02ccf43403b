import inspect
import json
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from kamkit.algebra import WeightParams, symplectic
from kamkit.cli import build_model, read_config
from kamkit.divisors import ParameterGrid
from kamkit import hamiltonian, homological, kam
from kamkit.hamiltonian import (NormalFormHamiltonian, Polynomial,
                                StageAbort, poisson, lie_transform)
from kamkit.homological import class_tables, solve_homological, DivisorGuard
from kamkit.kam import (Schedule, inner_count, inner_step, initial_state,
                        run, singular_threshold, super_step)
from kamkit.lattice import build_partition
from kamkit.models import BeamModel, build_beam

import _reference_kam as ref
from test_acceptance import desk_beam
from test_homological import basis
from test_kam_runs import negative_mode_beam

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


def one_step(st):
    """``inner_step`` with h's class table and polynomial, as ``run``
    builds them once per block."""
    return inner_step(st, class_tables(st.h), st.h.to_polynomial())


def test_inner_step_contracts_the_jet():
    h, f = beam_instance()
    sched = Schedule()
    st = initial_state(h, f, sched, W, guard_delta0=1e-10)
    eps0 = st.eps
    assert eps0 > 0
    st = one_step(st)
    assert st.eps < 0.2 * eps0
    st = one_step(st)
    assert st.eps < 0.2 * eps0 ** 1.5


def test_accumulated_correction_stays_in_normal_form():
    h, f = beam_instance()
    sched = Schedule()
    st = initial_state(h, f, sched, W, guard_delta0=1e-10)
    st = one_step(st)
    assert isinstance(st.h_acc, NormalFormHamiltonian)
    assert st.h_acc.partition is h.partition
    zero = (0,) * h.n
    for (k, m, zk), c in st.h_acc.to_polynomial().terms.items():
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
    shared = set(sol1.guard.log) & set(sol2.guard.log)
    assert shared
    for key in shared:
        assert sol1.guard.log[key].tobytes() == sol2.guard.log[key].tobytes()


def test_transform_is_symplectic_on_probes():
    h, f = beam_instance()
    sched = Schedule()
    st = initial_state(h, f, sched, W, guard_delta0=1e-10)
    st = one_step(st)
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


def test_lie_series_forms_each_order_with_poisson():
    """``lie_transform`` on the first S of a step goes into the bracket
    through ``poisson`` alone: one call per order formed, each with S and
    with ``rest_tol`` as its pair screen, and the spy moves no bit."""
    h, f = beam_instance()
    st = initial_state(h, f, Schedule(), W, guard_delta0=1e-10)
    S = one_step(st).transform_log[0]
    F = h.to_polynomial() + f
    tol = max(kam.PRUNE_TOL, kam.REL_PRUNE * f.max_coeff())
    rest_tol = kam.REL_PRUNE_REST * f.max_coeff()

    def push(max_order=16):
        return lie_transform(F, S, finite_set=h.finite_set, tol=tol,
                             rest_tol=rest_tol, max_order=max_order)

    want = push()
    with mock.patch.object(hamiltonian, "poisson",
                           wraps=hamiltonian.poisson) as spy:
        got = push()
    orders = spy.call_count
    assert orders >= 2
    sig = inspect.signature(hamiltonian.poisson)
    for call in spy.call_args_list:
        args = sig.bind(*call.args, **call.kwargs).arguments
        assert args["G"] is S and args["screen"] == rest_tol
    assert repr(list(got.terms.items())) == repr(list(want.terms.items()))
    # the series stops at the order it formed last: one order fewer raises
    with pytest.raises(StageAbort) as abort:
        push(max_order=orders - 1)
    assert (abort.value.stage, abort.value.key) == ("lie", orders - 1)


def test_super_step_folds_and_coarsens():
    h, f = beam_instance(delta=2)
    sched = Schedule(max_inner=3)
    st = initial_state(h, f, sched, W, guard_delta0=1e-10)
    omega0 = np.array(st.h.omega)
    for _ in range(2):
        st = one_step(st)
    assert st.h_acc.to_polynomial().terms
    eps_before = st.eps
    st = super_step(st, sched)
    assert st.h.partition.delta == 4
    assert st.h_acc is None
    assert np.abs(np.array(st.h.omega) - omega0).max() > 0
    # folding changes coordinates of the books, not the perturbation size
    assert st.eps <= 10 * eps_before
    for ci in range(len(st.h.partition.classes)):
        if ci == st.h.partition.finite_index:
            continue
        Q = st.h.class_Q(ci)
        assert np.linalg.norm(Q - Q.conj().T) <= 1e-10 * max(
            1.0, np.linalg.norm(Q))


def test_partition_starts_at_the_models_delta_and_only_coarsens(
        monkeypatch):
    """The first partition is the model's (delta 8 at R=4 already joins
    whole spheres); each fold keeps or coarsens it, and every metrics row
    reports the delta of the partition its step ran on."""
    h, f = beam_instance(radius=4, delta=8)
    folds, ran_on = [], []
    fold, step = kam._fold_h_acc, kam.inner_step

    def recording_fold(h_old, h_acc, p_new):
        h_new = fold(h_old, h_acc, p_new)
        folds.append((h_old.partition.delta, h_new.partition.delta))
        return h_new

    def recording_step(state, *args, **kwargs):
        ran_on.append(state.h.partition.delta)
        return step(state, *args, **kwargs)

    monkeypatch.setattr(kam, "_fold_h_acc", recording_fold)
    monkeypatch.setattr(kam, "inner_step", recording_step)
    report = run(h, f, Schedule(max_super=2, eps_target=1e-30), W)
    assert report.aborted is None
    assert len(folds) >= 2 and folds[0][0] == 8
    assert all(new >= old for old, new in folds)
    assert [m["delta"] for m in report.state.metrics] == ran_on


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
        key = min(sol.guard.log, key=repr)
        sol.guard.log[key] = np.array([float(len(calls))])
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


def test_excision_extends_each_failing_divisor_with_its_sign():
    """Desk beam R=2 at guard 0.03: the two failures are one divisor seen
    from k = (1, 0) and from -k, d* = +0.0109 and -0.0109.  The grid keeps
    exactly the cells where |d* + k.(omega(rho) - omega*)| >= delta0 for
    both, each extended from its signed divisor.  The step maps omega
    once, on the stack of rho* and the 256 cell centres."""
    h, f = desk_beam(radius=2.0)
    delta0 = 0.03
    grid = ParameterGrid(bounds=[(0.5, 0.9), (1.1, 1.5)], resolution=16)
    st = initial_state(h, f, Schedule(), W, grid=grid, guard_delta0=delta0)
    omega_fn, calls = h.omega_fn, []
    h.omega_fn = lambda rho: calls.append(np.shape(rho)) or omega_fn(rho)
    st = one_step(st)
    assert calls == [(257, 2)]
    fails = st.guard.failures
    assert [(k, ch) for k, _, ch, _ in fails] == [((1, 0), "q-10"),
                                                  ((-1, 0), "q-01")]
    val = fails[0][3]
    assert fails[1][3] == val and 0.01 < val < delta0
    signed = {fails[0][:3]: val, fails[1][:3]: -val}
    for key, d in signed.items():
        d_log = st.guard.log[key]
        assert float(d_log[np.abs(d_log).argmin()]) == d
    omega_star = np.asarray(h.omega_fn(np.asarray(h.rho_star)), dtype=float)
    keep = np.ones(grid.mask.size, dtype=bool)
    for (k, _, _), d in signed.items():
        kv = np.array(k, dtype=float)
        keep &= np.array([
            abs(d + kv @ (np.asarray(h.omega_fn(rho), dtype=float)
                          - omega_star)) >= delta0
            for rho in grid.centers()])
    assert st.grid.mask.ravel().tolist() == keep.tolist()
    assert keep.sum() == 160


def test_excision_that_empties_the_grid_aborts():
    """A grid so small around rho* that the first failure's band covers
    all of it: the run stops at stage ``excision``."""
    h, f = desk_beam(radius=2.0)
    grid = ParameterGrid(bounds=[(0.699, 0.701), (1.299, 1.301)],
                         resolution=4)
    report = run(h, f, Schedule(max_super=2), W, guard_delta0=0.03,
                 grid=grid)
    assert isinstance(report.aborted, StageAbort)
    assert report.aborted.stage == "excision"
    assert report.block_stops == []
    assert report.state.grid.measure() == 0.0


def test_growing_picard_updates_abort(monkeypatch):
    """A bracket that breaks the degree structure (f's jet, tenfold each
    call, angle-only rows included) still moves S's rows of degree <= 1 on
    the third solve: the solve stops at stage ``picard``, key 2, after two
    bracket calls; ``run`` reports the abort."""
    h, f = beam_instance()
    calls = []

    def growing(*args, **kwargs):
        calls.append(None)
        return f.jet().scale(10.0 ** len(calls))

    monkeypatch.setattr(homological, "poisson", growing)
    with pytest.raises(StageAbort) as exc:
        solve_homological(h, f, DivisorGuard(1e-10), gamma1=0.4,
                          tables=class_tables(h))
    assert (exc.value.stage, exc.value.key) == ("picard", 2)
    assert len(calls) == 2
    report = run(h, f, Schedule(max_super=2), W)
    assert isinstance(report.aborted, StageAbort)
    assert (report.aborted.stage, report.aborted.key) == ("picard", 2)
    assert report.block_stops == []


def _degrees(P) -> list:
    return [2 * sum(m) + sum(p for _, p in z) for _, m, z in P.terms]


def test_a_nan_in_f_ends_the_run_at_stage_picard():
    """No cut drops a NaN, so one in a cubic row of f reaches the Picard
    bracket, and the run aborts there, at a named stage, before any step.
    A product cut that dropped the NaN would let the run end at ``target``
    with eps 0."""
    h, f = beam_instance()
    _, m, z = next(key for key, d in zip(f.terms, _degrees(f)) if d == 3)
    f.add_term(math.nan, m=m, z=z)
    report = run(h, f, Schedule(max_super=2), W)
    assert isinstance(report.aborted, StageAbort)
    assert (report.aborted.stage, report.aborted.key) == ("picard", 1)
    assert "not finite" in str(report.aborted)
    assert report.block_stops == [] and report.state.step == 0


def test_a_nan_in_a_lie_term_ends_the_run_at_its_order():
    """A NaN in a degree-4 row of f reaches no Picard bracket, since S has
    no angle-only row, but the first Lie bracket: the run aborts at stage
    ``lie``, order 1, naming the NaN, not at the order cap after 16 orders
    of NaN brackets."""
    h, f = beam_instance()
    _, m, z = next(key for key, d in zip(f.terms, _degrees(f)) if d == 4)
    f.add_term(math.nan, m=m, z=z)
    report = run(h, f, Schedule(max_super=2), W)
    assert isinstance(report.aborted, StageAbort)
    assert (report.aborted.stage, report.aborted.key) == ("lie", 1)
    assert "not finite" in str(report.aborted)
    assert report.block_stops == [] and report.state.step == 0


def test_a_nan_in_the_first_jet_is_reported_at_stage_norm():
    """The first class norm runs under ``run``'s abort handling: a NaN in
    the jet of the input is reported, with eps inf and no block."""
    h, f = beam_instance()
    _, m, z = next(iter(f.jet().terms))
    f.add_term(math.nan, m=m, z=z)
    report = run(h, f, Schedule(max_super=2), W)
    assert isinstance(report.aborted, StageAbort)
    assert (report.aborted.stage, report.aborted.key) == ("norm", None)
    assert report.block_stops == [] and report.eps_history == []
    assert report.state.step == 0 and report.state.eps == math.inf


def test_a_nan_in_the_jet_ends_the_run_at_stage_norm(monkeypatch):
    """A step whose transform leaves a NaN in the jet of f: the class norm
    names it, and ``run`` reports the abort."""
    h, f = beam_instance()
    lie = kam.lie_transform
    _, m, z = next(iter(f.jet().terms))

    def nan_jet(*args, **kwargs):
        G = lie(*args, **kwargs)
        G.add_term(math.nan, m=m, z=z)
        return G

    monkeypatch.setattr(kam, "lie_transform", nan_jet)
    report = run(h, f, Schedule(max_super=2), W)
    assert isinstance(report.aborted, StageAbort)
    assert (report.aborted.stage, report.aborted.key) == ("norm", None)
    assert report.block_stops == [] and report.state.step == 1


@pytest.mark.parametrize("action", ["error", "always"])
def test_an_overflowing_norm_is_reported_at_stage_norm(action):
    """epsilon 1e300 leaves every coefficient finite, but the class norm's
    gradient and hessian overflow: ``run`` reports stage ``norm`` and no
    warning is issued, under either filter, so no inf norm reaches
    ``inner_count``'s log(1/eps)."""
    h, f = beam_instance(epsilon=1e300)
    assert np.isfinite(f.C).all()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action, RuntimeWarning)
        report = run(h, f, Schedule(max_super=2), W)
    assert seen == []
    assert isinstance(report.aborted, StageAbort)
    assert (report.aborted.stage, report.aborted.key) == ("norm", None)
    assert report.eps_history == [] and report.state.eps == math.inf


def test_the_iteration_keeps_the_models_degree():
    """The model's ``max_degree`` is the run's only degree cap: on the R=3
    beam with max_degree 6, f has rows of degree 5, and so has the f that
    the run ends with."""
    model = BeamModel(d=2, radius=3.0, nodes=((1, 0), (0, 2)),
                      rho=(0.7, 1.3), actions=(0.05, 0.04),
                      tail={0: 0.5}, nonlinearity=((3, (0, 0), 1.0),),
                      epsilon=1e-4, delta=2, max_degree=6)
    h, f = build_beam(model)
    assert max(_degrees(f)) == 5
    report = run(h, f, Schedule(max_super=1), W)
    assert report.aborted is None and report.state.step > 0
    assert max(_degrees(report.state.f)) == 5


def test_unrelated_error_in_an_inner_step_propagates(monkeypatch):
    h, f = beam_instance()

    def broken(*args, **kwargs):
        raise ValueError("not a stage abort")

    monkeypatch.setattr(kam, "lie_transform", broken)
    with pytest.raises(ValueError, match="not a stage abort"):
        run(h, f, Schedule(max_super=2), W)


@pytest.mark.parametrize("delta_new", [2, 4])
@pytest.mark.parametrize("build", [lambda: desk_beam(radius=4.0),
                                   negative_mode_beam],
                         ids=["desk_R4", "negative_mode"])
def test_fold_equals_the_codec_fold_bit_for_bit(build, delta_new):
    """The block-wise fold against the fold through the polynomial codec,
    after two inner steps, onto the same partition and a coarser one."""
    h, f = build()
    sched = Schedule()
    st = initial_state(h, f, sched, W, guard_delta0=1e-8)
    for _ in range(2):
        st = one_step(st)
    p = h.partition
    p_new = build_partition(delta_new, p.radius, p.d, finite_set=p.finite_set,
                            core_cutoff=p.core_cutoff, exclude=p.exclude)
    got = kam._fold_h_acc(st.h, st.h_acc, p_new)
    want = ref._fold_h_acc(st.h, st.h_acc.to_polynomial(), p_new)
    assert got.partition is want.partition is p_new
    assert got.omega.tobytes() == want.omega.tobytes()
    assert np.float64(got.const).tobytes() == np.float64(want.const).tobytes()
    assert sorted(got.elliptic_blocks) == sorted(want.elliptic_blocks)
    for ci, Q in want.elliptic_blocks.items():
        assert got.elliptic_blocks[ci].tobytes() == Q.tobytes()
    assert got.hyperbolic_block.shape == want.hyperbolic_block.shape
    assert got.hyperbolic_block.tobytes() == want.hyperbolic_block.tobytes()


def test_non_hermitian_correction_aborts_the_fold():
    h, _ = beam_instance()
    p = h.partition
    ci = next(i for i in range(len(p.classes)) if i != p.finite_index)
    h_acc = NormalFormHamiltonian(omega=np.zeros(h.n), partition=p)
    m = len(p.classes[ci])
    h_acc.elliptic_blocks[ci] = np.full((m, m), 1e-3j)   # not Hermitian
    with pytest.raises(StageAbort) as err:
        kam._fold_h_acc(h, h_acc, p)
    assert err.value.stage == "fold"
    assert err.value.key == ci


def test_singular_threshold_gate():
    ok, margins = singular_threshold(1e-12, 0.1, 1e-3, 1e-3)
    assert ok and all(v >= 1 for v in margins.values())
    ok, margins = singular_threshold(0.05, 0.1, 1e-3, 1e-3)
    assert not ok and margins["eps"] < 1
    ok, margins = singular_threshold(1e-12, 0.1, 1.0, 1e-3)
    assert not ok and margins["chi"] < 1
    with pytest.raises(ValueError):
        singular_threshold(-1.0, 0.1, 0.0, 0.0)


@pytest.mark.parametrize("eps", [1.0, 2.0])
def test_singular_threshold_fails_from_eps_one(eps):
    """log(1/eps) <= 0 from eps = 1 on, where a floor on the log once
    turned the eps margin into about 1e299: the gate fails, margin 0."""
    ok, margins = singular_threshold(eps, 0.1, 1e-3, 1e-3)
    assert not ok and margins["eps"] == 0.0


def test_singular_threshold_rejects_unknown_constants():
    ok, _ = singular_threshold(1e-12, 0.1, 1e-3, 1e-3, {"eps0": 100.0})
    assert ok
    with pytest.raises(ValueError, match="eps_0"):
        singular_threshold(1e-12, 0.1, 1e-3, 1e-3, {"eps_0": 100.0})


def test_singular_threshold_passes_a_zero_jet():
    ok, margins = singular_threshold(0.0, 0.1, 1e-3, 1e-3)
    assert ok and margins["eps"] == math.inf
    for bad in ((-1e-12, 0.1), (0.0, 0.0), (0.0, -0.1)):
        with pytest.raises(ValueError):
            singular_threshold(*bad, 1e-3, 1e-3)


def test_mixed_excision_cuts_its_band_on_its_own_side():
    """examples/hyperbolic_beam.json's model (J H has eigenvalues +-0.2) at
    guard_delta0 0.52, on a 200 x 200 grid: the mixed check at k = (-1,
    -1), whose s* = k.omega* + lam_i is negative, excises exactly the cells
    where the old dense mixed system i s I - (J H)^T at s = k.omega(rho) +
    lam_i, with J H and lam held fixed, has its smallest singular value
    below delta0 (up to cells within 1e-12 of delta0)."""
    example = Path(__file__).parents[1] / "examples" / "hyperbolic_beam.json"
    conf = read_config(json.loads(example.read_text()), "kam")
    _, _, (h, f) = build_model(conf["model"])
    t = class_tables(h)
    assert np.allclose(sorted(basis(t, 0)[0].imag), [-0.2, 0.2])
    state = initial_state(h, f, Schedule(), W, guard_delta0=0.52,
                          grid=ParameterGrid(conf["grid"].bounds, 200))
    solve_homological(h, f, state.guard, gamma1=0.4, tables=t)
    key = ((-1, -1), (0, 5), "mix-eta")
    fail = [x for x in state.guard.failures if x[:3] == key]
    assert fail and fail[0][3] == pytest.approx(0.5045037103816561)
    state.guard.failures = fail
    kam._excise_failures(state)
    excised = ~state.grid.mask.ravel()
    # the oracle: the eta channel's systems, one per eigenvalue of class 5
    centres = ParameterGrid(conf["grid"].bounds, 200).centers()
    kw = h.omega_fn(centres) @ np.array(key[0], dtype=float)
    JH = symplectic(1) @ h.hyperbolic_block
    smin = np.full(len(centres), np.inf)
    for lam in basis(t, 5)[0]:
        s = kw + lam
        assert float(np.dot(key[0], h.omega)) + lam < 0       # s* < 0
        L = 1j * s[:, None, None] * np.eye(2) - JH.T
        smin = np.minimum(smin, np.linalg.svd(L, compute_uv=False)[:, -1])
    clear = np.abs(smin - 0.52) > 1e-12
    assert (excised == (smin < 0.52))[clear].all()
    assert excised.sum() == 24442
