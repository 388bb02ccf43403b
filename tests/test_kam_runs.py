"""Frozen results of whole two-level runs.

The goldens hold the ``repr`` of ``eps_history``, ``omega_final`` and
``unstable_count`` for four runs and are compared exactly.  They were
written by ``_write_goldens`` before inner blocks stopped on a stall;
regenerate them only for an intended change of results:
    cd tests && PYTHONPATH=../src python -c \
        "import test_kam_runs as t; t._write_goldens()"
"""
from functools import cache
from pathlib import Path

import pytest

from kamkit.kam import Schedule, run
from kamkit.models import BeamModel, NlsModel, build_beam, build_nls

from test_acceptance import W, desk_beam

GOLDEN = Path(__file__).parent / "golden" / "kam_runs"


def negative_mode_beam():
    return build_beam(BeamModel(
        d=2, radius=3, nodes=((2, 1),), rho=(0.9,), actions=(0.03,),
        tail={0: -1.0, 1: 0.2}, nonlinearity=((3, (0, 0), 1.0),),
        epsilon=1e-4, delta=2, max_degree=4))


def nls():
    return build_nls(NlsModel(
        d=2, radius=3, mass=1.0, alpha=0.75, rho=(1.3, 0.7),
        forcing=(((1, 0), 1, 1, (0, 0), 1.0),), epsilon=1e-3, delta=2,
        max_degree=4))


DESK = Schedule(max_super=3, eps_target=1e-30)
CASES = {
    "desk_R2": (lambda: desk_beam(radius=2.0), DESK),
    "desk_R4": (lambda: desk_beam(radius=4.0), DESK),
    "negative_mode": (negative_mode_beam, Schedule(max_super=2)),
    "nls": (nls, Schedule(max_super=2)),
}


@cache
def run_case(name):
    build, sched = CASES[name]
    h, f = build()
    return run(h, f, sched, W)


def golden_text(report) -> str:
    return "\n".join([
        "eps_history " + repr([float(e) for e in report.eps_history]),
        "omega_final " + repr(report.omega_final.tolist()),
        "unstable_count " + repr(report.unstable_count),
    ]) + "\n"


def _write_goldens():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        (GOLDEN / f"{name}.txt").write_text(golden_text(run_case(name)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden(name):
    report = run_case(name)
    assert report.aborted is None
    assert golden_text(report) == (GOLDEN / f"{name}.txt").read_text()


def test_desk_R4_blocks_stop_once_they_stall():
    # without the stall rule every block runs its full K: 13 + 25 + 25 steps
    report = run_case("desk_R4")
    assert report.block_stops
    assert set(report.block_stops) <= {"stalled", "target"}
    assert len(report.state.metrics) <= 9
    stops = [m["stop"] for m in report.state.metrics if "stop" in m]
    assert stops == report.block_stops
    assert report.state.metrics[-1]["stop"] == report.block_stops[-1]
    assert "stops=" + " ".join(report.block_stops) in report.dump_lines()
