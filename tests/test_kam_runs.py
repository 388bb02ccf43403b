"""Frozen results of whole two-level runs.

The goldens hold the ``repr`` of ``eps_history``, ``omega_final`` and
``unstable_count`` of each run, and for the runs whose class blocks are
not diagonal the largest off-diagonal |Q| of the final state's h; they are
compared exactly.  The first four were written by ``_write_goldens``
before inner blocks stopped on a stall; regenerate them only for an
intended change of results:
    cd tests && PYTHONPATH=../src python -c \
        "import test_kam_runs as t; t._write_goldens()"
"""
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from kamkit.algebra import symplectic
from kamkit.kam import Schedule, _fold_h_acc, run
from kamkit.models import BeamModel, NlsModel, build_beam, build_nls

from test_acceptance import W, desk_beam

GOLDEN = Path(__file__).parent / "golden" / "kam_runs"


def negative_mode_beam():
    return build_beam(BeamModel(
        d=2, radius=3, nodes=((2, 1),), rho=(0.9,), actions=(0.03,),
        tail={0: -1.0, 1: 0.2}, nonlinearity=((3, (0, 0), 1.0),),
        epsilon=1e-4, delta=2, max_degree=4))


def desk_R4_beam(nodes=((1, 0), (0, 2)), tail={0: 0.5},
                 nonlinearity=((3, (0, 0), 1.0),)):
    """The desk beam at R=4, with the nodes, tail and nonlinearity given."""
    return build_beam(BeamModel(
        d=2, radius=4.0, nodes=nodes, rho=(0.7, 1.3), actions=(0.05, 0.04),
        tail=tail, nonlinearity=nonlinearity, epsilon=1e-4, delta=2,
        max_degree=4))


def momentum_beam(q):
    """The desk beam at R=4 under the real potential cos(q.x) u^3, which
    breaks momentum conservation, so its class blocks are not diagonal."""
    return desk_R4_beam(nonlinearity=((3, q, 0.5),
                                      (3, tuple(-x for x in q), 0.5)))


def closed_finite_beam():
    """mu < 0 on the sphere |a|^2 = 1 and no node there: the finite set is
    (+-1, 0), (0, +-1), closed under a -> -a."""
    return desk_R4_beam(nodes=((1, 1), (0, 2)), tail={0: 0.5, 1: -2.0})


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
    "desk_R4_q10": (lambda: momentum_beam((1, 0)), DESK),
    "desk_R4_q20": (lambda: momentum_beam((2, 0)), DESK),
    "closed_finite": (closed_finite_beam, DESK),
}
# the runs whose goldens also hold the largest off-diagonal |Q|
OFF_DIAGONAL = {"desk_R4_q10", "desk_R4_q20"}


@cache
def run_case(name):
    build, sched = CASES[name]
    h, f = build()
    return run(h, f, sched, W)


def max_off_diagonal(h) -> float:
    return max((float(np.abs(Q - np.diag(np.diag(Q))).max(initial=0.0))
                for Q in h.elliptic_blocks.values()), default=0.0)


def golden_text(name, report) -> str:
    lines = [
        "eps_history " + repr([float(e) for e in report.eps_history]),
        "omega_final " + repr(report.omega_final.tolist()),
        "unstable_count " + repr(report.unstable_count),
    ]
    if name in OFF_DIAGONAL:
        lines.append("max_off_diagonal_Q "
                     + repr(max_off_diagonal(report.state.h)))
    return "\n".join(lines) + "\n"


def _write_goldens():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        (GOLDEN / f"{name}.txt").write_text(golden_text(name,
                                                        run_case(name)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden(name):
    report = run_case(name)
    assert report.aborted is None
    assert golden_text(name, report) == (GOLDEN / f"{name}.txt").read_text()


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


def test_closed_finite_keeps_the_imaginary_k0_finite_block():
    """The k = 0 finite block of a solve goes whole into h_tilde: its
    imaginary part (the p_a q_a rows of the finite sites) reaches the final
    h, and the run meets the contraction rule at every super step.  The
    first solve's k = 0 block is real, so only the folded h shows this."""
    report = run_case("closed_finite")
    H = report.state.h.hyperbolic_block
    assert report.state.h_acc is None and np.abs(H.imag).max() > 1e-12
    hist = report.eps_history
    assert all(b <= max(a ** 1.5, 1e-13) for a, b in zip(hist, hist[1:]))


@pytest.mark.parametrize("name, unstable", [("closed_finite", 4),
                                            ("negative_mode", 1)])
def test_unstable_count_counts_the_unstable_eigenvalues(name, unstable):
    """``unstable_count`` is the number of eigenvalues of J H_final, the
    final h's hyperbolic block, with a positive real part."""
    report = run_case(name)
    st = report.state
    h = st.h if st.h_acc is None else _fold_h_acc(st.h, st.h_acc,
                                                  st.h.partition)
    H = h.hyperbolic_block
    ev = np.linalg.eigvals(symplectic(len(H) // 2) @ H)
    assert report.unstable_count == int((ev.real > 1e-8).sum()) == unstable
