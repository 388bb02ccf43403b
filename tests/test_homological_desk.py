"""Frozen homological solves of the desk beam and of a beam with a closed
finite set.

Each golden holds one ``solve_homological`` with guard 1e-10 and
gamma1=0.4, the inputs of the ``beam_solution`` fixture: the divisor log
sorted by key, the parts of h_tilde, the skip report and the terms of S in
insertion order, each as ``repr`` (numpy scalars and arrays as Python
floats and lists).  ``homological_desk`` solves ``desk_beam()``;
``homological_closed`` solves the beam of ``closed_finite_beam()``, whose
hyperbolic, mixed and zeta-linear hyperbolic systems it pins.  They are
compared exactly; regenerate them only for an intended change of results:
    cd tests && PYTHONPATH=../src python -c \
        "import test_homological_desk as t; t._write_goldens()"
"""
from functools import cache
from pathlib import Path

import pytest

from kamkit import homological
from kamkit.hamiltonian import poisson
from kamkit.homological import (PRUNE_TOL, DivisorGuard, class_tables,
                                solve_homological, solve_linear)
from kamkit.models import BeamModel, build_beam

from test_acceptance import desk_beam
from test_kam_runs import closed_finite_beam

GOLDEN = Path(__file__).parent / "golden"
MODELS = {"homological_desk": desk_beam,
          "homological_closed": closed_finite_beam}


@cache
def solution(case="homological_desk"):
    h, f = MODELS[case]()
    return solve_homological(h, f, DivisorGuard(delta0=1e-10), gamma1=0.4,
                             tables=class_tables(h))


def _lines(items) -> str:
    return "".join(repr(x) + "\n" for x in items)


def golden_texts(sol) -> dict:
    ht = sol.h_tilde
    # an empty H, without a finite set, prints as None
    hyp = ht.hyperbolic_block.tolist() if ht.hyperbolic_block.size else None
    # the k = 0 constant, listed under its key only when it is nonzero
    c = [((0,) * ht.n, ht.const)] if ht.const != 0 else []
    return {
        "divisor_log.txt": _lines(
            (key, tuple(val.tolist()))
            for key, val in sorted(sol.guard.log.items())),
        "h_tilde.txt": _lines([
            ("c", c),
            ("chi", ht.omega.tolist()),
            ("B_elliptic", [(ci, Q.tolist())
                            for ci, Q in ht.elliptic_blocks.items()]),
            ("B_hyperbolic", hyp)]),
        "skipped_report.txt": _lines(sol.skipped_report),
        "S.txt": _lines(sol.S.terms.items()),
    }


def _write_goldens():
    for case in MODELS:
        (GOLDEN / case).mkdir(parents=True, exist_ok=True)
        for name, text in golden_texts(solution(case)).items():
            (GOLDEN / case / name).write_text(text)


FILES = ["divisor_log.txt", "h_tilde.txt", "skipped_report.txt", "S.txt"]


def _matches(case, name) -> bool:
    return (golden_texts(solution(case))[name]
            == (GOLDEN / case / name).read_text())


@pytest.mark.parametrize("name", FILES)
def test_solve_matches_golden(name):
    assert _matches("homological_desk", name)


@pytest.mark.parametrize("name", FILES)
def test_closed_finite_solve_matches_golden(name):
    assert _matches("homological_closed", name)


def _count_linear_solves(monkeypatch) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return solve_linear(*args, **kwargs)

    monkeypatch.setattr(homological, "solve_linear", counted)
    return calls


def test_desk_solve_stops_after_two_linear_solves(monkeypatch):
    """The R=3 desk beam's S has no angle-only rows, so its zeta-linear
    rows are final after the first solve: the first feedback solve leaves
    them as they were, and the solve stops there, with one update."""
    h, f = desk_beam(radius=3.0)
    calls = _count_linear_solves(monkeypatch)
    sol = solve_homological(h, f, DivisorGuard(1e-10), gamma1=0.4,
                            tables=class_tables(h))
    assert not len(sol.S.truncate_degree(0))
    assert len(calls) == 2 and len(sol.picard_updates) == 1


def test_momentum_beam_solve_is_final_after_three_linear_solves(
        monkeypatch):
    """With cos(x_1) u^3 for u^3, S has angle-only rows, which feed S's
    zeta-linear rows through the bracket: the solve takes three linear
    solves, and a fourth, fed the bracket of its S, returns S and h_tilde
    bit for bit."""
    h, f = build_beam(BeamModel(
        d=2, radius=2.0, nodes=((1, 0), (0, 2)), rho=(0.7, 1.3),
        actions=(0.05, 0.04), tail={0: 0.5},
        nonlinearity=((3, (1, 0), 0.5), (3, (-1, 0), 0.5)), epsilon=1e-4,
        delta=2, max_degree=4))
    tables = class_tables(h)
    calls = _count_linear_solves(monkeypatch)
    sol = solve_homological(h, f, DivisorGuard(1e-10), gamma1=0.4,
                            tables=tables)
    assert len(sol.S.truncate_degree(0)) == 2
    assert len(calls) == 3 and len(sol.picard_updates) == 2
    inside = f._in_jet()
    corr = poisson(f._take(~inside), sol.S, finite_set=h.finite_set,
                   max_degree=2, tol=PRUNE_TOL)
    S, ht, _ = solve_linear(h, f._take(inside) + corr,
                            DivisorGuard(1e-10), 0.4, tables)
    assert _bits(S, ht) == _bits(sol.S, sol.h_tilde)


def _bits(S, ht) -> list:
    """S's variables and row arrays and h_tilde's parts, as bytes."""
    return [S.zvars, *(x.tobytes() for x in S.rows), repr(complex(ht.const)),
            ht.omega.tobytes(), ht.hyperbolic_block.tobytes(),
            [(ci, Q.tobytes()) for ci, Q in ht.elliptic_blocks.items()]]
