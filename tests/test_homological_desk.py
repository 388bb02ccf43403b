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

from kamkit.homological import DivisorGuard, class_tables, solve_homological

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
            (key, tuple(map(float, val)))
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
