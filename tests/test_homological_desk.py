"""Frozen homological solve of the desk beam.

The golden holds one ``solve_homological`` on ``desk_beam()`` with guard
1e-10 and gamma1=0.4, the inputs of the ``beam_solution`` fixture: the
divisor log sorted by key, the parts of h_tilde, the skip report and the
terms of S in insertion order, each as ``repr`` (numpy scalars and arrays
as Python floats and lists).  It is compared exactly; regenerate it only
for an intended change of results:
    cd tests && PYTHONPATH=../src python -c \
        "import test_homological_desk as t; t._write_goldens()"
"""
from functools import cache
from pathlib import Path

import pytest

from kamkit.homological import DivisorGuard, solve_homological

from test_acceptance import desk_beam

GOLDEN = Path(__file__).parent / "golden" / "homological_desk"


@cache
def solution():
    h, f = desk_beam()
    return solve_homological(h, f, DivisorGuard(delta0=1e-10), gamma1=0.4)


def _lines(items) -> str:
    return "".join(repr(x) + "\n" for x in items)


def golden_texts(sol) -> dict:
    ht = sol.h_tilde
    hyp = (None if ht.hyperbolic_block is None
           else ht.hyperbolic_block.tolist())
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
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, text in golden_texts(solution()).items():
        (GOLDEN / name).write_text(text)


@pytest.mark.parametrize("name", ["divisor_log.txt", "h_tilde.txt",
                                  "skipped_report.txt", "S.txt"])
def test_solve_matches_golden(name):
    assert golden_texts(solution())[name] == (GOLDEN / name).read_text()
