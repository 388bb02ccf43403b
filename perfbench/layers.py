"""Which kamkit functions the traced run wraps, and the per-layer metrics
computed from the recorded spans.

Every patch targets the attribute its caller looks up: ``kam.run`` calls
``solve_homological`` through ``kamkit.kam``, ``lie_transform`` calls
``poisson`` through ``kamkit.hamiltonian`` and ``solve_homological`` calls
it through ``kamkit.homological``.  Per-layer metrics cover the traced
worker's set-up and run phases together.
"""
from __future__ import annotations

from spans import Tracer, percentile


def _poly_pair(args, out):
    return {"pairs": len(args[0]) * len(args[1]), "terms_out": len(out)}


def _solution(args, out):
    return {"picard_rounds": 1 + len(out.picard_updates),
            "guard_failures": len(out.guard.failures),
            "skipped": len(out.skipped_report)}


def _partition(args, out):
    return {"sites": sum(len(cl) for cl in out.classes),
            "classes": len(out.classes)}


def _grid_cells(args, out):
    return {"cells": int(args[3].mask.sum())}


def _blocks(args, out):
    return {"blocks_in": len(args[0].blocks) + len(args[1].blocks),
            "blocks_out": len(out.blocks)}


def install(tracer: Tracer):
    """Wrap kamkit's layer boundaries; undo with ``tracer.restore()``."""
    from kamkit import (algebra, cli, hamiltonian, homological, kam, lattice,
                        models)
    P = hamiltonian.Polynomial
    spans = [
        (cli, "cmd_kam", "cli.cmd_kam", None),
        (cli, "cmd_blocks", "cli.cmd_blocks", None),
        (cli, "cmd_scan", "cli.cmd_scan", None),
        (cli, "run", "kam.run", None),
        (kam, "inner_step", "kam.inner_step", None),
        (kam, "super_step", "kam.super_step", None),
        (kam, "class_tables", "homological.class_tables", None),
        (homological, "class_tables", "homological.class_tables", None),
        (kam, "solve_homological", "homological.solve_homological",
         _solution),
        (homological, "solve_linear", "homological.solve_linear", None),
        (homological, "poisson", "hamiltonian.poisson", None),
        (hamiltonian, "poisson", "hamiltonian.poisson", None),
        (kam, "lie_transform", "hamiltonian.lie_transform", None),
        (kam, "class_norm", "hamiltonian.class_norm",
         lambda args, out: {"terms": len(args[0])}),
        (cli, "class_norm", "hamiltonian.class_norm",
         lambda args, out: {"terms": len(args[0])}),
        (P, "mul", "hamiltonian.mul", _poly_pair),
        (P, "__add__", "hamiltonian.add", None),
        (cli, "build_partition", "lattice.build_partition", _partition),
        (kam, "build_partition", "lattice.build_partition", _partition),
        (models, "build_partition", "lattice.build_partition", _partition),
        (lattice, "class_diameters", "lattice.class_diameters", None),
        (lattice.BlockPartition, "dump_lines", "lattice.dump_lines", None),
        (cli, "check_A1", "divisors.check_A1", _grid_cells),
        (cli, "melnikov_scan", "divisors.melnikov_scan", _grid_cells),
        (kam, "excise", "divisors.excise", None),
        (algebra.WeightedMatrix, "matmul", "algebra.matmul", _blocks),
        (algebra.WeightedMatrix, "apply", "algebra.apply", None),
        (algebra, "matrix_norm", "algebra.matrix_norm", None),
        (algebra, "seq_norm", "algebra.seq_norm", None),
        (cli, "build_beam", "models.build",
         lambda args, out: {"terms_f0": len(out[1])}),
        (cli, "build_singular", "models.build",
         lambda args, out: {"terms_f0": len(out.f_tilde)}),
        (models, "expand_product", "models.expand_product",
         lambda args, out: {"terms_out": len(out)}),
    ]
    for owner, attr, name, sizes in spans:
        tracer.patch(owner, attr, name, sizes)
    tracer.patch_counter(P, "add_term", "hamiltonian.add_term")


# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "kam.inner_steps": ("count", "lower"),
    "kam.super_steps": ("count", "lower"),
    "kam.inner_step_self_s": ("s", "lower"),
    "kam.inner_step_p50_ms": ("ms", "lower"),
    "kam.inner_step_p90_ms": ("ms", "lower"),
    "kam.super_step_s": ("s", "lower"),
    "hamiltonian.mul_s": ("s", "lower"),
    "hamiltonian.mul_calls": ("count", "lower"),
    "hamiltonian.mul_pairs": ("count", "lower"),
    "hamiltonian.mul_terms_out": ("count", "lower"),
    "hamiltonian.mul_yield": ("frac", "higher"),
    "hamiltonian.mul_pairs_per_s": ("1/s", "higher"),
    "hamiltonian.poisson_s": ("s", "lower"),
    "hamiltonian.poisson_self_s": ("s", "lower"),
    "hamiltonian.poisson_calls": ("count", "lower"),
    "hamiltonian.lie_transform_s": ("s", "lower"),
    "hamiltonian.lie_transform_calls": ("count", "lower"),
    "hamiltonian.lie_order_mean": ("count", "lower"),
    "hamiltonian.class_norm_s": ("s", "lower"),
    "hamiltonian.class_norm_calls": ("count", "lower"),
    "hamiltonian.class_norm_terms": ("count", "lower"),
    "hamiltonian.add_s": ("s", "lower"),
    "hamiltonian.add_calls": ("count", "lower"),
    "hamiltonian.add_term_calls": ("count", "lower"),
    "homological.solve_homological_s": ("s", "lower"),
    "homological.solve_homological_self_s": ("s", "lower"),
    "homological.solve_linear_s": ("s", "lower"),
    "homological.solve_linear_calls": ("count", "lower"),
    "homological.picard_rounds": ("count", "lower"),
    "homological.guard_failures": ("count", "lower"),
    "homological.skipped": ("count", "lower"),
    "homological.class_tables_s": ("s", "lower"),
    "lattice.build_partition_s": ("s", "lower"),
    "lattice.build_partition_calls": ("count", "lower"),
    "lattice.sites": ("count", "lower"),
    "lattice.classes": ("count", "lower"),
    "lattice.sites_per_s": ("1/s", "higher"),
    "lattice.class_diameters_s": ("s", "lower"),
    "lattice.class_diameters_calls": ("count", "lower"),
    "lattice.dump_lines_self_s": ("s", "lower"),
    "divisors.check_A1_s": ("s", "lower"),
    "divisors.melnikov_scan_s": ("s", "lower"),
    "divisors.cells": ("count", "lower"),
    "divisors.surviving_fraction": ("frac", "higher"),
    "divisors.excise_calls": ("count", "lower"),
    "algebra.matmul_s": ("s", "lower"),
    "algebra.matmul_calls": ("count", "lower"),
    "algebra.matmul_blocks_in": ("count", "lower"),
    "algebra.matmul_blocks_out": ("count", "lower"),
    "algebra.matrix_norm_s": ("s", "lower"),
    "algebra.matrix_norm_calls": ("count", "lower"),
    "algebra.apply_s": ("s", "lower"),
    "algebra.seq_norm_s": ("s", "lower"),
    "models.build_s": ("s", "lower"),
    "models.expand_product_s": ("s", "lower"),
    "models.expand_product_calls": ("count", "lower"),
    "models.expand_product_terms_out": ("count", "lower"),
    "models.terms_f0": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.untraced_run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.self_sum_s": ("s", "lower"),
    "trace.speed_factor": ("frac", "lower"),
}


def layer_metrics(tracer: Tracer, extras: dict) -> dict:
    """Per-layer values from the spans, plus the worker-side ``extras``
    (bytes written, surviving fraction).  The ``trace.*`` entries that need
    the untraced run are filled in by the runner."""
    T = tracer.table()
    empty = {"total": 0.0, "self": 0.0, "calls": 0, "durations": [],
             "sizes": {}, "parents": {}}

    def row(name):
        return T.get(name, empty)

    def size(name, key):
        return row(name)["sizes"].get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    mul, poi, lie = (row("hamiltonian.mul"), row("hamiltonian.poisson"),
                     row("hamiltonian.lie_transform"))
    inner = row("kam.inner_step")
    part = row("lattice.build_partition")
    pairs = size("hamiltonian.mul", "pairs")
    sites = size("lattice.build_partition", "sites")
    cli_self = sum(r["self"] for name, r in T.items()
                   if name.startswith("cli."))
    m = {
        "kam.inner_steps": inner["calls"],
        "kam.super_steps": row("kam.super_step")["calls"],
        "kam.inner_step_self_s": inner["self"],
        "kam.inner_step_p50_ms": 1e3 * percentile(inner["durations"], 50),
        "kam.inner_step_p90_ms": 1e3 * percentile(inner["durations"], 90),
        "kam.super_step_s": row("kam.super_step")["total"],
        "hamiltonian.mul_s": mul["total"],
        "hamiltonian.mul_calls": mul["calls"],
        "hamiltonian.mul_pairs": pairs,
        "hamiltonian.mul_terms_out": size("hamiltonian.mul", "terms_out"),
        "hamiltonian.mul_yield": ratio(size("hamiltonian.mul", "terms_out"),
                                       pairs),
        "hamiltonian.mul_pairs_per_s": ratio(pairs, mul["total"]),
        "hamiltonian.poisson_s": poi["total"],
        "hamiltonian.poisson_self_s": poi["self"],
        "hamiltonian.poisson_calls": poi["calls"],
        "hamiltonian.lie_transform_s": lie["total"],
        "hamiltonian.lie_transform_calls": lie["calls"],
        "hamiltonian.lie_order_mean": ratio(
            poi["parents"].get("hamiltonian.lie_transform", 0), lie["calls"]),
        "hamiltonian.class_norm_s": row("hamiltonian.class_norm")["total"],
        "hamiltonian.class_norm_calls": row("hamiltonian.class_norm")["calls"],
        "hamiltonian.class_norm_terms": size("hamiltonian.class_norm",
                                             "terms"),
        "hamiltonian.add_s": row("hamiltonian.add")["total"],
        "hamiltonian.add_calls": row("hamiltonian.add")["calls"],
        "hamiltonian.add_term_calls": tracer.counts["hamiltonian.add_term"],
        "homological.solve_homological_s":
            row("homological.solve_homological")["total"],
        "homological.solve_homological_self_s":
            row("homological.solve_homological")["self"],
        "homological.solve_linear_s": row("homological.solve_linear")["total"],
        "homological.solve_linear_calls":
            row("homological.solve_linear")["calls"],
        "homological.picard_rounds": size("homological.solve_homological",
                                          "picard_rounds"),
        "homological.guard_failures": size("homological.solve_homological",
                                           "guard_failures"),
        "homological.skipped": size("homological.solve_homological",
                                    "skipped"),
        "homological.class_tables_s": row("homological.class_tables")["total"],
        "lattice.build_partition_s": part["total"],
        "lattice.build_partition_calls": part["calls"],
        "lattice.sites": sites,
        "lattice.classes": size("lattice.build_partition", "classes"),
        "lattice.sites_per_s": ratio(sites, part["total"]),
        "lattice.class_diameters_s": row("lattice.class_diameters")["total"],
        "lattice.class_diameters_calls":
            row("lattice.class_diameters")["calls"],
        "lattice.dump_lines_self_s": row("lattice.dump_lines")["self"],
        "divisors.check_A1_s": row("divisors.check_A1")["total"],
        "divisors.melnikov_scan_s": row("divisors.melnikov_scan")["total"],
        "divisors.cells": (size("divisors.check_A1", "cells")
                           + size("divisors.melnikov_scan", "cells")),
        "divisors.surviving_fraction": extras.get("surviving_fraction", 0.0),
        "divisors.excise_calls": row("divisors.excise")["calls"],
        "algebra.matmul_s": row("algebra.matmul")["total"],
        "algebra.matmul_calls": row("algebra.matmul")["calls"],
        "algebra.matmul_blocks_in": size("algebra.matmul", "blocks_in"),
        "algebra.matmul_blocks_out": size("algebra.matmul", "blocks_out"),
        "algebra.matrix_norm_s": row("algebra.matrix_norm")["total"],
        "algebra.matrix_norm_calls": row("algebra.matrix_norm")["calls"],
        "algebra.apply_s": row("algebra.apply")["total"],
        "algebra.seq_norm_s": row("algebra.seq_norm")["total"],
        "models.build_s": row("models.build")["total"],
        "models.expand_product_s": row("models.expand_product")["total"],
        "models.expand_product_calls": row("models.expand_product")["calls"],
        "models.expand_product_terms_out": size("models.expand_product",
                                                "terms_out"),
        "models.terms_f0": size("models.build", "terms_f0"),
        "cli.self_s": cli_self,
        "cli.bytes_written": extras.get("bytes_written", 0),
    }
    return m


def top_self_times(tracer: Tracer, limit: int = 8) -> list:
    """[(span name, self seconds, calls)] sorted by self time."""
    T = tracer.table()
    rows = sorted(((name, r["self"], r["calls"]) for name, r in T.items()),
                  key=lambda t: -t[1])
    return rows[:limit]
