"""Command-line front end.

One structured JSON config drives every run; the only positional arguments
are the command and the config path, so each invocation is a reproducible
artifact.  Exit codes: 0 success, 2 config error, 3 empty surviving grid,
4 stage abort, 5 smallness-threshold failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .algebra import WeightParams
from .divisors import ParameterGrid, check_A1, melnikov_scan
# class_norm is not called here, but perfbench's tracer wraps cli.class_norm
from .hamiltonian import ClassNormParams, StageAbort, class_norm  # noqa: F401
from .kam import Schedule, run, singular_gate_inputs, singular_threshold
from .lattice import (_as_point, build_partition, build_partitions,
                      max_diameter)
from .models import (BeamModel, NlsModel, SingularBeamModel, build_beam,
                     build_nls, build_singular)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY_GRID = 3
EXIT_ABORT = 4
EXIT_THRESHOLD = 5


class ConfigError(Exception):
    pass


def _require(cfg: dict, key: str, section: str):
    if key not in cfg:
        raise ConfigError(f"missing required field '{key}' in '{section}'")
    return cfg[key]


def _check_keys(cfg: dict, allowed: set, section: str):
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(
            f"unknown keys in '{section}': {', '.join(sorted(unknown))}")


def _positive(value, key: str):
    if not (isinstance(value, (int, float)) and value > 0):
        raise ConfigError(f"field '{key}' must be a positive number")
    return value


def _construct(cls, cfg: dict, section: str):
    """cls(**cfg), with the class's own validation as a config error."""
    try:
        return cls(**cfg)
    except ValueError as exc:
        raise ConfigError(f"invalid '{section}': {exc}") from exc


def _integer(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field '{key}' must be an integer, got {value!r}")
    return value


def _points(seq, key: str) -> tuple:
    """Lattice points, with integer coordinates (``_as_point``)."""
    try:
        return tuple(_as_point(p) for p in seq)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid '{key}': {exc}") from exc


def _wave(x, d: int, field: str) -> tuple:
    """A term's x wave vector, of the model's length d."""
    x = tuple(x)
    if len(x) != d:
        raise ConfigError(f"'{field}' has a wave vector of length {len(x)}; "
                          f"expected {d}, the model's d")
    return x


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _check_keys(cfg, {"seed", "output_dir", "blocks", "model", "grid",
                      "guard", "schedule", "weights", "norm", "threshold"},
                "config")
    return cfg


# -- section parsers ------------------------------------------------------------

def parse_grid(cfg: dict | None, params: int) -> ParameterGrid | None:
    """The grid section, over a model with ``params`` parameters."""
    if cfg is None:
        return None
    _check_keys(cfg, {"bounds", "resolution", "ball"}, "grid")
    bounds = [tuple(b) for b in _require(cfg, "bounds", "grid")]
    if len(bounds) != params:
        raise ConfigError(f"field 'grid.bounds' has {len(bounds)} axes; "
                          f"expected {params}, the model's parameter count")
    return _construct(ParameterGrid, {
        "bounds": bounds, "resolution": cfg.get("resolution", 64),
        "ball": bool(cfg.get("ball", False))}, "grid")


def parse_guard(cfg: dict, n: int) -> dict:
    """The guard section, over a torus of dimension n."""
    cfg = dict(cfg or {})
    _check_keys(cfg, {"delta0", "C", "tau", "beta", "c", "K_max"}, "guard")
    K_max = cfg.get("K_max", 20 * n)
    if isinstance(K_max, bool) or not isinstance(K_max, int) or K_max <= 0:
        raise ConfigError("field 'guard.K_max' must be a positive integer, "
                          f"got {K_max!r}")
    out = {
        "delta0": _positive(cfg.get("delta0", 1e-8), "guard.delta0"),
        "C": _positive(cfg.get("C", 1.0), "guard.C"),
        "tau": cfg.get("tau", n + 1),
        "beta": _positive(cfg.get("beta", 1.0), "guard.beta"),
        "c": _positive(cfg.get("c", 1.0), "guard.c"),
        "K_max": K_max,
    }
    _positive(out["tau"], "guard.tau")
    return out


def parse_schedule(cfg: dict | None) -> Schedule:
    cfg = dict(cfg or {})
    allowed = set(Schedule.__dataclass_fields__)
    _check_keys(cfg, allowed, "schedule")
    return _construct(Schedule, cfg, "schedule")


def parse_weights(cfg: dict | None) -> WeightParams:
    cfg = dict(cfg or {})
    _check_keys(cfg, set(WeightParams.__dataclass_fields__), "weights")
    cfg.setdefault("gamma1", 0.4)
    cfg.setdefault("kappa", 0.5)
    return _construct(WeightParams, cfg, "weights")


def parse_norm(cfg: dict | None, seed: int) -> ClassNormParams:
    cfg = dict(cfg or {})
    _check_keys(cfg, set(ClassNormParams.__dataclass_fields__), "norm")
    cfg.setdefault("seed", seed)
    return _construct(ClassNormParams, cfg, "norm")


def build_model(cfg: dict):
    cfg = dict(cfg or {})
    kind = _require(cfg, "kind", "model")
    try:
        common = {"kind"}
        if kind == "beam":
            _check_keys(cfg, common | {"d", "R", "nodes", "rho", "actions",
                                       "tail", "nonlinearity", "epsilon",
                                       "delta", "r_degree", "max_degree"},
                        "model")
            d = _integer(_require(cfg, "d", "model"), "model.d")
            model = BeamModel(
                d=d,
                radius=float(_require(cfg, "R", "model")),
                nodes=_points(cfg.get("nodes", ()), "model.nodes"),
                rho=tuple(cfg.get("rho", ())),
                actions=tuple(cfg.get("actions", ())),
                tail={int(k): v for k, v in cfg.get("tail", {}).items()},
                nonlinearity=tuple(
                    (_integer(p, f"model.nonlinearity[{i}]"),
                     _wave(x, d, f"model.nonlinearity[{i}]"), c)
                    for i, (p, x, c) in enumerate(cfg.get("nonlinearity",
                                                          ()))),
                epsilon=float(cfg.get("epsilon", 1.0)),
                delta=float(cfg.get("delta", 2)),
                r_degree=_integer(cfg.get("r_degree", 1), "model.r_degree"),
                max_degree=_integer(cfg.get("max_degree", 4),
                                    "model.max_degree"))
            return kind, model, build_beam(model)
        if kind == "nls":
            _check_keys(cfg, common | {"d", "R", "mass", "alpha", "rho",
                                       "forcing", "epsilon", "delta",
                                       "max_degree"}, "model")
            d = _integer(_require(cfg, "d", "model"), "model.d")
            model = NlsModel(
                d=d,
                radius=float(_require(cfg, "R", "model")),
                mass=float(_require(cfg, "mass", "model")),
                alpha=float(_require(cfg, "alpha", "model")),
                rho=tuple(_require(cfg, "rho", "model")),
                forcing=tuple(
                    (tuple(kt), _integer(p, f"model.forcing[{i}]"),
                     _integer(q, f"model.forcing[{i}]"),
                     _wave(x, d, f"model.forcing[{i}]"), c)
                    for i, (kt, p, q, x, c) in enumerate(cfg.get("forcing",
                                                                 ()))),
                epsilon=float(cfg.get("epsilon", 1.0)),
                delta=float(cfg.get("delta", 2)),
                max_degree=_integer(cfg.get("max_degree", 4),
                                    "model.max_degree"))
            return kind, model, build_nls(model)
        if kind == "singular":
            _check_keys(cfg, common | {"d", "R", "nodes", "mass", "actions",
                                       "birkhoff_threshold", "quintic",
                                       "r_degree", "max_degree"}, "model")
            model = SingularBeamModel(
                d=_integer(_require(cfg, "d", "model"), "model.d"),
                radius=float(_require(cfg, "R", "model")),
                nodes=_points(_require(cfg, "nodes", "model"), "model.nodes"),
                mass=float(_require(cfg, "mass", "model")),
                actions=tuple(_require(cfg, "actions", "model")),
                birkhoff_threshold=float(cfg.get("birkhoff_threshold", 1e-6)),
                quintic=float(cfg.get("quintic", 0.0)),
                r_degree=_integer(cfg.get("r_degree", 1), "model.r_degree"),
                max_degree=_integer(cfg.get("max_degree", 5),
                                    "model.max_degree"))
            return kind, model, build_singular(model)
        raise ConfigError(f"unknown model kind '{kind}'")
    except ValueError as exc:     # a value the model or its builder rejects
        raise ConfigError(str(exc)) from exc


# -- artifacts ------------------------------------------------------------------

def _write(path: Path, lines):
    path.write_text("\n".join(lines) + "\n")


def write_manifest(outdir: Path, cfg: dict, extra: dict):
    """Every ledgered tunable with its effective value, plus run extras."""
    manifest = {
        "seed": cfg.get("seed", 0),
        "core_cutoff": 1.0,     # model partitions; cmd_blocks passes its own
        "grid_resolution": (cfg.get("grid") or {}).get("resolution", 64),
        "unstable_real_part_factor": 10,
    }
    manifest["schedule"] = vars(parse_schedule(cfg.get("schedule")))
    manifest["weights"] = vars(parse_weights(cfg.get("weights")))
    manifest["norm"] = vars(parse_norm(cfg.get("norm"),
                                       cfg.get("seed", 2024)))
    manifest.update(extra)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")
    return manifest


# -- commands -------------------------------------------------------------------

def cmd_blocks(cfg: dict) -> int:
    section = dict(_require(cfg, "blocks", "config"))
    _check_keys(section, {"d", "R", "deltas", "finite_set", "core_cutoff"},
                "blocks")
    d = _integer(_require(section, "d", "blocks"), "blocks.d")
    R = float(_require(section, "R", "blocks"))
    deltas = _require(section, "deltas", "blocks")
    for raw in deltas:
        if not (raw in ("inf", "Infinity")
                or (isinstance(raw, (int, float))
                    and not isinstance(raw, bool) and raw >= 0)):
            raise ConfigError(
                "field 'blocks.deltas' takes nonnegative numbers or 'inf', "
                f"got {raw!r}")
    core_cutoff = section.get("core_cutoff", 1.0)
    if not (isinstance(core_cutoff, (int, float))
            and not isinstance(core_cutoff, bool) and 0 <= core_cutoff <= R):
        raise ConfigError(
            "field 'blocks.core_cutoff' takes a nonnegative number no larger "
            f"than R = {R:g}, got {core_cutoff!r}")
    try:
        parts = build_partitions(
            [math.inf if raw in ("inf", "Infinity") else raw
             for raw in deltas], R, d,
            finite_set=_points(section.get("finite_set", ()),
                               "blocks.finite_set"),
            core_cutoff=core_cutoff)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'blocks.finite_set': {exc}") from exc
    outdir = Path(cfg.get("output_dir", "out"))
    outdir.mkdir(parents=True, exist_ok=True)
    table = ["delta max_diameter classes"]
    for raw, p in zip(deltas, parts):
        _write(outdir / f"partition_delta_{raw}.txt", p.dump_lines())
        table.append(f"{raw} {max_diameter(p):.6g} {len(p.ends) - 1}")
        # free this partition before the next is built
        del p
    _write(outdir / "diameters.txt", table)
    write_manifest(outdir, cfg, {"command": "blocks", "blocks": section,
                                 "core_cutoff": core_cutoff})
    return EXIT_OK


def cmd_scan(cfg: dict) -> int:
    kind, model, built = build_model(_require(cfg, "model", "config"))
    if kind == "singular":
        raise ConfigError("scan expects a parameterized model (beam or nls)")
    h, _f = built
    grid = parse_grid(cfg.get("grid"), len(h.rho_star))
    if grid is None:
        raise ConfigError("missing required field 'grid' in 'config'")
    guard = parse_guard(cfg.get("guard"), h.n)
    outdir = Path(cfg.get("output_dir", "out"))
    outdir.mkdir(parents=True, exist_ok=True)

    p = h.partition
    sites = [a for cl in p.classes for a in cl]
    sphere_p = build_partition(math.inf, p.radius, p.d,
                               finite_set=p.finite_set,
                               core_cutoff=p.core_cutoff,
                               exclude=p.exclude)
    rep_a1 = check_A1(sites, h.lambda_fn, sphere_p, grid,
                      delta0=guard["delta0"], beta=guard["beta"],
                      c_const=guard["c"],
                      H_fn=(lambda rho: h.hyperbolic_block)
                      if h.hyperbolic_block is not None else None)
    rep_mel = melnikov_scan(h.omega_fn, h.lambda_fn, p, grid,
                            C=guard["C"], tau=guard["tau"],
                            K_max=guard["K_max"])
    _write(outdir / "first_hypothesis.txt", rep_a1.dump_lines())
    _write(outdir / "melnikov.txt", rep_mel.dump_lines())

    surviving = grid.copy()
    bad = set(rep_a1.bad_cells) | set(rep_mel.bad_cells)
    flat = surviving.mask.reshape(-1)
    for idx in bad:
        flat[idx] = False
    (outdir / "surviving.mask").write_bytes(surviving.mask_bits())
    write_manifest(outdir, cfg, {
        "command": "scan", "guard": guard, "model_kind": kind,
        "surviving_measure": surviving.measure(),
        "a1_bad_measure": rep_a1.bad_measure,
        "melnikov_bad_measure": rep_mel.bad_measure,
    })
    if surviving.measure() == 0.0:
        print("empty surviving grid", file=sys.stderr)
        return EXIT_EMPTY_GRID
    return EXIT_OK


def cmd_kam(cfg: dict) -> int:
    kind, model, built = build_model(_require(cfg, "model", "config"))
    outdir = Path(cfg.get("output_dir", "out"))
    outdir.mkdir(parents=True, exist_ok=True)
    sched = parse_schedule(cfg.get("schedule"))
    weights = parse_weights(cfg.get("weights"))
    guard = parse_guard(cfg.get("guard"), len(built.omega_I)
                        if kind == "singular" else built[0].n)
    extra = {"command": "kam", "guard": guard, "model_kind": kind}

    if kind == "singular":
        nform = built
        gate_cfg = dict(cfg.get("threshold") or {})
        _check_keys(gate_cfg, {"constants"}, "threshold")
        eps, delta0, chi, xi = singular_gate_inputs(
            nform, parse_norm(cfg.get("norm"), cfg.get("seed", 2024)),
            weights)
        ok, margins = singular_threshold(eps, delta0, chi, xi,
                                         gate_cfg.get("constants"))
        extra.update({"threshold_inputs": [eps, delta0, chi, xi],
                      "threshold_margins": margins,
                      "birkhoff_threshold": model.birkhoff_threshold})
        write_manifest(outdir, cfg, extra)
        if not ok:
            print("smallness threshold failed; margins: "
                  + json.dumps(margins, sort_keys=True), file=sys.stderr)
            return EXIT_THRESHOLD
        print("smallness threshold passed; margins: "
              + json.dumps(margins, sort_keys=True))
        return EXIT_OK

    h, f = built
    grid = parse_grid(cfg.get("grid"), len(h.rho_star))
    report = run(h, f, sched, weights, guard_delta0=guard["delta0"],
                 grid=grid)
    metrics = [json.dumps(m, sort_keys=True)
               for m in report.state.metrics]
    _write(outdir / "metrics.jsonl", metrics or ["{}"])
    _write(outdir / "final_report.txt", report.dump_lines())
    extra["eps_history"] = report.eps_history
    write_manifest(outdir, cfg, extra)
    if report.aborted:
        print(f"stage abort: {report.aborted}", file=sys.stderr)
        return EXIT_ABORT
    if report.state.grid is not None and report.state.grid.measure() == 0:
        print("empty surviving grid", file=sys.stderr)
        return EXIT_EMPTY_GRID
    return EXIT_OK


COMMANDS = {"blocks": cmd_blocks, "scan": cmd_scan, "kam": cmd_kam}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kamkit", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", help="path to the JSON run config")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return COMMANDS[args.command](cfg)
    except (ConfigError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageAbort as exc:
        print(f"stage abort: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
