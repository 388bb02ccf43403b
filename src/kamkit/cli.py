"""Command-line front end.

One structured JSON config drives every run; the only positional arguments
are the command and the config path, so each invocation is a reproducible
artifact.  Each command reads every value it uses or records once, through
``read_config``, before it builds a model or writes a file.  Exit codes:
0 success, 2 config error, 3 empty surviving grid, 4 stage abort,
5 smallness-threshold failure; any other exception propagates.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from .algebra import WeightParams
from .divisors import ParameterGrid, check_A1, excise, melnikov_scan
# class_norm is not called here, but perfbench's tracer wraps cli.class_norm
from .hamiltonian import ClassNormParams, StageAbort, class_norm  # noqa: F401
from .kam import (THRESHOLD_CONSTANTS, UNSTABLE_FACTOR, Schedule, run,
                  singular_gate_inputs, singular_threshold)
from .lattice import (build_partition, build_partitions, max_diameter,
                      norm_sq)
from .models import (BeamModel, ModelError, NlsModel, SingularBeamModel,
                     build_beam, build_nls, build_singular)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY_GRID = 3
EXIT_ABORT = 4
EXIT_THRESHOLD = 5


class ConfigError(Exception):
    pass


# -- the reader -----------------------------------------------------------------

def _is_number(v, kind=(int, float)) -> bool:
    """The one rule for a JSON number (``kind=int``: an integer): a
    boolean or a string is never one."""
    return isinstance(v, kind) and not isinstance(v, bool)


_is_int = partial(_is_number, kind=int)


def _is_finite(v) -> bool:
    # compared, not converted: an integer beyond the floats is not finite
    return _is_number(v) and abs(v) <= sys.float_info.max


def _check(ok, want: str, convert=None):
    """A field check: the value (``convert``-ed, if given) when ``ok``
    holds for it, else a config error that names the field."""
    def check(value, key: str):
        if not ok(value):
            raise ConfigError(f"field '{key}' must be {want}, got {value!r}")
        return convert(value) if convert else value
    return check


_MODELS = {"beam": BeamModel, "nls": NlsModel, "singular": SingularBeamModel}
_INTEGER = _check(_is_int, "an integer")
_NATURAL = _check(lambda v: _is_int(v) and v >= 0, "a nonnegative integer")
_COUNT = _check(lambda v: _is_int(v) and v > 0, "a positive integer")
_FINITE = _check(_is_finite, "a finite number")
_FLOAT = _check(_is_finite, "a finite number", float)
_POSITIVE = _check(lambda v: _is_number(v) and v > 0, "a positive number")
_FINITE_POSITIVE = _check(lambda v: _is_finite(v) and v > 0,
                          "a finite positive number")
_RADIUS = _check(lambda v: _is_finite(v) and v > 0,
                 "a finite positive number", float)
_DELTA = _check(lambda v: v == math.inf or _is_finite(v) and v >= 0,
                "a nonnegative number or Infinity", float)
_FLAG = _check(lambda v: isinstance(v, bool), "true or false")
_TEXT = _check(lambda v: isinstance(v, str), "a string")
_KIND = _check(lambda v: isinstance(v, str) and v in _MODELS,
               "'beam', 'nls' or 'singular'")
_TAIL = _check(lambda v: isinstance(v, dict) and all(
    k.isdecimal() and str(int(k)) == k and _is_finite(x)
    for k, x in v.items()), "an object from decimal |a|^2 to finite numbers",
    lambda v: {int(k): x for k, x in v.items()})
_DELTAS = _check(lambda v: isinstance(v, list) and all(
    x in ("inf", "Infinity") or _is_number(x) and x >= 0 for x in v),
    "a list of nonnegative numbers or 'inf'")
_BOUNDS = _check(lambda v: isinstance(v, list) and all(
    isinstance(b, list) and len(b) == 2 and all(map(_is_finite, b))
    for b in v), "a list of [lo, hi] pairs of finite numbers",
    lambda v: [tuple(b) for b in v])


def _vector(ok, want: str, n=None, what="a vector", per=""):
    """A check for a list of entries for which ``ok`` holds, n of them
    when n is given; the list as a tuple."""
    def check(value, key: str):
        _check(lambda v: isinstance(v, list) and all(map(ok, v)),
               f"a list of {want}")(value, key)
        if n is not None and len(value) != n:
            raise ConfigError(f"'{key}' has {what} of length {len(value)}; "
                              f"expected {n}, {per}")
        return tuple(value)
    return check


def _points(d: int):
    """A check for distinct lattice points of d integer coordinates."""
    return _check(lambda v: isinstance(v, list) and all(
        isinstance(p, list) and len(p) == d and all(map(_is_int, p))
        for p in v) and len(set(map(tuple, v))) == len(v),
        f"a list of distinct points of {d} integers",
        lambda v: tuple(map(tuple, v)))


def _records(*parts):
    """A check for a list of entries of one value per part: entry i is
    named ``key[i]``, and each of its values is read by its part."""
    def check(value, key: str):
        entries = _vector(lambda e: isinstance(e, list)
                          and len(e) == len(parts),
                          f"lists of {len(parts)} values")(value, key)
        return tuple(tuple(part(x, f"{key}[{i}]")
                           for part, x in zip(parts, e))
                     for i, e in enumerate(entries))
    return check


_REQUIRED = object()


class _Section:
    """A config object read field by field.  Unknown keys are rejected
    when it is made, null reads as an empty object, and each field goes
    through its check under the name ``section.key``."""

    def __init__(self, raw, name: str, keys):
        raw = {} if raw is None else raw
        if not isinstance(raw, dict):
            raise ConfigError(f"section '{name}' must be an object, got "
                              f"{raw!r}")
        unknown = set(raw) - set(keys)
        if unknown:
            raise ConfigError(
                f"unknown keys in '{name}': {', '.join(sorted(unknown))}")
        self.raw, self.name = raw, name

    def __call__(self, key: str, check, default=_REQUIRED):
        """Field ``key``, or ``default`` when it is absent, by ``check``."""
        value = self.raw.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(
                f"missing required field '{key}' in '{self.name}'")
        return check(value, key if self.name == "config"
                     else f"{self.name}.{key}")

    def section(self, key: str, keys, required=False) -> _Section:
        """The object at ``key`` as a section of ``keys``."""
        return self(key, lambda v, name: _Section(v, name, keys),
                    _REQUIRED if required else None)


def _params(root: _Section, name: str, cls, **defaults):
    """Section ``name`` as ``cls`` (``Schedule``, ``WeightParams`` or
    ``ClassNormParams``): each field an integer or a finite number by its
    annotation, absent ones at ``defaults`` or the class's own; ``cls``
    checks the ranges."""
    s = root.section(name, [f.name for f in fields(cls)])
    try:
        return cls(**{f.name: s(f.name, _INTEGER if f.type in ("int", int)
                                else _FINITE, defaults.get(f.name, f.default))
                      for f in fields(cls)})
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"invalid '{name}': {exc}") from exc


def read_model(cfg, name: str = "model"):
    """The model section as a ``BeamModel``, ``NlsModel`` or
    ``SingularBeamModel``, every field checked; nothing is built."""
    # the kind names the model class, whose fields are the section's keys
    cls = _MODELS[_Section(cfg, name, cfg or ())("kind", _KIND)]
    s = _Section(cfg, name, {"kind", "R", *(f.name for f in fields(cls))}
                 - {"radius"})
    d = s("d", _COUNT)
    sizer = "rho" if cls is NlsModel else "nodes"
    first = s(sizer, _vector(_is_finite, "finite numbers")
              if cls is NlsModel else _points(d))
    if not first:
        raise ConfigError(f"field '{name}.{sizer}' is empty; the model "
                          "needs at least one entry")
    per_node = _vector(_is_finite, "finite numbers", len(first), "a vector",
                       "one per node")
    wave = _vector(_is_int, "integers", d, "a wave vector", "the model's d")
    v = {"d": d, "radius": s("R", _RADIUS), sizer: first,
         "max_degree": s("max_degree", _NATURAL,
                         5 if cls is SingularBeamModel else 4)}
    if cls is not NlsModel:
        v.update(actions=s("actions", per_node),
                 r_degree=s("r_degree", _NATURAL, 1))
    if cls is not BeamModel:
        v["mass"] = s("mass", _FLOAT)
    if cls is not SingularBeamModel:
        v.update(epsilon=s("epsilon", _FLOAT, 1.0),
                 delta=s("delta", _DELTA, 2))
    if cls is BeamModel:
        v.update(rho=s("rho", per_node), tail=s("tail", _TAIL, {}),
                 nonlinearity=s("nonlinearity",
                                _records(_NATURAL, wave, _FINITE), []))
    elif cls is NlsModel:
        angle = _vector(_is_int, "integers", len(first),
                        "an angle vector", "one per rho")
        v.update(alpha=s("alpha", _FLOAT), forcing=s("forcing", _records(
            angle, _NATURAL, _NATURAL, wave, _FINITE), []))
    else:
        v.update(birkhoff_threshold=s("birkhoff_threshold", _FLOAT, 1e-6),
                 quintic=s("quintic", _FLOAT, 0.0))
    return cls(**v)


def _grid(cfg, floors) -> ParameterGrid | None:
    """The grid section, or None when there is none: one axis per
    parameter, each above its floor (the frequency map's domain)."""
    if cfg is None:
        return None
    s = _Section(cfg, "grid", ("bounds", "resolution", "ball"))
    bounds = s("bounds", _BOUNDS)
    if len(bounds) != len(floors):
        raise ConfigError(f"field 'grid.bounds' has {len(bounds)} axes; "
                          f"expected {len(floors)}, the model's parameter "
                          "count")
    for j, ((lo, _), floor) in enumerate(zip(bounds, floors)):
        if lo <= floor:
            raise ConfigError(
                f"field 'grid.bounds' has rho_{j} from {lo:g}, but its "
                f"node's frequency sqrt(|a|^4 + rho_{j}) needs rho_{j} > "
                f"{floor:g}")
    try:
        return ParameterGrid(bounds=bounds,
                             resolution=s("resolution", _INTEGER, 64),
                             ball=s("ball", _FLAG, False))
    except ValueError as exc:
        raise ConfigError(f"invalid 'grid': {exc}") from exc


def load_config(path: str):
    """The JSON at ``path``; ``read_config`` checks it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:    # unreadable, or not JSON
        raise ConfigError(f"cannot read config: {exc}") from exc


def read_config(cfg, command: str) -> dict:
    """Every value ``command`` uses or records, each read once through its
    check, before a model is built or a file is written.  A section is
    read only by a command that uses a value from it."""
    root = _Section(cfg, "config", ("seed", "output_dir", "blocks", "model",
                                    "grid", "guard", "schedule", "weights",
                                    "norm", "threshold"))
    conf = {"seed": root("seed", _INTEGER, 0),
            "output_dir": Path(root("output_dir", _TEXT, "out"))}
    if command == "blocks":
        s = root.section("blocks", ("d", "R", "deltas", "finite_set",
                                    "core_cutoff"), required=True)
        d, R = s("d", _COUNT), s("R", _RADIUS)
        conf.update(blocks=s.raw, d=d, R=R, deltas=s("deltas", _DELTAS),
                    finite_set=s("finite_set", _points(d), []),
                    core_cutoff=s("core_cutoff", _check(
                        lambda v: _is_number(v) and 0 <= v <= R,
                        f"a nonnegative number no larger than R = {R:g}"),
                        1.0))
        return conf
    model = conf["model"] = root("model", read_model)
    singular = isinstance(model, SingularBeamModel)
    if singular and command == "scan":
        raise ConfigError("scan expects a parameterized model (beam or nls)")
    if command == "kam":
        conf.update(weights=_params(root, "weights", WeightParams,
                                    gamma1=0.4, kappa=0.5),
                    norm=_params(root, "norm", ClassNormParams))
    if singular:
        c = root.section("threshold", ("constants",)).section(
            "constants", THRESHOLD_CONSTANTS)
        # eps0 and c29 scale the gate's bounds, so each must be positive
        conf["constants"] = {key: c(key, _FINITE_POSITIVE if key in (
            "eps0", "c29") else _FINITE) for key in c.raw}
        return conf
    floors = ([-math.inf] * len(model.rho) if isinstance(model, NlsModel)
              else [-norm_sq(a) ** 2 for a in model.nodes])
    n = len(floors)
    g = root.section("guard", ("delta0", "C", "tau", "beta", "c", "K_max"))
    conf["guard"] = {"K_max": g("K_max", _COUNT, 20 * n), **{
        key: g(key, _POSITIVE, default) for key, default in (
            ("delta0", 1e-8), ("C", 1.0), ("tau", n + 1), ("beta", 1.0),
            ("c", 1.0))}}
    conf["grid"] = root("grid", lambda v, key: _grid(v, floors),
                        _REQUIRED if command == "scan" else None)
    if command == "kam":
        conf["schedule"] = _params(root, "schedule", Schedule)
    return conf


def build_model(model):
    """(kind, model, what its builder returns) for a model section, or for
    a model that ``read_model`` has read.  A builder's rejection of the
    model's data (``ModelError``) is a config error."""
    if not isinstance(model, tuple(_MODELS.values())):
        model = read_model(model)
    kind, build = {
        BeamModel: ("beam", build_beam), NlsModel: ("nls", build_nls),
        SingularBeamModel: ("singular", build_singular)}[type(model)]
    try:
        return kind, model, build(model)
    except ModelError as exc:
        raise ConfigError(str(exc)) from exc


# -- artifacts ------------------------------------------------------------------

def _write(path: Path, lines):
    path.write_text("\n".join(lines) + "\n")


def write_manifest(conf: dict, extra: dict):
    """What the command read into ``conf``, each value as it took effect,
    plus run extras."""
    manifest = {"seed": conf["seed"], **extra, **{
        key: vars(conf[key]) for key in ("schedule", "weights", "norm")
        if key in conf}}
    if "guard" in conf:
        manifest["guard"] = conf["guard"]
    if conf.get("grid") is not None:
        manifest["grid_resolution"] = conf["grid"].resolution
    (conf["output_dir"] / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")


# -- commands -------------------------------------------------------------------

def cmd_blocks(cfg: dict) -> int:
    conf = read_config(cfg, "blocks")
    try:    # build_partitions checks its arguments when it is called
        parts = build_partitions(
            [math.inf if raw in ("inf", "Infinity") else raw
             for raw in conf["deltas"]], conf["R"], conf["d"],
            finite_set=conf["finite_set"], core_cutoff=conf["core_cutoff"])
    except ValueError as exc:     # a finite set point outside the ball
        raise ConfigError(f"invalid 'blocks.finite_set': {exc}") from exc
    outdir = conf["output_dir"]
    outdir.mkdir(parents=True, exist_ok=True)
    table = ["delta max_diameter classes"]
    for raw, p in zip(conf["deltas"], parts):
        _write(outdir / f"partition_delta_{raw}.txt", p.dump_lines())
        table.append(f"{raw} {max_diameter(p):.6g} {len(p.ends) - 1}")
        # free this partition before the next is built
        del p
    _write(outdir / "diameters.txt", table)
    write_manifest(conf, {"command": "blocks", "blocks": conf["blocks"],
                          "core_cutoff": conf["core_cutoff"]})
    return EXIT_OK


def cmd_scan(cfg: dict) -> int:
    conf = read_config(cfg, "scan")
    kind, _model, (h, _f) = build_model(conf["model"])
    grid, guard, outdir = conf["grid"], conf["guard"], conf["output_dir"]
    outdir.mkdir(parents=True, exist_ok=True)

    p = h.partition
    sphere_p = build_partition(math.inf, p.radius, p.d,
                               finite_set=p.finite_set,
                               core_cutoff=p.core_cutoff,
                               exclude=p.exclude)
    rep_a1 = check_A1(p.sites(), h.lambda_fn, sphere_p, grid,
                      delta0=guard["delta0"], beta=guard["beta"],
                      c_const=guard["c"], H=h.hyperbolic_block)
    rep_mel = melnikov_scan(h.omega_fn, h.lambda_fn, p, grid,
                            C=guard["C"], tau=guard["tau"],
                            K_max=guard["K_max"])
    _write(outdir / "first_hypothesis.txt", rep_a1.dump_lines())
    _write(outdir / "melnikov.txt", rep_mel.dump_lines())

    bad = np.zeros(grid.mask.size, dtype=bool)
    bad[rep_a1.bad_cells + rep_mel.bad_cells] = True
    _, surviving = excise(grid, bad)
    (outdir / "surviving.mask").write_bytes(surviving.mask_bits())
    write_manifest(conf, {
        "command": "scan", "model_kind": kind, "core_cutoff": p.core_cutoff,
        "surviving_measure": surviving.measure(),
        "a1_bad_measure": rep_a1.bad_measure,
        "melnikov_bad_measure": rep_mel.bad_measure,
    })
    if surviving.measure() == 0.0:
        print("empty surviving grid", file=sys.stderr)
        return EXIT_EMPTY_GRID
    return EXIT_OK


def cmd_kam(cfg: dict) -> int:
    conf = read_config(cfg, "kam")
    kind, model, built = build_model(conf["model"])
    norm, weights = conf["norm"], conf["weights"]
    outdir = conf["output_dir"]
    outdir.mkdir(parents=True, exist_ok=True)
    extra = {"command": "kam", "model_kind": kind}

    if kind == "singular":
        eps, delta0, chi, xi = singular_gate_inputs(built, norm, weights)
        ok, margins = singular_threshold(eps, delta0, chi, xi,
                                         conf["constants"])
        extra.update({"threshold_inputs": [eps, delta0, chi, xi],
                      "threshold_margins": margins, "threshold_constants":
                      {**THRESHOLD_CONSTANTS, **conf["constants"]},
                      "birkhoff_threshold": model.birkhoff_threshold})
        write_manifest(conf, extra)
        if not ok:
            print("smallness threshold failed; margins: "
                  + json.dumps(margins, sort_keys=True), file=sys.stderr)
            return EXIT_THRESHOLD
        print("smallness threshold passed; margins: "
              + json.dumps(margins, sort_keys=True))
        return EXIT_OK

    h, f = built
    report = run(h, f, conf["schedule"], weights,
                 guard_delta0=conf["guard"]["delta0"], norm=norm,
                 grid=conf["grid"])
    metrics = [json.dumps(m, sort_keys=True)
               for m in report.state.metrics]
    _write(outdir / "metrics.jsonl", metrics or ["{}"])
    _write(outdir / "final_report.txt", report.dump_lines())
    extra.update(eps_history=report.eps_history,
                 core_cutoff=h.partition.core_cutoff,
                 unstable_real_part_factor=UNSTABLE_FACTOR)
    write_manifest(conf, extra)
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
        return COMMANDS[args.command](load_config(args.config))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageAbort as exc:
        print(f"stage abort: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
