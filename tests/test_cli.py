import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kamkit
from kamkit import algebra, kam, models
from kamkit.cli import build_model, main
from kamkit.kam import Schedule
from kamkit.lattice import build_partition

BEAM_MODEL = {
    "kind": "beam", "d": 2, "R": 2, "nodes": [[1, 0], [0, 2]],
    "rho": [0.7, 1.3], "actions": [0.05, 0.04], "tail": {"0": 0.5},
    "nonlinearity": [[3, [0, 0], 1.0]], "epsilon": 1e-4, "delta": 2,
}

NLS_MODEL = {"kind": "nls", "d": 2, "R": 2, "mass": 1.0, "alpha": 1.0,
             "rho": [1.0], "forcing": [[[1], 1, 1, [0, 0], 0.1]]}

SINGULAR_MODEL = {"kind": "singular", "d": 2, "R": 4,
                  "nodes": [[0, 1], [1, -1]], "mass": 1.37,
                  "actions": [1e-4, 1.3e-4]}


def write_cfg(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_all(outdir):
    return {p.name: p.read_bytes() for p in Path(outdir).iterdir()
            if p.is_file()}


def test_blocks_writes_partitions_and_table(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "output_dir": str(out),
        "blocks": {"d": 2, "R": 20, "deltas": [1, 2, 3, 4, 5]},
    })
    assert main(["blocks", cfg]) == 0
    files = read_all(out)
    assert sum(1 for n in files if n.startswith("partition_delta_")) == 5
    assert "diameters.txt" in files
    assert "manifest.json" in files


def test_blocks_infinite_delta_gives_spheres(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "output_dir": str(out),
        "blocks": {"d": 2, "R": 4, "deltas": ["inf"]},
    })
    assert main(["blocks", cfg]) == 0
    dump = (out / "partition_delta_inf.txt").read_text()
    for line in dump.splitlines():
        pts = [tuple(int(x) for x in p.split(","))
               for p in line.split("points=")[1].split(";")]
        norms = {x * x + y * y for x, y in pts}
        assert len(norms) == 1 or norms == {0, 1}    # merged low-norm core


def test_blocks_missing_radius_names_the_field(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"blocks": {"d": 2, "deltas": [1]}})
    assert main(["blocks", cfg]) == 2
    assert "'R'" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [-1, "two", -0.5, None, True])
def test_blocks_rejects_bad_deltas(tmp_path, capsys, bad):
    cfg = write_cfg(tmp_path, {"output_dir": str(tmp_path / "out"),
                               "blocks": {"d": 2, "R": 4,
                                          "deltas": [1, bad]}})
    assert main(["blocks", cfg]) == 2
    assert "blocks.deltas" in capsys.readouterr().err
    assert not (tmp_path / "out" / "partition_delta_1.txt").exists()


@pytest.mark.parametrize("bad", [10, -1, "x", True])
def test_blocks_rejects_bad_core_cutoff(tmp_path, capsys, bad):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"output_dir": str(out),
                               "blocks": {"d": 2, "R": 4, "deltas": [1],
                                          "core_cutoff": bad}})
    assert main(["blocks", cfg]) == 2
    assert "blocks.core_cutoff" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_records_effective_core_cutoff(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"output_dir": str(out),
                               "blocks": {"d": 2, "R": 3, "deltas": [2],
                                          "core_cutoff": 2}})
    assert main(["blocks", cfg]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["core_cutoff"] == 2
    lines = (out / "partition_delta_2.txt").read_text().splitlines()
    assert lines == build_partition(2, 3.0, 2, core_cutoff=2).dump_lines()


BLOCKS_GOLDEN = Path(__file__).parent / "golden"
BLOCKS_D3_R6 = {"d": 3, "R": 6, "deltas": [1, 2, "inf"]}
# a finite class, a core past the unit sphere, and deltas out of order
BLOCKS_D2_R8 = {"d": 2, "R": 8, "finite_set": [[1, 0], [0, 2]],
                "core_cutoff": 1.5, "deltas": [3, 0, 1.5, "inf"]}


def _blocks_case(tmp_path, section):
    """The partition dumps and the diameter table of one blocks run."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"output_dir": str(out), "blocks": section})
    assert main(["blocks", cfg]) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()
            if p.name != "manifest.json"}


def _check_blocks_golden(got, name):
    golden = BLOCKS_GOLDEN / name
    assert sorted(got) == sorted(p.name for p in golden.iterdir())
    for fname, data in got.items():
        assert data == (golden / fname).read_bytes(), fname


def test_blocks_artifacts_match_golden(tmp_path):
    """Partition dumps and the diameter table, frozen from the per-sphere
    partition and per-class diameters (``tests/_reference_lattice.py``)."""
    got = _blocks_case(tmp_path, BLOCKS_D3_R6)
    assert sorted(got) == ["diameters.txt", "partition_delta_1.txt",
                           "partition_delta_2.txt", "partition_delta_inf.txt"]
    _check_blocks_golden(got, "blocks_d3_R6")


def test_blocks_build_no_point_tuples(tmp_path, monkeypatch):
    """``kamkit blocks`` formats, measures and counts its partitions from
    their arrays alone: it never makes a tuple per point."""
    from kamkit import lattice

    def fail(X):
        raise AssertionError("kamkit blocks made point tuples")

    monkeypatch.setattr(lattice, "_tuples", fail)
    _check_blocks_golden(_blocks_case(tmp_path, BLOCKS_D3_R6),
                         "blocks_d3_R6")


@pytest.mark.parametrize("fset", [
    [[1, 0], [1, 0], [9, 9]], [[1, 0], [1, 0]], [[9, 9]], [[1, 0, 0]], [1, 2],
    [[1.7, 0], [0, 2]],
])
def test_blocks_rejects_bad_finite_set(tmp_path, capsys, fset):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"output_dir": str(out),
                               "blocks": {"d": 2, "R": 4, "deltas": [2],
                                          "finite_set": fset}})
    assert main(["blocks", cfg]) == 2
    assert "blocks.finite_set" in capsys.readouterr().err
    assert not out.exists()


def test_blocks_finite_set_artifacts_match_golden(tmp_path):
    """A finite class, a core class and unsorted deltas (0, 1.5, inf),
    frozen from an earlier build of the partitions."""
    _check_blocks_golden(_blocks_case(tmp_path, BLOCKS_D2_R8),
                         "blocks_d2_R8")


SCAN_GOLDEN = Path(__file__).parent / "golden" / "scan"
SCAN_FILES = ("first_hypothesis.txt", "melnikov.txt", "surviving.mask")
SCAN_MEASURES = ("surviving_measure", "a1_bad_measure",
                 "melnikov_bad_measure")
SCAN_CASES = {
    # the tail's -2 on |a|^2 = 1 makes (-1,0), (0,+-1) the hyperbolic finite
    # set, so condition (c) runs; delta0 = 0.25 sits just below the tightest
    # A1 quantity (the cross-class gap 0.293) and every cell passes A1
    "beam_hyperbolic": ({
        "model": dict(BEAM_MODEL, R=4, tail={"0": 0.5, "1": -2.0}),
        "grid": {"bounds": [[0.5, 0.9], [1.1, 1.5]], "resolution": 16},
        "guard": {"C": 0.01, "delta0": 0.25, "c": 1.0}}, 0),
    # Lambda_a = |a|^2 + mass is off |a|^2 by the mass, above c <a>^-beta
    # for |a| > 1: condition (b) fails on every cell inside the ball
    "nls_ball": ({
        "model": {"kind": "nls", "d": 2, "R": 3, "mass": 1.0, "alpha": 0.75,
                  "rho": [1.3, 0.7], "forcing": [[[1, 0], 1, 1, [0, 0], 1.0]],
                  "epsilon": 1e-3, "delta": 2},
        "grid": {"bounds": [[1.1, 1.5], [0.5, 0.9]], "resolution": 16,
                 "ball": True},
        "guard": {"C": 0.01, "K_max": 5}}, 3),
}


def _scan_case(tmp_path, name):
    cfg, code = SCAN_CASES[name]
    out = tmp_path / name
    assert main(["scan", write_cfg(tmp_path, dict(cfg, output_dir=str(out)),
                                   name=f"{name}.json")]) == code
    manifest = json.loads((out / "manifest.json").read_text())
    measures = "".join(f"{k} {manifest[k]!r}\n" for k in SCAN_MEASURES)
    return {**{n: (out / n).read_bytes() for n in SCAN_FILES},
            "measures.txt": measures.encode()}


def _write_scan_goldens(tmp_path):
    """Regenerate only for an intended change of results:
        cd tests && PYTHONPATH=../src python -c "import tempfile, \
            pathlib, test_cli as t; \
            t._write_scan_goldens(pathlib.Path(tempfile.mkdtemp()))"
    """
    for name in SCAN_CASES:
        (SCAN_GOLDEN / name).mkdir(parents=True, exist_ok=True)
        for fname, data in _scan_case(tmp_path, name).items():
            (SCAN_GOLDEN / name / fname).write_bytes(data)


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_scan_artifacts_match_golden(tmp_path, name):
    """The A1 and Melnikov reports, the surviving mask and the manifest's
    measures, frozen from the per-site scan."""
    got, golden = _scan_case(tmp_path, name), SCAN_GOLDEN / name
    assert sorted(got) == sorted(p.name for p in golden.iterdir())
    for fname, data in got.items():
        assert data == (golden / fname).read_bytes(), fname


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"blocks": {"d": 2, "R": 4, "deltas": [1],
                                          "Rmax": 9}})
    assert main(["blocks", cfg]) == 2
    assert "Rmax" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, {"blockz": {}})
    assert main(["blocks", cfg]) == 2
    cfg = write_cfg(tmp_path, {"workers": 2,
                               "blocks": {"d": 2, "R": 4, "deltas": [1]}})
    assert main(["blocks", cfg]) == 2
    assert "workers" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, {"output_dir": str(tmp_path / "out"),
                               "norm": {"s_star": 1}, "model": BEAM_MODEL})
    assert main(["kam", cfg]) == 2
    assert "unknown keys in 'norm': s_star" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "model": {"kind": "singular", "d": 2, "R": 4,
                  "nodes": [[0, 1], [1, -1]], "mass": 1.37,
                  "actions": [1e-4, 1.3e-4], "nu": 1.0}})
    assert main(["kam", cfg]) == 2
    assert "unknown keys in 'model': nu" in capsys.readouterr().err


def test_scan_beam_defaults_pass_and_record_tau(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "output_dir": str(out), "model": BEAM_MODEL,
        "grid": {"bounds": [[0.5, 0.9], [1.1, 1.5]], "resolution": 8},
        "guard": {"C": 0.1},
    })
    assert main(["scan", cfg]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["guard"]["tau"] == 3          # n + 1 with two nodes
    assert manifest["grid_resolution"] == 8
    assert manifest["surviving_measure"] > 0
    assert manifest["melnikov_bad_measure"] > 0   # one cell excised
    assert (out / "surviving.mask").exists()
    assert (out / "first_hypothesis.txt").exists()
    assert (out / "melnikov.txt").exists()


GRID = {"bounds": [[0.5, 0.9], [1.1, 1.5]], "resolution": 4}


@pytest.mark.parametrize("command, section, fields", [
    ("scan", {"grid": dict(GRID, resolution=0)}, ("'grid'", "resolution")),
    ("scan", {"grid": dict(GRID, resolution=-4)}, ("'grid'", "resolution")),
    ("scan", {"grid": dict(GRID, bounds=[[0.9, 0.5], [1.1, 1.5]])},
     ("'grid'", "bounds")),
    ("scan", {"grid": dict(GRID, bounds=[[0.5, 0.9]])}, ("grid.bounds",)),
    ("kam", {"grid": dict(GRID, bounds=[[0.5, 0.9]] * 3)}, ("grid.bounds",)),
    # a box that reaches rho_0 <= -|a|^4 = -1 at the node (1, 0), where
    # the frequency sqrt(|a|^4 + rho_0) is not real; kam's run has guard
    # failures at delta0 = 0.03, so it would map the grid through omega
    ("scan", {"grid": dict(GRID, bounds=[[-1.5, 0.9], [1.1, 1.5]])},
     ("'grid.bounds'", "rho_0 > -1")),
    ("kam", {"grid": dict(GRID, bounds=[[-1.5, 0.9], [1.1, 1.5]]),
             "guard": {"delta0": 0.03}}, ("'grid.bounds'", "rho_0 > -1")),
    ("scan", {"grid": GRID, "guard": {"K_max": 0}}, ("guard.K_max",)),
    ("scan", {"grid": GRID, "guard": {"K_max": -20}}, ("guard.K_max",)),
] + [("scan", {"grid": GRID, "guard": {key: True}}, (f"'guard.{key}'",))
     for key in ("tau", "C", "delta0", "beta", "c")],
    ids=["resolution-0", "resolution-negative", "reversed-bounds",
         "scan-bounds-length", "kam-bounds-length", "scan-bounds-below-omega",
         "kam-bounds-below-omega", "K_max-0",
         "K_max-negative", "tau-true", "C-true", "delta0-true", "beta-true",
         "c-true"])
def test_bad_grid_or_guard_is_a_config_error(tmp_path, capsys, command,
                                             section, fields):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, dict({"output_dir": str(out),
                                    "model": BEAM_MODEL}, **section))
    assert main([command, cfg]) == 2
    err = capsys.readouterr().err
    assert all(f in err for f in fields), err


def test_kam_manifest_records_the_models_guard_defaults(tmp_path):
    # one node: n = 1, so tau = n + 1 = 2 and K_max = 20 n = 20
    out = tmp_path / "out"
    model = dict(BEAM_MODEL, nodes=[[1, 0]], rho=[0.7], actions=[0.05])
    cfg = write_cfg(tmp_path, {"output_dir": str(out), "model": model,
                               "schedule": {"max_super": 1}})
    assert main(["kam", cfg]) == 0
    guard = json.loads((out / "manifest.json").read_text())["guard"]
    assert (guard["tau"], guard["K_max"]) == (2, 20)


def test_scan_huge_constant_exhausts_the_grid(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "output_dir": str(out), "model": BEAM_MODEL,
        "grid": {"bounds": [[0.5, 0.9], [1.1, 1.5]], "resolution": 4},
        "guard": {"C": 1e9},
    })
    assert main(["scan", cfg]) == 3


def test_scan_is_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = write_cfg(tmp_path, {
            "seed": 11, "output_dir": str(out), "model": BEAM_MODEL,
            "grid": {"bounds": [[0.5, 0.9], [1.1, 1.5]], "resolution": 8},
            "guard": {"C": 0.1},
        }, name=f"{name}.json")
        assert main(["scan", cfg]) == 0
        outs.append(read_all(out))
    assert outs[0] == outs[1]


def test_kam_is_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = write_cfg(tmp_path, {
            "output_dir": str(out), "model": BEAM_MODEL,
            "schedule": {"max_super": 1},
        }, name=f"{name}.json")
        assert main(["kam", cfg]) == 0
        files = read_all(out)
        outs.append({n: files[n] for n in ("metrics.jsonl",
                                           "final_report.txt",
                                           "manifest.json")})
    assert outs[0] == outs[1]


def test_kam_zero_perturbation_exits_clean(tmp_path):
    out = tmp_path / "out"
    model = dict(BEAM_MODEL, nonlinearity=[])
    cfg = write_cfg(tmp_path, {"output_dir": str(out), "model": model})
    assert main(["kam", cfg]) == 0
    report = (out / "final_report.txt").read_text()
    assert "reached_target=True" in report


def test_kam_beam_eps_series_decreases(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "output_dir": str(out), "model": BEAM_MODEL,
        "schedule": {"max_super": 2, "eps_target": 1e-12},
    })
    assert main(["kam", cfg]) == 0
    eps = [json.loads(line)["eps"]
           for line in (out / "metrics.jsonl").read_text().splitlines()
           if line != "{}"]
    assert eps
    assert all(b < a for a, b in zip(eps, eps[1:]))


def test_kam_records_why_each_block_stopped(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "output_dir": str(out), "model": BEAM_MODEL,
        "schedule": {"max_super": 3, "eps_target": 1e-30},
    })
    assert main(["kam", cfg]) == 0
    rows = [json.loads(line)
            for line in (out / "metrics.jsonl").read_text().splitlines()]
    stops = [row["stop"] for row in rows if "stop" in row]
    assert stops and set(stops) <= {"target", "stalled", "count"}
    assert "stop" in rows[-1]
    report = (out / "final_report.txt").read_text().splitlines()
    assert "stops=" + " ".join(stops) in report


def test_kam_beam_honours_the_norm_section(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "output_dir": str(out), "model": BEAM_MODEL,
        "schedule": {"max_super": 1}, "norm": {"sigma": 0.2},
    })
    assert main(["kam", cfg]) == 0
    first = (out / "metrics.jsonl").read_text().splitlines()[0]
    assert json.loads(first)["sigma"] == 0.2


@pytest.mark.parametrize("model", [
    BEAM_MODEL,
    dict(SINGULAR_MODEL, R=3, quintic=1.0),
], ids=["beam", "singular"])
def test_manifest_norm_is_the_norm_the_run_used(tmp_path, monkeypatch,
                                                model):
    """The top-level seed is a run label: with no norm.seed the domain norm
    samples with the ClassNormParams default, and the manifest says so."""
    used = []
    class_norm = kam.class_norm

    def recording_norm(f, params, weights):
        used.append(params)
        return class_norm(f, params, weights)

    monkeypatch.setattr(kam, "class_norm", recording_norm)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "output_dir": str(out), "seed": 7, "model": model,
        "schedule": {"max_super": 1}, "norm": {"n_theta": 4},
    })
    main(["kam", cfg])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["norm"]["seed"] == 2024
    assert manifest["norm"] == vars(used[0])


def test_kam_stage_abort_exits_4(tmp_path, capsys, monkeypatch):
    from kamkit.hamiltonian import StageAbort

    def diverging(*args, **kwargs):
        raise StageAbort("lie", 16, "series still growing")

    monkeypatch.setattr(kam, "lie_transform", diverging)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"output_dir": str(out), "model": BEAM_MODEL})
    assert main(["kam", cfg]) == 4
    message = "lie at 16: series still growing"
    assert f"stage abort: {message}" in capsys.readouterr().err
    report = (out / "final_report.txt").read_text().splitlines()
    assert report[-1] == f"aborted={message}"


def test_kam_nan_in_the_first_jet_writes_its_report(tmp_path, capsys,
                                                   monkeypatch):
    """A NaN in the model's jet stops the run at its first norm: ``kam``
    exits 4 and still writes metrics.jsonl and final_report.txt."""
    from kamkit import cli

    def nan_jet(section):
        kind, model, (h, f) = build_model(section)
        _, m, z = next(iter(f.jet().terms))
        f.add_term(math.nan, m=m, z=z)
        return kind, model, (h, f)

    monkeypatch.setattr(cli, "build_model", nan_jet)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"output_dir": str(out), "model": BEAM_MODEL})
    assert main(["kam", cfg]) == 4
    assert "stage abort: norm" in capsys.readouterr().err
    assert (out / "metrics.jsonl").is_file()
    report = (out / "final_report.txt").read_text().splitlines()
    assert report[-1].startswith("aborted=norm")


def test_kam_overflowing_norm_writes_its_report(tmp_path, capsys):
    """A finite model whose class norm overflows (epsilon 1e300) stops at
    stage ``norm``: ``kam`` exits 4 and writes both report files."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"output_dir": str(out),
                               "model": dict(BEAM_MODEL, epsilon=1e300)})
    assert main(["kam", cfg]) == 4
    assert "stage abort: norm" in capsys.readouterr().err
    assert (out / "metrics.jsonl").is_file()
    report = (out / "final_report.txt").read_text().splitlines()
    assert report[-1].startswith("aborted=norm")


def test_kam_excision_abort_exits_4(tmp_path, capsys):
    """A grid so small around rho* that the first guard failure's band
    covers all of it: the excision empties it, and ``kam`` exits 4."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "output_dir": str(out), "model": BEAM_MODEL,
        "grid": {"bounds": [[0.699, 0.701], [1.299, 1.301]],
                 "resolution": 4},
        "guard": {"delta0": 0.03}})
    assert main(["kam", cfg]) == 4
    assert "stage abort: excision" in capsys.readouterr().err
    report = (out / "final_report.txt").read_text().splitlines()
    assert report[-1].startswith("aborted=excision")


@pytest.mark.parametrize("owner, name, error", [
    (kam, "lie_transform", ValueError), (kam, "lie_transform", TypeError),
    (models, "action_angle", ValueError),
], ids=["lie-ValueError", "lie-TypeError", "build_beam-ValueError"])
def test_kam_unrelated_error_propagates(tmp_path, monkeypatch, owner, name,
                                        error):
    """Only config faults are config errors: a bug in the iteration or in
    a model builder propagates out of main with its own exception."""
    def broken(*args, **kwargs):
        raise error("bug in a bracket")

    monkeypatch.setattr(owner, name, broken)
    cfg = write_cfg(tmp_path, {"output_dir": str(tmp_path / "out"),
                               "model": BEAM_MODEL})
    with pytest.raises(error, match="bug in a bracket"):
        main(["kam", cfg])


SCAN = {"model": BEAM_MODEL, "grid": GRID}


@pytest.mark.parametrize("command, cfg, fields", [
    ("kam", {"model": dict(BEAM_MODEL, rho=["0.7", 1.3])}, ("'model.rho'",)),
    ("kam", {"model": dict(BEAM_MODEL, actions=[True, 0.04])},
     ("'model.actions'",)),
    ("kam", {"model": BEAM_MODEL, "norm": {"sigma": True}}, ("'norm.sigma'",)),
    ("kam", {"model": BEAM_MODEL, "weights": {"gamma1": True}},
     ("'weights.gamma1'",)),
    ("kam", {"model": dict(BEAM_MODEL, tail={"0": 0.5, "1_0": 0.5})},
     ("'model.tail'",)),
    ("kam", {"model": dict(BEAM_MODEL, tail={"-3": 0.5})}, ("'model.tail'",)),
    ("kam", {"model": SINGULAR_MODEL,
             "threshold": {"constants": {"eps_0": 100}}},
     ("'threshold.constants'", "eps_0")),
    ("kam", {"model": "beam"}, ("'model'",)),
    ("kam", {"model": BEAM_MODEL, "schedule": "fast"}, ("'schedule'",)),
    ("kam", {"model": dict(BEAM_MODEL, tail=[0.5])}, ("'model.tail'",)),
    ("kam", {"model": dict(BEAM_MODEL, tail={"0": "0.5"})},
     ("'model.tail'",)),
    ("kam", {"model": dict(BEAM_MODEL, nonlinearity=[[3, [0, 0], "1.0"]])},
     ("'model.nonlinearity[0]'",)),
    ("kam", {"model": BEAM_MODEL, "weights": {"gamma1": "0.4"}},
     ("'weights.gamma1'",)),
    ("kam", {"model": BEAM_MODEL, "norm": {"n_theta": 2.5}},
     ("'norm.n_theta'",)),
    ("kam", {"model": BEAM_MODEL, "norm": {"seed": "x"}}, ("'norm.seed'",)),
    ("scan", dict(SCAN, grid=dict(GRID, bounds=3)), ("'grid.bounds'",)),
    ("scan", dict(SCAN, grid=dict(GRID, bounds=[["0.5", "0.9"], [1.1, 1.5]])),
     ("'grid.bounds'",)),
    ("kam", {"model": dict(BEAM_MODEL, nonlinearity=[[3, [0, 0]]])},
     ("'model.nonlinearity'",)),
    ("kam", {"model": BEAM_MODEL, "output_dir": 5}, ("'output_dir'",)),
    ("kam", {"model": SINGULAR_MODEL,
             "threshold": {"constants": {"eps0": "1"}}},
     ("'threshold.constants.eps0'",)),
    ("kam", {"model": NLS_MODEL, "schedule": {"max_super": 0}},
     ("'schedule'", "max_super")),
    ("kam", {"model": SINGULAR_MODEL, "norm": {"sigma": 2.0}},
     ("'norm'", "sigma")),
    ("kam", {"model": dict(SINGULAR_MODEL, nodes=[[0, 1], [0, 1]])},
     ("'model.nodes'",)),
    ("kam", {"model": BEAM_MODEL, "norm": {"seed": -1}}, ("'norm'", "seed")),
    ("kam", {"model": dict(BEAM_MODEL, tail={"1": 0.5, "01": -2.0})},
     ("'model.tail'",)),
    ("kam", {"model": dict(BEAM_MODEL, nonlinearity=[[-1, [0, 0], 1.0]])},
     ("'model.nonlinearity[0]'",)),
    ("kam", {"model": dict(NLS_MODEL, forcing=[[[1], -1, 1, [0, 0], 0.1]])},
     ("'model.forcing[0]'",)),
    ("kam", {"model": dict(BEAM_MODEL, max_degree=-1)},
     ("'model.max_degree'",)),
    # a nonpositive factor of the gate's bounds makes every margin
    # meaningless: eps0 = -1 passed this zero-jet gate, c29 = 0 failed it
    ("kam", {"model": SINGULAR_MODEL,
             "threshold": {"constants": {"eps0": -1.0}}},
     ("'threshold.constants.eps0'", "positive")),
    ("kam", {"model": SINGULAR_MODEL,
             "threshold": {"constants": {"c29": 0.0}}},
     ("'threshold.constants.c29'", "positive")),
], ids=["rho-string", "actions-true", "sigma-true", "gamma1-true",
        "tail-underscore", "tail-negative", "threshold-typo", "model-string",
        "schedule-string", "tail-list", "tail-string-value",
        "coefficient-string", "gamma1-string", "n_theta-float",
        "norm-seed-string", "bounds-number", "bounds-strings",
        "nonlinearity-arity", "output_dir-number", "constant-string",
        "nls-schedule", "singular-norm", "duplicate-nodes",
        "norm-seed-negative", "tail-leading-zero", "power-negative",
        "forcing-power-negative", "max_degree-negative", "eps0-negative",
        "c29-zero"])
def test_malformed_config_names_its_field_and_writes_nothing(
        tmp_path, capsys, monkeypatch, command, cfg, fields):
    """Every field is checked, not coerced, before anything is built or
    written: a malformed value exits 2 and names its field."""
    monkeypatch.chdir(tmp_path)
    cfg = dict({"output_dir": "out"}, **cfg)
    assert main([command, write_cfg(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert all(f in err for f in fields), err
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_kam_degenerate_model_is_a_config_error(tmp_path, capsys):
    # mu = |a|^4 + rho = -1 on the node (1, 0)
    cfg = write_cfg(tmp_path, {"output_dir": str(tmp_path / "out"),
                               "model": dict(BEAM_MODEL, rho=[-2.0, 1.3])})
    assert main(["kam", cfg]) == 2
    assert ("config error: node with nonpositive mu"
            in capsys.readouterr().err)


@pytest.mark.parametrize("model", [BEAM_MODEL, SINGULAR_MODEL],
                         ids=["beam", "singular"])
@pytest.mark.parametrize("first", [-0.05, 0.0], ids=["negative", "zero"])
def test_kam_non_positive_action_is_a_config_error(tmp_path, capsys, model,
                                                   first):
    """An action I_j <= 0 has no torus, and its action-angle series
    (I_j + r_j)^(e/2) has no real expansion: the builder rejects it
    before expanding, and ``kam`` exits 2 naming ``actions``."""
    out = tmp_path / "out"
    actions = [first] + model["actions"][1:]
    cfg = write_cfg(tmp_path, {"output_dir": str(out),
                               "model": dict(model, actions=actions)})
    assert main(["kam", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "actions" in err, err
    assert not out.exists()


@pytest.mark.parametrize("mass", [-100.0, 0.0], ids=["negative", "zero"])
def test_kam_non_positive_singular_mass_is_a_config_error(tmp_path, capsys,
                                                          mass):
    """Lambda_0 = sqrt(mass) at site 0, which every ball holds, so a
    singular model needs mass > 0: the builder rejects it, and ``kam``
    exits 2 naming ``mass``."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"output_dir": str(out),
                               "model": dict(SINGULAR_MODEL, mass=mass)})
    assert main(["kam", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "mass" in err, err
    assert not out.exists()


@pytest.mark.parametrize("model, field", [
    (dict(BEAM_MODEL, nonlinearity=[[3, [0, 0], 1.0], [3, [1, 0, 0], 0.5]]),
     "model.nonlinearity[1]"),
    (dict(NLS_MODEL, forcing=[[[1], 1, 1, [0], 0.1]]), "model.forcing[0]"),
])
def test_kam_wrong_length_wave_vector_is_a_config_error(tmp_path, capsys,
                                                         model, field):
    cfg = write_cfg(tmp_path, {"output_dir": str(tmp_path / "out"),
                               "model": model})
    assert main(["kam", cfg]) == 2
    err = capsys.readouterr().err
    assert f"'{field}' has a wave vector of length" in err
    assert "expected 2, the model's d" in err


@pytest.mark.parametrize("model, message", [
    (dict(BEAM_MODEL, rho=[0.7]), "'model.rho' has a vector of length 1"),
    (dict(BEAM_MODEL, rho=[0.7, 1.3, 2.0]),
     "'model.rho' has a vector of length 3"),
    (dict(BEAM_MODEL, actions=[0.05]),
     "'model.actions' has a vector of length 1"),
    (dict(BEAM_MODEL, actions=[0.05, 0.04, 0.03]),
     "'model.actions' has a vector of length 3"),
    (dict(SINGULAR_MODEL, actions=[1e-4]),
     "'model.actions' has a vector of length 1"),
    (dict(NLS_MODEL, forcing=[[[1, 0, 0], 1, 1, [0, 0], 0.1]]),
     "'model.forcing[0]' has an angle vector of length 3; expected 1"),
    (dict(BEAM_MODEL, nodes=[], rho=[], actions=[]),
     "field 'model.nodes' is empty"),
    (dict(SINGULAR_MODEL, nodes=[], actions=[]),
     "field 'model.nodes' is empty"),
    (dict(NLS_MODEL, rho=[], forcing=[]), "field 'model.rho' is empty"),
], ids=["beam-rho-short", "beam-rho-long", "beam-actions-short",
        "beam-actions-long", "singular-actions-short", "nls-angle-long",
        "beam-no-nodes", "singular-no-nodes", "nls-no-rho"])
def test_model_vector_of_wrong_length_is_a_config_error(tmp_path, capsys,
                                                        model, message):
    """A model vector needs one entry per node (per rho for an NLS angle
    vector), and a model without nodes or rho is rejected as such."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"output_dir": str(out), "model": model})
    assert main(["kam", cfg]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, cfg, field", [
    ("blocks", {"blocks": {"d": 2.5, "R": 4, "deltas": [2]}}, "'blocks.d'"),
    ("kam", {"model": dict(BEAM_MODEL, d=2.9)}, "'model.d'"),
    ("kam", {"model": dict(BEAM_MODEL, max_degree=4.5)}, "'model.max_degree'"),
    ("kam", {"model": dict(BEAM_MODEL, r_degree=1.5)}, "'model.r_degree'"),
    ("kam", {"model": dict(BEAM_MODEL, nodes=[[1.7, 0], [0, 2]])},
     "'model.nodes'"),
    ("kam", {"model": dict(NLS_MODEL, d=2.5)}, "'model.d'"),
    ("kam", {"model": dict(BEAM_MODEL, nonlinearity=[[3.5, [0, 0], 1.0]])},
     "'model.nonlinearity[0]'"),
    ("kam", {"model": dict(NLS_MODEL, forcing=[[[1], 1, 1.5, [0, 0], 0.1]])},
     "'model.forcing[0]'"),
    ("kam", {"model": dict(SINGULAR_MODEL, max_degree=5.5)},
     "'model.max_degree'"),
    ("kam", {"model": dict(SINGULAR_MODEL, nodes=[[0, 1], [1, -1.5]])},
     "'model.nodes'"),
], ids=["blocks-d", "beam-d", "beam-max_degree", "beam-r_degree",
        "beam-nodes", "nls-d", "beam-power", "nls-forcing-power",
        "singular-max_degree", "singular-nodes"])
def test_non_integer_field_is_a_config_error(tmp_path, capsys, command, cfg,
                                             field):
    """An integer field or a lattice point with a fractional value is
    named in a config error, not truncated."""
    out = tmp_path / "out"
    assert main([command, write_cfg(tmp_path,
                                    dict(cfg, output_dir=str(out)))]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, cfg, field", [
    ("blocks", {"blocks": {"d": 2, "R": math.inf, "deltas": [2]}},
     "'blocks.R'"),
    ("kam", {"model": dict(BEAM_MODEL, R=math.inf)}, "'model.R'"),
    ("kam", {"model": dict(BEAM_MODEL, R=math.nan)}, "'model.R'"),
    ("kam", {"model": dict(BEAM_MODEL, R=-3)}, "'model.R'"),
    ("kam", {"model": dict(BEAM_MODEL, R=True)}, "'model.R'"),
    ("kam", {"model": dict(NLS_MODEL, R=math.inf)}, "'model.R'"),
    ("kam", {"model": dict(SINGULAR_MODEL, R=0)}, "'model.R'"),
    ("kam", {"model": dict(BEAM_MODEL, R=1.5)},
     "node (0, 2) lies outside the ball"),
    ("kam", {"model": dict(SINGULAR_MODEL, R=1)},
     "node (1, -1) lies outside the ball"),
    ("scan", {"model": BEAM_MODEL, "grid": dict(GRID, ball="false")},
     "'grid.ball'"),
    ("kam", {"model": dict(BEAM_MODEL, epsilon="1e-4")}, "'model.epsilon'"),
    ("kam", {"model": dict(BEAM_MODEL, delta="inf")}, "'model.delta'"),
    ("kam", {"model": dict(BEAM_MODEL, delta=-1)}, "'model.delta'"),
    ("kam", {"model": dict(NLS_MODEL, mass=True)}, "'model.mass'"),
    ("kam", {"model": dict(NLS_MODEL, alpha="1")}, "'model.alpha'"),
    ("kam", {"model": dict(SINGULAR_MODEL, mass="1.37")}, "'model.mass'"),
    ("kam", {"model": dict(SINGULAR_MODEL, quintic=math.nan)},
     "'model.quintic'"),
    ("kam", {"model": dict(SINGULAR_MODEL, birkhoff_threshold=[1e-6])},
     "'model.birkhoff_threshold'"),
], ids=["blocks-R-inf", "beam-R-inf", "beam-R-nan", "beam-R-negative",
        "beam-R-true", "nls-R-inf", "singular-R-0", "beam-node-outside",
        "singular-node-outside",
        "grid-ball-string", "beam-epsilon-string", "beam-delta-string",
        "beam-delta-negative", "nls-mass-true", "nls-alpha-string",
        "singular-mass-string", "singular-quintic-nan",
        "singular-birkhoff-list"])
def test_bad_number_or_flag_is_a_config_error(tmp_path, capsys, command,
                                              cfg, field):
    """R is a finite positive number, every node lies in the ball, and
    the model's numbers and the grid's ball flag are checked, not
    coerced: each violation exits 2 and names the field."""
    out = tmp_path / "out"
    assert main([command, write_cfg(tmp_path,
                                    dict(cfg, output_dir=str(out)))]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_model_delta_takes_infinity():
    _, model, _ = build_model(dict(BEAM_MODEL, delta=math.inf))
    assert model.delta == math.inf


@pytest.mark.parametrize("schedule, field", [
    ({"max_super": 2, "eps_target": 1e-30, "gamma_decay": -1},
     "gamma_decay"),
    ({"max_inner": -3}, "max_inner"),
    ({"max_super": 0}, "max_super"),
    ({"max_picard": 1.5}, "max_picard"),
    ({"work_degree": 1}, "work_degree"),
    ({"eps_target": -1e-12}, "eps_target"),
    ({"rel_prune_rest": -1.0}, "rel_prune_rest"),
    ({"domain_decay": 1.5}, "domain_decay"),
    ({"delta_theta": 0.5}, "delta_theta"),
    # the first partition's range is model.delta; the schedule has none
    ({"delta0": 2}, "delta0"),
])
def test_kam_invalid_schedule_is_a_config_error(tmp_path, capsys, schedule,
                                                field):
    cfg = write_cfg(tmp_path, {"output_dir": str(tmp_path / "out"),
                               "model": BEAM_MODEL, "schedule": schedule})
    assert main(["kam", cfg]) == 2
    err = capsys.readouterr().err
    want = ("invalid 'schedule'" if field in Schedule.__dataclass_fields__
            else "unknown keys in 'schedule'")
    assert want in err and field in err, err


def test_kam_invalid_weights_are_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"output_dir": str(tmp_path / "out"),
                               "model": BEAM_MODEL,
                               "weights": {"gamma1": -1.0}})
    assert main(["kam", cfg]) == 2
    assert "invalid 'weights'" in capsys.readouterr().err


def test_kam_singular_threshold_gate(tmp_path, capsys):
    out = tmp_path / "out"
    base = {"kind": "singular", "d": 2, "R": 4, "nodes": [[0, 1], [1, -1]],
            "mass": 1.37, "quintic": 1.0}
    cfg = write_cfg(tmp_path, {
        "output_dir": str(out),
        "model": dict(base, actions=[3.0, 4.0]),      # |I| far too large
    })
    assert main(["kam", cfg]) == 5
    err = capsys.readouterr().err
    assert "margins" in err
    cfg = write_cfg(tmp_path, {
        "output_dir": str(out),
        "model": dict(base, actions=[1e-4, 1.3e-4]),
        # theorem constants are inputs; defaults of 1 are far from sharp
        "threshold": {"constants": {"aleph": 0.25, "eps0": 100.0,
                                    "c29": 2.0}},
    })
    assert main(["kam", cfg]) == 0
    assert json.loads((out / "manifest.json").read_text())[
        "threshold_constants"] == dict(kam.THRESHOLD_CONSTANTS, eps0=100.0,
                                       c29=2.0)


def test_kam_singular_zero_jet_passes_the_gate(tmp_path, capsys):
    """Without a quintic term the singular jet is zero: its eps margin is
    inf, and chi and xi decide the gate."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"output_dir": str(out),
                               "model": SINGULAR_MODEL})
    assert main(["kam", cfg]) == 0
    assert "smallness threshold passed" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["threshold_inputs"][0] == 0.0
    assert manifest["threshold_margins"]["eps"] == math.inf
    assert manifest["threshold_constants"] == kam.THRESHOLD_CONSTANTS


def test_manifest_lists_effective_tunables(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"output_dir": str(out), "model": BEAM_MODEL,
                               "schedule": {"max_super": 1}})
    assert main(["kam", cfg]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for key in ("core_cutoff", "schedule", "weights", "norm", "guard",
                "seed", "unstable_real_part_factor"):
        assert key in manifest
    assert manifest["schedule"] == {"eps_target": 1e-12, "max_super": 1,
                                    "max_inner": 25}
    assert manifest["unstable_real_part_factor"] == kam.UNSTABLE_FACTOR
    _, _, (h, _) = build_model(BEAM_MODEL)
    assert manifest["core_cutoff"] == h.partition.core_cutoff
    assert manifest["norm"]["n_theta"] == 8


def test_only_commands_that_use_a_grid_read_or_record_it(tmp_path):
    """A command reads only the sections it uses: a bad section that it
    does not use passes, and its manifest lacks it (a scan manifest
    records grid_resolution: test_scan_beam_defaults_pass_and_record_tau).
    """
    bad = {"grid": {"bounds": [[0, 1]], "resolution": 0},
           "schedule": {"max_super": 0}, "weights": {"gamma1": -1.0},
           "norm": {"sigma": True}, "guard": {"K_max": 0}}
    for command, cfg, unused in (
            ("blocks", {"blocks": {"d": 2, "R": 3, "deltas": [2]}},
             ("grid", "schedule", "weights", "norm", "guard")),
            ("scan", {"model": BEAM_MODEL, "grid": GRID,
                      "guard": {"C": 0.1}}, ("schedule", "weights", "norm")),
            ("kam", {"model": SINGULAR_MODEL}, ("grid", "schedule", "guard"))):
        for section in unused:
            out = tmp_path / command / section
            path = write_cfg(tmp_path, dict(cfg, output_dir=str(out),
                                            **{section: bad[section]}))
            assert main([command, path]) == 0, (command, section)
            manifest = json.loads((out / "manifest.json").read_text())
            key = "grid_resolution" if section == "grid" else section
            assert key not in manifest, (command, section)


@pytest.mark.parametrize("name, command", [
    ("desk_beam", "kam"), ("desk_beam", "blocks"), ("singular_gate", "kam"),
    ("scan_beam", "scan"), ("excise_beam", "kam"), ("scan_nls", "scan"),
    ("scan_nls", "kam"), ("hyperbolic_beam", "scan"),
    ("hyperbolic_beam", "kam"),
], ids=["kam", "blocks", "singular_gate-kam", "scan", "excise_beam-kam",
        "scan_nls-scan", "scan_nls-kam", "hyperbolic_beam-scan",
        "hyperbolic_beam-kam"])
def test_example_config_runs(tmp_path, name, command):
    """README's example configs stay valid for the commands they serve."""
    example = Path(__file__).parents[1] / "examples" / f"{name}.json"
    cfg = dict(json.loads(example.read_text()),
               output_dir=str(tmp_path / "out"))
    assert main([command, write_cfg(tmp_path, cfg)]) == 0


def test_hyperbolic_example_reports_its_unstable_site(tmp_path):
    """README's figures for examples/hyperbolic_beam.json: the scan keeps
    measure 0.1475, and the run, with no guard failure, reports the one
    unstable direction of site 0's hyperbolic block."""
    example = Path(__file__).parents[1] / "examples" / "hyperbolic_beam.json"
    out = tmp_path / "out"
    path = write_cfg(tmp_path, dict(json.loads(example.read_text()),
                                    output_dir=str(out)))
    assert main(["scan", path]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["surviving_measure"] == pytest.approx(0.1475)
    assert main(["kam", path]) == 0
    report = (out / "final_report.txt").read_text().splitlines()
    assert "unstable_count=1 a_inf_max_real=0.000e+00" in report
    assert "eps_history=6.05784e-06 5.13519e-12 4.59296e-14" in report
    rows = [json.loads(x)
            for x in (out / "metrics.jsonl").read_text().splitlines()]
    assert [r["guard_failures"] for r in rows] == [0] * len(rows)


def test_momentum_example_reports_its_eps(tmp_path):
    """README's figures for examples/momentum_beam.json: its first block
    stalls, and the super step after it reaches the eps target."""
    example = Path(__file__).parents[1] / "examples" / "momentum_beam.json"
    out = tmp_path / "out"
    assert main(["kam", write_cfg(tmp_path, dict(
        json.loads(example.read_text()), output_dir=str(out)))]) == 0
    report = (out / "final_report.txt").read_text().splitlines()
    assert report[0] == "reached_target=True eps_final=8.11288e-13"
    assert "eps_history=6.22461e-06 8.11288e-13" in report


def test_closed_finite_example_reports_its_eps(tmp_path):
    """examples/closed_finite_beam.json is the closed_finite golden run
    (tests/golden/kam_runs): its finite set, closed under a -> -a, has four
    unstable directions, and every super step contracts eps."""
    example = (Path(__file__).parents[1] / "examples"
               / "closed_finite_beam.json")
    out = tmp_path / "out"
    assert main(["kam", write_cfg(tmp_path, dict(
        json.loads(example.read_text()), output_dir=str(out)))]) == 0
    report = (out / "final_report.txt").read_text().splitlines()
    assert "unstable_count=4 a_inf_max_real=0.000e+00" in report
    assert ("eps_history=5.3416e-06 1.87638e-11 1.7308e-14 1.20842e-14"
            in report)


# imports kamkit.cli, prints the scipy modules it loaded, then runs one
# command with scipy made unimportable
_WITHOUT_SCIPY = """
import sys
import kamkit.cli
print(sorted(m for m in sys.modules if m.startswith("scipy")))


class Block:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, Block())
sys.exit(kamkit.cli.main(sys.argv[1:]))
"""


def _run_python(tmp_path, *args):
    """A fresh interpreter on this checkout's kamkit, run in tmp_path."""
    src = str(Path(kamkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)


@pytest.mark.parametrize("name, command", [
    ("desk_beam", "blocks"), ("desk_beam", "kam"), ("singular_gate", "kam"),
    ("scan_beam", "scan"), ("hyperbolic_beam", "kam"),
])
def test_commands_run_without_scipy(tmp_path, name, command):
    """``import kamkit.cli`` loads no scipy module, and the commands run
    with all of scipy blocked, in a fresh interpreter.  The hyperbolic
    beam's kam run takes a finite hyperbolic class through ``class_norm``."""
    example = Path(__file__).parents[1] / "examples" / f"{name}.json"
    cfg = dict(json.loads(example.read_text()),
               output_dir=str(tmp_path / "out"))
    proc = _run_python(tmp_path, "-c", _WITHOUT_SCIPY, command,
                       write_cfg(tmp_path, cfg))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"


def test_algebra_loads_blockmatrix_on_first_access(tmp_path):
    """``import kamkit.algebra`` loads no scipy; its block-matrix names are
    ``blockmatrix``'s own objects, read from there on first access."""
    proc = _run_python(tmp_path, "-c", """
import sys
from kamkit import algebra
print(sorted(m for m in sys.modules if m.startswith("scipy")))
from kamkit import blockmatrix
print(all(getattr(algebra, name) is getattr(blockmatrix, name) for name in
          ("WeightedMatrix", "SeqVector", "matrix_norm", "seq_norm")))
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]
    assert not hasattr(algebra, "bsr_array")


def test_bad_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["blocks", str(path)]) == 2


def test_scan_without_melnikov_differences_excises_nothing(tmp_path):
    # at R = 1 with nodes (1,0) and (0,1), every class but the finite one
    # is the core: no difference L_a - L_b is left and every margin is +inf
    out = tmp_path / "out"
    model = dict(BEAM_MODEL, R=1, nodes=[[1, 0], [0, 1]])
    cfg = write_cfg(tmp_path, {"output_dir": str(out), "model": model,
                               "grid": GRID})
    assert main(["scan", cfg]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["melnikov_bad_measure"] == 0.0
    assert (out / "melnikov.txt").read_text().splitlines()[1:] == [
        "  some_cell_passes: True", "  worst_margin: inf"]
