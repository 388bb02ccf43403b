import json
from pathlib import Path

import pytest

from kamkit.cli import main
from kamkit.lattice import build_partition

BEAM_MODEL = {
    "kind": "beam", "d": 2, "R": 2, "nodes": [[1, 0], [0, 2]],
    "rho": [0.7, 1.3], "actions": [0.05, 0.04], "tail": {"0": 0.5},
    "nonlinearity": [[3, [0, 0], 1.0]], "epsilon": 1e-4, "delta": 2,
}


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
    frozen from the partition that built one cKDTree query per delta."""
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
                               "norm": {"s_star": 1},
                               "blocks": {"d": 2, "R": 4, "deltas": [1]}})
    assert main(["blocks", cfg]) == 2
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
    ("scan", {"grid": GRID, "guard": {"K_max": 0}}, ("guard.K_max",)),
    ("scan", {"grid": GRID, "guard": {"K_max": -20}}, ("guard.K_max",)),
], ids=["resolution-0", "resolution-negative", "reversed-bounds",
        "scan-bounds-length", "kam-bounds-length", "K_max-0",
        "K_max-negative"])
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


def test_kam_stage_abort_exits_4(tmp_path, capsys, monkeypatch):
    from kamkit import kam
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


def test_kam_unrelated_error_propagates(tmp_path, monkeypatch):
    from kamkit import kam

    def broken(*args, **kwargs):
        raise ValueError("bug in a bracket")

    monkeypatch.setattr(kam, "lie_transform", broken)
    cfg = write_cfg(tmp_path, {"output_dir": str(tmp_path / "out"),
                               "model": BEAM_MODEL})
    with pytest.raises(ValueError, match="bug in a bracket"):
        main(["kam", cfg])


def test_kam_degenerate_model_is_a_config_error(tmp_path, capsys):
    # mu = |a|^4 + rho = -1 on the node (1, 0)
    cfg = write_cfg(tmp_path, {"output_dir": str(tmp_path / "out"),
                               "model": dict(BEAM_MODEL, rho=[-2.0, 1.3])})
    assert main(["kam", cfg]) == 2
    assert ("config error: node with nonpositive mu"
            in capsys.readouterr().err)


NLS_MODEL = {"kind": "nls", "d": 2, "R": 2, "mass": 1.0, "alpha": 1.0,
             "rho": [1.0], "forcing": [[[1], 1, 1, [0, 0], 0.1]]}


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


SINGULAR_MODEL = {"kind": "singular", "d": 2, "R": 4,
                  "nodes": [[0, 1], [1, -1]], "mass": 1.37,
                  "actions": [1e-4, 1.3e-4]}


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
    ({"delta0": 0}, "delta0"),
])
def test_kam_invalid_schedule_is_a_config_error(tmp_path, capsys, schedule,
                                                field):
    cfg = write_cfg(tmp_path, {"output_dir": str(tmp_path / "out"),
                               "model": BEAM_MODEL, "schedule": schedule})
    assert main(["kam", cfg]) == 2
    err = capsys.readouterr().err
    assert "invalid 'schedule'" in err and field in err, err


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


def test_manifest_lists_effective_tunables(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "output_dir": str(out),
        "blocks": {"d": 2, "R": 3, "deltas": [2]},
    })
    assert main(["blocks", cfg]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for key in ("core_cutoff", "grid_resolution", "schedule", "weights",
                "norm", "seed", "unstable_real_part_factor"):
        assert key in manifest
    assert manifest["schedule"]["delta_theta"] == 2.0
    assert manifest["norm"]["n_theta"] == 8


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
