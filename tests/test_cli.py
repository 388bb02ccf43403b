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


def test_blocks_artifacts_match_golden(tmp_path):
    """Partition dumps and the diameter table, frozen from the per-sphere
    partition and per-class diameters (``tests/_reference_lattice.py``)."""
    golden = Path(__file__).parent / "golden" / "blocks_d3_R6"
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "output_dir": str(out),
        "blocks": {"d": 3, "R": 6, "deltas": [1, 2, "inf"]},
    })
    assert main(["blocks", cfg]) == 0
    names = sorted(p.name for p in golden.iterdir())
    assert names == ["diameters.txt", "partition_delta_1.txt",
                     "partition_delta_2.txt", "partition_delta_inf.txt"]
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


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
