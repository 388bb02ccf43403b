"""Fast self-test of the benchmark (about a minute on two cores).

    python3 perfbench/selftest.py

1. Every workload runs at tiny size through ``run.py`` with ``--trace 0``
   and ``--trace 1``; the last line must carry exactly the result keys,
   ``correct: true``, and every metric that ``BENCHMARK.json`` lists for that
   mode, with its unit.
2. Every workload runs at tiny size in this process; its output check must
   pass against the stored reference and fail when any one reference field
   is wrong.  ``norm_algebra`` must also fail when a product is corrupted.
3. ``run.py`` must exit nonzero without a result in a directory that holds
   only ``BENCHMARK.json`` and the benchmark's files.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_declared_metrics(spec: dict):
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == END_TO_END, (declared, END_TO_END)
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == PER_LAYER, "BENCHMARK.json per_layer != layers.PER_LAYER"
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def check_emitted_metrics(spec: dict):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", "1", "--seconds", "0", "--trace", str(trace),
                 "--tiny"], cwd=ROOT, capture_output=True, text=True,
                timeout=170)
            res = _last_json(proc.stdout)
            assert proc.returncode == 0 and res, (name, proc.stderr[-2000:])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["failed"] == 0, (name, res)
            got = {m: v["unit"] for m, v in res["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))
            for m, v in res["metrics"].items():
                assert isinstance(v["value"], (int, float)), (name, m, v)
            print(f"ok  emitted metrics  {name} --trace {trace}")


def _wrong(value):
    """The same shape with a different value."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1 if isinstance(value, int) else value * (1 + 1e-6)
    if isinstance(value, str):
        return value + "0"
    if isinstance(value, list):
        return [_wrong(value[0])] + value[1:]
    if isinstance(value, dict):
        key = sorted(value)[0]
        return {**value, key: _wrong(value[key])}
    raise TypeError(value)


def check_output_checks(tmp: Path):
    for name, cls in WORKLOADS.items():
        wl = cls(1, True, tmp / name)
        wl.workdir.mkdir(parents=True)
        wl.setup()
        out = wl.run()
        ref = load_reference(name, 1, True)
        assert wl.check(out, ref) == [], (name, wl.check(out, ref))
        for key in ref:
            bad = {**ref, key: _wrong(ref[key])}
            assert wl.check(out, bad), f"{name}: wrong {key} not caught"
        if name == "norm_algebra":
            broken = copy.deepcopy(out)
            C = broken["products"][0][0]
            first = next(iter(C.blocks))
            C.blocks[first] = C.blocks[first] * 1.001
            assert wl.check(broken, ref), "corrupted matmul not caught"
        print(f"ok  output check     {name} ({len(ref)} reference fields)")


def check_refuses_without_program(tmp: Path):
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bare / BENCH.name / "run.py"), "--workload",
         "kam_desk", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and _last_json(proc.stdout) is None, proc
    print("ok  refuses to run without src/kamkit")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_declared_metrics(spec)
    print("ok  BENCHMARK.json matches the emitted metric tables")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        check_refuses_without_program(Path(tmp))
        check_output_checks(Path(tmp))
    check_emitted_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
