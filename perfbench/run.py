"""kamkit benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kamkit checkout.  Each sample is a fresh worker
interpreter (``worker.py``) importing the checkout's ``src/kamkit``, one at
a time (closed loop, a single client), with BLAS/OpenMP capped at one
thread.  ``--trace 0`` keeps starting full samples until ``--seconds`` have
passed (at least one), tops up with set-up-only samples to
``SETUP_SAMPLES`` set-up times, and reports medians of the end-to-end
metrics.  ``--trace 1`` runs one untraced and one traced sample and reports
the per-layer metrics, the tracing overhead (traced minus untraced
``run_s``) and whether the traced self times add up to the run.

Every sample checks its outputs; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
record the machine facts and each sample.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

START = time.monotonic()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "frac"}
SELF_SUM_SLACK_S = 1e-3


class Runner:
    """Starts worker samples for one workload and collects their results."""

    def __init__(self, workload: str, seed: int, tiny: bool, tmp: Path):
        self.workload, self.seed, self.tiny, self.tmp = (workload, seed,
                                                         tiny, Path(tmp))
        self.results: list[dict] = []
        self.env = {**os.environ, **THREAD_CAPS, "PYTHONHASHSEED": "0",
                    "PYTHONPATH": str(ROOT / "src")}

    def elapsed(self) -> float:
        return time.monotonic() - START

    def sample(self, *flags: str) -> dict:
        workdir = self.tmp / f"s{len(self.results)}"
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--workdir", str(workdir), *flags]
        if self.tiny:
            cmd.append("--tiny")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True,
                                  timeout=max(DEADLINE_S - self.elapsed(), 1))
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if proc.returncode == 0 and lines \
                else {"errors": [f"worker exit {proc.returncode}: "
                                 f"{proc.stderr[-2000:]}"]}
        except subprocess.TimeoutExpired:
            res = {"errors": [f"worker passed the {DEADLINE_S:.0f} s "
                              f"deadline"]}
        except json.JSONDecodeError as exc:
            res = {"errors": [f"unreadable worker output: {exc}"]}
        res["flags"] = list(flags)
        self.results.append(res)
        print("# sample " + json.dumps(
            {k: v for k, v in res.items() if k not in ("layers",)}),
            flush=True)
        return res

    def failed(self) -> int:
        return sum(1 for r in self.results if r.get("errors"))


def end_to_end(runner: Runner, seconds: float) -> dict:
    full = []
    while True:
        start = runner.elapsed()
        full.append(runner.sample())
        took = runner.elapsed() - start
        if (runner.elapsed() >= seconds or full[-1].get("errors")
                or runner.elapsed() + took > DEADLINE_S * 0.8):
            break
    for _ in range(SETUP_SAMPLES - len(full)):
        runner.sample("--setup-only")
    ok = [r for r in full if not r.get("errors")] or full
    setups = [r["setup_s"] for r in runner.results if "setup_s" in r]
    attempted = len(runner.results)
    return {
        "run_s": statistics.median(r.get("run_s", 0.0) for r in ok),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(r.get("peak_rss_mb", 0.0)
                                         for r in ok),
        "ok_frac": (attempted - runner.failed()) / attempted,
    }


def per_layer(runner: Runner) -> dict:
    plain = runner.sample()
    traced = runner.sample("--trace")
    if plain.get("errors") or traced.get("errors"):
        return {name: 0.0 for name in PER_LAYER}
    # spans hold wall seconds, so the self-time check compares wall times
    wall_overhead = traced["run_wall_s"] - plain["run_wall_s"]
    if (traced["min_self_s"] < -SELF_SUM_SLACK_S
            or abs(traced["self_sum_s"] - plain["run_wall_s"])
            > abs(wall_overhead) + SELF_SUM_SLACK_S):
        traced["errors"] = [
            f"traced self times sum to {traced['self_sum_s']:.6f} s, "
            f"untraced run wall {plain['run_wall_s']:.6f} s, overhead "
            f"{wall_overhead:.6f} s, most negative self time "
            f"{traced['min_self_s']:.6f} s"]
    print("# top self times " + json.dumps(traced["top_self"]), flush=True)
    return {**traced["layers"], "trace.run_s": traced["run_s"],
            "trace.untraced_run_s": plain["run_s"],
            "trace.overhead_s": traced["run_s"] - plain["run_s"],
            "trace.self_sum_s": traced["self_sum_s"],
            "trace.speed_factor": traced["speed_factor"]}


def machine_facts(runner: Runner) -> dict:
    versions = next((r["versions"] for r in runner.results
                     if "versions" in r), {})
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), **versions,
            "thread_caps": THREAD_CAPS, "hash_seed": "0",
            "workload": runner.workload, "seed": runner.seed,
            "tiny": runner.tiny}


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return seed


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so subprocess.run kills and waits
    # for the running worker and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=_seed, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes, for the self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kamkit" / "__init__.py").is_file():
        print(f"no kamkit sources under {ROOT / 'src'}; run from a kamkit "
              f"checkout", file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src" / "kamkit"), str(BENCH)],
                   check=True, timeout=120)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(args.workload, args.seed, args.tiny, Path(tmp))
        if args.trace:
            values = per_layer(runner)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            values = end_to_end(runner, args.seconds)
            units = END_TO_END
    print("# machine " + json.dumps(machine_facts(runner)), flush=True)
    failed = runner.failed()
    for res in runner.results:
        for err in res.get("errors", ()):
            print(f"# check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(runner.results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
