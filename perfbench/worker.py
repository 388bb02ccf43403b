"""One benchmark sample in a fresh interpreter, so kamkit's caches start
cold as they do for a ``kamkit`` CLI user.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
        [--trace] [--setup-only] [--tiny]

Times set-up (import kamkit, parse the config, build the inputs) and the
workload's pipeline, each under a ``SpeedProbe`` that rescales the wall
time to the reference host speed; checks the outputs against
``references.json``; and prints one JSON object as its last line.
``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""
from __future__ import annotations

import time

from probe import SpeedProbe  # builds the probe's table before the clock

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def sample(args) -> dict:
    import workloads
    with SpeedProbe() as setup_probe:
        import kamkit.cli  # noqa: F401  (imports every kamkit module)
        import kamkit
        src = Path(kamkit.__file__).resolve().parent
        if src != ROOT / "src" / "kamkit":
            raise RuntimeError(f"kamkit imported from {src}, "
                               f"not the checkout")
        tracer = None
        if args.trace:
            import layers
            from spans import Tracer
            tracer = Tracer()
            layers.install(tracer)
        wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny,
                                                Path(args.workdir))
        with tracer.root("setup") if tracer else nullcontext():
            wl.setup()
        wall = time.perf_counter() - T_START
    result = {"setup_wall_s": wall, "setup_s": wall / setup_probe.factor()}
    if args.setup_only:
        return result

    with SpeedProbe() as run_probe:
        t0 = time.perf_counter()
        with tracer.root("run") if tracer else nullcontext() as run_span:
            out = wl.run()
        wall = time.perf_counter() - t0
    if tracer:
        tracer.restore()
    result["run_wall_s"] = wall
    result["speed_factor"] = run_probe.factor()
    result["run_s"] = wall / run_probe.factor()
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["errors"] = wl.check(out, workloads.load_reference(
        args.workload, args.seed, args.tiny))
    result["versions"] = _versions()
    if tracer:
        run_index = tracer.spans.index(run_span)
        self_sum, min_self = tracer.subtree_self(run_index)
        result["layers"] = layers.layer_metrics(tracer, wl.extras(out))
        result["self_sum_s"] = self_sum
        result["min_self_s"] = min_self
        result["top_self"] = layers.top_self_times(tracer)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    Path(args.workdir).mkdir(parents=True, exist_ok=True)
    try:
        result = sample(args)
    except Exception:  # reported to the runner as a failed sample
        result = {"errors": [traceback.format_exc()]}
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
