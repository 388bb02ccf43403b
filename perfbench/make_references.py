"""Write ``references.json``: the reference outputs of every workload for
every seed variant, at full and tiny size.

    PYTHONPATH=src python3 perfbench/make_references.py [--size full|tiny]
        [--workloads kam_desk,...]

Run it only when a change is meant to alter kamkit's results, and say so in
the change: the benchmark's output checks compare against these values.
Each run must first pass the checks that need no stored values (no abort,
the eps contraction rule, a passing gate, zero inequality violations).
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import REFERENCES, VARIANTS, WORKLOADS  # noqa: E402


def reference_for(name: str, seed: int, tiny: bool, tmp: Path) -> dict:
    wl = WORKLOADS[name](seed, tiny, tmp / f"{name}-{seed}")
    wl.workdir.mkdir(parents=True)
    wl.setup()
    out = wl.run()
    ref = wl.reference(out)
    errors = wl.check(out, ref)
    if errors:
        raise SystemExit(f"{name} seed {seed}: " + "; ".join(errors))
    return ref


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args(argv)
    refs = (json.loads(REFERENCES.read_text()) if REFERENCES.exists()
            else {"full": {}, "tiny": {}})
    root = REFERENCES.parent.parent
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        for name in args.workloads.split(","):
            refs[args.size][name] = {
                str(v): reference_for(name, v, args.size == "tiny", Path(tmp))
                for v in range(VARIANTS)}
            print(f"{name}: {VARIANTS} variants", flush=True)
            REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True)
                                  + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
