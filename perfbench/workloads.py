"""The five benchmark workloads: inputs from the seed, set-up, the timed
pipeline, and the output checks.

Each workload drives kamkit's public entry points (the ``kamkit`` CLI
commands, or the ``algebra`` functions for ``norm_algebra``) in the
worker's own interpreter.  ``setup()`` parses a valid CLI config and builds
the inputs; ``run()`` is the timed pipeline up to and including writing its
artifacts; ``check()`` compares the outputs with the reference values kept
in ``references.json``.

Seeds: the seed picks one of ``VARIANTS`` input variants (``seed %
VARIANTS``), so every seed has stored reference values.  Variant 0 is the
acceptance/demo instance (beam rho = (0.7, 1.3), sampling seed 2024).  Other
variants shift the beam rho inside a +-``RHO_JITTER`` window, on which every
variant was run and converged when ``references.json`` was written, and
move the singular gate's ``norm.seed``.  ``norm_algebra`` draws its
operands from the full seed; its check needs no stored values.
"""
from __future__ import annotations

import json
import math
import random
from pathlib import Path

VARIANTS = 8
RHO = (0.7, 1.3)
RHO_JITTER = 0.01
NORM_SEED = 2024
WEIGHTS = {"gamma1": 0.4, "gamma2": 1.0, "kappa": 0.5, "m_star": 1.0}

# Tolerances.  omega_final is omega_initial plus a drift of ~1e-10 that the
# first inner step sets (later steps move it by < 1e-19), so 1e-13 admits
# roundoff from reordered sums (~1e-16 on O(1) frequencies) and catches a
# 0.1% change of the drift.
OMEGA_TOL = 1e-13
MARGIN_RTOL = 1e-9
MEASURE_RTOL = 1e-12
EPS_FLOOR = 1e-13   # acceptance rule: hist[i+1] <= max(hist[i]**1.5, floor)
NORM_RTOL = 1e-9


def variant(seed: int) -> int:
    return seed % VARIANTS


def beam_rho(seed: int) -> list:
    v = variant(seed)
    if v == 0:
        return list(RHO)
    rnd = random.Random(v)
    return [r + RHO_JITTER * rnd.uniform(-1.0, 1.0) for r in RHO]


def beam_model(R: float, seed: int) -> dict:
    return {"kind": "beam", "d": 2, "R": R, "nodes": [[1, 0], [0, 2]],
            "rho": beam_rho(seed), "actions": [0.05, 0.04],
            "tail": {"0": 0.5}, "nonlinearity": [[3, [0, 0], 1.0]],
            "epsilon": 1e-4, "delta": 2, "max_degree": 4}


def _write_config(workdir: Path, name: str, cfg: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(cfg, sort_keys=True))
    return str(path)


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class Workload:
    """Base: holds the seed, size and working directory of one worker."""

    name = ""

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.tiny = tiny
        self.workdir = Path(workdir)
        self.outdir = self.workdir / "out"

    def setup(self):
        raise NotImplementedError

    def run(self) -> dict:
        raise NotImplementedError

    def extras(self, out: dict) -> dict:
        return {"bytes_written": _bytes_under(self.outdir)}

    def reference(self, out: dict) -> dict:
        """The values of ``out`` that ``references.json`` stores."""
        raise NotImplementedError

    def check(self, out: dict, ref: dict) -> list:
        """Failure messages; empty when the outputs are correct."""
        raise NotImplementedError


class _KamWorkload(Workload):
    """``kamkit kam`` on a beam model; build_beam runs in set-up."""

    def config(self) -> dict:
        raise NotImplementedError

    def setup(self):
        from kamkit import cli
        cfg = cli.load_config(_write_config(self.workdir, self.name,
                                            self.config()))
        self.cfg = cfg
        self.built = cli.build_model(cfg["model"])

    def run(self) -> dict:
        from kamkit import cli
        captured = {}
        run_fn, build_fn = cli.run, cli.build_model

        def capture(*args, **kwargs):
            captured["report"] = run_fn(*args, **kwargs)
            return captured["report"]

        cli.run, cli.build_model = capture, (lambda cfg: self.built)
        try:
            code = cli.cmd_kam(self.cfg)
        finally:
            cli.run, cli.build_model = run_fn, build_fn
        rep = captured["report"]
        return {"exit": code, "aborted": rep.aborted,
                "eps_history": [float(e) for e in rep.eps_history],
                "unstable_count": int(rep.unstable_count),
                "omega_final": [float(x) for x in rep.omega_final]}

    def reference(self, out: dict) -> dict:
        return {"unstable_count": out["unstable_count"],
                "omega_final": out["omega_final"]}

    def check(self, out: dict, ref: dict) -> list:
        errors = []
        if out["exit"] != 0 or out["aborted"] is not None:
            errors.append(f"kam exit {out['exit']}, aborted={out['aborted']}")
        hist = out["eps_history"]
        if len(hist) < 2:
            errors.append(f"eps_history too short: {hist}")
        for a, b in zip(hist, hist[1:]):
            if not b <= max(a ** 1.5, EPS_FLOOR):
                errors.append(f"eps {b:.3e} after {a:.3e} breaks the "
                              f"acceptance contraction rule")
        if out["unstable_count"] != ref["unstable_count"]:
            errors.append(f"unstable_count {out['unstable_count']} != "
                          f"{ref['unstable_count']}")
        got, want = out["omega_final"], ref["omega_final"]
        if len(got) != len(want) or any(abs(x - y) > OMEGA_TOL
                                        for x, y in zip(got, want)):
            errors.append(f"omega_final {got} != {want} (tol {OMEGA_TOL})")
        return errors


class KamDesk(_KamWorkload):
    """Acceptance schedule at R=3: max_super=3, eps_target=1e-30."""

    name = "kam_desk"

    def config(self) -> dict:
        return {"seed": self.seed, "output_dir": str(self.outdir),
                "model": beam_model(2 if self.tiny else 3, self.seed),
                "schedule": {"max_super": 1 if self.tiny else 3,
                             "eps_target": 1e-30,
                             **({"max_inner": 2} if self.tiny else {})},
                "weights": WEIGHTS}


class KamWide(_KamWorkload):
    """One inner step and one super step on a larger truncation (R=5)."""

    name = "kam_wide"

    def config(self) -> dict:
        return {"seed": self.seed, "output_dir": str(self.outdir),
                "model": beam_model(2 if self.tiny else 5, self.seed),
                "schedule": {"max_super": 1, "max_inner": 1},
                "weights": WEIGHTS}


class BlocksScan(Workload):
    """``kamkit blocks`` (d=3) then ``kamkit scan`` (beam R=6, 32x32)."""

    name = "blocks_scan"

    def setup(self):
        from kamkit import cli
        blocks = {"output_dir": str(self.outdir / "blocks"),
                  "blocks": {"d": 3, "R": 6 if self.tiny else 24,
                             "deltas": ([1, 2, "inf"] if self.tiny else
                                        [1, 2, 3, 4, 5, 6, "inf"])}}
        scan = {"seed": self.seed, "output_dir": str(self.outdir / "scan"),
                "model": beam_model(2 if self.tiny else 6, self.seed),
                "grid": {"bounds": [[0.5, 0.9], [1.1, 1.5]],
                         "resolution": 8 if self.tiny else 32},
                "guard": {"C": 0.01, "tau": 3, "K_max": 20}}
        self.blocks_cfg = cli.load_config(
            _write_config(self.workdir, "blocks", blocks))
        self.scan_cfg = cli.load_config(
            _write_config(self.workdir, "scan", scan))
        self.built = cli.build_model(self.scan_cfg["model"])

    def run(self) -> dict:
        from kamkit import cli
        build_fn = cli.build_model
        cli.build_model = lambda cfg: self.built
        try:
            blocks_exit = cli.cmd_blocks(self.blocks_cfg)
            scan_exit = cli.cmd_scan(self.scan_cfg)
        finally:
            cli.build_model = build_fn
        scan_dir = Path(self.scan_cfg["output_dir"])
        manifest = json.loads((scan_dir / "manifest.json").read_text())
        table = (Path(self.blocks_cfg["output_dir"])
                 / "diameters.txt").read_text()
        return {"exit": [blocks_exit, scan_exit], "diameters": table,
                "surviving_measure": manifest["surviving_measure"],
                "grid_measure": math.prod(
                    hi - lo for lo, hi in self.scan_cfg["grid"]["bounds"])}

    def extras(self, out: dict) -> dict:
        return {**super().extras(out), "surviving_fraction":
                out["surviving_measure"] / out["grid_measure"]}

    def reference(self, out: dict) -> dict:
        return {"diameters": out["diameters"],
                "surviving_measure": out["surviving_measure"]}

    def check(self, out: dict, ref: dict) -> list:
        errors = []
        if out["exit"] != [0, 0]:
            errors.append(f"blocks/scan exit codes {out['exit']}")
        if out["diameters"] != ref["diameters"]:
            errors.append("diameter table differs:\n" + out["diameters"])
        if not _close(out["surviving_measure"], ref["surviving_measure"],
                      MEASURE_RTOL):
            errors.append(f"surviving measure {out['surviving_measure']!r} "
                          f"!= {ref['surviving_measure']!r}")
        return errors


class SingularBuild(Workload):
    """``kamkit kam`` on the singular beam: build plus smallness gate."""

    name = "singular_build"

    def setup(self):
        from kamkit import cli
        cfg = {"seed": self.seed, "output_dir": str(self.outdir),
               "model": {"kind": "singular", "d": 2,
                         "R": 3 if self.tiny else 5, "mass": 1.37,
                         "nodes": [[0, 1], [1, -1]],
                         "actions": [1e-2, 1.3e-2], "quintic": 1.0},
               "weights": WEIGHTS,
               "norm": {"seed": NORM_SEED + variant(self.seed)},
               "threshold": {"constants": {"aleph": 0.25, "eps0": 100.0,
                                           "c29": 2.0}}}
        self.cfg = cli.load_config(_write_config(self.workdir, self.name,
                                                 cfg))

    def run(self) -> dict:
        from kamkit import cli
        code = cli.cmd_kam(self.cfg)
        manifest = json.loads((self.outdir / "manifest.json").read_text())
        return {"exit": code, "margins": manifest["threshold_margins"]}

    def reference(self, out: dict) -> dict:
        return {"margins": out["margins"]}

    def check(self, out: dict, ref: dict) -> list:
        errors = []
        if out["exit"] != 0:
            errors.append(f"smallness gate failed: exit {out['exit']}")
        got, want = out["margins"], ref["margins"]
        if sorted(got) != sorted(want) or not all(
                _close(got[k], want[k], MARGIN_RTOL) for k in want):
            errors.append(f"margins {got} != {want} (rtol {MARGIN_RTOL})")
        return errors


class NormAlgebra(Workload):
    """Seeded WeightedMatrix pairs on the R=8 ball: products, applications,
    decay norms, and the algebra inequalities they must satisfy."""

    name = "norm_algebra"
    DENSITY = 0.08

    def setup(self):
        import numpy as np
        from kamkit import algebra, lattice
        # the first product draws match the acceptance test at seed 0
        rng = np.random.default_rng(42 + self.seed)
        sites = lattice.ball_points(3 if self.tiny else 8, 2)
        n_prod, n_apply = (1, 1) if self.tiny else (3, 3)

        def matrix():
            A = algebra.WeightedMatrix(truncation=8.0)
            for a in sites:
                for b in sites:
                    if rng.random() < self.DENSITY:
                        A.set(a, b, rng.standard_normal((2, 2))
                              + 1j * rng.standard_normal((2, 2)))
            return A

        W = algebra.WeightParams
        self.sites = sites
        self.products = []
        for _ in range(n_prod):
            g1, g2 = rng.uniform(0.05, 0.6), rng.uniform(0.5, 2.0)
            kappa = rng.uniform(0.0, g2)
            self.products.append((W(g1, g2, kappa), W(g1, g2, 0.0),
                                  matrix(), matrix()))
        self.applies = []
        for _ in range(n_apply):
            g1, g2 = rng.uniform(0.05, 0.6), rng.uniform(0.5, 2.0)
            w = W(g1, g2, rng.uniform(0.0, g2))
            wt = W(rng.uniform(0.0, g1), rng.uniform(0.0, g2))
            A = matrix()
            z = algebra.SeqVector()
            for s in sites:
                if rng.random() < 0.2:
                    z.set(s, rng.standard_normal(2)
                          + 1j * rng.standard_normal(2))
            self.applies.append((w, wt, A, z))

    def run(self) -> dict:
        from kamkit import algebra
        violations = 0
        prods, apps = [], []
        for w, w0, A, B in self.products:
            C = B.matmul(A)
            lhs = algebra.matrix_norm(C, w)
            nA, nB = algebra.matrix_norm(A, w0), algebra.matrix_norm(B, w)
            violations += lhs > nA * nB * (1 + 1e-12)
            prods.append((C, lhs, nA, nB))
        for w, wt, A, z in self.applies:
            y = A.apply(z)
            lhs = algebra.seq_norm(y, wt)
            nA, nz = algebra.matrix_norm(A, w), algebra.seq_norm(z, wt)
            violations += lhs > nA * nz * (1 + 1e-12)
            apps.append((y, lhs, nA, nz))
        return {"violations": int(violations), "products": prods,
                "applies": apps}

    def _oracle(self, out: dict) -> list:
        """Dense numpy recomputation of every product, application and norm."""
        import numpy as np
        sites = self.sites
        idx = {s: i for i, s in enumerate(sites)}
        X = np.array(sites, dtype=float)
        br = np.maximum(np.sqrt((X * X).sum(axis=1)), 1.0)
        pd = np.sqrt(np.minimum(((X[:, None] - X[None]) ** 2).sum(axis=2),
                                ((X[:, None] + X[None]) ** 2).sum(axis=2)))
        n = len(sites)

        def dense(A):
            """Blocks -> (n, n, 2, 2) array."""
            D = np.zeros((n, n, 2, 2), dtype=complex)
            for (a, b), M in A.blocks.items():
                D[idx[a], idx[b]] = M
            return D

        def flat(D):
            return D.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)

        def mnorm(D, w):
            bn = np.linalg.norm(D, ord=2, axis=(2, 3))
            wt = (np.exp(w.gamma1 * pd) * np.maximum(pd, 1.0) ** w.gamma2
                  * np.minimum(br[:, None], br[None, :]) ** w.kappa)
            return max((bn * wt).sum(axis=1).max(),
                       (bn * wt).sum(axis=0).max())

        def vec(z):
            v = np.zeros((n, 2), dtype=complex)
            for s, e in z.entries.items():
                v[idx[s]] = e
            return v

        def snorm(v, w):
            nrm = np.sqrt((X * X).sum(axis=1))
            return math.sqrt(float((np.abs(v) ** 2).sum(axis=1)
                                   @ (br ** (2 * w.gamma2)
                                      * np.exp(2 * w.gamma1 * nrm))))

        errors = []
        for (w, w0, A, B), (C, lhs, nA, nB) in zip(self.products,
                                                   out["products"]):
            DA, DB = dense(A), dense(B)
            want = (flat(DB) @ flat(DA)).reshape(n, 2, n, 2) \
                .transpose(0, 2, 1, 3)
            if np.abs(dense(C) - want).max() > 1e-12 * np.abs(want).max():
                errors.append("matmul differs from the dense product")
            for got, ref in ((lhs, mnorm(want, w)), (nA, mnorm(DA, w0)),
                             (nB, mnorm(DB, w))):
                if not _close(got, ref, NORM_RTOL):
                    errors.append(f"matrix_norm {got!r} != oracle {ref!r}")
        for (w, wt, A, z), (y, lhs, nA, nz) in zip(self.applies,
                                                   out["applies"]):
            want = (flat(dense(A)) @ vec(z).reshape(-1)).reshape(n, 2)
            if np.abs(vec(y) - want).max() > 1e-12 * np.abs(want).max():
                errors.append("apply differs from the dense product")
            for got, ref in ((lhs, snorm(want, wt)), (nA, mnorm(dense(A), w)),
                             (nz, snorm(vec(z), wt))):
                if not _close(got, ref, NORM_RTOL):
                    errors.append(f"norm {got!r} != oracle {ref!r}")
        return errors

    def reference(self, out: dict) -> dict:
        return {"violations": 0}

    def check(self, out: dict, ref: dict) -> list:
        errors = self._oracle(out)
        if out["violations"] != ref["violations"]:
            errors.append(f"{out['violations']} algebra-inequality "
                          f"violations, expected {ref['violations']}")
        return errors


WORKLOADS = {w.name: w for w in (KamDesk, KamWide, BlocksScan, SingularBuild,
                                 NormAlgebra)}
REFERENCES = Path(__file__).with_name("references.json")


def load_reference(name: str, seed: int, tiny: bool) -> dict:
    refs = json.loads(REFERENCES.read_text())
    return refs["tiny" if tiny else "full"][name][str(variant(seed))]
