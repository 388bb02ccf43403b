# Scan a parameter grid for small divisors: check the non-degeneracy
# hypothesis on the frequency map, then excise the cells where a Melnikov
# combination dips below C / |k|^tau.  Whatever survives is the set of
# parameters where the iteration below can run.

import math

from kamkit.divisors import ParameterGrid, check_A1, melnikov_scan
from kamkit.lattice import build_partition
from kamkit.models import BeamModel, build_beam


def run():
    model = BeamModel(d=2, radius=3.0, nodes=((1, 0), (0, 2)),
                      rho=(0.7, 1.3), actions=(0.05, 0.04),
                      tail={0: 0.5}, nonlinearity=((3, (0, 0), 1.0),),
                      epsilon=1e-4, delta=2, max_degree=4)
    h, _ = build_beam(model)

    grid = ParameterGrid(bounds=((0.5, 0.9), (1.1, 1.5)), resolution=16)
    print(f"grid: {grid.resolution}x{grid.resolution} cells, "
          f"measure {grid.measure():.4f}")

    # the per-sphere hypothesis is checked on the coarsest partition, where
    # each class is a full integer sphere
    p = h.partition
    spheres = build_partition(math.inf, p.radius, p.d,
                              finite_set=p.finite_set,
                              core_cutoff=p.core_cutoff, exclude=p.exclude)
    sites = [a for cl in p.classes for a in cl]
    rep = check_A1(sites, h.lambda_fn, spheres, grid,
                   delta0=1e-8, beta=1.0, c_const=1.0, H=h.hyperbolic_block)
    print(f"frequency-map hypothesis: bad measure {rep.bad_measure:.4f}")

    for C in (1.0, 0.1, 0.01):
        mel = melnikov_scan(h.omega_fn, h.lambda_fn, h.partition, grid,
                            C=C, tau=3.0, K_max=20)
        frac = mel.bad_measure / grid.measure()
        print(f"Melnikov C={C:<5g} tau=3: excised {len(mel.bad_cells):4d} "
              f"cells ({100 * frac:5.1f}% of the grid)")


if __name__ == "__main__":
    run()
