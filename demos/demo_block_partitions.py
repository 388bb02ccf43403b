# Build block partitions of the integer lattice at several coupling ranges
# and watch the block diameters grow polynomially in the range parameter.

import numpy as np

from kamkit.lattice import build_partitions, max_diameter


def run():
    radius = 24.0
    deltas = (1, 2, 3, 4, 5)
    for d in (2, 3):
        print(f"\n-- dimension d={d}, lattice ball radius {radius} --")
        print(f"{'delta':>6} {'classes':>8} {'max diameter':>13}")
        diams = []
        for delta, part in zip(deltas, build_partitions(
                [float(t) for t in deltas], radius, d)):
            diams.append(max_diameter(part))
            print(f"{delta:6d} {len(part.ends) - 1:8d} {diams[-1]:13.3f}")
        # diameters stay bounded by c * delta^((d+1)!/2)
        exponent = {2: 3.0, 3: 12.0}[d]
        c_fit = max(diam / t ** exponent for t, diam in zip(deltas, diams))
        print(f"fitted constant for diameter <= c * delta^{exponent:.0f}: "
              f"{c_fit:.3f}")


if __name__ == "__main__":
    run()
