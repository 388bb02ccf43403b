# Build the partial normal form for the singular beam and test the
# smallness gate that decides whether the iteration may start.  The gate
# compares the jet norm and the frequency corrections against powers of
# the action floor; shrinking the actions makes every margin grow.

from kamkit.algebra import WeightParams
from kamkit.hamiltonian import ClassNormParams
from kamkit.kam import singular_gate_inputs, singular_threshold
from kamkit.models import SingularBeamModel, build_singular


def run():
    constants = {"aleph": 0.25, "eps0": 100.0, "c29": 2.0}
    w = WeightParams(gamma1=0.4, gamma2=1.0, kappa=0.5, m_star=1.0)
    for scale in (1.0, 1e-2, 1e-4):
        model = SingularBeamModel(d=2, radius=5.0, mass=1.37,
                                  nodes=((0, 1), (1, -1)),
                                  actions=(scale, 1.3 * scale),
                                  quintic=1.0)
        nform = build_singular(model)
        eps, delta0, chi, xi = singular_gate_inputs(nform, ClassNormParams(),
                                                    w)
        ok, margins = singular_threshold(eps, delta0, chi, xi, constants)
        print(f"action scale {scale:8.0e}: eps={eps:.3e} delta0={delta0:.3e}"
              f" chi={chi:.3e} xi={xi:.3e} -> {'PASS' if ok else 'FAIL'}")
        for name, m in sorted(margins.items()):
            print(f"    margin[{name}] = {m:.3g}")


if __name__ == "__main__":
    run()
