"""Oracles that only the tests call, moved here from ``kamkit.kam``
unchanged.  Not used by the package.

- ``_fold_h_acc``: the fold through the polynomial codec.  It encodes h,
  adds the accumulated correction as a polynomial, and reads the sum back
  with ``decode_jet``: omega and const from the r and constant rows, each
  Q from the xi_a eta_b rows gathered per class of the new partition, and
  the hyperbolic block from the rows over the finite node set.  The
  oracle of the block-wise fold, which shares no codec with it.
"""
import numpy as np

from kamkit.hamiltonian import (ETA, XI, NormalFormHamiltonian, Polynomial,
                                StageAbort, class_ids, decode_jet,
                                site_layout)
from kamkit.lattice import BlockPartition


def _fold_h_acc(h: NormalFormHamiltonian, h_acc: Polynomial,
                p_new: BlockPartition) -> NormalFormHamiltonian:
    """Fold corrections into a new normal form on ``p_new``, which is h's
    partition or a coarser one over the same sites.

    The jet of h + h_acc is read back through the codec: Hermitian Q_ab
    from the xi_a eta_b entries, gathered per class of the new partition,
    and the hyperbolic block from the entries over the finite node set."""
    var_id = site_layout(h.partition.sites())
    K, M, U, V, C = decode_jet(h.to_polynomial() + h_acc, var_id)
    bad = np.flatnonzero(K.any(axis=1))
    if len(bad):
        raise StageAbort("fold", tuple(K[bad[0]].tolist()),
                         "accumulated correction has angle dependence")
    omega = np.zeros(h.n)
    on_r = (U < 0) & M.any(axis=1)
    omega[np.nonzero(M[on_r])[1]] += C[on_r].real
    ell = (V >= 0) & (U % 2 == XI) & (V % 2 == ETA)
    Q_all = np.zeros((len(var_id) // 2,) * 2, dtype=complex)
    Q_all[U[ell] // 2, V[ell] // 2] += C[ell]
    h_new = NormalFormHamiltonian(
        omega=omega, partition=p_new,
        const=float(C[(U < 0) & ~on_r].real.sum()),
        rho_star=h.rho_star, omega_fn=h.omega_fn, lambda_fn=h.lambda_fn)
    for ci, cl in enumerate(p_new.classes):
        if ci == p_new.finite_index:
            continue
        ix = class_ids(var_id, cl)[XI] // 2
        try:                # the Hermitian check is the normal-form gate
            h_new.set_block(ci, Q_all[np.ix_(ix, ix)])
        except ValueError as exc:
            raise StageAbort("fold", ci, str(exc)) from exc
    if p_new.finite_index is not None:
        w = class_ids(var_id, p_new.classes[p_new.finite_index]).T.ravel()
        fin = np.full(len(var_id), -1)
        fin[w] = np.arange(len(w))
        hyp = (V >= 0) & (fin[U] >= 0) & (fin[V] >= 0)
        H = np.zeros((len(w), len(w)), dtype=complex)
        H[fin[U[hyp]], fin[V[hyp]]] += C[hyp]
        h_new.hyperbolic_block = H
    return h_new
