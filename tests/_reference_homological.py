"""The determinant certificate of a one-parameter matrix family, a check
that only the tests call, moved here from ``kamkit.homological``
unchanged.  Not used by the package."""
import numpy as np


def det_certificate(L_of_t, delta0: float, j_max: int, t_span=(0.0, 1.0),
                    samples: int = 33):
    """First derivative order j <= j_max with |d^j det L / dt^j| >= delta0
    everywhere on the section; returns (j, min |d^j det|) or (None, best)."""
    ts = np.linspace(t_span[0], t_span[1], samples)
    dets = np.array([complex(np.linalg.det(np.atleast_2d(L_of_t(t))))
                     for t in ts])
    dt = ts[1] - ts[0]
    cur = dets
    best = (None, 0.0)
    for j in range(1, j_max + 1):
        cur = np.diff(cur) / dt
        m = float(np.abs(cur).min()) if len(cur) else 0.0
        if m >= delta0:
            return j, m
        if m > best[1]:
            best = (None, m)
    return None, best[1]
