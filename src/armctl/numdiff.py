"""Central-difference derivative helpers.

The library's linearization is closed-form; this module is the
second-order reference the tests compare it against (about 1e-9 relative
on the arm dynamics).  The step rule h = rel * max(1, |coordinate|) is
fixed so that repeated differences are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

DEFAULT_REL_STEP = 1e-6


def central_step(value: float, rel: float = DEFAULT_REL_STEP) -> float:
    return rel * max(1.0, abs(value))


def jacobian(f, x, rel: float = DEFAULT_REL_STEP) -> np.ndarray:
    """Central-difference Jacobian of a vector function of a vector.

    Returns J with J[i, j] = d f_i / d x_j.
    """
    x = np.asarray(x, dtype=float)
    J = None
    for j in range(x.size):
        h = central_step(x[j], rel)
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        col = (np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (2.0 * h)
        if J is None:
            J = np.zeros((col.size, x.size))
        J[:, j] = col
    return J
