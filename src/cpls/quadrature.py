"""Composite Simpson quadrature on uniform grids.

All integral-type diagnostics in this package (orthonormality checks,
box-restricted mean squared errors, oracle criteria) use the same fixed-grid
composite Simpson rule, so results are deterministic and reproducible.
"""

from __future__ import annotations

import numpy as np


def simpson_grid(a: float, b: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Return nodes and weights of the composite Simpson rule on [a, b].

    ``n_nodes`` must be odd and at least 3 (an even number of subintervals).
    ``sum(w * f(x))`` then approximates the integral of ``f`` over ``[a, b]``.
    """
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError(f"n_nodes must be odd and >= 3, got {n_nodes}")
    if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
        raise ValueError(f"invalid interval [{a}, {b}]")
    x = np.linspace(a, b, n_nodes)
    h = (b - a) / (n_nodes - 1)
    w = np.full(n_nodes, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return x, w * (h / 3.0)

