"""Finite-difference derivatives of scalar functions, shared by both steps."""

from __future__ import annotations

import numpy as np

__all__ = ["gradient_fd", "hessian_fd"]


def gradient_fd(fun, x, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient with per-coordinate relative steps."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        h = step * max(1.0, abs(x[i]))
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        g[i] = (fun(xp) - fun(xm)) / (2 * h)
    return g


def _hessian_central(fun, x, steps) -> np.ndarray:
    n = x.size
    H = np.empty((n, n))
    f0 = fun(x)
    for i in range(n):
        hi = steps[i]
        xp = x.copy(); xp[i] += hi
        xm = x.copy(); xm[i] -= hi
        H[i, i] = (fun(xp) - 2 * f0 + fun(xm)) / hi**2
    for i in range(n):
        for j in range(i + 1, n):
            hi, hj = steps[i], steps[j]
            xpp = x.copy(); xpp[i] += hi; xpp[j] += hj
            xpm = x.copy(); xpm[i] += hi; xpm[j] -= hj
            xmp = x.copy(); xmp[i] -= hi; xmp[j] += hj
            xmm = x.copy(); xmm[i] -= hi; xmm[j] -= hj
            H[i, j] = H[j, i] = (fun(xpp) - fun(xpm) - fun(xmp) + fun(xmm)) / (4 * hi * hj)
    return H


def hessian_fd(fun, x, step: float = 1e-4, richardson: bool = True) -> np.ndarray:
    """Central-difference Hessian, optionally Richardson-extrapolated.

    Richardson combines estimates at h and h/2 as (4 H(h/2) - H(h)) / 3,
    cancelling the leading O(h^2) truncation term.
    """
    x = np.asarray(x, dtype=float)
    steps = step * np.maximum(1.0, np.abs(x))
    H1 = _hessian_central(fun, x, steps)
    if not richardson:
        return 0.5 * (H1 + H1.T)
    H2 = _hessian_central(fun, x, steps / 2)
    H = (4 * H2 - H1) / 3
    return 0.5 * (H + H.T)
