"""Central-difference derivatives, and the rule that turns a log-likelihood
Hessian into a covariance, shared by both steps.

Step two's filter fit takes its Hessian from :func:`hessian_fd`, which
evaluates its whole stencil as one batch; step one has analytic derivatives
and uses only :func:`hessian_covariance`."""

from __future__ import annotations

import numpy as np

from .errors import CurvatureError

__all__ = ["gradient_fd", "hessian_fd", "hessian_covariance"]


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


def hessian_fd(fun, x) -> np.ndarray:
    """Central-difference Hessian at relative step 1e-4 per coordinate.

    ``fun`` maps an (m, n) array of points to their m values; it is called
    once, on the whole stencil of 2n^2 + 1 points.  At this step the
    truncation error on smooth likelihoods is already below the round-off,
    so extrapolating to smaller steps gains nothing.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    h = 1e-4 * np.maximum(1.0, np.abs(x))
    e = np.diag(h)
    i, j = np.triu_indices(n, 1)
    # x + e[i] + e[j] gives the doubles of stepping two coordinates of a copy
    f0, fp, fm, pp, pm, mp, mm = np.split(
        np.asarray(fun(np.vstack([x, x + e, x - e, x + e[i] + e[j], x + e[i] - e[j],
                                  x - e[i] + e[j], x - e[i] - e[j]])), dtype=float),
        np.cumsum([1, n, n] + [i.size] * 3))
    H = np.empty((n, n))
    H[np.diag_indices(n)] = (fp - 2 * f0 + fm) / h**2
    H[i, j] = H[j, i] = (pp - pm - mp + mm) / (4 * h[i] * h[j])
    return H


def hessian_covariance(hessian: np.ndarray):
    """Covariance of an ML estimate from the inverse observed information.

    ``hessian`` is the Hessian of the log likelihood at the estimate.  Returns
    (Sigma, warnings).  An eigenvalue of the information matrix below -1e-6
    signals wrong curvature and raises :class:`CurvatureError`; eigenvalues
    that are only numerically zero trigger a pseudo-inverse with a warning,
    which is what a variance parameter estimated on its boundary produces.
    """
    info = -hessian
    eigvals = np.linalg.eigvalsh(info)
    warnings: list[str] = []
    if eigvals.min() < -1e-6:
        raise CurvatureError(
            f"information matrix has negative eigenvalue {eigvals.min():.3e}; not a maximum"
        )
    if eigvals.min() <= 1e-10 * max(eigvals.max(), 1.0):
        warnings.append(
            f"information matrix has a numerically zero eigenvalue ({eigvals.min():.3e}); "
            "using pseudo-inverse"
        )
        sigma = np.linalg.pinv(info, hermitian=True)
    else:
        sigma = np.linalg.inv(info)
    sigma = 0.5 * (sigma + sigma.T)
    return sigma, warnings
