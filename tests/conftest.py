import os
from pathlib import Path

import numpy as np
import pytest

from msmtrend.markov import HazardParams, ModelStructure

# pytest puts src/ on this process's path (pyproject ``pythonpath``); the
# CLI tests run ``python -m msmtrend`` in child processes, which see it only
# through PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

# ---------------------------------------------------------------------------
# acceptance reporting: collected lines are printed in the terminal summary


ACCEPTANCE_RESULTS = []


def record_acceptance(name: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((name, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {name}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# shared model fixtures


WAVE_TIMES = tuple(float(t) for t in range(0, 18, 2))


def drift_series(seed, T):
    """The walk of test_boundary_refit_reoptimizes_drift at any seed: drift
    -0.02, sampling sd 0.133; returns (y, per-wave variances)."""
    rng = np.random.default_rng(seed)
    s = np.sqrt(1.26) * 0.133 * rng.uniform(0.05, 1.0)
    return np.cumsum(rng.normal(-0.02, s, T)) + rng.normal(0, 0.133, T), np.full(T, 0.133**2)


def paperlike_structure() -> ModelStructure:
    return ModelStructure(knots=(60.0, 75.0, 90.0), wave_times=WAVE_TIMES)


def paperlike_params() -> HazardParams:
    """Ground truth with realistic magnitudes: onset rates in the several-
    per-1000 person-year range rising steeply with age, declining background
    mortality, elevated post-onset mortality, misclassification at the
    published correct-classification rates 0.996 and 0.779."""
    return HazardParams(
        beta=np.array([-6.25, -6.18, -6.32, -6.40, -6.28, -6.20, -6.35, -6.30]),
        female_12=-0.10,
        age_spline_12=np.array([0.125, 0.45]),
        age_spline_f_12=np.array([0.01, -0.09]),
        log_q13_0=float(np.log(0.012)),
        female_13=-0.30,
        age_13=0.09,
        trend_13=-0.05,
        log_q23_0=float(np.log(0.032)),
        female_23=-0.25,
        age_23=0.07,
        trend_23=0.024,
        logit_e12=float(np.log(0.004 / 0.996)),
        logit_e21=float(np.log(0.221 / 0.779)),
        logit_p2=float(np.log(0.04 / 0.96)),
    )


@pytest.fixture
def structure():
    return paperlike_structure()


@pytest.fixture
def truth():
    return paperlike_params()


# ---------------------------------------------------------------------------
# independent matrix-exponential oracle


def taylor_expm(m: np.ndarray, tol: float = 1e-16) -> np.ndarray:
    """Truncated Taylor series for exp(M), terms added until the increment
    falls below ``tol``; scaling-and-squaring keeps every series
    cancellation-free so the truncation rule is the only error source."""
    m = np.asarray(m, dtype=float)
    norm = np.abs(m).sum(axis=1).max()
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30) / 0.5))))
    a = m / 2.0**squarings
    term = np.eye(m.shape[0])
    total = np.eye(m.shape[0])
    n = 1
    while True:
        term = term @ a / n
        total = total + term
        if np.abs(term).max() < tol or n > 200:
            break
        n += 1
    for _ in range(squarings):
        total = total @ total
    return total


def random_generator(rng: np.random.Generator, scale: float = 5.0) -> np.ndarray:
    """Random valid triangular generator with off-diagonals in [0, scale]."""
    q12, q13, q23 = rng.uniform(0.0, scale, size=3)
    return np.array(
        [
            [-(q12 + q13), q12, q13],
            [0.0, -q23, q23],
            [0.0, 0.0, 0.0],
        ]
    )
