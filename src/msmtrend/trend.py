"""The trend series that step one hands to step two."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError

__all__ = ["TrendSeries"]


@dataclass
class TrendSeries:
    """Wave-dummy estimates with their sampling covariance block."""

    beta: np.ndarray
    cov: np.ndarray
    n_transitions: int | None = None

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        T = self.beta.size
        if self.beta.ndim != 1:
            raise InvalidSpecError("beta must be a flat list of wave dummies")
        if self.cov.shape != (T, T):
            raise InvalidSpecError("covariance block does not match series length")
        if not (np.all(np.isfinite(self.beta)) and np.all(np.isfinite(self.cov))):
            raise InvalidSpecError("beta and covariance block must be finite")
        # compared at the scale of its largest entry, where no difference
        # overflows; eigvalsh reads one triangle of the symmetric block
        unit = self.cov / max(1.0, np.abs(self.cov).max())
        if np.max(np.abs(unit - unit.T)) > 1e-10:
            raise InvalidSpecError("covariance block is not symmetric")
        if np.linalg.eigvalsh(self.cov).min() < -1e-8:
            raise InvalidSpecError("covariance block is not positive semidefinite")
        if np.any(np.diag(self.cov) <= 0):
            raise InvalidSpecError("covariance diagonal must be positive")
        n = self.n_transitions
        # a bool is an int to Python, and JSON's true is not a count
        if n is not None and (isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0):
            raise InvalidSpecError(f"n_transitions must be a nonnegative integer, got {n!r}")

    @property
    def n_waves(self) -> int:
        return int(self.beta.size)

    @property
    def var_diag(self) -> np.ndarray:
        return np.diag(self.cov).copy()

    def to_json_dict(self) -> dict:
        doc = {
            "T": self.n_waves,
            "beta": self.beta.tolist(),
            "cov": self.cov.tolist(),
            "var_diag": self.var_diag.tolist(),
        }
        if self.n_transitions is not None:
            doc["n_transitions"] = int(self.n_transitions)
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TrendSeries":
        beta = np.asarray(doc["beta"], dtype=float)
        if "cov" in doc:
            cov = np.asarray(doc["cov"], dtype=float)
        elif "var_diag" in doc:
            cov = np.diag(np.asarray(doc["var_diag"], dtype=float))
        else:
            raise InvalidSpecError("trend series needs 'cov' or 'var_diag'")
        return cls(beta=beta, cov=cov, n_transitions=doc.get("n_transitions"))
