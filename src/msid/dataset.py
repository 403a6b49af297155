"""Measured input/output sequences and their CSV persistence."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """A record of N measured samples (u[k], y[k]), k = 1..N.

    Arrays are 0-based: index j corresponds to sample k = j + 1.  ``meta``
    carries generator bookkeeping (seed, generator id, noise realization,
    true states) so that experiments are exactly reproducible.
    """

    u: np.ndarray
    y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        u = np.ascontiguousarray(np.asarray(self.u, dtype=float))
        y = np.ascontiguousarray(np.asarray(self.y, dtype=float))
        if u.ndim != 1 or y.ndim != 1:
            raise ValueError("u and y must be one-dimensional")
        if u.shape[0] != y.shape[0]:
            raise ValueError(f"length mismatch: len(u)={u.shape[0]}, len(y)={y.shape[0]}")
        if u.size and not (np.isfinite(u).all() and np.isfinite(y).all()):
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def to_csv(self, path) -> None:
        """Write samples as ``k,u,y`` rows with round-trip decimal formatting."""
        with open(path, "w") as fh:
            fh.write("k,u,y\n")
            for j in range(self.n):
                fh.write(f"{j + 1},{float(self.u[j])!r},{float(self.y[j])!r}\n")

    @classmethod
    def from_csv(cls, path, meta: dict | None = None) -> "Dataset":
        with open(path) as fh:
            header = fh.readline().strip()
            if header.split(",")[:3] != ["k", "u", "y"]:
                raise ValueError(f"bad CSV header {header!r}; expected 'k,u,y'")
            u, y = [], []
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) < 3:
                    raise ValueError(f"row {line!r} has fewer than 3 fields")
                u.append(float(parts[1]))
                y.append(float(parts[2]))
        return cls(np.array(u), np.array(y), dict(meta or {}))
