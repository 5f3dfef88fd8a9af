"""Sample matrices with column metadata and CSV round-trip."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SampleMatrix"]


@dataclass
class SampleMatrix:
    """N x k matrix of draws.

    Columns are named ``theta_0..theta_{p-1}`` for continuous draws, or
    ``tau_0..tau_{n-1}`` (integer categories) followed by
    ``zeta_0..zeta_{p-1}`` for mixed draws.
    """

    data: np.ndarray
    columns: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.data = np.atleast_2d(np.asarray(self.data, dtype=float))
        if not self.columns:
            self.columns = [f"theta_{i}" for i in range(self.data.shape[1])]
        if len(self.columns) != self.data.shape[1]:
            raise ValueError("column names do not match data width")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def tau_columns(self) -> list[int]:
        return [i for i, c in enumerate(self.columns) if c.startswith("tau_")]

    def zeta_columns(self) -> list[int]:
        return [i for i, c in enumerate(self.columns) if c.startswith("zeta_")]

    def to_csv(self, path: str) -> None:
        tau = set(self.tau_columns())
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.data:
                cells = [
                    str(int(v)) if j in tau else repr(float(v))
                    for j, v in enumerate(row)
                ]
                fh.write(",".join(cells) + "\n")

    @classmethod
    def from_csv(cls, path: str) -> "SampleMatrix":
        with open(path) as fh:
            header = fh.readline().strip()
            columns = header.split(",") if header else []
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if data.size == 0:
            data = np.empty((0, len(columns)))
        return cls(data=data, columns=columns)

    @classmethod
    def continuous(cls, data: np.ndarray) -> "SampleMatrix":
        data = np.atleast_2d(np.asarray(data, dtype=float))
        return cls(data=data, columns=[f"theta_{i}" for i in range(data.shape[1])])

    @classmethod
    def mixed(cls, taus: np.ndarray, zetas: np.ndarray) -> "SampleMatrix":
        taus, zetas = np.atleast_2d(taus), np.atleast_2d(zetas)
        n = taus.shape[1]
        data = np.empty((taus.shape[0], n + zetas.shape[1]))  # the only copy
        data[:, :n] = taus
        data[:, n:] = zetas
        cols = [f"tau_{i}" for i in range(n)]
        cols += [f"zeta_{i}" for i in range(zetas.shape[1])]
        return cls(data=data, columns=cols)
