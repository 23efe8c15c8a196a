"""History weights for the fractional-order time stepping.

The explicit scheme weighs each past stencil evaluation by a binomial-type
coefficient psi(gamma, m).  The weights obey a two-term recursion, which is
how we evaluate them: it is exact at gamma = 1 (every weight beyond m = 0
collapses to zero, recovering the classical single-step update) and loses
almost nothing to rounding for moderate m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

GAMMA_MIN = 0.0
GAMMA_MAX = 2.0


def _checked_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not math.isfinite(gamma) or not GAMMA_MIN < gamma < GAMMA_MAX:
        raise ValueError(
            f"gamma must lie in the open interval ({GAMMA_MIN}, {GAMMA_MAX}), got {gamma!r}"
        )
    return gamma


@dataclass(frozen=True)
class PsiTable:
    """Precomputed weights psi(gamma, m) for every m from 0 to ``capacity``.

    ``values[m]`` holds psi(gamma, m) and ``prefix[x]`` the running sum of
    ``values[:x]``, so the psi mass of offsets lo..hi-1 is
    ``prefix[hi] - prefix[lo]``.  Both arrays are read-only; a solver run
    builds the table once up front and shares it across all steps.
    """

    gamma: float
    values: np.ndarray
    prefix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("psi table must be a non-empty 1D array")
        self.values.setflags(write=False)
        prefix = np.zeros(self.values.size + 1, dtype=np.float64)
        np.cumsum(self.values, out=prefix[1:])
        prefix.setflags(write=False)
        object.__setattr__(self, "prefix", prefix)

    @property
    def capacity(self) -> int:
        """Largest history offset the table covers."""
        return self.values.size - 1


def build_table(gamma: float, n_steps: int) -> PsiTable:
    """Tabulate psi(gamma, m) for m = 0..n_steps via the recursion.

    ``psi(gamma, 0) = 1`` and, for m >= 1,

        psi(gamma, m) = -psi(gamma, m - 1) * (2 - gamma - m) / m,

    with gamma in (0, 2).  The table is filled by one sequential pass.
    """
    gamma = _checked_gamma(gamma)
    n_steps = int(n_steps)
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    values = np.empty(n_steps + 1, dtype=np.float64)
    value = 1.0
    values[0] = value
    for m in range(1, n_steps + 1):
        value = -value * (2.0 - gamma - m) / m
        values[m] = value
    return PsiTable(gamma=gamma, values=values)

