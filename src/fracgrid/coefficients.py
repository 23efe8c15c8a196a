"""History weights for the fractional-order time stepping.

The explicit scheme weighs each past stencil evaluation by a binomial-type
coefficient psi(gamma, m).  The weights obey a two-term recursion, which is
how we evaluate them: it is exact at gamma = 1 (every weight beyond m = 0
collapses to zero, recovering the classical single-step update) and loses
almost nothing to rounding for moderate m.
"""

from __future__ import annotations

import numpy as np

from .schedule import MemorySchedule, cell_bounds


def checked_gamma(gamma: float) -> float:
    """``gamma`` as a float; ValueError unless it lies in (0, 1], its one domain."""
    gamma = float(gamma)
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma!r}")
    return gamma


class PsiTable:
    """Precomputed weights psi(gamma, m) for every m from 0 to ``capacity``.

    ``values[m]`` holds psi(gamma, m) and ``prefix[x]`` the running sum of
    ``values[:x]``, so the psi mass of offsets lo..hi-1 is
    ``prefix[hi] - prefix[lo]``.  ``reversed_values`` is ``values`` oldest
    offset first, the order the history stores its fields in:
    ``reversed_values[capacity - m]`` is psi(gamma, m).  All three arrays
    are read-only; a solver run builds the table once up front and shares it
    across all steps, which weigh their schedules with :meth:`coefficients`.
    """

    def __init__(self, gamma: float, values: np.ndarray) -> None:
        if values.ndim != 1 or values.size < 1:
            raise ValueError("psi table must be a non-empty 1D array")
        values.setflags(write=False)
        prefix = np.zeros(values.size + 1, dtype=np.float64)
        np.cumsum(values, out=prefix[1:])
        prefix.setflags(write=False)
        reversed_values = values[::-1].copy()
        reversed_values.setflags(write=False)
        self.gamma = gamma
        self.values = values
        self.prefix = prefix
        self.reversed_values = reversed_values
        self._memo: dict = {}

    @property
    def capacity(self) -> int:
        """Largest history offset the table covers."""
        return self.values.size - 1

    def coefficients(self, schedule: MemorySchedule) -> list[np.ndarray]:
        """Per-run coefficients: the psi mass of the offsets each entry stands for.

        Returns one read-only C-contiguous array per run of ``schedule`` in
        storage order, oldest entry (the run's largest offset) first, which
        is the order the history keeps its fields in.  Each entry gets the
        psi mass of its cell, between two :func:`~fracgrid.schedule.cell_bounds`
        ``start <= x < end``: ``values[start]`` itself for a one-offset cell,
        ``prefix[end] - prefix[start]`` for a wider one.  So full and short
        memory and any schedule that visits every offset weigh history
        exactly alike, bit for bit; a dense run of unit cells is a view of
        ``reversed_values``, never a copy.

        A run's coefficients depend only on the run and its span.  The table
        keeps the thinned runs of the last schedule it weighed and computes
        none of them again, so a stepping loop reuses every run the previous
        step shared with this one, and nothing older is kept.
        """
        cap = self.capacity
        if schedule.reach > cap:
            raise ValueError(
                f"psi table covers offsets up to {cap}, schedule needs {schedule.reach}"
            )
        values, prefix, rev = self.values, self.prefix, self.reversed_values
        memo = self._memo
        fresh = {}
        out = []
        for key in zip(schedule.runs, schedule.spans):
            (m, count, stride), (lo, hi) = key
            last = m + (count - 1) * stride
            if stride == 1 and lo == m and hi == last + 1:
                out.append(rev[cap - last : cap - m + 1])
                continue
            coeffs = memo.get(key)
            if coeffs is None:
                bounds = cell_bounds(*key)
                end, start = bounds[:-1], bounds[1:]
                coeffs = np.where(end - start == 1, values[start], prefix[end] - prefix[start])
                coeffs.setflags(write=False)
            fresh[key] = coeffs
            out.append(coeffs)
        self._memo = fresh
        return out


def build_table(gamma: float, n_steps: int) -> PsiTable:
    """Tabulate psi(gamma, m) for m = 0..n_steps via the recursion.

    ``psi(gamma, 0) = 1`` and, for m >= 1,

        psi(gamma, m) = -psi(gamma, m - 1) * (2 - gamma - m) / m,

    with gamma in (0, 1].  The table is filled by one sequential pass.
    """
    gamma = checked_gamma(gamma)
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

