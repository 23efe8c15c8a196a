"""History weights for the fractional-order time stepping.

The explicit scheme weighs each past stencil evaluation by a binomial-type
coefficient psi(gamma, m).  The weights obey a two-term recursion, which is
how we evaluate them: it is exact at gamma = 1 (every weight beyond m = 0
collapses to zero, recovering the classical single-step update) and loses
almost nothing to rounding for moderate m.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .schedule import MemorySchedule


def checked_gamma(gamma: float) -> float:
    """``gamma`` as a float; ValueError unless it lies in (0, 1], its one domain."""
    gamma = float(gamma)
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma!r}")
    return gamma


@dataclass(frozen=True)
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

    gamma: float
    values: np.ndarray
    prefix: np.ndarray = field(init=False, repr=False, compare=False)
    reversed_values: np.ndarray = field(init=False, repr=False, compare=False)
    _memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("psi table must be a non-empty 1D array")
        self.values.setflags(write=False)
        prefix = np.zeros(self.values.size + 1, dtype=np.float64)
        np.cumsum(self.values, out=prefix[1:])
        prefix.setflags(write=False)
        object.__setattr__(self, "prefix", prefix)
        reversed_values = self.values[::-1].copy()
        reversed_values.setflags(write=False)
        object.__setattr__(self, "reversed_values", reversed_values)
        object.__setattr__(self, "_memo", {})

    @property
    def capacity(self) -> int:
        """Largest history offset the table covers."""
        return self.values.size - 1

    def coefficients(self, schedule: MemorySchedule) -> list[np.ndarray]:
        """Per-run coefficients: the psi mass of the offsets each entry stands for.

        Returns one read-only C-contiguous array per run of ``schedule`` in
        storage order, oldest entry (the run's largest offset) first, which
        is the order the history keeps its fields in.  Each entry gets the
        sum of psi(x) over its cell (see :class:`MemorySchedule`), read off
        ``prefix`` with one strided slice per run: inside a run the cells
        start ``stride`` offsets apart, and the run's span supplies its outer
        bounds.  An entry whose cell is just its own offset m gets psi(m)
        itself, bit for bit, so full and short memory and any schedule that
        visits every offset weigh history exactly alike; a dense run of unit
        cells is a view of ``reversed_values``, never a copy.

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
                # Cell bounds, oldest first: hi, the start of every cell but
                # the newest, then lo.
                half = (stride - 1) // 2
                mass = np.empty(count + 1)
                mass[0] = prefix[hi]
                mass[1:-1] = prefix[m + stride - half : m + count * stride - half : stride][::-1]
                mass[-1] = prefix[lo]
                coeffs = mass[:-1] - mass[1:]
                if stride == 1:
                    coeffs[1:-1] = rev[cap - last + 1 : cap - m]
                first_end = hi if count == 1 else m + stride - half
                last_start = lo if count == 1 else last - half
                if first_end - lo == 1:
                    coeffs[-1] = values[m]
                if hi - last_start == 1:
                    coeffs[0] = values[last]
                coeffs.setflags(write=False)
            fresh[key] = coeffs
            out.append(coeffs)
        object.__setattr__(self, "_memo", fresh)
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

