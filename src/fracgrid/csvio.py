"""Deterministic CSV artifacts.

All writers emit LF line endings and format floats with the shortest
round-trip-exact decimal (trailing ``.0`` trimmed), so re-running the same
configuration yields byte-identical files.

:func:`format_float` formats one value through ``repr`` and is the reference.
Arrays of floats (grids, profiles, traces) are formatted in bulk to the same
text:

- Digits come from Ryu's shortest round-trip search (Adams, "Ryu: fast
  float-to-string conversion", PLDI 2018, ``d2s``) run over the whole array.
  Its 64x128-bit products are split into 28-bit limbs held in ``uint64``;
  the digits it drops one at a time are counted by a binary search and
  dropped with one division.  The tables of powers of 5 are built from Python ints on first
  use.
- Each value is laid out in a fixed 46-byte slot template: sign, ``0.000``
  prefix, 17 digits each followed by an optional ``.``, exponent, separator.
  One ``compress`` keeps the slots the value uses.  As in ``repr``, exponent
  notation is used for a decimal exponent below -4 or above 15, with at
  least two exponent digits.
- Tables are formatted whole rows at a time, at most :data:`_CHUNK_VALUES`
  values per pass (or one longer row), so the temporaries stay a few MB
  whatever the grid size.  A table of fewer than
  :data:`_SHORT_TABLE_VALUES` values (a profile or a trace) is written
  through :func:`format_float` instead, which is faster at that size.
- A non-finite entry takes its text from :func:`format_float`.
"""

from __future__ import annotations

import csv
import functools
import io
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .grid import Grid2D
from .schedule import MemorySchedule

if TYPE_CHECKING:
    # Annotations only: the writers must not load the benchmark driver and,
    # through it, the solver.
    from .benchmark import BenchmarkRecord

BENCHMARK_HEADER = ("strategy", "param", "gamma", "elapsed_s", "err_l2_pct", "err_linf_pct")

# Values formatted per pass; each takes about 350 bytes of temporaries.
_CHUNK_VALUES = 1 << 14

# A table of fewer values than this is written value by value through
# format_float: the bulk pass costs about 100 NumPy calls whatever its size,
# and on a 2-column table it breaks even with the per-value writer near 300
# values.
_SHORT_TABLE_VALUES = 256


def format_float(x: float) -> str:
    """Shortest decimal that parses back to exactly ``x``.

    Integral values drop the ``.0`` suffix ("0", "2", not "0.0"); negative
    zero is normalised to "0".
    """
    x = float(x)
    if x != x:  # NaN
        return "nan"
    text = repr(x + 0.0 if x == 0.0 else x)
    if text.endswith(".0"):
        text = text[:-2]
    return text


class _RyuTables(NamedTuple):
    """Ryu's per-exponent constants, indexed by the biased binary exponent."""

    limbs: tuple[np.ndarray, ...]  # the 5^q multiplier in 28-bit limbs, low first
    shift: np.ndarray  # the product's shift j minus 112, in [6, 13]
    e10: np.ndarray  # decimal exponent of vr
    five_q: np.ndarray  # 5^q where e2 >= 0 and q <= 21, else 0
    mask2: np.ndarray  # 2^min(q, 63) - 1 where e2 < 0, else all ones
    small_q: np.ndarray  # e2 < 0 and q <= 1


_LIMB = 28
_LIMB_MASK = (1 << _LIMB) - 1
_POW10 = 10 ** np.arange(20, dtype=np.uint64)


@functools.cache
def _ryu_tables() -> _RyuTables:
    """The d2s tables for every biased exponent; names follow Ryu's ``d2s.c``.

    The multiplier is ``DOUBLE_POW5_INV_SPLIT[q]`` (about 2^k / 5^q) for
    ``e2 >= 0`` and ``DOUBLE_POW5_SPLIT[i]`` (5^i) below, 125 bits each.
    """
    biased = np.arange(2048, dtype=np.int64)
    e2 = np.maximum(biased, 1) - (1023 + 52 + 2)
    pos = e2 >= 0
    ae2 = np.abs(e2)

    def pow5bits(e):
        return ((e * 1217359) >> 19) + 1

    q = np.where(
        pos,
        ((ae2 * 78913) >> 18) - (e2 > 3),  # log10Pow2(e2) - (e2 > 3)
        ((ae2 * 732923) >> 20) - (ae2 > 1),  # log10Pow5(-e2) - (-e2 > 1)
    )
    i = np.where(pos, 0, ae2 - q)
    j = np.where(pos, -e2 + q + 124 + pow5bits(q), q - pow5bits(i) + 125)

    powers = [1]
    for _ in range(max(q.max(), i.max())):
        powers.append(powers[-1] * 5)
    inv = [(1 << (124 + p.bit_length())) // p + 1 for p in powers[: q.max() + 1]]
    fwd = [p << 125 >> p.bit_length() for p in powers[: i.max() + 1]]

    def split(multipliers):
        raw = b"".join(m.to_bytes(16, "little") for m in multipliers)
        low, high = np.frombuffer(raw, dtype="<u8").reshape(-1, 2).T
        limbs = [low, low >> 28, low >> 56 | high << 8, high >> 20, high >> 48]
        return np.stack(limbs, axis=1) & _LIMB_MASK

    rows = np.where(pos[:, None], split(inv)[np.where(pos, q, 0)], split(fwd)[i])
    limbs = tuple(np.ascontiguousarray(rows[:, b]) for b in range(5))
    five_q = np.where(pos & (q <= 21), 5 ** np.minimum(q, 21), 0)
    low_bits = np.left_shift(np.uint64(1), np.minimum(q, 63).astype(np.uint64)) - np.uint64(1)
    tables = _RyuTables(
        limbs,
        (j - 4 * _LIMB).astype(np.uint64),
        np.where(pos, q, q + e2),
        five_q.astype(np.uint64),
        np.where(pos, np.uint64(2**64 - 1), low_bits),
        ~pos & (q <= 1),
    )
    for array in (*tables.limbs, *tables[1:]):
        array.setflags(write=False)
    return tables


def _mul_shift(c: np.ndarray, limbs: Sequence[np.ndarray], shift: np.ndarray) -> np.ndarray:
    """``(c * m) >> (112 + shift)``, exactly, for ``c < 2**56`` and ``m`` in five 28-bit limbs."""
    c0 = c & _LIMB_MASK
    c1 = c >> _LIMB
    m0, m1, m2, m3, m4 = limbs
    carry = (c0 * m0) >> _LIMB
    carry = (c0 * m1 + c1 * m0 + carry) >> _LIMB
    carry = (c0 * m2 + c1 * m1 + carry) >> _LIMB
    carry = (c0 * m3 + c1 * m2 + carry) >> _LIMB
    low = c0 * m4 + c1 * m3 + carry
    high = c1 * m4 + (low >> _LIMB)
    return (high << (_LIMB - shift)) | ((low & _LIMB_MASK) >> shift)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's d2d over positive finite nonzero doubles given as ``uint64`` bits.

    Returns ``(digits, exponent)``: the shortest decimal that reads back to
    each value, closest to it, ties to even, is ``digits * 10**exponent``.
    """
    t = _ryu_tables()
    biased = (bits >> 52).astype(np.intp)
    mantissa = bits & ((1 << 52) - 1)
    m2 = np.where(biased == 0, mantissa, mantissa | (1 << 52))
    accept = (m2 & 1) == 0
    mm_shift = (mantissa != 0) | (biased <= 1)
    limbs = [limb[biased] for limb in t.limbs]
    shift = t.shift[biased]
    mv = m2 << 2
    vr = _mul_shift(mv, limbs, shift)
    vp = _mul_shift(mv + 2, limbs, shift)
    vm = _mul_shift(mv - 1 - mm_shift, limbs, shift)

    # Is the exact value vr (vm) followed only by zeros?  See d2s.c.
    vr_tz = (mv & t.mask2[biased]) == 0
    small = t.small_q[biased]
    vm_tz = small & accept & mm_shift
    vp -= small & ~accept
    checked = np.flatnonzero(t.five_q[biased])
    if checked.size:
        c_mv, c_five = mv[checked], t.five_q[biased[checked]]
        c_accept, c_mm = accept[checked], mm_shift[checked]
        by5 = c_mv % 5 == 0
        vr_tz[checked] = by5 & (c_mv % c_five == 0)
        vm_tz[checked] = ~by5 & c_accept & ((c_mv - 1 - c_mm) % c_five == 0)
        vp[checked] -= ~by5 & ~c_accept & ((c_mv + 2) % c_five == 0)

    # Ryu drops one digit at a time while (vm, vp] still holds a decimal one
    # digit shorter.  That test, once false, stays false, so the count of
    # digits to drop is found bit by bit, and they are dropped at once ...
    removed = np.zeros(bits.shape, dtype=np.intp)
    p, m = vp, vm
    for step in (16, 8, 4, 2, 1):
        p_cut, m_cut = p // 10**step, m // 10**step
        more = p_cut > m_cut
        p, m = np.where(more, p_cut, p), np.where(more, m_cut, m)
        removed += more * step
    below = _POW10[np.maximum(removed - 1, 0)]
    head = vr // below
    vr_tz &= vr == head * below  # every dropped digit but the last is 0
    cut = removed > 0
    last = np.where(cut, head % 10, 0)
    vr = np.where(cut, head // 10, head)
    vm_tz &= vm == m * _POW10[removed]
    vm = m
    # ... then, where vm is exact, its trailing zeros.
    live = np.flatnonzero(vm_tz & (vm % 10 == 0))
    while live.size:
        r, r_digit = np.divmod(vr[live], 10)
        m = vm[live] // 10
        vr_tz[live] &= last[live] == 0
        vr[live], vm[live], last[live] = r, m, r_digit
        removed[live] += 1
        live = live[m % 10 == 0]
    last[vr_tz & (last == 5) & (vr % 2 == 0)] = 4  # exactly half-way: round to even
    digits = vr + (((vr == vm) & ~(accept & vm_tz)) | (last >= 5))
    return digits, t.e10[biased] + removed


# One value's slots: sign, "0.000", 17 x (digit, "."), "e", exponent sign,
# three exponent digits, separator.
_SLOTS = np.frombuffer(b"-0.000" + b"0." * 17 + b"e+000,", dtype=np.uint8)
_DIGIT_SLOTS = slice(6, 40, 2)
_DOT_SLOTS = slice(7, 40, 2)
_PLACES = np.arange(17)


@functools.cache
def _layout() -> tuple[np.ndarray, np.ndarray]:
    """The slots a value keeps, and the text of each exponent.

    Row ``(negative * 22 + point + 4) * 18 + length`` of the first table keeps
    the slots of a value of ``length`` digits with ``point`` of them before
    the decimal point (-4 and 17 stand for every exponent-notation value).
    Row ``e + 324`` of the second is the exponent ``e`` as sign and 3 digits.
    """
    negative, point, length = (
        grid.ravel()
        for grid in np.meshgrid([False, True], np.arange(-4, 18), np.arange(18), indexing="ij")
    )
    sci = (point <= -4) | (point > 16)
    keep = np.zeros((point.size, _SLOTS.size), dtype=bool)
    keep[:, 0] = negative
    lead = np.where(sci | (point > 0), 0, 2 - point)  # "0." and zeros before the digits
    keep[:, 1:6] = _PLACES[:5] < lead[:, None]
    shown = np.where(sci, length, np.maximum(length, point))
    keep[:, _DIGIT_SLOTS] = _PLACES < shown[:, None]
    dot = np.where(sci, np.where(length > 1, 0, -1), np.where(point < length, point - 1, -1))
    keep[:, _DOT_SLOTS] = _PLACES == dot[:, None]
    keep[:, 40:45] = sci[:, None]
    keep[:, 45] = True
    keep.setflags(write=False)
    exponents = b"".join(b"%+04d" % e for e in range(-324, 309))
    return keep, np.frombuffer(exponents, dtype=np.uint8).reshape(-1, 4)


def _csv_bytes(table: np.ndarray) -> np.ndarray:
    """The CSV text of a 2D float64 table as ``uint8``: one line per row.

    Each cell reads as :func:`format_float` writes it.
    """
    cols = table.shape[1]
    values = table.ravel()
    finite = np.isfinite(values)
    plain = finite & (values != 0.0)
    bits = values.view(np.uint64)
    digits, exponent = _shortest(np.where(plain, bits & ((1 << 63) - 1), 1))
    digits[~plain] = 0
    length = np.searchsorted(_POW10, digits, side="right").clip(1)
    point = np.where(plain, exponent + length, 1)  # digits before the decimal point
    negative = plain & (bits >> 63).astype(bool)

    # The digits, left-aligned in 17 places; split in two to divide as uint32.
    column = digits * _POW10[17 - length]
    high = column // 10**9
    places = np.empty((17, values.size), dtype=np.uint8)
    for part, first, count in ((column - high * 10**9, 8, 9), (high, 0, 8)):
        part = part.astype(np.uint32)
        for place in range(first + count - 1, first - 1, -1):
            rest = part // 10
            places[place] = part - rest * 10
            part = rest
    places += ord("0")

    masks, exponents = _layout()
    text = np.tile(_SLOTS, (values.size, 1))
    text[:, _DIGIT_SLOTS] = places.T
    for k in np.flatnonzero(~finite):  # written as digits, without a point
        t = format_float(values[k]).encode()
        text[k, 6 : 6 + 2 * len(t) : 2] = np.frombuffer(t, dtype=np.uint8)
        length[k] = point[k] = len(t)
    text[:, 41:45] = np.take(exponents, point + 323, axis=0)
    text[cols - 1 :: cols, 45] = ord("\n")
    keep = np.take(masks, (negative * 22 + point.clip(-4, 17) + 4) * 18 + length, axis=0)
    keep[:, 42] &= np.abs(point - 1) >= 100
    return np.compress(keep.ravel(), text.ravel())


def _write_table(path: str, table: np.ndarray) -> None:
    """CSV of a 2D float table, one line per row, written a chunk of rows at a time."""
    rows, cols = table.shape
    with open(path, "wb") as fh:
        if not cols:
            fh.write(b"\n" * rows)
            return
        if table.size < _SHORT_TABLE_VALUES:
            lines = (",".join(map(format_float, row)) + "\n" for row in table.tolist())
            fh.write("".join(lines).encode())
            return
        step = max(1, _CHUNK_VALUES // cols)
        for start in range(0, rows, step):
            fh.write(_csv_bytes(table[start : start + step]))


def write_grid_csv(grid: Grid2D | np.ndarray, path: str) -> None:
    """Matrix CSV of a field: one output row per grid row (fixed l), columns over j."""
    data = np.asarray(getattr(grid, "data", grid), dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"grid data must be 2D, got shape {data.shape}")
    _write_table(path, data.T)  # row l of the file sweeps j at fixed l


def read_grid_csv(path: str) -> np.ndarray:
    """Inverse of :func:`write_grid_csv`: returns the (nx, ny) field array."""
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record:
                continue
            try:
                rows.append([float(cell) for cell in record])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from None
    if not rows:
        raise ValueError(f"{path}: empty grid file")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: rows have inconsistent lengths")
    return np.array(rows, dtype=np.float64).T


def write_profile_csv(values: Sequence[float] | np.ndarray, path: str) -> None:
    """Two-column ``index,value`` CSV of a 1D profile."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"profile must be 1D, got shape {arr.shape}")
    _write_table(path, np.column_stack((np.arange(arr.size, dtype=np.float64), arr)))


def write_trace_csv(
    steps: Sequence[int] | np.ndarray,
    values: Sequence[float] | np.ndarray,
    path: str,
) -> None:
    """Two-column ``step,value`` CSV of a time trace.

    Steps are written through the float path, which prints an integer below
    10**16 as that integer.
    """
    steps = np.asarray(steps, dtype=np.int64)
    vals = np.asarray(values, dtype=np.float64)
    if steps.shape != vals.shape or steps.ndim != 1:
        raise ValueError("steps and values must be 1D arrays of equal length")
    _write_table(path, np.column_stack((steps.astype(np.float64), vals)))


def write_schedule_csv(schedule: MemorySchedule, path: str) -> None:
    """Offset/weight table of a schedule, with an ``m,w`` header."""
    _write_text(path, "m,w\n" + "".join(f"{m},{w}\n" for m, w in schedule.pairs()))


def format_benchmark_rows(records: Sequence[BenchmarkRecord]) -> str:
    """Benchmark records as CSV text (header + one row per record)."""
    if not records:
        raise ValueError("no benchmark records to write")
    buf = io.StringIO()
    buf.write(",".join(BENCHMARK_HEADER))
    buf.write("\n")
    ordered = sorted(records, key=lambda r: (r.gamma, r.strategy, r.param))
    for rec in ordered:
        buf.write(
            ",".join(
                (
                    rec.strategy,
                    format_float(rec.param),
                    format_float(rec.gamma),
                    format_float(rec.elapsed_s),
                    format_float(rec.err_l2_pct),
                    format_float(rec.err_linf_pct),
                )
            )
        )
        buf.write("\n")
    return buf.getvalue()


def write_benchmark_csv(records: Sequence[BenchmarkRecord], path: str) -> None:
    """Comparison table CSV, sorted by (gamma, strategy, param)."""
    _write_text(path, format_benchmark_rows(records))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
