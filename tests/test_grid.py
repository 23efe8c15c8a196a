"""Unit tests for the field container, stencil and stencil history."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracgrid.grid import (
    Grid2D,
    HistoryBuffer,
    HistoryCapacityError,
    MemoryBudgetError,
    slice_profile,
    stencil,
)
from fracgrid.schedule import adaptive_schedule


def _zero_ring(field):
    """A float copy of ``field`` with its boundary ring set to zero, as the
    history requires of every field it stores."""
    field = np.array(field, dtype=np.float64)
    field[[0, -1], :] = 0.0
    field[:, [0, -1]] = 0.0
    return field


def _window_in_cyclic_order(entries, coeffs, k):
    """The newest ``len(coeffs)`` entries up to k, weighted oldest first and
    contracted from entry k - (k mod c) up to k, then from the oldest on."""
    count = len(coeffs)
    lo = k - count + 1
    first = k - k % count
    order = [*range(first, k + 1), *range(lo, first)]
    rows = np.stack([entries[e] for e in order]).reshape(count, -1)
    return (coeffs[np.subtract(order, lo)] @ rows).reshape(entries[0].shape)


def _window_sum(buf, coeffs, k):
    return buf.weighted_sum(((0, len(coeffs), 1),), [coeffs], k)


def _picked_entries(buf, count, k, cell):
    """The value at ``cell`` of each entry of the newest-``count`` window,
    oldest first, picked out by one-hot weights."""
    return [_window_sum(buf, row, k)[cell] for row in np.eye(count)]


def test_stencil_point_source():
    data = np.zeros((5, 5))
    data[2, 2] = 10.0
    out = stencil(data)
    assert out[2, 2] == -40.0
    assert out[1, 2] == 10.0
    assert out[3, 2] == 10.0
    assert out[2, 1] == 10.0
    assert out[2, 3] == 10.0
    # corners of the neighbourhood see nothing
    assert out[1, 1] == 0.0
    assert out[3, 3] == 0.0


def test_stencil_output_ring_is_zero():
    rng = np.random.default_rng(7)
    data = np.zeros((6, 7))
    data[1:-1, 1:-1] = rng.normal(size=(4, 5))
    out = stencil(data)
    assert np.all(out[0, :] == 0.0)
    assert np.all(out[-1, :] == 0.0)
    assert np.all(out[:, 0] == 0.0)
    assert np.all(out[:, -1] == 0.0)


def test_stencil_linearity():
    rng = np.random.default_rng(11)
    u = np.zeros((8, 8))
    v = np.zeros((8, 8))
    u[1:-1, 1:-1] = rng.normal(size=(6, 6))
    v[1:-1, 1:-1] = rng.normal(size=(6, 6))
    combined = stencil(2.5 * u - 1.25 * v)
    assert_allclose(combined, 2.5 * stencil(u) - 1.25 * stencil(v), rtol=1e-12, atol=1e-12)


def test_stencil_sum_vanishes_for_interior_support():
    # With mass at least two cells from the edge, every contribution cancels.
    rng = np.random.default_rng(3)
    data = np.zeros((12, 12))
    data[2:-2, 2:-2] = rng.uniform(0.0, 1.0, size=(8, 8))
    total = stencil(data).sum()
    assert abs(total) <= 1e-12 * np.abs(data).sum()


def test_stencil_four_fold_symmetry():
    data = np.zeros((9, 9))
    data[4, 4] = 3.0
    data[3, 4] = data[5, 4] = data[4, 3] = data[4, 5] = 1.0
    out = stencil(data)
    assert np.array_equal(out, out[::-1, :])
    assert np.array_equal(out, out[:, ::-1])
    assert np.array_equal(out, out.T)


def test_stencil_rejects_small_grids():
    with pytest.raises(ValueError, match="3x3"):
        stencil(np.zeros((2, 5)))


def test_grid_validation():
    with pytest.raises(ValueError, match="2D"):
        Grid2D(data=np.zeros(4))
    with pytest.raises(ValueError, match="at least 3x3"):
        Grid2D(data=np.zeros((2, 2)))
    bad = np.zeros((4, 4))
    bad[1, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        Grid2D(data=bad)
    ring = np.zeros((4, 4))
    ring[0, 2] = 1.0
    with pytest.raises(ValueError, match="boundary ring"):
        Grid2D(data=ring)


def test_grid_is_read_only():
    grid = Grid2D.from_sources(5, 5, [(2, 2, 1.0)])
    with pytest.raises(ValueError):
        grid.data[2, 2] = 5.0


def test_from_sources_placement():
    grid = Grid2D.from_sources(5, 6, [(2, 3, 1.5), (1, 1, -0.5)])
    assert grid.nx == 5 and grid.ny == 6
    assert grid.data[2, 3] == 1.5
    assert grid.data[1, 1] == -0.5
    assert grid.data.sum() == 1.0


def test_from_sources_rejects_boundary():
    with pytest.raises(ValueError, match=r"^source \(0, 2\) is outside the interior of a 5x5 grid$"):
        Grid2D.from_sources(5, 5, [(0, 2, 1.0)])
    with pytest.raises(ValueError, match="interior"):
        Grid2D.from_sources(5, 5, [(2, 4, 1.0)])


def test_laplacian_field_matches_stencil():
    # The stencil of a grid's field, against the five-point sum cell by cell.
    rng = np.random.default_rng(3)
    data = np.zeros((6, 5))
    data[1:-1, 1:-1] = rng.normal(size=(4, 3))
    grid = Grid2D(data)
    expected = np.zeros_like(data)
    for j in range(1, 5):
        for l in range(1, 4):
            expected[j, l] = (
                data[j + 1, l] + data[j - 1, l] - 4.0 * data[j, l]
                + data[j, l + 1] + data[j, l - 1]
            )
    assert np.array_equal(stencil(grid.data), expected)


@pytest.mark.parametrize("shape", [(3, 3), (3, 7), (37, 53), (100, 100)])
def test_flat_stencil_matches_slice_expression_bitwise(shape, slice_stencil):
    rng = np.random.default_rng(sum(shape))
    data = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    out = stencil(data)
    assert out.tobytes() == slice_stencil(data).tobytes()
    # the ring holds +0.0, as the zeroed field does
    assert not np.signbit(out[[0, -1], :]).any() and not np.signbit(out[:, [0, -1]]).any()


def test_flat_stencil_reads_a_non_contiguous_view(slice_stencil):
    rng = np.random.default_rng(11)
    view = rng.standard_normal((40, 61))[::2, 1::3]
    assert not view.flags.c_contiguous
    assert stencil(view).tobytes() == slice_stencil(view).tobytes()


def test_slice_profile():
    grid = Grid2D.from_sources(5, 5, [(2, 3, 7.0)])
    profile = slice_profile(grid, 3)
    assert profile.tolist() == [0.0, 0.0, 7.0, 0.0, 0.0]
    profile[2] = 0.0  # a copy, not a view
    assert grid.data[2, 3] == 7.0
    with pytest.raises(IndexError):
        slice_profile(grid, 5)


@pytest.mark.parametrize("n", [20, 100])
def test_packed_rows_contract_as_whole_fields_bitwise(n):
    # The history stores interiors in padded rows; its sum equals the same
    # contraction over whole zero-ringed fields, bit for bit, read as a dense
    # block, as a strided gather and as a whole ring that wraps.
    rng = np.random.default_rng(n)
    fields = [
        _zero_ring(rng.standard_normal((n, n)) * 10.0 ** rng.integers(-5, 5))
        for _ in range(40)
    ]
    linear = HistoryBuffer(len(fields), (n, n))
    ring = HistoryBuffer(len(fields), (n, n), window=9)
    for field in fields:
        linear.append(field)
        ring.append(field)

    def whole(coeffs, entries):
        rows = np.stack([fields[e] for e in entries]).reshape(len(entries), -1)
        return (coeffs @ rows).reshape(n, n)

    k = len(fields) - 1
    coeffs = rng.standard_normal(20)
    block = _window_sum(linear, coeffs, k)
    assert block.shape == (n, n)
    assert block.tobytes() == whole(coeffs, range(20, 40)).tobytes()
    coeffs = rng.standard_normal(10)
    gathered = linear.weighted_sum(((0, 10, 3),), [coeffs], k)
    assert gathered.tobytes() == whole(coeffs, range(12, 40, 3)).tobytes()
    # entries 31..39 sit in slots 4..8 and 0..3, read in slot order
    coeffs = rng.standard_normal(9)
    wrapped = _window_sum(ring, coeffs, k)
    assert wrapped.tobytes() == _window_in_cyclic_order(fields, coeffs, k).tobytes()
    assert np.abs(wrapped[1:-1, 1:-1]).min() > 0.0


class TestHistoryBuffer:
    def test_append_and_entry(self):
        buf = HistoryBuffer(3, (4, 4))
        assert len(buf) == 0
        first = _zero_ring(np.arange(16.0).reshape(4, 4))
        buf.append(first)
        assert len(buf) == 1
        # the interior in C order, then zeros up to 8 doubles
        assert buf.block(0, 0)[0].tolist() == [5.0, 6.0, 9.0, 10.0, 0.0, 0.0, 0.0, 0.0]
        first[1, 1] = 99.0  # appended data was copied in
        assert buf.block(0, 0)[0, 0] == 5.0
        assert buf.field_shape == (4, 4)

    @pytest.mark.parametrize(
        "edge", [(0, 2), (-1, 2), (2, 0), (2, -1)], ids=["top", "bottom", "left", "right"]
    )
    @pytest.mark.parametrize("value", [1e-300, -2.0, np.nan])
    def test_append_refuses_a_field_with_a_nonzero_ring(self, edge, value):
        buf = HistoryBuffer(3, (5, 6))
        field = _zero_ring(np.ones((5, 6)))
        field[edge] = value
        with pytest.raises(ValueError, match="boundary ring"):
            buf.append(field)
        assert len(buf) == 0
        # a -0.0 ring is exactly zero
        field[edge] = -0.0
        buf.append(field)
        assert len(buf) == 1

    def test_entries_are_read_only(self):
        buf = HistoryBuffer(2, (3, 3))
        buf.append(_zero_ring(np.ones((3, 3))))
        with pytest.raises(ValueError):
            buf.block(0, 0)[0, 0] = 2.0
        with pytest.raises(ValueError):
            buf.gather(0, 0, 1)[0, 0] = 2.0

    def test_capacity_enforced(self):
        buf = HistoryBuffer(1, (3, 3))
        buf.append(np.zeros((3, 3)))
        with pytest.raises(HistoryCapacityError):
            buf.append(np.zeros((3, 3)))

    def test_shape_mismatch(self):
        buf = HistoryBuffer(2, (3, 3))
        with pytest.raises(ValueError, match="shape"):
            buf.append(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="3x3"):
            HistoryBuffer(2, (2, 5))

    def test_block_and_gather(self):
        buf = HistoryBuffer(8, (3, 3))
        for value in range(7):
            buf.append(_zero_ring(np.full((3, 3), float(value))))
        block = buf.block(1, 3)
        # one interior cell per row, padded to 8 doubles
        assert block.shape == (3, 8)
        assert block[0].tolist() == [1.0] + [0.0] * 7
        run = buf.gather(1, 5, 2)
        assert run.shape == (3, 8)
        assert run[:, 0].tolist() == [1.0, 3.0, 5.0]
        assert buf.gather(6, 6, 4)[:, 0].tolist() == [6.0]
        # a view of the buffer, not a copy, and read-only
        assert np.shares_memory(run, buf.block(0, 6))
        assert not run.flags.writeable
        with pytest.raises(ValueError):
            run[0, 0] = 9.0
        with pytest.raises(IndexError):
            buf.block(0, 7)
        for lo, hi in ((-1, 3), (4, 7), (5, 4)):
            with pytest.raises(IndexError):
                buf.gather(lo, hi, 1)
        for stride in (0, 3):
            with pytest.raises(ValueError, match="stride"):
                buf.gather(1, 5, stride)

    def test_byte_cap(self):
        with pytest.raises(MemoryBudgetError, match="cap"):
            HistoryBuffer(1000, (100, 100), byte_cap=1024)
        # None disables the check
        buf = HistoryBuffer(2, (100, 100), byte_cap=None)
        assert buf.capacity == 2

    def test_ring_keeps_the_last_window_in_order(self):
        window = 4
        buf = HistoryBuffer(30, (3, 3), window=window)
        for value in range(3 * window):
            buf.append(_zero_ring(np.full((3, 3), float(value))))
        # after three turns of the ring, entries 8..11 fill slots 0..3
        block = buf.block(8, 11)
        assert block[:, 0].tolist() == [8.0, 9.0, 10.0, 11.0]
        run = buf.gather(8, 11, 3)
        assert run[:, 0].tolist() == [8.0, 11.0]
        assert buf.gather(11, 11, 1)[:, 0].tolist() == [11.0]
        # views of one buffer, not copies, and read-only
        assert np.shares_memory(block, run)
        assert not block.flags.writeable and not run.flags.writeable
        # every later window is summed whole, each entry with its own weight;
        # a wrapped block raises
        for value in range(3 * window, 5 * window + 2):
            buf.append(_zero_ring(np.full((3, 3), float(value))))
            lo = value - window + 1
            assert _picked_entries(buf, window, value, (1, 1)) == [
                float(v) for v in range(lo, value + 1)
            ]
            if value % window != window - 1:
                with pytest.raises(ValueError, match="wrap"):
                    buf.block(lo, value)

    @pytest.mark.parametrize("window", [1, 2, 3, 4, 7])
    def test_every_run_reads_in_order_across_compactions(self, window):
        # A full ring overwrites its oldest slot in place of a compaction;
        # the entries go four times round it.
        capacity = 4 * window + 1
        buf = HistoryBuffer(capacity, (3, 3), window=window)
        # a row of 8 doubles: one interior cell and its pad
        assert buf.nbytes == window * 8 * 8
        views = []
        for value in range(capacity):
            buf.append(_zero_ring(np.full((3, 3), float(value))))
            for lo in range(max(0, value - window + 1), value + 1):
                for hi in range(lo, value + 1):
                    strides = [s for s in range(1, hi - lo + 1) if (hi - lo) % s == 0]
                    if lo // window != hi // window:
                        # the run's slots wrap: no single view holds it
                        with pytest.raises(ValueError, match="wrap"):
                            buf.block(lo, hi)
                        for stride in strides:
                            with pytest.raises(ValueError, match="wrap"):
                                buf.gather(lo, hi, stride)
                        continue
                    views.append(buf.block(lo, hi))
                    assert views[-1][:, 0].tolist() == [float(v) for v in range(lo, hi + 1)]
                    for stride in strides:
                        views.append(buf.gather(lo, hi, stride))
                        assert views[-1][:, 0].tolist() == [
                            float(v) for v in range(lo, hi + 1, stride)
                        ]
            if value % window == window - 1:
                # entries value - window + 1 .. value fill slots 0 .. window - 1
                whole = buf.block(value - window + 1, value)
            if value >= window - 1:
                lo = value - window + 1
                assert _picked_entries(buf, window, value, (1, 1)) == [
                    float(v) for v in range(lo, value + 1)
                ]
        # views of the one buffer, not copies, and read-only
        assert all(np.shares_memory(view, whole) for view in views)
        assert not any(view.flags.writeable for view in views)

    def test_compaction_makes_no_temporary_copy(self):
        # an append into a full ring overwrites the oldest slot in place:
        # nothing is moved and no field is allocated
        fields = [_zero_ring(np.full((50, 50), float(value))) for value in range(16)]
        buf = HistoryBuffer(100, (50, 50), window=7)
        for field in fields[:7]:
            buf.append(field)
        tracemalloc.start()
        try:
            for field in fields[7:]:
                buf.append(field)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < fields[0].nbytes
        assert buf.block(14, 15)[:, 3 * 48 + 4].tolist() == [14.0, 15.0]
        assert _picked_entries(buf, 7, 15, (3, 4)) == [float(v) for v in range(9, 16)]

    def test_ring_rejects_overwritten_entries(self):
        buf = HistoryBuffer(30, (3, 3), window=4)
        for value in range(10):
            buf.append(_zero_ring(np.full((3, 3), float(value))))
        # entries 0..5 are overwritten; 6..9 are the window
        with pytest.raises(IndexError, match="overwritten"):
            buf.block(5, 9)
        with pytest.raises(IndexError, match="overwritten"):
            buf.gather(5, 9, 2)
        with pytest.raises(IndexError, match="overwritten"):
            buf.block(0, 0)
        # a window of four ending at 8 would read the whole ring from entry 5
        with pytest.raises(IndexError, match="overwritten"):
            _window_sum(buf, np.ones(4), 8)
        assert buf.block(8, 9)[:, 0].tolist() == [8.0, 9.0]

    @pytest.mark.parametrize("storage", ["ring"])
    @pytest.mark.parametrize("window", [1, 2, 3, 5, 8])
    def test_window_sum_matches_cyclic_order_bitwise(self, window, storage):
        # At every k mod W a ring of W slots is read as one view of all its
        # slots (or one block), which must give the cyclic-order sum bit for
        # bit.
        rng = np.random.default_rng(100 + window)
        capacity = 4 * window + 3
        buf = HistoryBuffer(capacity, (6, 7), window=window)
        entries = []
        for k in range(capacity):
            entries.append(_zero_ring(rng.standard_normal((6, 7)) * 10.0 ** rng.integers(-5, 5)))
            buf.append(entries[-1])
            count = min(window, k + 1)
            coeffs = rng.standard_normal(count)
            assert _window_sum(buf, coeffs, k).tobytes() == (
                _window_in_cyclic_order(entries, coeffs, k).tobytes()
            )

    @pytest.mark.parametrize("window", [1, 2, 3, 5, 8])
    def test_late_window_on_linear_storage_reads_in_place(self, window):
        # Storage that keeps every entry reads a window that starts past
        # entry 0 as one block, oldest first, and copies no entry.
        rng = np.random.default_rng(200 + window)
        capacity = 4 * window + 3
        buf = HistoryBuffer(capacity, (30, 40))
        entries = []
        for k in range(capacity):
            entries.append(_zero_ring(rng.standard_normal((30, 40)) * 10.0 ** rng.integers(-5, 5)))
            buf.append(entries[-1])
            count = min(window, k + 1)
            lo = k - count + 1
            coeffs = rng.standard_normal(count)
            rows = np.stack(entries[lo:]).reshape(count, -1)
            expected = (coeffs @ rows).reshape(30, 40)
            tracemalloc.start()
            try:
                total = _window_sum(buf, coeffs, k)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert total.tobytes() == expected.tobytes()
            assert peak < 2 * total.nbytes

    def test_window_that_wraps_without_filling_the_ring_raises(self):
        buf = HistoryBuffer(30, (3, 3), window=5)
        for value in range(7):
            buf.append(_zero_ring(np.full((3, 3), float(value))))
        # entries 2..6 sit in slots 2, 3, 4, 0, 1
        with pytest.raises(ValueError, match="wrap"):
            _window_sum(buf, np.ones(3), 6)
        with pytest.raises(ValueError, match="wrap"):
            _window_sum(buf, np.ones(4), 6)
        assert _picked_entries(buf, 3, 4, (1, 1)) == [2.0, 3.0, 4.0]
        assert _picked_entries(buf, 2, 6, (1, 1)) == [5.0, 6.0]
        assert _picked_entries(buf, 5, 6, (1, 1)) == [2.0, 3.0, 4.0, 5.0, 6.0]

    def test_window_reaching_an_overwritten_entry_raises_before_the_wrap_check(self):
        buf = HistoryBuffer(30, (3, 3), window=4)
        for value in range(10):
            buf.append(_zero_ring(np.full((3, 3), float(value))))
        # entries 0..5 are overwritten; windows of three ending at 4 and 5
        # would also wrap, over slots 2, 3, 0 and 3, 0, 1
        for k in (4, 5):
            with pytest.raises(IndexError, match="overwritten"):
                _window_sum(buf, np.ones(3), k)
        assert _picked_entries(buf, 4, 9, (1, 1)) == [6.0, 7.0, 8.0, 9.0]

    @pytest.mark.parametrize("base", [3, 5])
    def test_thinned_runs_sum_run_by_run_bitwise(self, base):
        # Each run contracts with a matmul and the parts add in run order; a
        # one-entry run is a scalar multiply instead, which the reference
        # below does not take.  c * -0 is -0 where the generic loop's
        # 0 + c * -0 is +0, but the dense head run from offset 0 adds +0
        # first, so every zero of the sum still comes out +0.  The ring may
        # hold -0, which the history does not store; the first interior row
        # holds -0 in every entry, and the sum's ring is +0.
        rng = np.random.default_rng(base)
        k_max = 120
        buf = HistoryBuffer(k_max + 1, (5, 6))
        entries = []
        one_entry_runs = 0
        for k in range(k_max + 1):
            field = _zero_ring(rng.standard_normal((5, 6)))
            field[:2, :] = -0.0
            field[:, 0] = 0.0 if k % 2 else -0.0
            entries.append(field)
            buf.append(field)
            runs = adaptive_schedule(k, base).runs
            if len(runs) == 1:
                continue
            coefficients = [rng.standard_normal(count) for _, count, _ in runs]
            expected = np.zeros(30)
            for (m, count, stride), coeffs in zip(runs, coefficients):
                oldest_first = range(k - m - (count - 1) * stride, k - m + 1, stride)
                rows = np.stack([entries[e] for e in oldest_first]).reshape(count, -1)
                part = coeffs @ rows
                expected = part if m == 0 else expected + part
                one_entry_runs += count == 1
            total = buf.weighted_sum(runs, coefficients, k)
            assert total.tobytes() == expected.reshape(5, 6).tobytes()
            assert not np.signbit(total[:2, :]).any() and not np.signbit(total[:, 0]).any()
        assert one_entry_runs > 10

    def test_weighted_sum_reports_wrapped_and_overwritten_runs(self):
        buf = HistoryBuffer(30, (3, 3), window=4)
        for value in range(10):
            buf.append(_zero_ring(np.full((3, 3), float(value))))
        # offsets 0, 1, 3 at k = 9 read entries 6 and 8 as one run, whose
        # slots 2 and 0 wrap; offset 5 reads entry 4, which is overwritten
        with pytest.raises(ValueError, match="wrap"):
            buf.weighted_sum(((0, 1, 1), (1, 2, 2)), [np.ones(1), np.ones(2)], 9)
        with pytest.raises(IndexError, match="overwritten"):
            buf.weighted_sum(((0, 2, 1), (3, 2, 2)), [np.ones(2), np.ones(2)], 9)
        # a dense window longer than the ring reaches overwritten entries
        with pytest.raises(IndexError, match="overwritten"):
            _window_sum(buf, np.ones(5), 9)
        with pytest.raises(IndexError, match="out of range"):
            _window_sum(buf, np.ones(2), 10)

    @pytest.mark.parametrize(
        "window,slots", [(4, 4), (5, 5), (6, 6), (7, 7), (11, 11), (40, 11)]
    )
    def test_allocation_follows_the_window(self, window, slots):
        # a ring of the window's size, or of the capacity if that is smaller;
        # a row holds the 3 x 5 interior and one double of pad
        row_bytes = 16 * 8
        buf = HistoryBuffer(11, (5, 7), window=window)
        assert buf.capacity == 11
        assert buf.nbytes == slots * row_bytes
        for value in range(11):
            buf.append(_zero_ring(np.full((5, 7), float(value))))
        with pytest.raises(HistoryCapacityError):
            buf.append(np.zeros((5, 7)))
        assert _picked_entries(buf, slots, 10, (2, 3)) == [float(v) for v in range(11 - slots, 11)]

    def test_byte_cap_counts_the_allocated_slots(self):
        # a row holds the 8 x 8 interior, already a multiple of 8 doubles
        row_bytes = 8 * 8 * 8
        HistoryBuffer(1000, (10, 10), byte_cap=4 * row_bytes, window=4)
        with pytest.raises(MemoryBudgetError, match="cap"):
            HistoryBuffer(1000, (10, 10), byte_cap=4 * row_bytes - 1, window=4)
        with pytest.raises(MemoryBudgetError, match="cap"):
            HistoryBuffer(1000, (10, 10), byte_cap=4 * row_bytes)
        with pytest.raises(ValueError, match="window"):
            HistoryBuffer(10, (10, 10), window=0)

    def test_entry_bounds(self):
        buf = HistoryBuffer(2, (3, 3))
        buf.append(np.zeros((3, 3)))
        with pytest.raises(IndexError):
            buf.block(1, 1)
        with pytest.raises(IndexError):
            buf.block(-1, -1)
