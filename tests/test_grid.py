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
        Grid2D(data=np.zeros(4), dx=1.0)
    with pytest.raises(ValueError, match="at least 3x3"):
        Grid2D(data=np.zeros((2, 2)), dx=1.0)
    with pytest.raises(ValueError, match="dx"):
        Grid2D(data=np.zeros((3, 3)), dx=0.0)
    bad = np.zeros((4, 4))
    bad[1, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        Grid2D(data=bad, dx=1.0)
    ring = np.zeros((4, 4))
    ring[0, 2] = 1.0
    with pytest.raises(ValueError, match="boundary ring"):
        Grid2D(data=ring, dx=1.0)


def test_grid_is_read_only():
    grid = Grid2D.from_sources(5, 5, 1.0, [(2, 2, 1.0)])
    with pytest.raises(ValueError):
        grid.data[2, 2] = 5.0


def test_from_sources_placement():
    grid = Grid2D.from_sources(5, 6, 2.0, [(2, 3, 1.5), (1, 1, -0.5)])
    assert grid.nx == 5 and grid.ny == 6
    assert grid.data[2, 3] == 1.5
    assert grid.data[1, 1] == -0.5
    assert grid.data.sum() == 1.0


def test_from_sources_rejects_boundary():
    with pytest.raises(ValueError, match="interior"):
        Grid2D.from_sources(5, 5, 1.0, [(0, 2, 1.0)])
    with pytest.raises(ValueError, match="interior"):
        Grid2D.from_sources(5, 5, 1.0, [(2, 4, 1.0)])


def test_laplacian_field_matches_stencil():
    # The stencil of a grid's field, against the five-point sum cell by cell.
    rng = np.random.default_rng(3)
    data = np.zeros((6, 5))
    data[1:-1, 1:-1] = rng.normal(size=(4, 3))
    grid = Grid2D(data, 1.0)
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
    grid = Grid2D.from_sources(5, 5, 1.0, [(2, 3, 7.0)])
    profile = slice_profile(grid, 3)
    assert profile.tolist() == [0.0, 0.0, 7.0, 0.0, 0.0]
    profile[2] = 0.0  # a copy, not a view
    assert grid.data[2, 3] == 7.0
    with pytest.raises(IndexError):
        slice_profile(grid, 5)


class TestHistoryBuffer:
    def test_append_and_entry(self):
        buf = HistoryBuffer(3, (4, 4))
        assert len(buf) == 0
        first = np.full((4, 4), 1.5)
        buf.append(first)
        assert len(buf) == 1
        assert np.array_equal(buf.block(0, 0)[0], first)
        first[0, 0] = 99.0  # appended data was copied in
        assert buf.block(0, 0)[0, 0, 0] == 1.5

    def test_entries_are_read_only(self):
        buf = HistoryBuffer(2, (3, 3))
        buf.append(np.ones((3, 3)))
        with pytest.raises(ValueError):
            buf.block(0, 0)[0, 1, 1] = 2.0
        with pytest.raises(ValueError):
            buf.gather(0, 0, 1)[0, 1, 1] = 2.0

    def test_capacity_enforced(self):
        buf = HistoryBuffer(1, (3, 3))
        buf.append(np.zeros((3, 3)))
        with pytest.raises(HistoryCapacityError):
            buf.append(np.zeros((3, 3)))

    def test_shape_mismatch(self):
        buf = HistoryBuffer(2, (3, 3))
        with pytest.raises(ValueError, match="shape"):
            buf.append(np.zeros((4, 3)))

    def test_block_and_gather(self):
        buf = HistoryBuffer(8, (3, 3))
        for value in range(7):
            buf.append(np.full((3, 3), float(value)))
        block = buf.block(1, 3)
        assert block.shape == (3, 3, 3)
        assert block[0, 0, 0] == 1.0
        run = buf.gather(1, 5, 2)
        assert run[:, 0, 0].tolist() == [1.0, 3.0, 5.0]
        assert buf.gather(6, 6, 4)[:, 0, 0].tolist() == [6.0]
        # a view of the buffer, not a copy, and read-only
        assert np.shares_memory(run, buf.block(0, 6))
        assert not run.flags.writeable
        with pytest.raises(ValueError):
            run[0, 1, 1] = 9.0
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
            buf.append(np.full((3, 3), float(value)))
        # after three turns of the ring, entries 8..11 fill slots 0..3
        block = buf.block(8, 11)
        assert block[:, 0, 0].tolist() == [8.0, 9.0, 10.0, 11.0]
        run = buf.gather(8, 11, 3)
        assert run[:, 0, 0].tolist() == [8.0, 11.0]
        assert buf.gather(11, 11, 1)[:, 0, 0].tolist() == [11.0]
        # views of one buffer, not copies, and read-only
        assert np.shares_memory(block, run)
        assert np.shares_memory(block, buf.ring(8, 11))
        assert not block.flags.writeable and not run.flags.writeable
        # every later window reads whole through the ring, in cyclic order
        # from its entry that is a multiple of the window; a wrapped block raises
        for value in range(3 * window, 5 * window + 2):
            buf.append(np.full((3, 3), float(value)))
            lo = value - window + 1
            first = value - value % window
            assert buf.ring(lo, value)[:, 1, 2].tolist() == [
                float(v) for v in [*range(first, value + 1), *range(lo, first)]
            ]
            if first > lo:
                with pytest.raises(ValueError, match="wrap"):
                    buf.block(lo, value)

    @pytest.mark.parametrize("window", [1, 2, 3, 4, 7])
    def test_every_run_reads_in_order_across_compactions(self, window):
        # A full ring overwrites its oldest slot in place of a compaction;
        # the entries go four times round it.
        capacity = 4 * window + 1
        buf = HistoryBuffer(capacity, (3, 3), window=window)
        assert buf.nbytes == window * 3 * 3 * 8
        views = []
        for value in range(capacity):
            buf.append(np.full((3, 3), float(value)))
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
                    assert views[-1][:, 1, 2].tolist() == [float(v) for v in range(lo, hi + 1)]
                    for stride in strides:
                        views.append(buf.gather(lo, hi, stride))
                        assert views[-1][:, 0, 0].tolist() == [
                            float(v) for v in range(lo, hi + 1, stride)
                        ]
            if value >= window - 1:
                lo = value - window + 1
                ring = buf.ring(lo, value)
                assert ring[:, 0, 0].tolist() == [
                    float(v) for v in sorted(range(lo, value + 1), key=lambda e: e % window)
                ]
                assert not ring.flags.writeable
        if window > 1:
            with pytest.raises(ValueError, match="fill"):
                buf.ring(capacity - window + 1, capacity - 1)
        # views of the one buffer, not copies, and read-only
        assert all(np.shares_memory(view, ring) for view in views)
        assert not any(view.flags.writeable for view in views)

    def test_compaction_makes_no_temporary_copy(self):
        # an append into a full ring overwrites the oldest slot in place:
        # nothing is moved and no field is allocated
        fields = [np.full((50, 50), float(value)) for value in range(16)]
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
        assert buf.block(14, 15)[:, 3, 4].tolist() == [14.0, 15.0]
        assert buf.ring(9, 15)[:, 3, 4].tolist() == [14.0, 15.0, 9.0, 10.0, 11.0, 12.0, 13.0]

    def test_ring_rejects_overwritten_entries(self):
        buf = HistoryBuffer(30, (3, 3), window=4)
        for value in range(10):
            buf.append(np.full((3, 3), float(value)))
        # entries 0..5 are overwritten; 6..9 are the window
        with pytest.raises(IndexError, match="overwritten"):
            buf.block(5, 9)
        with pytest.raises(IndexError, match="overwritten"):
            buf.gather(5, 9, 2)
        with pytest.raises(IndexError, match="overwritten"):
            buf.block(0, 0)
        with pytest.raises(IndexError, match="overwritten"):
            buf.ring(5, 8)
        assert buf.block(8, 9)[:, 0, 0].tolist() == [8.0, 9.0]

    @pytest.mark.parametrize(
        "window,slots", [(4, 4), (5, 5), (6, 6), (7, 7), (11, 11), (40, 11)]
    )
    def test_allocation_follows_the_window(self, window, slots):
        # a ring of the window's size, or of the capacity if that is smaller
        field_bytes = 5 * 7 * 8
        buf = HistoryBuffer(11, (5, 7), window=window)
        assert buf.capacity == 11
        assert buf.slots == slots
        assert buf.nbytes == slots * field_bytes
        for value in range(11):
            buf.append(np.full((5, 7), float(value)))
        with pytest.raises(HistoryCapacityError):
            buf.append(np.zeros((5, 7)))
        assert buf.ring(11 - slots, 10)[:, 2, 3].tolist() == [
            float(v) for v in sorted(range(11 - slots, 11), key=lambda e: e % slots)
        ]

    def test_byte_cap_counts_the_allocated_slots(self):
        field_bytes = 10 * 10 * 8
        HistoryBuffer(1000, (10, 10), byte_cap=4 * field_bytes, window=4)
        with pytest.raises(MemoryBudgetError, match="cap"):
            HistoryBuffer(1000, (10, 10), byte_cap=4 * field_bytes - 1, window=4)
        with pytest.raises(MemoryBudgetError, match="cap"):
            HistoryBuffer(1000, (10, 10), byte_cap=4 * field_bytes)
        with pytest.raises(ValueError, match="window"):
            HistoryBuffer(10, (10, 10), window=0)

    def test_entry_bounds(self):
        buf = HistoryBuffer(2, (3, 3))
        buf.append(np.zeros((3, 3)))
        with pytest.raises(IndexError):
            buf.block(1, 1)
        with pytest.raises(IndexError):
            buf.block(-1, -1)
