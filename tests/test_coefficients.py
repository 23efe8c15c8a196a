"""Unit tests for the history-weight recursion."""

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracgrid.coefficients import PsiTable, build_table


def oracle_psi(gamma: float, m: int) -> float:
    """Extended-precision product oracle: psi = (-1)^m * C(1 - gamma, m)."""
    with mpmath.workdps(60):
        value = (-1) ** m * mpmath.binomial(1 - mpmath.mpf(gamma), m)
        return float(value)


def test_frozen_values_gamma_half():
    assert build_table(0.5, 3).values.tolist() == [1.0, -0.5, -0.125, -0.0625]


@pytest.mark.parametrize("gamma", [0.1, 0.35, 0.5, 0.9, 1.0])
def test_zeroth_weight_is_one(gamma):
    assert build_table(gamma, 5).values[0] == 1.0


@pytest.mark.parametrize("m", [1, 2, 3, 10, 100])
def test_gamma_one_collapses(m):
    # At gamma = 1 every weight beyond m = 0 is exactly zero, so the scheme
    # degenerates to the classical single-step update.
    assert build_table(1.0, m).values[m] == 0.0


@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
def test_recursion_matches_product_oracle(gamma):
    table = build_table(gamma, 50)
    for m in range(51):
        expected = oracle_psi(gamma, m)
        assert table.values[m] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_partial_sums_frozen():
    # prefix[m + 1] is the sum of the weights from m = 0 through m
    table = build_table(0.5, 3)
    assert table.prefix[1] == 1.0
    assert table.prefix[2] == 0.5
    assert table.prefix[3] == 0.375


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9])
def test_partial_sums_positive_and_decreasing(gamma):
    table = build_table(gamma, 400)
    sums = np.cumsum(table.values)
    assert np.all(sums > 0.0)
    assert np.all(np.diff(sums) < 0.0)


def test_large_table_is_finite():
    table = build_table(0.5, 1_000_000)
    assert table.capacity == 1_000_000
    assert np.isfinite(table.values).all()
    # The tail keeps shrinking in magnitude.
    assert abs(table.values[-1]) < abs(table.values[1000])


def test_partial_sum_long_horizon_values():
    # Frozen against a 60-digit product-recursion sum (agrees to ~2e-15).
    table = build_table(0.5, 1000)
    assert_allclose(table.prefix[101], 0.05634847900925633, rtol=1e-13)
    assert_allclose(table.prefix[1001], 0.017839011145854074, rtol=1e-13)


@pytest.mark.parametrize("gamma", [0.0, 1.5, 2.0, 2.5, -1.0, float("nan")])
def test_gamma_out_of_range(gamma):
    with pytest.raises(ValueError, match="gamma"):
        build_table(gamma, 1)
    with pytest.raises(ValueError, match="gamma"):
        build_table(gamma, 10)


def test_build_table_zero_steps():
    table = build_table(0.9, 0)
    assert table.values.tolist() == [1.0]
    assert table.capacity == 0


def test_table_is_read_only():
    table = build_table(0.5, 5)
    with pytest.raises(ValueError):
        table.values[0] = 2.0


def test_table_validation():
    with pytest.raises(ValueError):
        PsiTable(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        build_table(0.5, -1)
