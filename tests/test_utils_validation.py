"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_array_2d,
    check_cluster_count,
    check_fraction,
    check_index_sequence,
    check_membership_labels,
    check_positive_int,
    check_probability,
)


class TestCheckArray2d:
    def test_list_of_lists_converted(self):
        array = check_array_2d([[1, 2], [3, 4]])
        assert array.shape == (2, 2)
        assert array.dtype == float

    def test_1d_promoted_to_row(self):
        assert check_array_2d([1.0, 2.0, 3.0]).shape == (1, 3)

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            check_array_2d(np.zeros((2, 2, 2)))

    def test_min_rows_enforced(self):
        with pytest.raises(ValueError):
            check_array_2d([[1, 2]], min_rows=2)

    def test_min_cols_enforced(self):
        with pytest.raises(ValueError):
            check_array_2d([[1], [2]], min_cols=2)

    def test_nan_rejected_by_default(self):
        with pytest.raises(ValueError):
            check_array_2d([[1.0, np.nan]])

    def test_nan_allowed_when_requested(self):
        array = check_array_2d([[1.0, np.nan]], allow_nan=True)
        assert np.isnan(array[0, 1])

    def test_output_contiguous(self):
        array = check_array_2d(np.asfortranarray(np.ones((4, 3))))
        assert array.flags["C_CONTIGUOUS"]


class TestScalarChecks:
    def test_positive_int_accepts_valid(self):
        assert check_positive_int(3, name="x") == 3

    def test_positive_int_rejects_zero_with_default_minimum(self):
        with pytest.raises(ValueError):
            check_positive_int(0, name="x")

    def test_positive_int_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, name="x")

    def test_positive_int_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(2.5, name="x")

    def test_cluster_count_cannot_exceed_objects(self):
        with pytest.raises(ValueError):
            check_cluster_count(11, 10)

    def test_cluster_count_ok(self):
        assert check_cluster_count(3, 10) == 3

    def test_fraction_bounds_inclusive(self):
        assert check_fraction(0.0, name="f") == 0.0
        assert check_fraction(1.0, name="f") == 1.0

    def test_fraction_exclusive_bounds(self):
        with pytest.raises(ValueError):
            check_fraction(0.0, name="f", inclusive_low=False)
        with pytest.raises(ValueError):
            check_fraction(1.0, name="f", inclusive_high=False)

    def test_probability_strictly_inside_unit_interval(self):
        assert check_probability(0.05, name="p") == 0.05
        with pytest.raises(ValueError):
            check_probability(0.0, name="p")
        with pytest.raises(ValueError):
            check_probability(1.0, name="p")


class TestLabelAndIndexChecks:
    def test_membership_labels_accept_outliers(self):
        labels = check_membership_labels([0, 1, -1, 2], 4)
        np.testing.assert_array_equal(labels, [0, 1, -1, 2])

    def test_membership_labels_length_mismatch(self):
        with pytest.raises(ValueError):
            check_membership_labels([0, 1], 3)

    def test_membership_labels_reject_below_minus_one(self):
        with pytest.raises(ValueError):
            check_membership_labels([0, -2], 2)

    def test_membership_labels_reject_non_integer(self):
        with pytest.raises(ValueError):
            check_membership_labels([0.5, 1.0], 2)

    def test_membership_labels_accept_integer_valued_floats(self):
        labels = check_membership_labels(np.asarray([0.0, 1.0]), 2)
        assert labels.dtype.kind == "i"

    def test_index_sequence_bounds(self):
        with pytest.raises(ValueError):
            check_index_sequence([0, 5], 5)

    def test_index_sequence_duplicates_rejected(self):
        with pytest.raises(ValueError):
            check_index_sequence([1, 1], 5)

    def test_index_sequence_duplicates_allowed_when_disabled(self):
        result = check_index_sequence([1, 1], 5, unique=False)
        assert list(result) == [1, 1]

    def test_index_sequence_empty_handling(self):
        assert check_index_sequence([], 5).size == 0
        with pytest.raises(ValueError):
            check_index_sequence([], 5, allow_empty=False)


def _reference_check_index_sequence(indices, upper, *, name="indices", allow_empty=True, unique=True):
    """The list round-trip implementation the fast paths must agree with."""
    array = np.asarray(list(indices), dtype=int)
    if array.ndim != 1:
        raise ValueError("%s must be a flat sequence of integers" % name)
    if not allow_empty and array.size == 0:
        raise ValueError("%s may not be empty" % name)
    if array.size:
        if array.min() < 0 or array.max() >= upper:
            raise ValueError("%s out of range" % name)
        if unique and len(np.unique(array)) != len(array):
            raise ValueError("%s contains duplicate entries" % name)
    return array


def _outcome(check, indices, **kwargs):
    try:
        return check(indices, 10, **kwargs)
    except Exception as error:  # compared by type below
        return type(error)


@pytest.mark.parametrize(
    "indices",
    [
        [3, 1, 4],
        (0, 2, 9),
        range(2, 8),
        {5, 1, 7},
        [1, 1, 2],
        np.arange(10),
        np.array([0, 4, 9], dtype=np.int32),
        np.array([9, 2, 5]),
        np.array([2, 5, 5, 7]),
        np.array([7, 3, 7]),
        np.array([0, 10]),
        np.array([-1, 3]),
        np.array([], dtype=int),
        [],
        np.array([0.0, 2.0, 3.0]),
        np.array([0.5, 2.7]),
        np.array([np.nan]),
        np.array([True, False]),
        np.array([True, True]),
        np.array([[0, 1], [2, 3]]),
        np.array([1, 2, 3], dtype=np.uint8),
        np.int64(3),
    ],
    ids=lambda value: type(value).__name__ + repr(np.asarray(value).tolist()),
)
@pytest.mark.parametrize("unique", [True, False])
@pytest.mark.parametrize("allow_empty", [True, False])
def test_index_sequence_matches_list_round_trip(indices, unique, allow_empty):
    kwargs = {"unique": unique, "allow_empty": allow_empty}
    result = _outcome(check_index_sequence, indices, **kwargs)
    expected = _outcome(_reference_check_index_sequence, indices, **kwargs)
    if isinstance(expected, type):
        assert result is expected
    else:
        assert result.dtype == expected.dtype
        np.testing.assert_array_equal(result, expected)
        if isinstance(indices, np.ndarray):
            assert not np.shares_memory(result, indices)
