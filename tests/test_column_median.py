"""Bit identity of the one column median, ``column_median``, and its callers.

``np.median(block, axis=0)`` is the oracle: results are compared as int64
bit patterns (NaN columns by position), never within a tolerance.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.objective import ClusterStatistics, column_median, column_variance
from repro.serving.index import ProjectedClusterIndex

SRC_DIR = Path(repro.__file__).resolve().parent

#: Values that stress the even-count mean and the NaN check.
SPECIAL_VALUES = np.array(
    [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324]
)
BLOCK_KINDS = ("normal", "ties", "signed_zeros", "special", "sprinkled")


def assert_same_bits(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    got_nan = np.isnan(got)
    np.testing.assert_array_equal(got_nan, np.isnan(expected))
    np.testing.assert_array_equal(
        got[~got_nan].view(np.int64), expected[~got_nan].view(np.int64)
    )


def random_block(seed, rows, columns, kind):
    rng = np.random.default_rng(seed)
    shape = (rows, columns)
    if kind == "normal":
        return rng.normal(size=shape)
    if kind == "ties":
        return rng.integers(-2, 3, size=shape).astype(float)
    if kind == "signed_zeros":
        return rng.choice([0.0, -0.0, 1.0, -1.0], size=shape)
    if kind == "special":
        return rng.choice(SPECIAL_VALUES, size=shape)
    block = rng.normal(size=shape)
    sprinkle = rng.random(shape) < rng.uniform(0.0, 0.2)
    block[sprinkle] = rng.choice(SPECIAL_VALUES, size=int(sprinkle.sum()))
    return block


def check_against_np_median(block):
    before = block.copy()
    with np.errstate(all="ignore"):
        expected = np.median(block, axis=0)
        got = column_median(block)
    assert_same_bits(got, expected)
    assert np.array_equal(block, before, equal_nan=True)
    assert not np.shares_memory(got, block)


class TestColumnMedian:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 500),
        columns=st.integers(0, 12),
        kind=st.sampled_from(BLOCK_KINDS),
    )
    def test_matches_np_median_bit_for_bit(self, seed, rows, columns, kind):
        check_against_np_median(random_block(seed, rows, columns, kind))

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 499, 500])
    @pytest.mark.parametrize("kind", BLOCK_KINDS)
    def test_both_parities(self, rows, kind):
        check_against_np_median(random_block(rows, rows, 7, kind))

    @pytest.mark.parametrize(
        "column",
        [
            [-0.0],
            [-0.0, -0.0],
            [-0.0, 0.0],
            [-1.0, 1.0],
            [-np.inf, np.inf],
            [np.inf, np.inf, 1.0, 2.0],
            [1e308, 1e308],
            [np.nan, 1.0, 2.0],
            [1.0, 2.0, 3.0, np.nan],
            [np.nan, np.nan],
        ],
    )
    def test_edge_columns(self, column):
        check_against_np_median(np.asarray(column, dtype=float)[:, None])

    def test_nan_column_leaves_other_columns_alone(self):
        block = np.arange(12.0).reshape(6, 2)
        block[4, 1] = np.nan
        median = column_median(block)
        assert median[0] == 5.0 and np.isnan(median[1])

    def test_non_contiguous_inputs(self):
        wide = np.random.default_rng(3).normal(size=(301, 30))
        for block in (wide[:, ::3], wide[::2, 1:7], wide[::-1], np.asfortranarray(wide), wide.T):
            check_against_np_median(block)

    def test_read_only_input(self):
        block = np.random.default_rng(4).normal(size=(64, 5))
        block.flags.writeable = False
        check_against_np_median(block)

    def test_memory_mapped_input(self, tmp_path):
        path = tmp_path / "projections.npy"
        np.save(path, np.random.default_rng(5).normal(size=(257, 6)))
        check_against_np_median(np.load(path, mmap_mode="r"))

    def test_zero_columns(self):
        median = column_median(np.empty((5, 0)))
        assert median.shape == (0,) and median.dtype == np.float64

    @pytest.mark.parametrize("shape", [(0, 3), (0, 0)])
    def test_empty_block_is_rejected(self, shape):
        with pytest.raises(ValueError):
            column_median(np.empty(shape))


class TestStatisticsPass:
    @pytest.fixture()
    def data(self):
        return np.random.default_rng(6).normal(loc=40.0, scale=9.0, size=(500, 17))

    @pytest.mark.parametrize("size", [2, 3, 50, 251, 500])
    def test_from_members_matches_numpy_bit_for_bit(self, data, size):
        members = np.random.default_rng(size).permutation(data.shape[0])[:size]
        stats_ = ClusterStatistics.from_members(data, members)
        block = data[members]
        assert_same_bits(stats_.mean, block.mean(axis=0))
        assert_same_bits(stats_.median, np.median(block, axis=0))
        assert_same_bits(stats_.variance, block.var(axis=0, ddof=1))

    def test_variance_below_two_rows_is_zero(self, data):
        assert_same_bits(ClusterStatistics.from_members(data, [7]).variance, np.zeros(17))
        assert_same_bits(column_variance(data[:1], data[0]), np.zeros(17))


class TestServingFoldMedians:
    @pytest.mark.parametrize("projection_window", [None, 40])
    def test_fold_chain_keeps_exact_medians(self, fitted_sspc, rng, projection_window):
        index = ProjectedClusterIndex(
            fitted_sspc.to_artifact(), projection_window=projection_window
        )
        centers = [index.cluster_statistics(i).mean for i in range(index.n_clusters)]
        for fold in range(6):
            position = fold % index.n_clusters
            noise = rng.normal(scale=0.3, size=(11 + fold, index.n_dimensions))
            rows = centers[position] + noise
            index.partial_update(rows, labels=np.full(rows.shape[0], position))
            index.partial_update(rows[::-1] + 0.05)
            for cluster in index._clusters:
                assert_same_bits(cluster.median_selected, np.median(cluster.projections, axis=0))
        index.trim_projections(0, keep_last=9)
        added = index.add_cluster(np.asarray([0, 3]), rng.normal(size=(33, index.n_dimensions)))
        for position in (0, added):
            cluster = index._clusters[position]
            assert_same_bits(cluster.median_selected, np.median(cluster.projections, axis=0))


def _numpy_median_calls_with_axis(tree):
    """Line numbers of ``np.median(..., axis)`` calls in a parsed module."""
    numpy_names = {"numpy"}
    median_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names.update(
                alias.asname or alias.name for alias in node.names if alias.name == "numpy"
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            median_names.update(
                alias.asname or alias.name for alias in node.names if alias.name == "median"
            )
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        is_median = (
            isinstance(func, ast.Attribute)
            and func.attr == "median"
            and isinstance(func.value, ast.Name)
            and func.value.id in numpy_names
        ) or (isinstance(func, ast.Name) and func.id in median_names)
        has_axis = len(node.args) > 1 or any(kw.arg == "axis" for kw in node.keywords)
        if is_median and has_axis:
            lines.append(node.lineno)
    return lines


class TestOneMedian:
    def test_no_numpy_column_median_in_library_code(self):
        """``column_median`` is the library's only per-column median."""
        offenders = []
        for path in sorted(SRC_DIR.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            offenders += [
                "%s:%d" % (path.relative_to(SRC_DIR), line)
                for line in _numpy_median_calls_with_axis(tree)
            ]
        assert offenders == []

    def test_scan_sees_every_spelling(self):
        tree = ast.parse(
            "import numpy as xp\nfrom numpy import median as med\n"
            "xp.median(a, axis=0)\nmed(a, 0)\nnumpy.median(a, axis=1)\n"
            "xp.median(values)\nxp.nanmedian(a, axis=0)\n"
        )
        assert _numpy_median_calls_with_axis(tree) == [3, 4, 5]
