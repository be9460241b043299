"""Scaled-down integration tests for the per-figure experiment runners.

The goal is not to reproduce the paper's numbers here (the benchmark
harness does that at full scale) but to verify that every runner executes
end-to-end, produces the expected row structure and preserves the
qualitative relationships the paper reports.
"""

import numpy as np
import pytest

from repro.data.generator import make_projected_clusters
from repro.data.multigroup import make_multigroup_dataset
from repro.experiments.ablations import (
    format_ablation_table,
    run_initialisation_ablation,
    run_representative_ablation,
    run_threshold_scheme_ablation,
)
from repro.experiments.harness import format_series_table
from repro.experiments.knowledge_input import run_coverage_experiment, run_input_size_experiment
from repro.experiments.multiple_groupings import format_multigrouping_table, run_multiple_groupings
from repro.experiments.outlier_immunity import run_outlier_immunity
from repro.experiments.parameter_sensitivity import run_parameter_sensitivity
from repro.experiments.raw_accuracy import run_raw_accuracy
from repro.experiments.scalability import (
    format_scalability_table,
    linear_fit_quality,
    run_scalability,
)


@pytest.mark.slow
class TestRawAccuracyRunner:
    def test_rows_and_projected_advantage(self):
        rows = run_raw_accuracy(
            dimensionalities=(4, 10),
            n_objects=200,
            n_dimensions=40,
            n_clusters=3,
            n_repeats=1,
            include_clarans=True,
            include_harp=False,
            random_state=0,
        )
        assert {row.configuration["l_real"] for row in rows} == {4, 10}
        sspc_rows = [row for row in rows if row.algorithm.startswith("SSPC(m")]
        clarans_rows = [row for row in rows if row.algorithm == "CLARANS"]
        assert len(sspc_rows) == 2 and len(clarans_rows) == 2
        # Projected clustering beats the non-projected reference on this data.
        assert np.mean([r.ari for r in sspc_rows]) > np.mean([r.ari for r in clarans_rows])
        table = format_series_table(rows, x_key="l_real")
        assert "l_real" in table


@pytest.mark.slow
class TestParameterSensitivityRunner:
    def test_sspc_flatter_than_proclus(self):
        rows = run_parameter_sensitivity(
            n_objects=250,
            n_dimensions=40,
            n_clusters=3,
            l_real=6,
            proclus_l_values=(2, 6, 18),
            sspc_m_values=(0.3, 0.5, 0.7),
            sspc_p_values=(0.01,),
            n_repeats=1,
            random_state=1,
        )
        sspc_aris = [row.ari for row in rows if row.algorithm == "SSPC(m)"]
        proclus_aris = [row.ari for row in rows if row.algorithm == "PROCLUS"]
        assert len(sspc_aris) == 3 and len(proclus_aris) == 3
        assert (max(sspc_aris) - min(sspc_aris)) <= (max(proclus_aris) - min(proclus_aris)) + 0.3
        assert min(sspc_aris) > 0.5


@pytest.mark.slow
class TestOutlierImmunityRunner:
    def test_detected_outliers_track_truth(self):
        rows = run_outlier_immunity(
            outlier_fractions=(0.0, 0.2),
            n_objects=300,
            n_dimensions=40,
            n_clusters=3,
            l_real=8,
            n_repeats=1,
            random_state=2,
        )
        assert len(rows) == 2
        clean, contaminated = rows
        assert contaminated.extra["true_outliers"] > 0
        assert contaminated.extra["detected_outliers"] > clean.extra["detected_outliers"] - 5
        assert contaminated.ari > 0.5


@pytest.mark.slow
class TestKnowledgeInputRunners:
    @pytest.fixture(scope="class")
    def small_low_dim(self):
        return make_projected_clusters(
            n_objects=120,
            n_dimensions=400,
            n_clusters=4,
            avg_cluster_dimensionality=8,
            random_state=3,
        )

    def test_input_size_improves_accuracy(self, small_low_dim):
        rows = run_input_size_experiment(
            input_sizes=(0, 5),
            categories=("both",),
            dataset=small_low_dim,
            n_knowledge_draws=2,
            random_state=3,
        )
        by_size = {row.configuration["input_size"]: row.ari for row in rows}
        assert by_size[5] > by_size[0]
        assert by_size[5] > 0.5

    def test_coverage_rows_structure(self, small_low_dim):
        rows = run_coverage_experiment(
            coverages=(0.0, 1.0),
            categories=("dimensions",),
            dataset=small_low_dim,
            input_size=4,
            n_knowledge_draws=2,
            random_state=4,
        )
        assert len(rows) == 2
        coverages = {row.configuration["coverage"] for row in rows}
        assert coverages == {0.0, 1.0}
        full = [row for row in rows if row.configuration["coverage"] == 1.0][0]
        none = [row for row in rows if row.configuration["coverage"] == 0.0][0]
        assert full.ari >= none.ari - 0.05


@pytest.mark.slow
class TestMultipleGroupingsRunner:
    def test_guidance_steers_result(self):
        dataset = make_multigroup_dataset(
            n_objects=100,
            n_dimensions_per_grouping=200,
            n_clusters=3,
            avg_cluster_dimensionality=8,
            random_state=5,
        )
        rows = run_multiple_groupings(
            dataset=dataset,
            input_size=5,
            include_harp=False,
            include_proclus=True,
            n_repeats=1,
            random_state=5,
        )
        table = format_multigrouping_table(rows)
        assert "grouping 1" in table
        guided1 = [r for r in rows if r.guidance == "grouping 1"][0]
        guided2 = [r for r in rows if r.guidance == "grouping 2"][0]
        # Knowledge from grouping i should favour grouping i.
        assert guided1.ari_grouping1 > guided1.ari_grouping2
        assert guided2.ari_grouping2 > guided2.ari_grouping1


@pytest.mark.slow
class TestScalabilityRunner:
    def test_rows_and_linearity(self):
        rows = run_scalability(
            object_counts=(1000, 2000, 4000),
            dimension_counts=(20, 40, 80),
            base_objects=150,
            base_dimensions=20,
            n_clusters=3,
            l_real=4,
            n_repeats=1,
            random_state=6,
        )
        algorithms = {row.algorithm for row in rows}
        assert algorithms == {"SSPC", "PROCLUS"}
        table = format_scalability_table(rows)
        assert "n_objects" in table and "n_dimensions" in table
        fit = linear_fit_quality(rows, "SSPC", "n_objects")
        assert fit["slope"] > 0


@pytest.mark.slow
class TestAblationRunners:
    def test_representative_ablation_runs(self):
        rows = run_representative_ablation(
            n_objects=240, n_dimensions=40, n_clusters=3, l_real=6,
            outlier_fraction=0.15, n_repeats=1, random_state=7,
        )
        variants = {row.variant for row in rows}
        assert len(rows) == 2 and len(variants) == 2
        assert all(0.0 <= row.ari <= 1.0 for row in rows)

    def test_initialisation_ablation_favours_seed_groups(self):
        rows = run_initialisation_ablation(
            n_objects=240, n_dimensions=80, n_clusters=3, l_real=5, n_repeats=1, random_state=8
        )
        by_variant = {row.variant: row.ari for row in rows}
        assert by_variant["seed groups (paper)"] >= by_variant["random medoids (ablated)"] - 0.1

    def test_threshold_ablation_and_table(self):
        rows = run_threshold_scheme_ablation(
            n_objects=240, n_dimensions=40, n_clusters=3, l_real=6, n_repeats=1, random_state=9
        )
        assert len(rows) == 4  # 2 schemes x 2 distributions
        text = format_ablation_table(rows)
        assert "m-scheme" in text and "p-scheme" in text
