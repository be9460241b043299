"""End-to-end integration tests exercising the full public API surface."""

import numpy as np

import repro
from repro import SSPC, Knowledge
from repro.baselines import CLARANS, PROCLUS
from repro.data import (
    load_csv_dataset,
    make_expression_like_dataset,
    make_projected_clusters,
    save_csv_dataset,
)
from repro.evaluation import adjusted_rand_index, clustering_report
from repro.semisupervision import KnowledgeValidator, sample_knowledge


class TestPublicApi:
    def test_version_and_exports(self):
        assert repro.__version__
        assert repro.SSPC is SSPC
        assert repro.Knowledge is Knowledge

    def test_quickstart_flow(self):
        """The README quickstart, condensed."""
        dataset = make_projected_clusters(
            n_objects=200, n_dimensions=50, n_clusters=3, avg_cluster_dimensionality=6, random_state=0
        )
        model = SSPC(n_clusters=3, m=0.5, random_state=0).fit(dataset.data)
        report = clustering_report(
            dataset.labels,
            model.labels_,
            true_dimensions=dataset.relevant_dimensions,
            predicted_dimensions=model.selected_dimensions_,
        )
        assert report["ari"] > 0.7
        assert report["dimension_f1"] > 0.5

    def test_gene_expression_scenario_with_knowledge(self):
        """The Section 5.3 scenario at reduced scale: 1%-dimensional clusters."""
        dataset = make_expression_like_dataset(
            n_samples=120, n_genes=800, n_sample_classes=4, n_marker_genes=8, random_state=1
        )
        knowledge = sample_knowledge(
            dataset.labels,
            dataset.relevant_dimensions,
            category="both",
            input_size=5,
            coverage=1.0,
            random_state=1,
        )
        model = SSPC(n_clusters=4, m=0.5, random_state=1).fit(dataset.data, knowledge)
        stripped = model.result_.without_objects(knowledge.labeled_object_indices())
        assert adjusted_rand_index(dataset.labels, stripped.labels()) > 0.6

    def test_comparison_against_baselines_on_low_dim_data(self, low_dim_dataset):
        """The paper's headline: SSPC-with-knowledge beats the baselines."""
        knowledge = sample_knowledge(
            low_dim_dataset.labels,
            low_dim_dataset.relevant_dimensions,
            category="dimensions",
            input_size=5,
            coverage=1.0,
            random_state=2,
        )
        sspc = SSPC(n_clusters=5, m=0.5, random_state=2).fit(low_dim_dataset.data, knowledge)
        sspc_ari = adjusted_rand_index(low_dim_dataset.labels, sspc.labels_)

        proclus = PROCLUS(n_clusters=5, avg_dimensions=10, random_state=2).fit(low_dim_dataset.data)
        proclus_ari = adjusted_rand_index(low_dim_dataset.labels, proclus.labels_)

        clarans = CLARANS(n_clusters=5, max_neighbors=60, random_state=2).fit(low_dim_dataset.data)
        clarans_ari = adjusted_rand_index(low_dim_dataset.labels, clarans.labels_)

        assert sspc_ari > proclus_ari
        assert sspc_ari > clarans_ari

    def test_csv_round_trip_then_cluster(self, tmp_path):
        dataset = make_projected_clusters(
            n_objects=120, n_dimensions=30, n_clusters=3, avg_cluster_dimensionality=5, random_state=3
        )
        path = tmp_path / "exported.csv"
        save_csv_dataset(path, dataset.data, dataset.labels)
        data, labels = load_csv_dataset(path)
        model = SSPC(n_clusters=3, m=0.5, random_state=3).fit(data)
        assert adjusted_rand_index(labels, model.labels_) > 0.7

    def test_noisy_knowledge_screening_protects_accuracy(self):
        # Tight local populations (1%-5% of the value range) give the
        # screening step clear evidence against the wrong label.
        dataset = make_projected_clusters(
            n_objects=150, n_dimensions=60, n_clusters=3, avg_cluster_dimensionality=6,
            local_std_fraction=(0.01, 0.05), random_state=4
        )
        # Correct knowledge for cluster 0, plus one wrong object label.
        members = np.flatnonzero(dataset.labels == 0)[:5]
        intruder = int(np.flatnonzero(dataset.labels == 1)[0])
        noisy = Knowledge.from_pairs(
            object_pairs=[(int(o), 0) for o in members] + [(intruder, 0)]
        )
        cleaned, report = KnowledgeValidator().validate(dataset.data, noisy)
        assert report.n_rejections() >= 1
        model = SSPC(n_clusters=3, m=0.5, random_state=4).fit(dataset.data, cleaned)
        assert adjusted_rand_index(dataset.labels, model.labels_) > 0.7
