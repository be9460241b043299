"""Instrumented layers emit the right spans/metrics — and stay bit-identical.

Covers the tentpole's four subsystems (fit, assignment engine, stream,
serving; the executor has its own module) plus the per-fit stats-cache
counter satellite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.sspc import SSPC
from repro.core.stats_cache import ClusterStatsCache
from repro.data.generator import SyntheticDataGenerator
from repro.serving.index import ProjectedClusterIndex
from repro.stream import StreamConfig, StreamingSSPC


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture(scope="module")
def dataset():
    return SyntheticDataGenerator(
        n_objects=120,
        n_dimensions=12,
        n_clusters=3,
        avg_cluster_dimensionality=4,
        random_state=5,
    ).generate()


def fit_model(data, **overrides):
    params = dict(n_clusters=3, m=0.5, max_iterations=6, random_state=11)
    params.update(overrides)
    return SSPC(**params).fit(data)


def span_names(recorder):
    return {s["name"] for s in recorder.spans}


class TestFitInstrumentation:
    def test_fit_emits_per_phase_spans(self, dataset):
        with obs.recording() as rec:
            fit_model(dataset.data)
        names = span_names(rec)
        assert {"fit", "fit.seed_groups", "fit.iteration", "fit.assign",
                "fit.select_dim", "fit.phi"} <= names
        fit_span = next(s for s in rec.spans if s["name"] == "fit")
        assert fit_span["cat"] == "fit"
        assert fit_span["args"]["n_objects"] == 120
        assert fit_span["args"]["iterations"] >= 1
        # phases are parented under their iteration, iterations under fit
        iteration = next(s for s in rec.spans if s["name"] == "fit.iteration")
        assign = next(s for s in rec.spans if s["name"] == "fit.assign")
        assert assign["parent"] == iteration["id"]
        assert iteration["parent"] == fit_span["id"]
        # per-iteration membership deltas land in a histogram
        assert len(rec.histograms["fit.changed_clusters"]) >= 1

    def test_fit_records_engine_metrics(self, dataset):
        with obs.recording() as rec:
            fit_model(dataset.data)
        assert rec.counters["engine.gains_calls"] >= 1
        assert rec.counters["engine.columns_recomputed"] >= 3  # first call: all k
        assert 0.0 <= min(rec.histograms["engine.dirty_fraction"])
        assert max(rec.histograms["engine.dirty_fraction"]) <= 1.0

    def test_fit_bit_identical_with_obs_enabled(self, dataset):
        plain = fit_model(dataset.data)
        with obs.recording():
            traced = fit_model(dataset.data)
        np.testing.assert_array_equal(plain.labels_, traced.labels_)
        assert plain.objective_ == traced.objective_
        for a, b in zip(plain.selected_dimensions_, traced.selected_dimensions_):
            np.testing.assert_array_equal(a, b)


class TestStatsCacheCountersPerFit:
    def test_default_estimator_snapshot_matches_cache(self, dataset):
        model = fit_model(dataset.data)
        assert model.stats_cache_counters_ == model.stats_cache_.counters()
        assert model.stats_cache_counters_["misses"] > 0

    def test_shared_cache_counters_reset_between_fits(self, dataset):
        """Regression: counters used to accumulate across fits on a shared cache."""
        shared = {}

        class SharedCacheSSPC(SSPC):
            @staticmethod
            def _stats_cache_factory(data, **kwargs):
                key = data.shape  # one cache per dataset, shared across fits
                if key not in shared:
                    shared[key] = ClusterStatsCache(data, **kwargs)
                return shared[key]

        first = SharedCacheSSPC(n_clusters=3, max_iterations=6, random_state=11)
        first.fit(dataset.data)
        counters_first = dict(first.stats_cache_counters_)

        second = SharedCacheSSPC(n_clusters=3, max_iterations=6, random_state=11)
        second.fit(dataset.data)
        counters_second = dict(second.stats_cache_counters_)

        # identical trajectory on a warm cache: far fewer misses, and —
        # the regression — definitely not the cumulative totals.
        assert counters_second["misses"] < counters_first["misses"]
        # the snapshot is exactly what the cache reports right after fit
        assert counters_second == second.stats_cache_.counters()
        # warm entries survived the counter reset
        assert second.stats_cache_.n_entries > 0

    def test_reset_counters_keeps_entries(self, dataset):
        cache = ClusterStatsCache(dataset.data)
        members = np.arange(10, dtype=np.int64)
        cache.statistics(members)
        cache.statistics(members)
        assert cache.hits == 1 and cache.misses == 1
        entries = cache.n_entries
        cache.reset_counters()
        assert cache.hits == cache.misses == cache.evictions == 0
        assert cache.n_entries == entries
        cache.statistics(members)
        assert cache.hits == 1 and cache.misses == 0  # still warm

    def test_obs_counters_reflect_one_fit(self, dataset):
        with obs.recording() as rec:
            model = fit_model(dataset.data)
        assert rec.counters["stats_cache.misses"] == model.stats_cache_counters_["misses"]
        assert rec.gauges["stats_cache.hit_rate"] == pytest.approx(
            model.stats_cache_counters_["hit_rate"]
        )


class TestStreamAndServeInstrumentation:
    def test_stream_batches_record_spans_histograms_events(self, dataset):
        model = fit_model(dataset.data)
        rng = np.random.default_rng(3)
        engine = StreamingSSPC(
            model.to_artifact(),
            config=StreamConfig(seed=1, drift_check_every=0, lifecycle_every=0),
        )
        with obs.recording() as rec:
            for _ in range(4):
                batch = rng.normal(size=(50, dataset.data.shape[1]))
                engine.process_batch(batch)
        batch_spans = [s for s in rec.spans if s["name"] == "stream.batch"]
        assert len(batch_spans) == 4
        assert all(s["cat"] == "stream" for s in batch_spans)
        assert rec.histograms["stream.batch_size"] == [50.0] * 4
        assert len(rec.histograms["stream.outlier_rate"]) == 4
        assert rec.counters["stream.points"] == 200.0
        assert rec.gauges["stream.clusters"] == engine.index.n_clusters

    def test_stream_lifecycle_events_mirrored(self, dataset):
        model = fit_model(dataset.data)
        engine = StreamingSSPC(
            model.to_artifact(),
            config=StreamConfig(
                seed=1, spawn_min_points=15, lifecycle_every=1, drift_check_every=0
            ),
        )
        rng = np.random.default_rng(9)
        # far-away dense blob: rejected as outliers, then spawned
        blob = rng.normal(loc=40.0, scale=0.05, size=(60, dataset.data.shape[1]))
        with obs.recording() as rec:
            for start in range(0, 60, 20):
                engine.process_batch(blob[start:start + 20])
        # starved original clusters retire and/or the blob spawns: either
        # way the engine adapted, and every adaptation must be mirrored
        # one-for-one into the obs event log.
        assert engine.events, "expected lifecycle adaptations from the outlier blob"
        assert [e["kind"] for e in rec.events] == [e.kind for e in engine.events]
        for mirrored, original in zip(rec.events, engine.events):
            assert mirrored["details"]["cluster_id"] == int(original.cluster_id)
            assert mirrored["details"]["batch_index"] == int(original.batch_index)

    def test_spawn_search_span_per_search_with_its_outcome(self, dataset, monkeypatch):
        import repro.stream.engine as engine_module

        model = fit_model(dataset.data)
        original, searches = engine_module.find_spawn_candidate, []

        def counted(rows, *args, **kwargs):
            searches.append(rows.shape[0])
            return original(rows, *args, **kwargs)

        monkeypatch.setattr(engine_module, "find_spawn_candidate", counted)

        def run():
            engine = StreamingSSPC(
                model.to_artifact(),
                config=StreamConfig(seed=1, spawn_min_points=15, lifecycle_every=1),
            )
            rng = np.random.default_rng(9)
            labels = []
            for index in range(8):
                # far-away dense blobs, then a scatter that finds no candidate
                center = 40.0 if index < 3 else -40.0 if index < 6 else 0.0
                scale = 0.05 if index < 6 else 30.0
                batch = rng.normal(loc=center, scale=scale, size=(20, dataset.data.shape[1]))
                labels.append(engine.process_batch(batch).labels)
            return engine, labels

        plain, plain_labels = run()
        searches.clear()
        with obs.recording() as rec:
            traced, traced_labels = run()
        for ours, theirs in zip(traced_labels, plain_labels):
            np.testing.assert_array_equal(ours, theirs)
        spans = [s for s in rec.spans if s["name"] == "stream.spawn_search"]
        assert [s["args"]["rows"] for s in spans] == searches
        assert all(s["cat"] == "stream" for s in spans)
        outcomes = [s["args"]["outcome"] for s in spans]
        assert set(outcomes) == {"none", "rejected", "spawned"}
        assert outcomes.count("spawned") == traced.n_spawned
        assert outcomes.count("rejected") == traced.n_spawns_rejected

    def test_serve_predict_and_partial_update_spans(self, dataset):
        model = fit_model(dataset.data)
        index = ProjectedClusterIndex(model.to_artifact())
        with obs.recording() as rec:
            labels = index.predict(dataset.data[:40])
            index.partial_update(dataset.data[40:80])
        names = span_names(rec)
        assert {"serve.predict", "serve.partial_update", "engine.compute"} <= names
        assert rec.counters["serve.points_scored"] >= 40.0
        assert rec.counters["engine.compute_calls"] >= 1
        predict_span = next(s for s in rec.spans if s["name"] == "serve.predict")
        assert predict_span["args"]["rows"] == 40
        assert labels.shape == (40,)

    def test_stream_results_identical_with_obs_enabled(self, dataset):
        model = fit_model(dataset.data)
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        plain = StreamingSSPC(model.to_artifact(), config=StreamConfig(seed=1))
        traced = StreamingSSPC(model.to_artifact(), config=StreamConfig(seed=1))
        for _ in range(3):
            batch = rng_a.normal(size=(40, dataset.data.shape[1]))
            result_plain = plain.process_batch(batch)
            with obs.recording():
                result_traced = traced.process_batch(rng_b.normal(size=(40, dataset.data.shape[1])))
            np.testing.assert_array_equal(result_plain.labels, result_traced.labels)

    def test_stream_checkpoint_span_per_save(self, dataset, tmp_path):
        from repro.stream.checkpoint import resolve_checkpoint_dir

        model = fit_model(dataset.data)

        def run(directory):
            rng = np.random.default_rng(4)
            engine = StreamingSSPC(model.to_artifact(), config=StreamConfig(seed=1))
            labels = []
            for index in range(6):
                batch = rng.normal(size=(40, dataset.data.shape[1]))
                labels.append(engine.process_batch(batch).labels)
                if index % 2:
                    engine.checkpoint(directory)
            return labels

        plain = run(tmp_path / "plain")
        with obs.recording() as rec:
            traced = run(tmp_path / "traced")
        for ours, theirs in zip(traced, plain):
            np.testing.assert_array_equal(ours, theirs)
        spans = [s for s in rec.spans if s["name"] == "stream.checkpoint"]
        assert [s["args"]["generation"] for s in spans] == [
            "gen-%08d" % number for number in (1, 2, 3)
        ]
        assert all(s["cat"] == "stream" for s in spans)
        newest = resolve_checkpoint_dir(tmp_path / "traced")
        assert newest.name == spans[-1]["args"]["generation"]
        assert spans[-1]["args"]["bytes"] == sum(
            f.stat().st_size for f in newest.rglob("*") if f.is_file()
        )
