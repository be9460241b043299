"""sha256 pins of a seeded stream and a blind fit.

The values were computed with the code before the stream hot path and
the initialisation grids were vectorised.  Any change to the stream
engine, the serving fold, the outlier buffer, the grids or the
seed-group builder must keep them: every output of these paths is meant
to be bit-identical, not close.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bench.chaos import engine_fingerprint
from repro.core.seed_groups import SeedGroupBuilder
from repro.core.sspc import SSPC
from repro.data.generator import make_projected_clusters
from repro.data.streams import ClusterBirth, ClusterDeath, MeanShift
from repro.stream import StreamConfig, StreamingSSPC, load_checkpoint
from tests.test_stream_engine import make_stream

#: A stream with a drift, a birth and a death; a 200-row outlier buffer
#: and 64-row projection windows, so evictions and windowed folds happen.
STREAM_EVENTS = (
    MeanShift(batch=16, cluster=0, magnitude=0.35),
    ClusterBirth(batch=20),
    ClusterDeath(batch=24, cluster=2),
)
STREAM_CONFIG = StreamConfig(
    seed=1,
    spawn_min_points=20,
    lifecycle_every=4,
    drift_check_every=2,
    outlier_buffer_size=200,
    projection_window=64,
)
STREAM_BATCHES = 40
STREAM_BATCH_ROWS = 150
STREAM_LABELS_SHA256 = "e3aba88238de6327807ab37de6c9ee3800d6a0c4ffd81948ba0134f7d9cdb9dc"
STREAM_ENGINE_SHA256 = "6de6235a28b05890f76f1f51b0456376b5945d10bc8251d9d7413a6d8d8a326e"

FIT_LABELS_SHA256 = "d8863fd0cfb51e73485224e532099dbdc4dc70037129156c69ff450dd9a92ccd"
FIT_GROUPS_SHA256 = "6a8da95f30e37cb21bb552e9a58ef5788ef21f853155e7d84fa68988a2d6f6fd"


@pytest.fixture(scope="module")
def stream_model():
    warmup = make_stream().warmup(900)
    return SSPC(n_clusters=3, m=0.5, max_iterations=20, random_state=3).fit(warmup.data)


def stream_batches():
    return list(make_stream(STREAM_EVENTS).batches(STREAM_BATCHES, STREAM_BATCH_ROWS))


def labels_digest(label_blocks) -> str:
    digest = hashlib.sha256()
    for labels in label_blocks:
        digest.update(np.asarray(labels, dtype="<i8").tobytes())
    return digest.hexdigest()


def seed_groups_digest(private, public) -> str:
    digest = hashlib.sha256()
    for group in [private[key] for key in sorted(private)] + list(public):
        digest.update(group.seeds.astype("<i8").tobytes())
        digest.update(b"|")
        digest.update(group.dimensions.astype("<i8").tobytes())
        digest.update(b"|%d;" % group.peak_density)
    return digest.hexdigest()


class TestStreamPin:
    def test_stream_labels_and_engine_state(self, stream_model):
        engine = StreamingSSPC(stream_model.to_artifact(), config=STREAM_CONFIG)
        labels = [engine.process_batch(batch.data).labels for batch in stream_batches()]
        assert (engine.n_spawned, engine.n_spawns_rejected) == (2, 2)
        assert (engine.n_drift_refreshes, engine.n_retired) == (2, 1)
        assert engine.outliers.n_dropped > 0
        assert labels_digest(labels) == STREAM_LABELS_SHA256
        assert engine_fingerprint(engine) == STREAM_ENGINE_SHA256

    @pytest.mark.parametrize("stop", [9, 22])
    def test_checkpoint_mid_stream_restores_and_continues_bit_identically(
        self, stream_model, tmp_path, stop
    ):
        batches = stream_batches()
        engine = StreamingSSPC(stream_model.to_artifact(), config=STREAM_CONFIG)
        labels = [engine.process_batch(batch.data).labels for batch in batches[:stop]]
        engine.checkpoint(tmp_path / "ck")
        resumed = load_checkpoint(tmp_path / "ck")
        labels += [resumed.process_batch(batch.data).labels for batch in batches[stop:]]
        assert labels_digest(labels) == STREAM_LABELS_SHA256
        assert engine_fingerprint(resumed) == STREAM_ENGINE_SHA256


def test_blind_fit_labels_and_seed_groups(monkeypatch):
    captured = []
    build = SeedGroupBuilder.build

    def recording_build(self, random_state=None):
        groups = build(self, random_state)
        captured.append(groups)
        return groups

    monkeypatch.setattr(SeedGroupBuilder, "build", recording_build)
    dataset = make_projected_clusters(
        n_objects=3000, n_dimensions=50, n_clusters=5, random_state=0
    )
    model = SSPC(5, m=0.5, random_state=0).fit(dataset.data)
    (private, public), = captured
    assert len(public) == 15
    assert labels_digest([model.labels_]) == FIT_LABELS_SHA256
    assert seed_groups_digest(private, public) == FIT_GROUPS_SHA256
