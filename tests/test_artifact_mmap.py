"""The mmap artifact load path: bit-identity, integrity, generation swaps."""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.reliability import CompressedMemberError, IntegrityError, mmap_npz
from repro.serving.artifact import load_artifact
from repro.serving.index import ProjectedClusterIndex
from repro.server.pool import build_serving_index


@pytest.fixture(scope="module")
def query_points():
    rng = np.random.default_rng(6)
    return rng.normal(size=(30, 40))


def test_mmap_arrays_and_predictions_match_eager(artifact_on_disk, query_points):
    eager = load_artifact(artifact_on_disk)
    mapped = load_artifact(artifact_on_disk, mmap_mode="r")
    np.testing.assert_array_equal(mapped.labels, eager.labels)
    np.testing.assert_array_equal(mapped.global_variance, eager.global_variance)
    for eager_cluster, mapped_cluster in zip(eager.clusters, mapped.clusters):
        np.testing.assert_array_equal(mapped_cluster.median, eager_cluster.median)
        np.testing.assert_array_equal(mapped_cluster.variance, eager_cluster.variance)
    np.testing.assert_array_equal(
        ProjectedClusterIndex(mapped).predict(query_points),
        ProjectedClusterIndex(eager).predict(query_points),
    )


def test_mode_r_views_are_read_only(artifact_on_disk):
    mapped = mmap_npz(artifact_on_disk / "arrays.npz", mode="r")
    labels = mapped["labels"]
    assert labels.flags.writeable is False
    with pytest.raises((ValueError, OSError)):
        labels[0] = 99


def test_corrupted_member_fails_the_mmap_load(artifact_on_disk, tmp_path):
    copy = tmp_path / "model"
    shutil.copytree(artifact_on_disk, copy)
    arrays_path = copy / "arrays.npz"
    raw = bytearray(arrays_path.read_bytes())
    # Corrupt one byte of the global_variance payload specifically —
    # locating it by content keeps the zip structure itself intact.
    needle = load_artifact(artifact_on_disk).global_variance.tobytes()
    offset = raw.find(needle)
    assert offset > 0, "payload bytes not found in arrays.npz"
    raw[offset + len(needle) // 2] ^= 0xFF
    arrays_path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError):
        load_artifact(copy, mmap_mode="r")


def test_generation_swap_leaves_live_mmap_readers_intact(
    artifact_on_disk, fitted_sspc, query_points, tmp_path
):
    serving_dir = tmp_path / "model"
    shutil.copytree(artifact_on_disk, serving_dir)
    index = build_serving_index(serving_dir)
    before = index.predict(query_points)

    # Build a *different* artifact (post-fold state) and atomically
    # re-save it over the serving directory while the index still maps
    # the old generation.
    folded_index = ProjectedClusterIndex(load_artifact(artifact_on_disk))
    folded_index.partial_update(query_points)
    folded_artifact = folded_index.export_artifact()
    folded_artifact.save(serving_dir)

    # The live reader holds the old inode: bit-identical answers.
    np.testing.assert_array_equal(index.predict(query_points), before)
    # A fresh load sees the new generation.
    fresh = build_serving_index(serving_dir)
    np.testing.assert_array_equal(
        fresh.predict(query_points), folded_index.predict(query_points)
    )


def test_compressed_npz_is_rejected_by_mmap(tmp_path):
    path = tmp_path / "compressed.npz"
    np.savez_compressed(path, values=np.arange(10.0))
    with pytest.raises(CompressedMemberError):
        mmap_npz(path)


def test_build_serving_index_falls_back_on_compressed_artifact(
    artifact_on_disk, query_points, tmp_path
):
    copy = tmp_path / "model"
    shutil.copytree(artifact_on_disk, copy)
    with np.load(copy / "arrays.npz") as handle:
        arrays = {name: handle[name] for name in handle.files}
    np.savez_compressed(copy / "arrays.npz", **arrays)
    # Same bytes per array (checksums pass), but no longer mappable:
    # the boot falls back to the eager load instead of failing.
    index = build_serving_index(copy)
    reference = ProjectedClusterIndex(load_artifact(artifact_on_disk))
    np.testing.assert_array_equal(
        index.predict(query_points), reference.predict(query_points)
    )
