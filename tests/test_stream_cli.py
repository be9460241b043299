"""Tests of the ``repro-stream`` CLI (run / replay / inspect)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.reliability import IntegrityError
from repro.stream.checkpoint import ARRAYS_NAME, describe_checkpoint, resolve_checkpoint_dir
from repro.stream.cli import main

RUN_ARGS = [
    "run",
    "--n-batches", "8",
    "--batch-size", "100",
    "--n-dimensions", "24",
    "--n-clusters", "3",
    "--cluster-dim", "5",
    "--drift", "none",
    "--warmup", "450",
    "--fit-iterations", "5",
    "--seed", "5",
    "--quiet",
]


@pytest.fixture()
def checkpoint(tmp_path):
    path = tmp_path / "ck"
    assert main(RUN_ARGS + ["--checkpoint", str(path)]) == 0
    return path


class TestRun:
    def test_run_writes_checkpoint_and_report(self, tmp_path, capsys):
        checkpoint = tmp_path / "ck"
        report = tmp_path / "report.json"
        code = main(RUN_ARGS + ["--checkpoint", str(checkpoint), "--report", str(report)])
        assert code == 0
        captured = capsys.readouterr()
        assert "processed 8 batches" in captured.out
        description = describe_checkpoint(checkpoint)
        assert description["n_batches"] == 8
        assert description["metadata"]["stream"]["n_dimensions"] == 24
        payload = json.loads(report.read_text())
        assert len(payload["batches"]) == 8
        aris = [record["ari"] for record in payload["batches"]]
        assert all(not np.isnan(value) for value in aris)

    def test_run_without_checkpoint_is_fine(self, capsys):
        assert main(RUN_ARGS) == 0
        assert "processed 8 batches" in capsys.readouterr().out


class TestReplay:
    def test_replay_resumes_from_the_recorded_position(self, checkpoint, capsys):
        code = main(["replay", "--checkpoint", str(checkpoint),
                     "--n-batches", "4", "--quiet"])
        assert code == 0
        assert "resuming stream at batch 8" in capsys.readouterr().err
        assert describe_checkpoint(checkpoint)["n_batches"] == 12

    def test_replay_can_write_elsewhere(self, checkpoint, tmp_path):
        target = tmp_path / "continued"
        code = main(["replay", "--checkpoint", str(checkpoint),
                     "--n-batches", "3", "--output", str(target), "--quiet"])
        assert code == 0
        assert describe_checkpoint(checkpoint)["n_batches"] == 8  # original untouched
        assert describe_checkpoint(target)["n_batches"] == 11

    def test_replay_equals_uninterrupted_run(self, tmp_path):
        """run 8 == run 5 + replay 3, bit for bit on the model statistics."""
        full = tmp_path / "full"
        split = tmp_path / "split"
        assert main(RUN_ARGS + ["--checkpoint", str(full)]) == 0
        short = [arg if arg != "8" else "5" for arg in RUN_ARGS]
        assert main(short + ["--checkpoint", str(split)]) == 0
        assert main(["replay", "--checkpoint", str(split),
                     "--n-batches", "3", "--quiet"]) == 0
        left = describe_checkpoint(full)["model"]
        right = describe_checkpoint(split)["model"]
        assert left["cluster_sizes"] == right["cluster_sizes"]

    def test_replay_refuses_checkpoint_without_recipe(self, tmp_path, capsys):
        from repro.core.sspc import SSPC
        from repro.data.streams import DriftingStreamGenerator
        from repro.stream import StreamingSSPC

        warmup = DriftingStreamGenerator(
            n_dimensions=20, n_clusters=2, avg_cluster_dimensionality=4, random_state=1
        ).warmup(200)
        model = SSPC(n_clusters=2, m=0.5, max_iterations=3, random_state=1).fit(warmup.data)
        engine = StreamingSSPC(model.to_artifact())
        engine.checkpoint(tmp_path / "bare")
        assert main(["replay", "--checkpoint", str(tmp_path / "bare")]) == 2
        assert "no recorded stream recipe" in capsys.readouterr().err


class TestInspect:
    def test_inspect_json_payload(self, checkpoint, capsys):
        assert main(["inspect", "--checkpoint", str(checkpoint), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro-sspc-stream-checkpoint"
        assert payload["n_batches"] == 8
        assert payload["model"]["n_clusters"] == len(payload["cluster_ids"])

    def test_inspect_human_readable(self, checkpoint, capsys):
        assert main(["inspect", "--checkpoint", str(checkpoint)]) == 0
        out = capsys.readouterr().out
        assert "stream position : batch 8" in out
        assert "live clusters" in out

    def test_inspect_missing_checkpoint_fails_cleanly(self, tmp_path, capsys):
        assert main(["inspect", "--checkpoint", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["truncate", "bitflip"])
    def test_inspect_damaged_array_bundle_fails_cleanly(self, checkpoint, capsys, damage):
        bundle = resolve_checkpoint_dir(checkpoint) / ARRAYS_NAME
        if damage == "truncate":
            bundle.write_bytes(bundle.read_bytes()[: bundle.stat().st_size // 2])
        else:
            # A valid archive whose data no longer matches the recorded checksum.
            with np.load(bundle) as stored:
                arrays = {key: stored[key] for key in stored.files}
            arrays["global_mean"].view(np.uint64)[0] ^= 1
            np.savez_compressed(bundle, **arrays)
        with pytest.raises(IntegrityError):
            describe_checkpoint(checkpoint)
        assert main(["inspect", "--checkpoint", str(checkpoint)]) == 1
        assert "error:" in capsys.readouterr().err
