"""The ``repro-server`` entry point: parser defaults and daemon lifecycle."""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
import urllib.request

import numpy as np
import pytest

from repro.serving.artifact import load_artifact
from repro.serving.index import ProjectedClusterIndex
from repro.server.cli import build_parser


class TestBuildParser:
    def test_defaults(self):
        args = build_parser().parse_args(["artifacts/model"])
        assert args.artifact == "artifacts/model"
        assert args.host == "127.0.0.1"
        assert args.port == 8757
        assert args.workers == 0
        assert args.max_batch == 64
        assert args.max_wait_us == 2000.0
        assert args.state_dir is None

    def test_artifact_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_no_mmap_is_gone(self, capsys):
        # The daemon always maps its artifact; the flag is an argparse error.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["artifacts/model", "--no-mmap"])
        assert excinfo.value.code == 2
        assert "--no-mmap" in capsys.readouterr().err


def _wait_ready(process, timeout_s=30.0):
    """Read stdout lines until the READY banner; return (host, port)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise AssertionError(
                "daemon exited before READY: %s" % process.stderr.read()
            )
        if line.startswith("READY"):
            fields = dict(part.split("=") for part in line.split()[1:])
            return fields["host"], int(fields["port"])
    raise AssertionError("daemon did not print READY within %.0fs" % timeout_s)


def test_daemon_boots_serves_and_stops_on_sigterm(artifact_on_disk):
    query = np.random.default_rng(5).normal(size=(1, 40))
    expected = ProjectedClusterIndex(load_artifact(artifact_on_disk)).predict(query)

    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.server.cli",
            str(artifact_on_disk),
            "--port",
            "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        host, port = _wait_ready(process)
        base = "http://%s:%d" % (host, port)
        with urllib.request.urlopen(base + "/healthz", timeout=10) as response:
            health = json.loads(response.read())
        assert health["status"] == "ok"
        body = json.dumps({"point": list(query[0])}).encode()
        with urllib.request.urlopen(
            urllib.request.Request(
                base + "/predict",
                data=body,
                headers={"Content-Type": "application/json"},
            ),
            timeout=10,
        ) as response:
            predicted = json.loads(response.read())
        assert predicted["label"] == int(expected[0])

        process.send_signal(signal.SIGTERM)
        stdout, _ = process.communicate(timeout=30)
        assert "STOPPED" in stdout
        assert process.returncode == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def test_daemon_refuses_an_artifact_inside_its_state_dir(fitted_sspc, tmp_path):
    state_dir = tmp_path / "state"
    artifact = state_dir / "gen-00000001" / "model"
    fitted_sspc.to_artifact().save(artifact)
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.server.cli",
            str(artifact),
            "--port",
            "0",
            "--state-dir",
            str(state_dir),
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 2, completed.stderr
    assert "READY" not in completed.stdout
    assert str(artifact) in completed.stderr and str(state_dir) in completed.stderr
