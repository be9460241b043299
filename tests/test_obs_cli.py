"""--trace/--metrics-out plumbing through the CLIs, plus ``repro-obs report``.

Each front-end (bench, stream, serve) must emit a Perfetto-loadable
Chrome trace and a checksummed metrics snapshot when asked — and stay
completely untraced when not.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.cli import main as obs_main
from repro.obs.export import load_chrome_trace
from repro.reliability import read_json


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


def trace_categories(trace):
    return {
        event.get("cat")
        for event in trace["traceEvents"]
        if event.get("ph") == "X"
    }


class TestBenchRunTracing:
    # fits, serves and partially updates a model: four instrumented
    # subsystems in one fast scenario (the acceptance bar for --trace)
    SCENARIO = "serving"

    def test_run_emits_trace_and_metrics(self, tmp_path, capsys):
        from repro.bench.cli import main as bench_main

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = bench_main([
            "run", "--suite", "smoke", "--scenario", self.SCENARIO,
            "--run-dir", str(tmp_path / "run"),
            "--trace", str(trace_path),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace written to" in out and "metrics snapshot written to" in out

        trace = load_chrome_trace(trace_path)
        categories = trace_categories(trace)
        # spans from at least four instrumented subsystems in one run
        assert {"fit", "engine", "serve", "executor"} <= categories
        snapshot = read_json(metrics_path, verify=True)
        assert snapshot["counters"]["serve.points_scored"] >= 1
        assert "executor" in snapshot["spans"]["by_category"]
        assert snapshot["spans"]["count"] >= 4
        # recorder is torn down after the session
        assert not obs.enabled()

    def test_run_without_flags_stays_untraced(self, tmp_path):
        from repro.bench.cli import main as bench_main

        code = bench_main([
            "run", "--suite", "smoke", "--scenario", self.SCENARIO,
            "--run-dir", str(tmp_path / "run"),
        ])
        assert code == 0
        assert not obs.enabled()
        assert not list(tmp_path.glob("*.json"))


class TestStreamRunTracing:
    RUN_ARGS = [
        "run",
        "--n-batches", "4",
        "--batch-size", "80",
        "--n-dimensions", "16",
        "--n-clusters", "3",
        "--cluster-dim", "4",
        "--drift", "none",
        "--warmup", "300",
        "--fit-iterations", "4",
        "--seed", "5",
        "--quiet",
    ]

    def test_stream_run_emits_trace_and_metrics(self, tmp_path):
        from repro.stream.cli import main as stream_main

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = stream_main(self.RUN_ARGS + [
            "--trace", str(trace_path), "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        categories = trace_categories(load_chrome_trace(trace_path))
        # warmup fit + the streaming batches, both instrumented
        assert {"fit", "engine", "stream"} <= categories
        snapshot = read_json(metrics_path, verify=True)
        assert snapshot["counters"]["stream.points"] == 4 * 80
        assert snapshot["histograms"]["stream.batch_size"]["count"] == 4
        assert snapshot["histograms"]["stream.batch_size"]["max"] == 80.0


class TestServeTracing:
    def test_fit_and_predict_emit_traces(self, tmp_path):
        import numpy as np

        from repro.serving.cli import main as serve_main

        artifact = tmp_path / "model"
        fit_trace = tmp_path / "fit-trace.json"
        code = serve_main([
            "fit", "--synthetic", "120x20x2", "--artifact", str(artifact),
            "--random-state", "0", "--trace", str(fit_trace),
        ])
        assert code == 0
        assert {"fit", "engine"} <= trace_categories(load_chrome_trace(fit_trace))

        points = tmp_path / "points.npy"
        np.save(points, np.random.default_rng(0).normal(size=(30, 20)))
        predict_trace = tmp_path / "predict-trace.json"
        predict_metrics = tmp_path / "predict-metrics.json"
        code = serve_main([
            "predict", "--artifact", str(artifact), "--input", str(points),
            "--output", str(tmp_path / "assign.csv"),
            "--trace", str(predict_trace), "--metrics-out", str(predict_metrics),
        ])
        assert code == 0
        assert "serve" in trace_categories(load_chrome_trace(predict_trace))
        snapshot = read_json(predict_metrics, verify=True)
        assert snapshot["counters"]["serve.points_scored"] == 30


class TestObsReportCli:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        from repro.obs.export import write_chrome_trace, write_metrics

        with obs.recording() as recorder:
            with obs.span("demo", category="fit"):
                obs.incr("demo.counter", 3)
                obs.observe("demo.hist", 1.0)
                obs.event("drift", cluster_id=2)
        trace_path = write_chrome_trace(tmp_path / "trace.json", recorder)
        metrics_path = write_metrics(tmp_path / "metrics.json", recorder)
        return trace_path, metrics_path

    def test_report_renders_metrics(self, artifacts, capsys):
        _, metrics_path = artifacts
        assert obs_main(["report", "--metrics", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "demo.counter" in out
        assert "drift" in out

    def test_report_renders_trace(self, artifacts, capsys):
        trace_path, _ = artifacts
        assert obs_main(["report", "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert "perfetto" in out.lower()

    def test_report_requires_an_input(self):
        with pytest.raises(SystemExit):
            obs_main(["report"])

    def test_report_missing_file_is_io_error(self, tmp_path):
        assert obs_main(["report", "--metrics", str(tmp_path / "nope.json")]) == 2


class TestObsLint:
    @pytest.fixture()
    def lint(self):
        import importlib.util
        from pathlib import Path

        tool = Path(__file__).resolve().parents[1] / "tools" / "check_obs.py"
        spec = importlib.util.spec_from_file_location("check_obs", tool)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_library_code_is_clean(self, lint):
        assert lint.run() == 0

    def test_lint_catches_print_and_wall_clock(self, lint, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time\n"
            "def report(x):\n"
            "    print('progress', x)\n"
            "    return time.time()\n"
        )
        violations = list(lint.scan_file(bad))
        assert len(violations) == 2
        assert any("print" in message for _, message in violations)
        assert any("wall_time" in message for _, message in violations)

    def test_lint_ignores_strings_and_comments(self, lint, tmp_path):
        fine = tmp_path / "fine.py"
        fine.write_text(
            "# print('not a call') and time.time() in a comment\n"
            "MESSAGE = \"print('nope'); time.time()\"\n"
            "def wall():\n"
            "    from repro import obs\n"
            "    return obs.wall_time()\n"
        )
        assert list(lint.scan_file(fine)) == []

    def test_cli_and_obs_modules_are_exempt(self, lint):
        assert lint.is_exempt("src/repro/obs/core.py")
        assert lint.is_exempt("src/repro/bench/cli.py")
        assert not lint.is_exempt("src/repro/bench/perf_obs.py")
        assert not lint.is_exempt("src/repro/bench/chaos.py")
        assert not lint.is_exempt("src/repro/core/sspc.py")
        assert not lint.is_exempt("src/repro/bench/store.py")


class TestObsLiveServerCli:
    """`repro-obs report --url` and `repro-obs tail` against a fake daemon."""

    METRICS = {
        "generation": 3,
        "telemetry": {
            "requests_total": {"predict": {"2xx": 5}},
            "latency_seconds": {
                "predict": {
                    "2xx": {
                        "count": 5,
                        "sum": 0.05,
                        "mean": 0.01,
                        "min": 0.005,
                        "max": 0.02,
                        "p50": 0.01,
                        "p90": 0.018,
                        "p99": 0.02,
                        "buckets": {"le": [0.1, "+Inf"], "cumulative": [5, 5]},
                    }
                }
            },
            "slo": {
                "objectives": {
                    "availability_target": 0.999,
                    "latency_budget_ms": 250.0,
                    "latency_target": 0.99,
                    "fast_burn_threshold": 14.4,
                },
                "windows": {
                    "1m": {
                        "requests": 5,
                        "errors": 0,
                        "slow": 0,
                        "availability": 1.0,
                        "latency_ok": 1.0,
                        "availability_burn": 0.0,
                        "latency_burn": 0.0,
                        "seconds": 60,
                    }
                },
                "fast_burn": False,
                "status": "ok",
            },
            "tail": {"captured_slow": 2, "captured_errors": 0},
        },
    }
    TAIL = {
        "traceEvents": [
            {
                "name": "server.request",
                "cat": "server",
                "ph": "X",
                "ts": 0.0,
                "dur": 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"request_id": "req-1", "span_id": 1, "parent_id": None},
            }
        ],
        "displayTimeUnit": "ms",
    }

    @pytest.fixture
    def fake_daemon(self, monkeypatch):
        import repro.obs.cli as cli_module

        def fetch(url, timeout=15.0):
            if url.endswith("/metrics"):
                return json.loads(json.dumps(self.METRICS))
            if url.endswith("/debug/tail_trace"):
                return json.loads(json.dumps(self.TAIL))
            raise AssertionError("unexpected fetch: %s" % url)

        monkeypatch.setattr(cli_module, "_fetch_json", fetch)

    def test_report_url_renders_live_telemetry(self, fake_daemon, capsys):
        assert obs_main(["report", "--url", "http://localhost:1"]) == 0
        output = capsys.readouterr().out
        assert "predict" in output
        assert "availability" in output
        assert "ok" in output

    def test_tail_summarizes_and_saves(self, fake_daemon, capsys, tmp_path):
        out = tmp_path / "tail.json"
        assert obs_main(["tail", "--url", "http://localhost:1", "--out", str(out)]) == 0
        saved = json.loads(out.read_text())
        assert saved["traceEvents"][0]["name"] == "server.request"
        output = capsys.readouterr().out
        assert "server" in output

    def test_report_still_requires_an_input(self):
        with pytest.raises(SystemExit):
            obs_main(["report"])


def test_trace_is_valid_json_perfetto_shape(tmp_path):
    """The emitted file is plain JSON with the documented top-level shape."""
    from repro.obs.export import write_chrome_trace

    with obs.recording() as recorder:
        with obs.span("root", category="fit"):
            pass
    path = write_chrome_trace(tmp_path / "trace.json", recorder)
    document = json.loads(path.read_text())
    assert isinstance(document["traceEvents"], list)
    assert document["displayTimeUnit"] == "ms"
    assert any(event["ph"] == "M" for event in document["traceEvents"])
