"""Import contract: each public surface imports what it runs, and nothing more.

Every case runs in a fresh interpreter, because the test process has
already imported most of the library.  A case prints one JSON value on its
last line of stdout.  Nothing here takes a timing: a module is either in
``sys.modules`` or it is not.

* (a) The daemon and the light command lines load no scipy and none of
  the fit-only modules.
* (b) No console script, and not ``from repro.core import SSPC``, loads
  ``scipy.stats`` (the chi-square quantile comes from ``scipy.special``).
* (c) No ``repro.*`` or ``scipy*`` module is imported inside an operation:
  a fit, a predict, a save, a stream batch, a checkpoint or a daemon
  request only runs code its surface loaded at import.
* (d) The lazy package roots keep the public API of the eager ones.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.sspc import SSPC
from repro.data.generator import make_projected_clusters
from repro.data.streams import ClusterBirth, DriftingStreamGenerator
from repro.semisupervision import sample_knowledge

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules only a fit (or a stream spawn) runs.
FIT_ONLY = ("repro.core.sspc", "repro.core.seed_groups", "repro.core.grid")

#: Helpers of every snippet: ``mark()`` snapshots ``sys.modules``,
#: ``added(before)`` lists the ``repro.*``/``scipy*``/``orjson`` modules
#: imported since, and ``report(value)`` prints the case's result.
PRELUDE = """
import json, sys

def mark():
    return set(sys.modules)

def added(before):
    return sorted(
        name for name in set(sys.modules) - before
        if name.startswith(("repro.", "scipy", "orjson"))
    )

def report(value):
    print(json.dumps(value))
"""


def run_child(code: str, *args) -> object:
    """Run ``code`` in a fresh interpreter; return its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    completed = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code), *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=240,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def loaded_after_import(module: str) -> list:
    return run_child(
        """
        import importlib
        importlib.import_module(sys.argv[1])
        report(sorted(name for name in sys.modules if name.startswith(("repro", "scipy"))))
        """,
        module,
    )


# --------------------------------------------------------------------- #
# (a) and (b): what each surface loads at import
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "module", ["repro", "repro.server.cli", "repro.serving.cli", "repro.obs.cli"]
)
def test_light_surfaces_load_no_scipy_and_no_fit_code(module):
    loaded = loaded_after_import(module)
    assert not [name for name in loaded if name.startswith("scipy")]
    assert not [
        name
        for name in loaded
        if name in FIT_ONLY or name == "repro.stream" or name.startswith("repro.stream.")
    ]


def test_import_repro_alone_loads_nothing_else():
    loaded = run_child(
        """
        import repro
        report(sorted(name for name in sys.modules if name.startswith(("repro", "numpy"))))
        """
    )
    assert loaded == ["repro", "repro._lazy"]


@pytest.mark.parametrize(
    "module",
    [
        "repro.serving.cli",
        "repro.server.cli",
        "repro.stream.cli",
        "repro.obs.cli",
        "repro.bench.cli",
    ],
)
def test_console_scripts_load_no_scipy_stats(module):
    assert "scipy.stats" not in loaded_after_import(module)


def test_fit_surface_loads_scipy_special_but_not_scipy_stats():
    loaded = run_child(
        """
        from repro.core import SSPC
        report(sorted(sys.modules))
        """
    )
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded


# --------------------------------------------------------------------- #
# (c): no import inside an operation
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fit_inputs(tmp_path_factory):
    """A small dataset plus labeled objects and dimensions for every class."""
    directory = tmp_path_factory.mktemp("fit-inputs")
    dataset = make_projected_clusters(
        n_objects=300, n_dimensions=30, n_clusters=3, avg_cluster_dimensionality=5,
        random_state=11,
    )
    knowledge = sample_knowledge(
        dataset.labels, dataset.relevant_dimensions, category="both", input_size=4,
        coverage=1.0, random_state=11,
    )
    pairs = {
        "objects": [
            [int(o), int(c)] for c in knowledge.objects.classes()
            for o in knowledge.objects.for_class(c)
        ],
        "dimensions": [
            [int(v), int(c)] for c in knowledge.dimensions.classes()
            for v in knowledge.dimensions.for_class(c)
        ],
    }
    np.save(directory / "data.npy", dataset.data)
    (directory / "knowledge.json").write_text(json.dumps(pairs))
    return directory


def test_fit_predict_and_save_import_nothing(fit_inputs, tmp_path):
    result = run_child(
        """
        import numpy as np
        from repro.core import SSPC
        from repro.semisupervision.knowledge import Knowledge

        directory, out = sys.argv[1], sys.argv[2]
        data = np.load(directory + "/data.npy")
        with open(directory + "/knowledge.json") as handle:
            pairs = json.load(handle)
        knowledge = Knowledge.from_pairs(
            [tuple(pair) for pair in pairs["objects"]],
            [tuple(pair) for pair in pairs["dimensions"]],
        )
        steps = {}
        before = mark()
        blind = SSPC(3, random_state=0).fit(data)
        steps["blind fit"] = added(before)
        before = mark()
        SSPC(3, random_state=0).fit(data, knowledge)
        steps["guided fit"] = added(before)
        before = mark()
        SSPC(3, p=0.05, random_state=0).fit(data)
        steps["p fit"] = added(before)
        before = mark()
        blind.predict(data[:10])
        steps["predict"] = added(before)
        before = mark()
        blind.to_artifact().save(out)
        steps["save"] = added(before)
        report(steps)
        """,
        fit_inputs,
        tmp_path / "model",
    )
    assert result == {step: [] for step in result}
    assert len(result) == 5


@pytest.fixture(scope="module")
def stream_inputs(tmp_path_factory):
    """An artifact of a well-fitted model plus batches in which a cluster is born."""
    directory = tmp_path_factory.mktemp("stream-inputs")
    shape = dict(
        n_dimensions=40, n_clusters=3, avg_cluster_dimensionality=6,
        outlier_fraction=0.05, random_state=7,
    )
    warmup = DriftingStreamGenerator(**shape).warmup(900)
    model = SSPC(n_clusters=3, m=0.5, max_iterations=20, random_state=3).fit(warmup.data)
    model.to_artifact().save(directory / "model")
    stream = DriftingStreamGenerator(events=[ClusterBirth(batch=4)], **shape)
    batches = np.stack([batch.data for batch in stream.batches(16, 150)])
    np.save(directory / "batches.npy", batches)
    return directory


def test_stream_batches_spawn_and_checkpoint_import_nothing(stream_inputs, tmp_path):
    result = run_child(
        """
        import numpy as np
        from repro.serving.artifact import ModelArtifact
        from repro.stream.engine import StreamConfig, StreamingSSPC

        directory, checkpoint = sys.argv[1], sys.argv[2]
        batches = np.load(directory + "/batches.npy")
        engine = StreamingSSPC(
            ModelArtifact.load(directory + "/model"),
            config=StreamConfig(
                seed=1, spawn_min_points=20, lifecycle_every=4, drift_check_every=2
            ),
        )
        before = mark()
        for batch in batches:
            engine.process_batch(batch)
        batches_added = added(before)
        before = mark()
        engine.checkpoint(checkpoint)
        report({
            "spawns": engine.n_spawned,
            "batches": batches_added,
            "checkpoint": added(before),
        })
        """,
        stream_inputs,
        tmp_path / "checkpoint",
    )
    assert result["spawns"] >= 1
    assert result["batches"] == []
    assert result["checkpoint"] == []


@pytest.fixture(scope="module")
def scheme_artifacts(tmp_path_factory, small_dataset):
    """An ``m``-scheme and a ``p``-scheme artifact of the same data."""
    directory = tmp_path_factory.mktemp("scheme-artifacts")
    for scheme, option in (("m", {"m": 0.5}), ("p", {"p": 0.05})):
        SSPC(3, random_state=0, **option).fit(small_dataset.data).save(directory / scheme)
    return directory


@pytest.mark.parametrize("scheme", ["m", "p"])
def test_index_loads_scipy_special_only_for_the_p_scheme(scheme_artifacts, scheme):
    result = run_child(
        """
        import numpy as np
        from repro.serving.artifact import load_artifact
        from repro.serving.index import ProjectedClusterIndex

        points = np.random.default_rng(3).normal(size=(16, 40))
        value = {"at import": sorted(m for m in sys.modules if m.startswith("scipy"))}
        index = ProjectedClusterIndex(load_artifact(sys.argv[1]))
        value["built"] = "scipy.special" in sys.modules
        before = mark()
        index.predict(points)
        index.partial_update(points)
        value["operations"] = added(before)
        report(value)
        """,
        scheme_artifacts / scheme,
    )
    assert result["at import"] == []
    assert result["built"] is (scheme == "p")
    assert result["operations"] == []


@pytest.mark.parametrize("scheme", ["m", "p"])
def test_daemon_loads_what_it_serves_before_ready(scheme_artifacts, scheme):
    """An m-scheme daemon never loads scipy; orjson, the body decoder, is
    loaded by READY; requests import nothing either way."""
    result = run_child(
        """
        import asyncio
        from repro.server.app import PredictServer, ServerConfig

        async def post(host, port, path, payload):
            reader, writer = await asyncio.open_connection(host, port)
            body = json.dumps(payload).encode()
            head = (
                "POST %s HTTP/1.1\\r\\nHost: t\\r\\nContent-Type: application/json\\r\\n"
                "Content-Length: %d\\r\\nConnection: close\\r\\n\\r\\n" % (path, len(body))
            )
            writer.write(head.encode() + body)
            response = await reader.read()
            writer.close()
            return int(response.split()[1])

        async def main():
            server = PredictServer(sys.argv[1], ServerConfig(port=0))
            host, port = await server.start()
            value = {
                "ready": sorted(m for m in sys.modules if m.startswith(("scipy", "orjson")))
            }
            points = [[0.25] * 40, [-0.5] * 40]
            before = mark()
            value["statuses"] = [
                await post(host, port, "/predict", {"points": points}),
                await post(host, port, "/partial_update", {"points": points}),
                await post(host, port, "/predict", {"point": points[0]}),
            ]
            value["requests"] = added(before)
            await server.stop()
            return value

        report(asyncio.run(main()))
        """,
        scheme_artifacts / scheme,
    )
    assert result["statuses"] == [200, 200, 200]
    assert result["requests"] == []
    assert "orjson" in result["ready"]
    if scheme == "m":
        assert not [name for name in result["ready"] if name.startswith("scipy")]
    else:
        assert "scipy.special" in result["ready"]
        assert "scipy.stats" not in result["ready"]


# --------------------------------------------------------------------- #
# (d): the lazy roots keep the public API
# --------------------------------------------------------------------- #
#: Each public name of the eager package roots and the module that defines it.
REPRO_EXPORTS = {
    "SSPC": "repro.core.sspc",
    "Knowledge": "repro.semisupervision.knowledge",
    "ClusteringResult": "repro.core.model",
    "ProjectedCluster": "repro.core.model",
    "OUTLIER_LABEL": "repro.core.model",
    "ModelArtifact": "repro.serving.artifact",
    "ProjectedClusterIndex": "repro.serving.index",
    "load_artifact": "repro.serving.artifact",
    "StreamConfig": "repro.stream.engine",
    "StreamingSSPC": "repro.stream.engine",
}
CORE_EXPORTS = {
    "OUTLIER_LABEL": "repro.core.model",
    "ClusteringResult": "repro.core.model",
    "ProjectedCluster": "repro.core.model",
    "SelectionThreshold": "repro.core.thresholds",
    "VarianceRatioThreshold": "repro.core.thresholds",
    "ChiSquareThreshold": "repro.core.thresholds",
    "make_threshold": "repro.core.thresholds",
    "ObjectiveFunction": "repro.core.objective",
    "ClusterStatistics": "repro.core.objective",
    "grouped_assignment_gains": "repro.core.objective",
    "ClusterStatsCache": "repro.core.stats_cache",
    "select_dimensions": "repro.core.dimension_selection",
    "Grid": "repro.core.grid",
    "GridBinning": "repro.core.grid",
    "GridSearchResult": "repro.core.grid",
    "SeedGroup": "repro.core.seed_groups",
    "SeedGroupBuilder": "repro.core.seed_groups",
    "SSPC": "repro.core.sspc",
    "grid_success_probability_labeled_objects": "repro.core.analysis",
    "grid_success_probability_labeled_dimensions": "repro.core.analysis",
    "relevant_dimension_retention_probability": "repro.core.analysis",
}
#: Attributes the eager roots set as a side effect of their imports.
REPRO_SUBPACKAGES = ["core", "obs", "reliability", "semisupervision", "serving", "stream", "utils"]
CORE_SUBMODULES = [
    "analysis", "assignment", "assignment_engine", "dimension_selection", "grid", "model",
    "objective", "representatives", "seed_groups", "sspc", "stats_cache", "thresholds",
]


@pytest.mark.parametrize(
    "package, exports, submodules, extra",
    [
        ("repro", REPRO_EXPORTS, REPRO_SUBPACKAGES, ["__version__"]),
        ("repro.core", CORE_EXPORTS, CORE_SUBMODULES, []),
    ],
)
def test_lazy_root_keeps_the_public_api(package, exports, submodules, extra):
    result = run_child(
        """
        import importlib
        package, exports, submodules = (
            sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
        )
        root = importlib.import_module(package)
        value = {
            "all": list(root.__all__),
            "identical": [
                name for name, module in exports.items()
                if getattr(root, name) is getattr(importlib.import_module(module), name)
            ],
            "submodules": [
                name for name in submodules
                if getattr(root, name) is sys.modules[package + "." + name]
            ],
            "dir": [name for name in root.__all__ + submodules if name in dir(root)],
        }
        namespace = {}
        exec("from %s import *" % package, namespace)
        value["star"] = sorted(name for name in namespace if name != "__builtins__")
        try:
            root.no_such_name
        except AttributeError as error:
            value["unknown"] = str(error)
        value["hasattr"] = hasattr(root, "no_such_name")
        report(value)
        """,
        package,
        json.dumps(exports),
        json.dumps(submodules),
    )
    assert sorted(result["all"]) == sorted(list(exports) + extra)
    assert result["identical"] == list(exports)
    assert result["submodules"] == submodules
    assert result["dir"] == result["all"] + submodules
    assert result["star"] == sorted(result["all"])
    assert "no_such_name" in result["unknown"]
    assert result["hasattr"] is False
