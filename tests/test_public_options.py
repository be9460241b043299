"""Option inventory of the fit, serving, stream and daemon surfaces.

Pins the parameter names, config fields and command-line flags of
``SSPC``, ``assign_objects``, ``ProjectedClusterIndex``,
``StreamingSSPC`` / ``StreamConfig``, the daemon (``ServerConfig``,
``MicroBatcher``, the backends, ``Telemetry`` and ``SLOConfig``),
``run_best_of`` and the ``repro-server`` / ``repro-serve`` /
``repro-stream`` parsers.

Each independently settable name doubles the configurations that tests
and benchmarks must cover, so the list only grows by the Options rule:
a new name needs a caller outside the tests (a scenario, figure,
example, benchmark workload or command line) that sets a second value.
A name that only tests set selects a path nothing measures; delete it
rather than pin it.  A change that adds or removes a name updates
``EXPECTED`` in the same commit.

Config objects mirror their command lines: a config field exists only
if its command line can set it.  Every ``ServerConfig`` field is the
``repro-server`` flag of the same name, every ``SLOConfig`` field is the
``repro-server --slo-*`` flag of its name, and every ``StreamConfig``
field is set by a ``repro-stream run`` flag; a value no command line
sets is a module constant instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect

from repro.core.assignment import assign_objects
from repro.core.sspc import SSPC
from repro.experiments.harness import run_best_of
from repro.obs.slo import SLOConfig
from repro.obs.telemetry import Telemetry
from repro.server import cli as server_cli
from repro.server.app import PredictServer, ServerConfig
from repro.server.batcher import MicroBatcher
from repro.server.pool import (
    InProcessBackend,
    WorkerPoolBackend,
    build_serving_index,
    make_backend,
)
from repro.serving import cli as serving_cli
from repro.serving.index import ProjectedClusterIndex
from repro.stream import cli as stream_cli
from repro.stream.engine import StreamConfig, StreamingSSPC

EXPECTED = {
    "SSPC.__init__": (
        "n_clusters", "m", "p", "max_iterations", "patience", "grid_dimensions", "grids_per_group",
        "bins_per_dimension", "seed_selection_p", "public_group_factor", "random_state",
    ),
    "SSPC.fit": ("data", "knowledge"),
    "SSPC.fit_predict": ("data", "knowledge"),
    "SSPC.predict": ("data", "top_m"),
    "assign_objects": ("objective", "states", "knowledge"),
    "ProjectedClusterIndex.__init__": ("artifact", "projection_window"),
    "ProjectedClusterIndex.from_path": ("path",),
    "StreamingSSPC.__init__": ("artifact", "config"),
    "StreamConfig": (
        "outlier_buffer_size", "lifecycle_every", "spawn_min_points", "max_clusters",
        "drift_check_every", "drift_zscore", "projection_window", "seed",
    ),
    "ServerConfig": (
        "host", "port", "workers", "max_batch", "max_wait_us", "state_dir",
        "slo_availability_target", "slo_latency_budget_ms", "slo_latency_target",
    ),
    "MicroBatcher.__init__": ("flush_fn", "max_batch", "max_wait_us"),
    "Telemetry.__init__": ("slo", "clock", "trace_prefix"),
    "SLOConfig": ("availability_target", "latency_budget_ms", "latency_target"),
    "build_serving_index": ("artifact_path",),
    "InProcessBackend.__init__": ("artifact_path",),
    "WorkerPoolBackend.__init__": ("artifact_path", "n_workers"),
    "make_backend": ("artifact_path", "n_workers"),
    "run_best_of": (
        "spec", "data", "true_labels", "n_repeats", "knowledge", "random_state", "configuration",
    ),
    "repro-server": (
        "artifact", "--host", "--port", "--workers", "--max-batch", "--max-wait-us", "--state-dir",
        "--slo-availability-target", "--slo-latency-budget-ms", "--slo-latency-target",
    ),
    "repro-serve fit": (
        "--input", "--synthetic", "--artifact", "--n-clusters", "--m", "--p", "--max-iterations",
        "--random-state", "--trace", "--metrics-out",
    ),
    "repro-serve predict": (
        "--artifact", "--input", "--output", "--top-m", "--update", "--save-back", "--trace",
        "--metrics-out",
    ),
    "repro-serve inspect": ("--artifact", "--json"),
    "repro-serve": (),
    "repro-stream run": (
        "--n-batches", "--batch-size", "--n-dimensions", "--n-clusters", "--cluster-dim",
        "--outlier-fraction", "--drift", "--drift-batch", "--drift-cluster", "--drift-magnitude",
        "--seed", "--warmup", "--fit-iterations", "--m", "--buffer-size", "--lifecycle-every",
        "--spawn-min-points", "--max-clusters", "--drift-every", "--drift-zscore",
        "--projection-window", "--checkpoint", "--report", "--trace", "--metrics-out", "--quiet",
    ),
    "repro-stream replay": ("--checkpoint", "--n-batches", "--batch-size", "--output", "--quiet"),
    "repro-stream inspect": ("--checkpoint", "--json"),
    "repro-stream": (),
}


def _parameters(function):
    return tuple(
        name for name in inspect.signature(function).parameters if name not in ("self", "cls")
    )


def _fields(config_class):
    return tuple(field.name for field in dataclasses.fields(config_class))


def _flags(parser, prog):
    """``{prog [subcommand]: flags}``: long option strings, positionals by dest."""
    inventory = {}
    names = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for command, subparser in action.choices.items():
                inventory.update(_flags(subparser, "%s %s" % (prog, command)))
            continue
        names.append(max(action.option_strings, key=len) if action.option_strings else action.dest)
    inventory[prog] = tuple(names)
    return inventory


def _inventory():
    inventory = {
        "SSPC.__init__": _parameters(SSPC.__init__),
        "SSPC.fit": _parameters(SSPC.fit),
        "SSPC.fit_predict": _parameters(SSPC.fit_predict),
        "SSPC.predict": _parameters(SSPC.predict),
        "assign_objects": _parameters(assign_objects),
        "ProjectedClusterIndex.__init__": _parameters(ProjectedClusterIndex.__init__),
        "ProjectedClusterIndex.from_path": _parameters(ProjectedClusterIndex.from_path),
        "StreamingSSPC.__init__": _parameters(StreamingSSPC.__init__),
        "StreamConfig": _fields(StreamConfig),
        "ServerConfig": _fields(ServerConfig),
        "MicroBatcher.__init__": _parameters(MicroBatcher.__init__),
        "Telemetry.__init__": _parameters(Telemetry.__init__),
        "SLOConfig": _fields(SLOConfig),
        "build_serving_index": _parameters(build_serving_index),
        "InProcessBackend.__init__": _parameters(InProcessBackend.__init__),
        "WorkerPoolBackend.__init__": _parameters(WorkerPoolBackend.__init__),
        "make_backend": _parameters(make_backend),
        "run_best_of": _parameters(run_best_of),
    }
    inventory.update(_flags(server_cli.build_parser(), "repro-server"))
    inventory.update(_flags(serving_cli.build_parser(), "repro-serve"))
    inventory.update(_flags(stream_cli.build_parser(), "repro-stream"))
    return inventory


def test_option_inventory_is_pinned():
    inventory = _inventory()
    assert inventory == EXPECTED
    assert sum(len(names) for names in inventory.values()) == 127


def _moved_argv(parser, flags):
    """``(argv, {dest: parsed value})`` moving each numeric or free-text flag off its default."""
    argv, values = [], {}
    for position, action in enumerate(parser._actions):
        if not set(action.option_strings) & set(flags):
            continue
        if action.type in (int, float):
            value = action.type((action.default or 0) + position + 1)
        elif action.type is None and action.nargs is None and action.choices is None:
            value = "moved-%d" % position
        else:
            continue
        argv += [action.option_strings[-1], str(value)]
        values[action.dest] = value
    return argv, values


def test_server_config_is_the_repro_server_command_line(monkeypatch):
    """Every ``ServerConfig`` field is set from the flag of its name; every flag sets one."""
    parser = server_cli.build_parser()
    flags = [flag for flag in EXPECTED["repro-server"] if flag.startswith("--")]
    argv, values = _moved_argv(parser, flags)
    assert len(values) == len(flags), "a repro-server flag takes no value to move"
    assert sorted(values) == sorted(_fields(ServerConfig))
    configs = []

    async def run(config, artifact):
        configs.append(config)
        return 0

    monkeypatch.setattr(server_cli, "_run", run)
    assert server_cli.main(["model"] + argv) == 0
    assert dataclasses.asdict(configs[0]) == values


def test_slo_config_is_the_repro_server_slo_command_line(monkeypatch):
    """Every ``SLOConfig`` field is the ``--slo-*`` flag of its name, and the flag sets it."""
    slo_flags = [flag for flag in EXPECTED["repro-server"] if flag.startswith("--slo-")]
    assert sorted(slo_flags) == sorted(
        "--slo-" + name.replace("_", "-") for name in _fields(SLOConfig)
    )
    parser = server_cli.build_parser()
    argv, values = [], {}
    for action in parser._actions:
        if set(action.option_strings) & set(slo_flags):
            # half the default: a valid target or budget, and a moved one
            values[action.dest[len("slo_") :]] = action.default / 2
            argv += [action.option_strings[-1], repr(action.default / 2)]
    configs = []

    async def run(config, artifact):
        configs.append(config)
        return 0

    monkeypatch.setattr(server_cli, "_run", run)
    assert server_cli.main(["model"] + argv) == 0
    server = PredictServer("model", configs[0])
    assert dataclasses.asdict(server.telemetry.slo.config) == values
    assert values != dataclasses.asdict(SLOConfig())


def test_stream_config_is_set_by_repro_stream_run():
    """Distinct non-default ``run`` flags move every ``StreamConfig`` field."""
    parser = stream_cli.build_parser()
    run = next(
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    ).choices["run"]
    argv, _ = _moved_argv(run, EXPECTED["repro-stream run"])
    config = stream_cli._config_from_args(parser.parse_args(["run"] + argv))
    default = StreamConfig()
    unmoved = [
        name for name in _fields(StreamConfig) if getattr(config, name) == getattr(default, name)
    ]
    assert unmoved == []
