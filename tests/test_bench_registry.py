"""Registry completeness and scenario-declaration invariants."""

import ast
import json
from pathlib import Path

import pytest

import repro.baselines
from repro.bench import registry
from repro.bench.config import SCALES
from repro.bench.scenario import MetricSpec, TaskSpec

BENCHMARKS_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
BENCH_PACKAGE_DIR = Path(registry.__file__).resolve().parent
EXPERIMENTS_DIR = BENCH_PACKAGE_DIR.parent / "experiments"


def _bench_modules():
    """``(name, parsed module)`` for every module of ``repro.bench``."""
    return [
        (path.name, ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(BENCH_PACKAGE_DIR.glob("*.py"))
    ]


def _imports_argparse(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "argparse" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "argparse":
                return True
    return False


def _names_used(tree) -> set:
    """Every imported, referenced or attribute name in a parsed module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _has_main_block(tree) -> bool:
    """Whether the module body holds ``if __name__ == "__main__":``."""
    for node in tree.body:
        if not isinstance(node, ast.If) or not isinstance(node.test, ast.Compare):
            continue
        operands = [node.test.left, *node.test.comparators]
        names = [op.id for op in operands if isinstance(op, ast.Name)]
        constants = [op.value for op in operands if isinstance(op, ast.Constant)]
        if names == ["__name__"] and constants == ["__main__"]:
            return True
    return False


class TestCompleteness:
    def test_every_benchmark_script_has_a_registered_scenario(self):
        """Each benchmarks/bench_*.py figure maps to a scenario id."""
        if not BENCHMARKS_DIR.is_dir():
            pytest.skip("benchmarks/ not present in this checkout")
        expected = {
            path.stem[len("bench_"):]
            for path in BENCHMARKS_DIR.glob("bench_*.py")
        }
        assert expected, "no benchmark scripts found"
        missing = expected - set(registry.ids())
        assert not missing, "benchmark scripts without a registered scenario: %s" % sorted(missing)

    def test_only_the_cli_parses_arguments(self):
        """``repro-bench`` is the one benchmark entry point: no script mains."""
        offenders = [name for name, tree in _bench_modules() if _imports_argparse(tree)]
        assert offenders == ["cli.py"]

    def test_only_the_cli_has_a_main_block(self):
        offenders = [name for name, tree in _bench_modules() if _has_main_block(tree)]
        assert offenders == ["__main__.py", "cli.py"]

    def test_every_benchmark_module_is_a_pytest_claim(self):
        """``benchmarks/bench_*.py`` hold paper claims, not launchers."""
        if not BENCHMARKS_DIR.is_dir():
            pytest.skip("benchmarks/ not present in this checkout")
        without_tests = []
        for path in sorted(BENCHMARKS_DIR.glob("bench_*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            if not any(
                isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
                for node in tree.body
            ):
                without_tests.append(path.name)
        assert not without_tests, "benchmark modules without a test: %s" % without_tests

    def test_every_baseline_runs_in_an_experiment(self):
        """A baseline no figure or ablation runs is dead code: delete it."""
        used = set()
        for path in sorted(EXPERIMENTS_DIR.glob("*.py")):
            used |= _names_used(ast.parse(path.read_text(), filename=str(path)))
        unused = sorted(set(repro.baselines.__all__) - used)
        assert not unused, "baselines no experiment runs: %s" % unused

    def test_all_scenarios_registered(self):
        assert len(registry.ids()) >= 14

    def test_groups_cover_the_ci_matrix(self):
        assert registry.groups() == [
            "accuracy",
            "chaos",
            "knowledge",
            "perf",
            "robustness",
            "serving_load",
            "stream",
        ]


class TestScenarioDeclarations:
    @pytest.fixture(params=sorted(registry.ids()))
    def scenario(self, request):
        return registry.get(request.param)

    def test_declares_every_scale(self, scenario):
        for scale in SCALES:
            assert scenario.config_for(scale) is not None

    def test_plans_nonempty_unique_json_safe_tasks(self, scenario):
        for scale in SCALES:
            tasks = scenario.build_tasks(scale)
            assert tasks, "scenario %s plans no tasks at %s" % (scenario.scenario_id, scale)
            names = [task.name for task in tasks]
            assert len(set(names)) == len(names)
            for task in tasks:
                json.dumps(dict(task.params))  # must be JSON-serializable

    def test_planning_is_deterministic(self, scenario):
        first = scenario.build_tasks("smoke")
        second = scenario.build_tasks("smoke")
        assert [t.config_hash(scenario.scenario_id) for t in first] == [
            t.config_hash(scenario.scenario_id) for t in second
        ]

    def test_declares_metric_specs(self, scenario):
        assert scenario.metrics, "scenario %s declares no metrics" % scenario.scenario_id
        for spec in scenario.metrics:
            assert isinstance(spec, MetricSpec)


class TestConfigHash:
    def test_hash_changes_with_params(self):
        base = TaskSpec(name="t", params={"a": 1, "seed": 3})
        changed = TaskSpec(name="t", params={"a": 2, "seed": 3})
        assert base.config_hash("s") != changed.config_hash("s")

    def test_hash_stable_under_key_order(self):
        first = TaskSpec(name="t", params={"a": 1, "b": 2})
        second = TaskSpec(name="t", params={"b": 2, "a": 1})
        assert first.config_hash("s") == second.config_hash("s")

    def test_hash_depends_on_scenario_and_task_name(self):
        task = TaskSpec(name="t", params={"a": 1})
        other = TaskSpec(name="u", params={"a": 1})
        assert task.config_hash("s1") != task.config_hash("s2")
        assert task.config_hash("s1") != other.config_hash("s1")

    def test_metric_spec_validation(self):
        with pytest.raises(ValueError):
            MetricSpec("x", kind="nope")
        with pytest.raises(ValueError):
            MetricSpec("x", direction="sideways")
