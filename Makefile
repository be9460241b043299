# Development shortcuts.  CI runs the same commands (see
# .github/workflows/ci.yml); `pip install -e .[dev]` provides ruff.

PY ?= python

.PHONY: lint format test bench-smoke

lint:
	ruff check .
	ruff format --check --diff src/repro/bench src/repro/server benchmarks
	$(PY) tools/check_durability.py
	$(PY) tools/check_obs.py

format:
	ruff format src/repro/bench src/repro/server benchmarks

test:
	$(PY) -m pytest -x -q

bench-smoke:
	$(PY) -m repro.bench run --suite smoke
