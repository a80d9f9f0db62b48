PYTHON ?= python

# Envelope stamps for every BENCH_<suite>.json that bench-all writes:
# the git revision and a UTC timestamp, supplied here so the suites
# never read clocks they do not own. := (immediate) so one make
# invocation stamps every suite with the same values.
ifeq ($(origin GIT_REV), undefined)
GIT_REV := $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
endif
ifeq ($(origin BENCH_TIMESTAMP), undefined)
BENCH_TIMESTAMP := $(shell date -u +%Y-%m-%dT%H:%M:%SZ)
endif

.PHONY: install test bench bench-all examples experiments clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Every registered suite (repro.bench.SUITES) at its one fixed config:
# writes BENCH_<suite>.json and gates it against
# benchmarks/history/<suite>.jsonl; exits non-zero naming the first
# regression. To append a run to the history, call
# `repro bench --record` with the same stamps.
bench-all:
	$(PYTHON) -m repro.cli bench --rev $(GIT_REV) --timestamp $(BENCH_TIMESTAMP)

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

experiments:
	$(PYTHON) -m repro.cli table1
	$(PYTHON) -m repro.cli fig14
	$(PYTHON) -m repro.cli compare
	$(PYTHON) -m repro.cli channels
	$(PYTHON) -m repro.cli ablation
	$(PYTHON) -m repro.cli sensitivity
	$(PYTHON) -m repro.cli faults

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
