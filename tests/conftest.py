"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.problem import AllocationProblem
from repro.tree.builders import paper_example_tree


@pytest.fixture(scope="session", autouse=True)
def postmortem_dir(tmp_path_factory):
    """Route auto-dumped flight-recorder bundles somewhere findable.

    An externally-set ``REPRO_POSTMORTEM_DIR`` wins — the CI jobs
    point it into the workspace so any bundle dumped by a failing run
    is uploaded as an artifact. Otherwise bundles land in a session
    tmp directory instead of the developer's cwd.
    """
    if os.environ.get("REPRO_POSTMORTEM_DIR"):
        yield os.environ["REPRO_POSTMORTEM_DIR"]
        return
    path = str(tmp_path_factory.mktemp("postmortems"))
    os.environ["REPRO_POSTMORTEM_DIR"] = path
    yield path
    os.environ.pop("REPRO_POSTMORTEM_DIR", None)


@pytest.fixture(autouse=True)
def one_call_timings(monkeypatch):
    """Time each bench measurement with one call, not seconds of calls.

    The suites' numbers are asserted, not their clocks; the timing
    primitive itself is tested with an injected clock in
    ``tests/test_bench.py``.
    """
    import repro.perf

    monkeypatch.setattr(repro.perf, "MIN_TIME", 0.0)
    monkeypatch.setattr(repro.perf, "REPEATS", 1)


@pytest.fixture
def fig1_tree():
    """The paper's Fig. 1(a) running example."""
    return paper_example_tree()


@pytest.fixture
def fig1_problem_1ch(fig1_tree):
    return AllocationProblem(fig1_tree, channels=1)


@pytest.fixture
def fig1_problem_2ch(fig1_tree):
    return AllocationProblem(fig1_tree, channels=2)


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(20000105)
