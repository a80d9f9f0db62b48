"""Conventions of the public API surface, enforced mechanically.

Two things are locked here:

* **spelling** — every public callable that accepts a perf recorder
  spells the parameter exactly ``perf`` and keeps it keyword-only (the
  same for ``rng``), so no caller ever has to remember per-module
  variants;
* **no legacy spellings** — the one-release deprecation bridge
  (``repro._compat``) is gone: the migrated entry points are strictly
  keyword-only (positional overflow is a plain ``TypeError``) and the
  ``run_request*`` names may not reappear anywhere in the source tree.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import warnings

import numpy as np
import pytest

import repro
from repro.broadcast.pointers import compile_program
from repro.client.simulator import simulate_workload
from repro.core.optimal import solve
from repro.heuristics.channel_allocation import sorting_schedule
from repro.heuristics.shrinking import shrink_and_solve
from repro.online.adaptive import AdaptiveBroadcaster
from repro.server.loop import BroadcastServer

# Modules whose __all__ forms the public surface under convention.
_SKIP_MODULES = {"repro.cli"}  # argparse plumbing, not a library surface


def _public_callables():
    """Yield (qualified name, callable) for every public __all__ entry."""
    for module_info in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    ):
        if module_info.name in _SKIP_MODULES:
            continue
        module = importlib.import_module(module_info.name)
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isclass(obj):
                yield f"{module_info.name}.{name}.__init__", obj.__init__
            elif callable(obj):
                yield f"{module_info.name}.{name}", obj


def _signature_or_none(func):
    try:
        return inspect.signature(func)
    except (ValueError, TypeError):  # builtins / C-level callables
        return None


class TestParameterSpelling:
    def test_optional_perf_and_rng_are_keyword_only_everywhere(self):
        """Every *optional* ``perf``/``rng`` knob is keyword-only.

        A *required* ``rng`` is the function's input data (workload
        generators, the drift simulator) and may lead the positional
        list; result dataclasses carrying a ``perf`` snapshot field are
        not entry points and are exempt.
        """
        offenders = []
        seen_perf = 0
        for qualified, func in _public_callables():
            if qualified.endswith(".__init__") and "Report" in qualified:
                continue  # result dataclasses, not entry points
            signature = _signature_or_none(func)
            if signature is None:
                continue
            for param in signature.parameters.values():
                if param.name in ("perf", "rng"):
                    seen_perf += param.name == "perf"
                    if (
                        param.default is not inspect.Parameter.empty
                        and param.kind
                        is not inspect.Parameter.KEYWORD_ONLY
                    ):
                        offenders.append(f"{qualified}({param.name})")
                # No synonymous spellings may creep in.
                if param.name in (
                    "perf_recorder",
                    "recorder",
                    "profiler",
                    "random_state",
                    "generator",
                ):
                    offenders.append(f"{qualified}({param.name})")
        assert not offenders, (
            "perf/rng must be keyword-only and spelled exactly so: "
            + ", ".join(offenders)
        )
        assert seen_perf >= 5  # the sweep actually saw the surface

    def test_every_perf_annotation_uses_the_canonical_name(self):
        """A parameter typed PerfRecorder must be called ``perf``."""
        offenders = []
        for qualified, func in _public_callables():
            signature = _signature_or_none(func)
            if signature is None:
                continue
            for param in signature.parameters.values():
                annotation = str(param.annotation)
                if "PerfRecorder" in annotation and param.name != "perf":
                    offenders.append(f"{qualified}({param.name})")
        assert not offenders, ", ".join(offenders)


class TestRequestFacade:
    """The retired ``run_request*`` walk spellings stay retired."""

    def test_no_module_spells_the_legacy_names(self):
        """Mechanical ban: ``run_request*`` appears nowhere in the tree.

        The shims (and ``repro._compat`` that carried them) shipped for
        exactly one release and are gone; the spelling may not return.
        """
        import pathlib

        src_root = pathlib.Path(repro.__file__).parent
        offenders = [
            str(path.relative_to(src_root))
            for path in sorted(src_root.rglob("*.py"))
            if "run_request" in path.read_text()
        ]
        assert not offenders, (
            "banned legacy run_request spellings: " + ", ".join(offenders)
        )

    def test_compat_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro._compat")


class TestStrictKeywordOnly:
    """The deprecation bridge is retired: positionals raise, not warn."""

    def test_solve_rejects_positional_method(self, fig1_tree):
        with pytest.raises(TypeError):
            solve(fig1_tree, 2, "best-first")

    def test_sorting_schedule_rejects_positional_perf(self, fig1_tree):
        from repro.perf import PerfRecorder

        with pytest.raises(TypeError):
            sorting_schedule(fig1_tree, 1, PerfRecorder())

    def test_shrink_and_solve_keeps_strategy_positional(self, fig1_tree):
        # strategy is a true positional; max_data_nodes is not.
        shrink_and_solve(fig1_tree, "combine")
        with pytest.raises(TypeError):
            shrink_and_solve(fig1_tree, "combine", 8)

    def test_simulate_workload_rejects_positional_rng(self, fig1_tree):
        program = compile_program(solve(fig1_tree, channels=1).schedule)
        with pytest.raises(TypeError):
            simulate_workload(program, np.random.default_rng(5), requests=50)
        simulate_workload(program, rng=np.random.default_rng(5), requests=50)

    def test_constructors_reject_positional_channels(self):
        items = ["A", "B", "C", "D"]
        with pytest.raises(TypeError):
            AdaptiveBroadcaster(items, 2)
        with pytest.raises(TypeError):
            BroadcastServer(items, 2, 2, 5)

    def test_keyword_calls_do_not_warn(self, fig1_tree):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve(fig1_tree, 2, method="best-first")
            sorting_schedule(fig1_tree, 2)
            AdaptiveBroadcaster(["A", "B"], channels=1)
