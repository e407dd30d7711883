"""The benchmark's tracer finds every function it names in the package.

``bench/tracing.py`` wraps each of its ``TARGETS`` by module and attribute
name, so a rename in ``src/`` would break ``bench/run.py --trace 1`` only
when the benchmark runs. This loads the tracer by path and checks that it
resolves and restores every target.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import phaseamp.cli  # noqa: F401  (loads every module the tracer patches)
from phaseamp.encoding import uniform_histogram
from phaseamp.experiments import success_trajectory

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    """Load the tracer read only: no bytecode is written next to it."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def _references() -> dict[tuple[object, str], object]:
    """Every attribute of a phaseamp module or class the tracer may patch."""
    refs = {}
    for key, module in list(sys.modules.items()):
        if key.partition(".")[0] != "phaseamp":
            continue
        for name, value in vars(module).items():
            refs[(module, name)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    refs[(value, attr)] = member
    return refs


def _target(module_name: str, attr: str) -> tuple[object, str]:
    owner = sys.modules[f"phaseamp.{module_name}"]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def test_tracer_wraps_every_target_and_restores_it():
    tracing = _load_tracing()
    before = _references()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for module_name, attr, _ in tracing.TARGETS:
            owner, name = _target(module_name, attr)
            assert vars(owner)[name] is not before[(owner, name)], (module_name, attr)
    finally:
        tracer.uninstall()
    after = _references()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []


def test_trajectory_rows_are_counted():
    # The tracer counts a trajectory's rows as the length of its records.
    counters = {
        (module_name, attr): counter for module_name, attr, counter in _load_tracing().TARGETS
    }
    count = counters["experiments", "success_trajectory"]
    h = uniform_histogram(12)
    for m_max in (0, 1, 1500):
        args = (h, m_max)
        assert count(args, success_trajectory(*args)) == {"rows": m_max + 1}
