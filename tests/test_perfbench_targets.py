"""The benchmark's call lists name functions of ``dpsk`` that its tracer wraps.

``perfbench/run.py`` declares the functions each workload must reach, and
``perfbench/tracer.py`` the functions it wraps by name and those whose time
it charges to the kernels and decoders. The tracer wraps every public
function defined in an ``ALL_PUBLIC`` module and nothing else there, so a
renamed, inlined or privatized function would otherwise surface only in a
traced benchmark run. Both files are read as they are.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def run(monkeypatch):
    # run.py puts perfbench/ on sys.path to import tracer; the fixture restores it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(run):
    tracer = run.tracer
    names = {name for workload in run.WORKLOADS.values() for name in workload.must_call}
    names.update(f"{module}.{name}" for module, named in tracer.NAMED.items() for name in named)
    for charged in (tracer.KERNELS, tracer.DECODERS):
        names.update(name for named in charged.values() for name in named)
    return sorted(names)


def test_every_benchmark_target_resolves_and_is_wrapped(run):
    missing, unwrapped = [], []
    for name in _targets(run):
        module_name, *path = name.split(".")
        module = importlib.import_module(f"dpsk.{module_name}")
        target = module
        for part in path:
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(name)
        elif module_name in run.tracer.ALL_PUBLIC and not (
            len(path) == 1
            and not path[0].startswith("_")
            and inspect.isfunction(target)
            and target.__module__ == module.__name__
        ):
            unwrapped.append(name)
    assert missing == [] and unwrapped == []
