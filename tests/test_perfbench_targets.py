"""The benchmark's call lists name functions of ``dpsk`` that its tracer wraps.

``perfbench/run.py`` declares the functions each workload must reach, and
``perfbench/tracer.py`` the functions it wraps by name and those whose time
it charges to the kernels and decoders. The tracer wraps every public
function defined in an ``ALL_PUBLIC`` module and nothing else there, so a
renamed, inlined or privatized function would otherwise surface only in a
traced benchmark run. The kernels must also return a tuple of arrays, the
only result whose outputs the tracer's ``kernel_mb_computed`` counts, and
every workload's command must reach the functions its lists require and
none that they forbid. Both files are read as they are.
"""

import collections
import importlib
import inspect
import subprocess
import sys

import numpy as np
import pytest

from dpsk import sk_dpc, sk_dpmac
from dpsk.params import DpcParams, MacParams

from perfbench_loader import load_run


@pytest.fixture
def run():
    return load_run()


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


def _kernel_calls():
    """A call of each batch kernel on a 3-block batch of n = 5, by its name."""
    S, eta = np.random.default_rng(0).standard_normal((2, 3, 5))
    theta = np.zeros(3)
    dpc = DpcParams(P=10, Q=10, sigma2=5)
    message = sk_dpc.compute_coefficients(dpc, 0.5, 5)
    forwarding = sk_dpc.forwarding_coefficients(dpc, 0.0, 5)
    mac = sk_dpmac.mac_coefficients(MacParams(P1=10, P2=10, Q=10, sigma2=5), 0.8, 0.8, 5)
    return {
        "sk_dpc.simulate_message_batch":
            lambda traces: sk_dpc.simulate_message_batch(message, theta, S, eta, traces),
        "sk_dpc.simulate_forwarding_batch":
            lambda traces: sk_dpc.simulate_forwarding_batch(forwarding, S, eta, traces),
        "sk_dpmac.simulate_mac_batch":
            lambda traces: sk_dpmac.simulate_mac_batch(mac, theta, theta, S, eta, traces),
    }


@pytest.mark.parametrize("traces", [True, False])
def test_every_kernel_returns_a_tuple_of_arrays_the_tracer_counts(run, traces):
    # kernel_mb_computed counts the ndarray items of a kernel's tuple result
    # only, so a result of another type, or with arrays nested deeper, would
    # silently drop its outputs from that metric
    calls = _kernel_calls()
    assert sorted(calls) == sorted(name for names in run.tracer.KERNELS.values()
                                   for name in names)
    for name, call in calls.items():
        result = call(traces)
        assert isinstance(result, tuple), name
        assert all(item is None or isinstance(item, np.ndarray) for item in result), name
        outputs = sum(item.nbytes for item in result if item is not None)
        assert run.tracer._array_bytes((), {}, result) == outputs > 0, name
        # the traces are stored only on request
        assert (result.X is None) == (result.theta_hat is None) == (not traces), name
        # the one record of a batch, whose runner fills in the rest
        assert type(result) is sk_dpc.SchemeTrace, name
        assert all(getattr(result, field) is None
                   for field in ("W", "W_hat", "M", "S", "S_hat")), name


def test_every_workload_reaches_the_calls_its_lists_name(run, tmp_path):
    # the coverage guard of a traced benchmark run, on each workload's command
    # with 2 trials: the functions a command reaches do not depend on its
    # trial count. The commands run side by side, each in its own process.
    children = {}
    try:
        for name, workload in run.WORKLOADS.items():
            argv = list(workload.argv)
            argv[argv.index("--trials") + 1] = "2"
            if workload.dump_traces:
                argv += ["--dump-traces", str(tmp_path / name)]
            spans = tmp_path / f"{name}.spans.csv"
            cmd = [sys.executable, "-I", run.CHILD, run.ROOT, str(tmp_path / f"{name}.json"),
                   "--spans", str(spans), "--", *argv]
            children[name] = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, cwd=run.ROOT), spans
        for name, (child, spans) in children.items():
            assert child.wait(timeout=60) == 0, name
            calls = collections.Counter(span["name"] for span in run.tracer.read_spans(spans))
            try:
                run.check_coverage(name, run.WORKLOADS[name], calls)
            except SystemExit as exc:
                pytest.fail(str(exc))
    finally:
        for child, _ in children.values():
            if child.poll() is None:
                child.kill()
                child.wait()
