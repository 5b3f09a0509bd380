"""``perfbench/run.py``, the benchmark's command list, loaded as a module.

The tests that read the benchmark's workloads load it from here, so that
they check the commands the benchmark runs and no copy of them. The file is
read as it is.
"""

import importlib.util
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_run():
    """``perfbench/run.py`` as a module; ``sys.path`` is restored after run.py
    puts perfbench/ on it to import its tracer."""
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module
