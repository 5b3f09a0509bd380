"""Byte-identity gate: the benchmark workloads reproduce their golden outputs.

Each command of ``perfbench/run.py`` runs in-process at program seed 7 and
its output, plus the per-trial trace files of a workload that dumps traces,
is hashed by the benchmark's own ``output_digests`` and compared with
``perfbench/goldens.json``. With ``DPSK_GOLDEN_SEEDS=all`` in the
environment every seed the goldens hold (0-15) is checked instead:

    DPSK_GOLDEN_SEEDS=all python -m pytest tests/test_goldens.py
"""

import os

import pytest

from dpsk import cli

from perfbench_loader import load_run

RUN = load_run()
SEEDS = None if os.environ.get("DPSK_GOLDEN_SEEDS") == "all" else ["7"]


@pytest.mark.parametrize("name", sorted(RUN.WORKLOADS))
def test_workload_output_matches_golden(name, tmp_path):
    workload = RUN.WORKLOADS[name]
    goldens = RUN.load_json("perfbench/goldens.json")["outputs"][name]
    for seed in SEEDS or sorted(goldens, key=int):
        out = tmp_path / f"stdout-{seed}.txt"
        argv = [*workload.argv, "--seed", seed, "--out", str(out)]
        trace_dir = None
        if workload.dump_traces:
            trace_dir = tmp_path / f"traces-{seed}"
            argv += ["--dump-traces", str(trace_dir)]
        assert cli.main(argv) == 0, seed
        assert RUN.output_digests(out, trace_dir) == goldens[seed], seed
