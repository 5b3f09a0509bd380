"""Byte-identity gate: the benchmark workloads reproduce their golden outputs.

Each command of ``perfbench/run.py`` runs in-process at program seed 7 and
its output, plus the per-trial trace files for ``dump-traces``, is hashed
the way the benchmark hashes it and compared with ``perfbench/goldens.json``.
With ``DPSK_GOLDEN_SEEDS=all`` in the environment every seed the goldens
hold (0-15) is checked instead:

    DPSK_GOLDEN_SEEDS=all python -m pytest tests/test_goldens.py
"""

import hashlib
import json
import os

import pytest

from dpsk import cli

GOLDENS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "goldens.json")
SEEDS = None if os.environ.get("DPSK_GOLDEN_SEEDS") == "all" else ["7"]

DPC = ["simulate", "dpc", "--P", "10", "--Q", "10", "--sigma2", "5", "--gamma", "0.5",
       "--n", "100", "--rate_fraction", "0.7", "--format", "json"]

WORKLOADS = {
    "simulate-dpc": DPC + ["--trials", "8192"],
    "simulate-mac": ["simulate", "mac", "--P1", "10", "--P2", "10", "--Q", "10",
                     "--sigma2", "5", "--gamma", "0.8", "--beta", "0.8", "--n", "200",
                     "--rate_fraction", "0.25", "--trials", "8192", "--format", "json"],
    "sweep-noisy": ["sweep", "noisy", "--P", "7.7", "--Q", "10", "--sigma2", "5",
                    "--sigma_z2", "1", "--grid", "11", "--n", "60", "--rate_fraction", "0.7",
                    "--trials", "800"],
    "dump-traces": DPC + ["--trials", "600"],
}


def _digests(stdout_path, trace_dir):
    with open(stdout_path, "rb") as fp:
        digests = {"stdout": hashlib.sha256(fp.read()).hexdigest()}
    if trace_dir is not None:
        digest = hashlib.sha256()
        for name in sorted(os.listdir(trace_dir)):
            with open(os.path.join(trace_dir, name), "rb") as fp:
                digest.update(name.encode() + b"\0" + fp.read())
        digests["traces"] = digest.hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_output_matches_golden(name, tmp_path):
    with open(GOLDENS, encoding="utf-8") as fp:
        goldens = json.load(fp)["outputs"][name]
    for seed in SEEDS or sorted(goldens, key=int):
        out = tmp_path / f"stdout-{seed}.txt"
        argv = WORKLOADS[name] + ["--seed", seed, "--out", str(out)]
        trace_dir = None
        if name == "dump-traces":
            trace_dir = tmp_path / f"traces-{seed}"
            argv += ["--dump-traces", str(trace_dir)]
        assert cli.main(argv) == 0, seed
        assert _digests(out, trace_dir) == goldens[seed], seed
