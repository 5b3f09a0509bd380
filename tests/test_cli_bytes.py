"""Byte identity of CLI outputs that ``tests/test_goldens.py`` does not cover.

Each case runs the CLI in-process and compares the sha256 of its stdout
(and, for ``--dump-traces``, of the per-trial trace files) with a digest
recorded before the change it guards: the record types driving the output
columns, or the gamma = 0 forwarding split joining the one closed loop.
Trial counts are small so the whole file runs in a couple of seconds.
"""

import hashlib
import os

import pytest

from dpsk import cli, harness

DPC = ["--P", "10", "--Q", "10", "--sigma2", "5"]
NOISY = DPC + ["--sigma_z2", "1"]
MAC = ["--P1", "10", "--P2", "5", "--Q", "10", "--sigma2", "5"]

CASES = {
    "region-dpc-fb": ["region", "dpc-fb", *DPC, "--grid", "11"],
    "region-noisy": ["region", "noisy", *NOISY, "--grid", "11"],
    "region-mac-fb": ["region", "mac-fb", *MAC, "--grid", "4", "--beta-grid", "3"],
    "region-mac-fb-rho": ["region", "mac-fb", *MAC, "--grid", "3", "--rho-grid", "4"],
    "region-mac-nofb": ["region", "mac-nofb", *MAC, "--grid", "4"],
    "rho-star": ["rho-star", *MAC, "--gamma", "0.8", "--beta", "0.6"],
    "simulate-noisy": ["simulate", "noisy", *NOISY, "--gamma", "0.5", "--n", "40",
                       "--rate_fraction", "0.7", "--trials", "300", "--seed", "3"],
    "simulate-mac": ["simulate", "mac", *MAC, "--gamma", "0.8", "--beta", "0.8",
                     "--n", "60", "--rate_fraction", "0.25", "--trials", "300", "--seed", "3"],
    "sweep-dpc": ["sweep", "dpc", *DPC, "--grid", "3", "--n", "40",
                  "--rate_fraction", "0.7", "--trials", "100", "--seed", "5"],
    "sweep-mac": ["sweep", "mac", *MAC, "--grid", "3", "--n", "40",
                  "--rate_fraction", "0.25", "--trials", "100", "--seed", "5"],
    # its gamma = 0 point, the state-forwarding split, spans two batches
    "sweep-noisy": ["sweep", "noisy", *NOISY, "--grid", "3", "--n", "20",
                    "--rate_fraction", "0.7", "--trials", str(harness.BATCH + 3), "--seed", "5"],
}

FORMATS = {name: ("csv", "json") for name in CASES}
FORMATS["simulate-mac"] = ("csv",)

TRACE_CASE = ["simulate", "mac", *MAC, "--gamma", "0.8", "--beta", "0.8", "--n", "12",
              "--rate_fraction", "0.25", "--trials", "7", "--seed", "2"]

DIGESTS = {
    "region-dpc-fb/csv": "9372ef8ef3064b185e1137882ff8b295472a613af1078a3d8a27e5e437679ee5",
    "region-dpc-fb/json": "4d482d897d22e10aeb19e1ee1b5bb8ea955c8573c3551862d1923dcce27ea323",
    "region-noisy/csv": "171a5f505136e38114aae6e600b89f066ef4a01c87df990d846362f5918e73be",
    "region-noisy/json": "591c646e0f076a470c2e54b9e780ab72b374f54fe4e5f782345eb27e4ec8b5de",
    "region-mac-fb/csv": "459ae8d86ee65707fb07fa5e26737441b5d9c637091df4ad5dded6cbd8b82fda",
    "region-mac-fb/json": "29fee4bc7d5453a13c3ff2b53a589ebd258a3428f85182092636519880ecd706",
    "region-mac-fb-rho/csv": "5513b53df0d553ac54a5a6a1e0cdc8f67d9ce1f1adba2b1680a6a5b732913386",
    "region-mac-fb-rho/json": "14442646e585e5cf6ccbec14f782e79827ac008a541dd3746bbe449da8cad45c",
    "region-mac-nofb/csv": "27b58172418605d9726cd63cdc678228dec5bd4f9f7ed842129a64b4d42b55f7",
    "region-mac-nofb/json": "46c842948b508c8cacf5e7c47b55abd0d5731860a02ba04a9c2334a400843298",
    "rho-star/csv": "08b9f477c1dbd480ffcf3b7e5753d06fba4e12885160f182a70d5312d226534a",
    "rho-star/json": "67dcddd68abde06ae96093a2041898938db5fde974d295016b3644e178029b4f",
    "simulate-noisy/csv": "4f9ec79636c7b97bc961b526ac940c9429b8bc021e137f4364c0bd1ec28467ff",
    "simulate-noisy/json": "6afcf7478292b73aa3121665cf81f2f53c24d3f256e004bfc3252ad796c4feb5",
    "simulate-mac/csv": "ef11a79b58dd4b2a26b236e6e633b25a9b12687d99fd13ab1ec476cb6f00188b",
    "sweep-dpc/csv": "9d876304b212615096a060241ad3555979e689fb4fa8700f691d889e105a2f11",
    "sweep-dpc/json": "b6356fac09cdc5078613be15ea64ab8b1fba6c5c9ace54a769598e6749701892",
    "sweep-mac/csv": "eda0e5873bb7462dc4d2c6eb481f661c4187adb41ae05455e41ba7b9b204060a",
    "sweep-mac/json": "89e3845cfe38645067cb4ca6abec5ce5d86885c717b0269c49c44c959bd7fd08",
    "sweep-noisy/csv": "e85ee604342713304a63608e923a35ed7ac8beab8ebb827ad964dff39660a7f1",
    "sweep-noisy/json": "09064d298f1bee55908f604a559a2cebe3f4c87f6c295b6c28274aaa8572d29c",
}

TRACE_DIGESTS = {
    "stdout": "d2f95f6a2beaed920cf222d6e7a1469ff0382638f60348f091bb4873ad09139c",
    "traces": "246b49238f54cacb7b8ce6f9c7d83c16ffc35c8a2b0d7099d4c24456c4189251",
}

#: gamma = 0 runs, the state-forwarding split, whose every estimate is 0
FORWARDING_CASES = {
    "dpc": ["simulate", "dpc", *DPC, "--gamma", "0", "--n", "12", "--trials", "7",
            "--seed", "2"],
    "noisy": ["simulate", "noisy", *NOISY, "--gamma", "0", "--n", "12", "--trials", "7",
              "--seed", "2"],
}

FORWARDING_DIGESTS = {
    "dpc": {"stdout": "3a3f9a18000bcc5a593a44dc4365e1348365b15772b8d4f4aaee7dd2ba30ac60",
            "traces": "a9ab77182f26b52bb09b789d7eb2a9974797918d373659dd491d1a8ad2c2c8ce"},
    "noisy": {"stdout": "76ccf280f09ee619095d7dd43a4b4a570dda9fa5be1c867a4c4b91e0373afd24",
              "traces": "c730e36676c3438c8b7eb210931fa02ac565c16cf1e29dd71c7f8eb4fef45303"},
}


def _stdout_digest(capsys, argv):
    assert cli.main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def _dir_digest(directory):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fp:
            digest.update(name.encode() + b"\0" + fp.read())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "name,fmt", [(name, fmt) for name in CASES for fmt in FORMATS[name]]
)
def test_stdout_bytes(capsys, name, fmt):
    digest = _stdout_digest(capsys, CASES[name] + ["--format", fmt])
    assert digest == DIGESTS[f"{name}/{fmt}"]


def _trace_digests(capsys, directory, argv):
    """The digests of a 7-trial ``--dump-traces`` run's stdout and trace files."""
    stdout = _stdout_digest(capsys, argv + ["--dump-traces", str(directory)])
    assert sorted(os.listdir(directory)) == [f"trial_{i:06d}.csv" for i in range(7)]
    return {"stdout": stdout, "traces": _dir_digest(directory)}


def test_mac_trace_files_bytes(capsys, tmp_path):
    assert _trace_digests(capsys, tmp_path, TRACE_CASE) == TRACE_DIGESTS


@pytest.mark.parametrize("name", sorted(FORWARDING_CASES))
def test_forwarding_trace_files_bytes(capsys, tmp_path, name):
    assert _trace_digests(capsys, tmp_path, FORWARDING_CASES[name]) == FORWARDING_DIGESTS[name]
