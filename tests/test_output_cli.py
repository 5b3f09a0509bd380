import argparse
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from dpsk import cli, harness, noisy_obs, output, regions, sk_dpc, sk_dpmac
from dpsk.errors import ConfigError
from dpsk.params import (
    CHANNELS, CONFIG_KEYS, BlockConfig, DpcParams, MacParams, NoisyObsParams, PowerSplit,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# formatting


def test_fmt_value_kinds():
    assert output.fmt(3) == "3"
    assert output.fmt(np.int64(-7)) == "-7"
    assert output.fmt(True) == "true" and output.fmt(False) == "false"
    assert output.fmt("label") == "label"
    assert output.fmt(0.5) == "0.5"
    assert output.fmt(6.0) == "6"
    assert output.fmt(10.0 / 9.0) == "1.11111111111"
    assert output.fmt(math.pi * 1e-8) == "3.14159265359e-08"
    assert output.fmt(float("nan")) == "nan"
    assert output.fmt(-0.0) == "0"
    assert output.fmt(np.float64(-0.0)) == "0"


def test_csv_text_shape():
    text = output.csv_text(("a", "b"), [(1, 2.5), (0.0, "x")])
    assert text == "a,b\n1,2.5\n0,x\n"


def test_region_csv_headers():
    points = regions.boundary_sweep(DpcParams(10, 10, 5), [0.5])
    text = output.rows_csv(output.region_rows(points))
    assert text.splitlines()[0] == "gamma,rate,distortion"
    assert text.splitlines()[1] == "0.5,0.5,2.55479161795"
    noisy = output.rows_csv(output.region_rows(points, sigma_z2=1.0))
    assert noisy.splitlines()[0] == "gamma,rate,distortion,sigma_z2"
    assert noisy.splitlines()[1].endswith(",1")
    rows = output.region_rows(points, sigma_z2=1.0)
    assert list(rows[0]) == ["gamma", "rate", "distortion", "sigma_z2"]


def test_trace_csv_schemas():
    n = 3
    single = {name: np.arange(n, dtype=float) for name in ("X", "Y", "theta_hat", "S", "S_hat")}
    text = output.trace_csv(single)
    lines = text.splitlines()
    assert lines[0] == "t,X,Y,theta_hat,S,S_hat"
    assert lines[1].startswith("1,") and lines[3].startswith("3,")
    joint = {
        name: np.arange(n, dtype=float)
        for name in ("X1", "X2", "Y", "theta1_hat", "theta2_hat", "S", "S_hat")
    }
    assert output.trace_csv(joint).splitlines()[0] == (
        "t,X1,X2,Y,theta1_hat,theta2_hat,S,S_hat"
    )


def test_rows_csv_order_and_empty():
    rows = [{"b": 1, "a": 2.0}, {"b": 3, "a": 4.0}]
    assert output.rows_csv(rows) == "b,a\n1,2\n3,4\n"
    assert output.rows_csv([]) == "\n"


def test_report_csv_flattens_nesting():
    text = output.report_csv({"top": {"inner": 1}, "list": [2.5, "x"], "flags": []})
    assert text == "key,value\ntop.inner,1\nlist.0,2.5\nlist.1,x\n"


def test_json_text_is_stable():
    text = output.json_text({"a": 1.0})
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 1.0}


def test_write_text_targets(tmp_path, capsys):
    output.write_text("hello\n")
    assert capsys.readouterr().out == "hello\n"
    path = tmp_path / "out.csv"
    output.write_text("a,b\n1,2\n", str(path))
    assert path.read_bytes() == b"a,b\n1,2\n"


# ---------------------------------------------------------------------------
# region and rho-star commands


def test_region_dpc_fb_frozen_rows(capsys):
    code, out, _ = run_cli(
        capsys, "region", "dpc-fb", "--P", "10", "--Q", "10", "--sigma2", "5", "--grid", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma,rate,distortion"
    assert lines[1] == "0,0,1.11111111111"
    assert lines[2] == "0.5,0.5,2.55479161795"
    assert lines[3].startswith("1,") and lines[3].endswith(",6")
    assert len(lines) == 4


def test_region_noisy_appends_sigma_z2(capsys):
    code, out, _ = run_cli(
        capsys, "region", "noisy", "--P", "7.7", "--Q", "10", "--sigma2", "5",
        "--sigma_z2", "1", "--grid", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma,rate,distortion,sigma_z2"
    assert all(line.endswith(",1") for line in lines[1:])


def test_region_mac_variants(capsys):
    base = ["--P1", "10", "--P2", "10", "--Q", "10", "--sigma2", "5"]
    code, out, _ = run_cli(capsys, "region", "mac-fb", *base, "--grid", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma,beta,rho,r1_max,r2_max,rsum_max,d_min"
    assert len(lines) == 1 + 4  # 2 x 2 grid

    code, out, _ = run_cli(
        capsys, "region", "mac-fb", *base, "--grid", "2", "--beta-grid", "3",
        "--rho-grid", "5",
    )
    assert code == 0
    assert len(out.splitlines()) == 1 + 2 * 3 * 5

    code, out, _ = run_cli(capsys, "region", "mac-nofb", *base, "--grid", "2")
    assert code == 0
    for line in out.splitlines()[1:]:
        assert line.split(",")[2] == "0"  # no cooperation without feedback


def test_rho_star_outputs(capsys):
    argv = ["rho-star", "--P1", "5", "--P2", "5", "--sigma2", "5",
            "--gamma", "1", "--beta", "1"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == "0.311107817466\n"
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"rho_star": pytest.approx(0.31110781746598193)}


def test_rho_star_requires_split(capsys):
    code, _, err = run_cli(capsys, "rho-star", "--P1", "5", "--P2", "5", "--sigma2", "5")
    assert code == 2
    assert "gamma" in err


# ---------------------------------------------------------------------------
# simulate and sweep commands


SIM_DPC = ["simulate", "dpc", "--P", "10", "--Q", "10", "--sigma2", "5",
           "--gamma", "0.5", "--n", "15", "--rate_fraction", "0.5",
           "--trials", "100", "--seed", "7"]


def test_simulate_json_report(capsys):
    code, out, _ = run_cli(capsys, *SIM_DPC, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["scheme"] == "dpc"
    assert report["trials"] == 100
    assert report["rates"]["M"] >= 2
    assert set(report) == {
        "scheme", "config", "trials", "rates", "empirical", "theory", "deltas", "flags",
    }
    assert report["config"]["seed"] == 7


def test_simulate_csv_report(capsys):
    code, out, _ = run_cli(capsys, *SIM_DPC)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",")[0] for line in lines[1:]}
    assert {"scheme", "empirical.pe", "empirical.distortion", "theory.rate_cap"} <= keys


def test_simulate_repeat_is_byte_identical(capsys):
    _, first, _ = run_cli(capsys, *SIM_DPC, "--format", "json")
    _, second, _ = run_cli(capsys, *SIM_DPC, "--format", "json")
    assert first == second


def test_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, *SIM_DPC, "--format", "json", "--out", str(path))
    assert code == 0 and out == ""
    _, stdout_text, _ = run_cli(capsys, *SIM_DPC, "--format", "json")
    assert path.read_text(encoding="utf-8") == stdout_text


def test_config_file_with_flag_override(tmp_path, capsys):
    config = {"P": 10, "Q": 10, "sigma2": 5, "gamma": 0.25, "n": 15,
              "rate_fraction": 0.5, "trials": 50, "seed": 3}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "simulate", "dpc", "--config", str(path), "--gamma", "0.5",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["config"]["gamma"] == 0.5
    assert report["config"]["trials"] == 50


def test_config_key_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"P": 10, "Q": 10, "sigma2": 5, "bandwidth": 1}),
                   encoding="utf-8")
    code, _, err = run_cli(capsys, "region", "dpc-fb", "--config", str(bad))
    assert code == 2 and "bandwidth" in err

    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps({"P": 10, "Q": 10, "sigma2": 5, "beta": 0.5}),
                       encoding="utf-8")
    code, _, err = run_cli(capsys, "region", "dpc-fb", "--config", str(foreign))
    assert code == 2 and "beta" in err


def test_usage_and_config_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["region", "dpc-fb", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()

    code, _, err = run_cli(capsys, "region", "dpc-fb", "--Q", "10", "--sigma2", "5")
    assert code == 2 and "P" in err

    code, _, _ = run_cli(
        capsys, "region", "dpc-fb", "--P", "10", "--Q", "10", "--sigma2", "5",
        "--grid", "0",
    )
    assert code == 2

    code, _, _ = run_cli(capsys, *SIM_DPC[:-2], "--seed", "-1")
    assert code == 2


def test_runtime_error_exit_code(capsys):
    # gamma = 0 leaves encoder 1 with no message power, a runtime failure
    code, _, err = run_cli(
        capsys, "simulate", "mac", "--P1", "10", "--P2", "10", "--Q", "10",
        "--sigma2", "5", "--gamma", "0", "--beta", "0.8", "--n", "10",
        "--rate_fraction", "0.5", "--trials", "10",
    )
    assert code == 1
    assert "error:" in err


def test_unwritable_out_path(tmp_path, capsys):
    target = tmp_path / "missing" / "report.csv"
    code, _, err = run_cli(capsys, *SIM_DPC, "--out", str(target))
    assert code == 1 and "error:" in err


def test_dump_traces_writes_per_trial_files(tmp_path, capsys):
    directory = tmp_path / "traces"
    code, _, _ = run_cli(capsys, *SIM_DPC[:-2], "--seed", "7", "--trials", "3",
                         "--dump-traces", str(directory))
    assert code == 0
    names = sorted(os.listdir(directory))
    assert names == ["trial_000000.csv", "trial_000001.csv", "trial_000002.csv"]
    lines = (directory / "trial_000000.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,X,Y,theta_hat,S,S_hat"
    assert len(lines) == 1 + 15
    assert lines[1].split(",")[0] == "1"


def test_dump_traces_mac_schema(tmp_path, capsys):
    directory = tmp_path / "mac_traces"
    code, _, _ = run_cli(
        capsys, "simulate", "mac", "--P1", "10", "--P2", "10", "--Q", "10",
        "--sigma2", "5", "--gamma", "0.8", "--beta", "0.8", "--n", "8",
        "--rate_fraction", "0.4", "--trials", "2", "--seed", "1",
        "--dump-traces", str(directory),
    )
    assert code == 0
    lines = (directory / "trial_000000.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,X1,X2,Y,theta1_hat,theta2_hat,S,S_hat"
    first = lines[1].split(",")
    assert first[5] == "nan"  # decoder 2 has seen nothing at t = 1
    second = lines[2].split(",")
    assert second[4] == first[4]  # decoder 1 idles through slot 2
    assert lines[1].split(",")[-1] == "0"  # no estimate before the first output


def test_sweep_dpc_csv(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "dpc", "--P", "10", "--Q", "10", "--sigma2", "5",
        "--n", "12", "--rate_fraction", "0.5", "--grid", "2",
        "--trials", "60", "--seed", "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma,rate,pe,distortion,rate_cap,theory_distortion"
    assert lines[1].startswith("0,0,0,")  # gamma = 0 carries no message
    assert len(lines) == 3


def test_sweep_noisy_and_mac_columns(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "noisy", "--P", "7.7", "--Q", "10", "--sigma2", "5",
        "--sigma_z2", "1", "--n", "12", "--rate_fraction", "0.5", "--grid", "2",
        "--trials", "40",
    )
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header[:2] == ["gamma", "sigma_z2"]
    assert "theory_distortion_scheme" in header

    code, out, _ = run_cli(
        capsys, "sweep", "mac", "--P1", "10", "--P2", "10", "--Q", "10",
        "--sigma2", "5", "--n", "10", "--rate_fraction", "0.4", "--grid", "2",
        "--beta-grid", "2", "--trials", "40",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split(",") == ["gamma", "beta", "rho_star", "rate1", "rate2",
                                   "pe1", "pe2", "distortion", "r1_max", "r2_max",
                                   "rsum_max", "d_min"]
    assert lines[1].split(",")[5] == "nan"  # gamma = 0 rows are theory-only
    assert lines[4].split(",")[5] != "nan"  # gamma = beta = 1 simulates


def test_sweep_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "dpc", "--P", "10", "--Q", "10", "--sigma2", "5",
        "--n", "12", "--rate_fraction", "0.5", "--grid", "2",
        "--trials", "40", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2 and rows[0]["gamma"] == 0.0


CHANNEL_MAC = ["--P1", "10", "--P2", "10", "--Q", "10", "--sigma2", "5"]


FIXED_RATE_SWEEPS = {
    "dpc": (["--P", "10", "--Q", "10", "--sigma2", "5"], ["rate_cap", "theory_distortion"]),
    "noisy": (["--P", "7.7", "--Q", "10", "--sigma2", "5", "--sigma_z2", "1"],
              ["rate_cap", "theory_distortion", "theory_distortion_scheme"]),
}


@pytest.mark.parametrize("scheme", sorted(FIXED_RATE_SWEEPS))
def test_sweep_at_fixed_rate_keeps_the_gamma_zero_row(capsys, scheme):
    channel, theory = FIXED_RATE_SWEEPS[scheme]
    code, out, err = run_cli(capsys, "sweep", scheme, *channel, "--n", "20", "--rate", "0.1",
                             "--grid", "3", "--trials", "30", "--format", "json")
    assert code == 0, err
    rows = json.loads(out)
    assert [row["gamma"] for row in rows] == [0.0, 0.5, 1.0]
    measured = ["rate", "pe", "distortion"]
    # gamma = 0 cannot carry the M = 4 messages of rate 0.1 at n = 20
    assert all(math.isnan(rows[0][key]) for key in measured)
    assert all(math.isfinite(rows[0][key]) for key in theory)
    for row in rows[1:]:
        assert row["rate"] == 0.1
        assert all(math.isfinite(row[key]) for key in measured + theory)


# sweeps in which every point is degenerate: gamma = 0 alone under a fixed
# rate, and a two-encoder channel without encoder 1's power
ALL_DEGENERATE_SWEEPS = {
    "dpc": (["sweep", "dpc", "--P", "10", "--Q", "10", "--sigma2", "5", "--grid", "1",
             "--n", "20", "--rate", "0.1"], ["rate", "pe", "distortion"], 1),
    "mac": (["sweep", "mac", "--P1", "0", "--P2", "10", "--Q", "10", "--sigma2", "5",
             "--grid", "3", "--n", "20", "--rate_fraction", "0.5"],
            ["rate1", "rate2", "pe1", "pe2", "distortion"], 9),
}


@pytest.mark.parametrize("scheme", sorted(ALL_DEGENERATE_SWEEPS))
def test_an_all_degenerate_sweep_gives_nan_rows_without_a_draw(capsys, monkeypatch, scheme):
    argv, measured, count = ALL_DEGENERATE_SWEEPS[scheme]
    drawn = []
    for name in ("normal_block", "message"):
        monkeypatch.setattr(harness.RandomPlan, name, lambda *args: drawn.append(args))
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    rows = json.loads(out)
    assert len(rows) == count
    assert all(math.isnan(row[key]) for row in rows for key in measured)
    assert drawn == []


PAPER_SGN_MAC = CHANNEL_MAC + ["--n", "40", "--rate_fraction", "0.25", "--trials", "60",
                               "--seed", "3", "--format", "json"]


def test_paper_sgn_reaches_the_mac_report(capsys):
    split = ["--gamma", "0.8", "--beta", "0.8"]
    code, out, _ = run_cli(capsys, "simulate", "mac", *PAPER_SGN_MAC, *split, "--paper-sgn")
    assert code == 0
    rho_final = json.loads(out)["theory"]["rho_final"]
    coeffs = sk_dpmac.mac_coefficients(MacParams(10, 10, 10, 5), 0.8, 0.8, 40, paper_sgn=True)
    assert rho_final == coeffs.rho[-1]
    assert math.copysign(1.0, rho_final) == -1.0  # the sign rule silenced encoder 2
    code, out, _ = run_cli(capsys, "simulate", "mac", *PAPER_SGN_MAC, *split)
    assert code == 0
    assert json.loads(out)["theory"]["rho_final"] == pytest.approx(0.4015, abs=1e-4)


def test_sweep_paper_sgn_row_matches_simulate(capsys):
    code, out, _ = run_cli(capsys, "sweep", "mac", *PAPER_SGN_MAC, "--grid", "2", "--paper-sgn")
    assert code == 0
    row = json.loads(out)[-1]
    assert (row["gamma"], row["beta"]) == (1.0, 1.0)
    code, out, _ = run_cli(capsys, "simulate", "mac", *PAPER_SGN_MAC,
                           "--gamma", "1", "--beta", "1", "--paper-sgn")
    assert code == 0
    report = json.loads(out)
    values = {**report["rates"], **report["empirical"]}
    measured = ("rate1", "rate2", "pe1", "pe2", "distortion")
    assert {key: row[key] for key in measured} == {key: values[key] for key in measured}
    code, out, _ = run_cli(capsys, "sweep", "mac", *PAPER_SGN_MAC, "--grid", "2")
    default = json.loads(out)[-1]
    assert default["pe2"] != row["pe2"]  # the flag changed the simulated loop


@pytest.mark.parametrize("scheme, shared, simulate_only", [
    ("mac", CHANNEL_MAC + ["--n", "2", "--trials", "5"], ["--gamma", "0.5", "--beta", "0.5"]),
    ("dpc", ["--Q", "10", "--sigma2", "5", "--n", "10", "--trials", "5"], ["--gamma", "0.5"]),
])
def test_sweep_and_simulate_share_validation(capsys, scheme, shared, simulate_only):
    code_sim, _, err_sim = run_cli(capsys, "simulate", scheme, *shared, *simulate_only)
    code_sweep, out_sweep, err_sweep = run_cli(capsys, "sweep", scheme, *shared, "--grid", "1")
    assert code_sim == code_sweep == 2
    assert out_sweep == ""
    assert err_sim == err_sweep
    assert ("n >= 3" if scheme == "mac" else "P is required for the dpc scheme") in err_sim


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_scheme_is_named_alike_by_harness_params_and_parser():
    # a scheme added in one of these places and not the others fails here
    commands = _subcommands(cli.build_parser())
    assert list(harness._SCHEMES) == list(CHANNELS)
    for command in ("simulate", "sweep"):
        assert list(_subcommands(commands[command])) == list(CHANNELS), command


LONG_BLOCKS = {
    # scheme: (flags, accepted n, rejected n, longest n the recursion supports)
    "dpc": (["--P", "10", "--Q", "10", "--sigma2", "5", "--gamma", "1"], 640, 660, 642),
    "mac": (CHANNEL_MAC + ["--gamma", "0.8", "--beta", "0.8"], 400, 450, 414),
}


@pytest.mark.parametrize("scheme", sorted(LONG_BLOCKS))
def test_long_blocks_are_rejected(capsys, scheme):
    flags, accepted, rejected, longest = LONG_BLOCKS[scheme]
    argv = ["simulate", scheme, *flags, "--rate", "0.05", "--trials", "20", "--format", "json"]
    code, out, err = run_cli(capsys, *argv, "--n", str(rejected))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.rstrip().endswith(f"the longest block is n = {longest}")
    code, out, _ = run_cli(capsys, *argv, "--n", str(accepted))
    assert code == 0
    assert "NaN" not in out and "Infinity" not in out


def test_a_mac_variance_that_outruns_its_gain_is_rejected(capsys):
    # alpha1 falls to about 4e-301 while alpha2 stays near 1, so alpha1*alpha2
    # stays normal but gamma*P1/alpha1 overflows: the gain went inf and the
    # report read NaN with exit 0
    argv = ["simulate", "mac", "--P1", "1e12", "--P2", "1", "--Q", "1e50", "--sigma2", "10",
            "--gamma", "0.5", "--beta", "0.5", "--trials", "3", "--format", "json"]
    code, out, err = run_cli(capsys, *argv, "--n", "30")
    assert code == 2 and out == ""
    assert err.rstrip().endswith("the longest block is n = 28")
    code, out, _ = run_cli(capsys, *argv, "--n", "28")
    assert code == 0
    assert "NaN" not in out and "Infinity" not in out


GAIN_LIMIT = ["mac", "--P1", "1e12", "--P2", "1", "--Q", "1e50", "--sigma2", "10",
              "--gamma", "0.5", "--beta", "0.5", "--n", "30"]


def test_a_long_block_message_names_the_limit_that_fired(capsys):
    # the per-variance floor max(float_info.min, power/float_info.max) and the
    # MAC's alpha1*alpha2 bound once all read "underflows float64"
    dpc, mac = LONG_BLOCKS["dpc"][0], LONG_BLOCKS["mac"][0]
    cases = [
        (GAIN_LIMIT, "the gain sqrt(gamma*P1/variance) overflows float64 after step 29", 28),
        (["mac", *mac, "--n", "450"], "alpha1*alpha2 underflows float64 at step 415", 414),
        (["dpc", *dpc, "--n", "660"], "the gain sqrt(gamma*P/variance) overflows float64", 642),
        (["dpc", "--P", "1", "--Q", "10", "--sigma2", "5", "--gamma", "1", "--n", "5000",
          "--rate", "0.0001"], "the error variance underflows float64 at step 3882", 3881),
    ]
    for argv, limit, longest in cases:
        code, out, err = run_cli(capsys, "simulate", *argv, "--trials", "3")
        assert code == 2 and out == "", argv
        assert limit in err and err.rstrip().endswith(f"the longest block is n = {longest}")


HUGE_BLOCKS = {
    # scheme: (flags, message); n*rate stays under the rate exponent's bound, so
    # the first check n met was numpy's own size limit, with a ValueError traceback
    "dpc": (["--P", "10", "--Q", "10", "--sigma2", "5", "--gamma", "0.5"],
            "the longest block is n = 1019"),
    "noisy": (["--P", "10", "--Q", "10", "--sigma2", "5", "--sigma_z2", "1", "--gamma", "0.5"],
              "the longest block is n = 1152"),
    "mac": (CHANNEL_MAC + ["--gamma", "0.8", "--beta", "0.8"], "the longest block is n = 414"),
    # gamma*P/sigma2 = 1e-17 leaves alpha where it is, so the recursion never
    # reaches its floor; it stops once it has run long enough to check the block
    "dpc-stalled": (["--P", "1e-17", "--Q", "10", "--sigma2", "1", "--gamma", "1"],
                    "its per-step coefficients do not fit in memory"),
    "mac-stalled": (["--P1", "1e-17", "--P2", "1e-17", "--Q", "10", "--sigma2", "1",
                     "--gamma", "1", "--beta", "1"],
                    "its per-step coefficients do not fit in memory"),
    # gamma*P = 0 runs no recursion to name a longest block; numpy's size limit
    # on the forwarding record once ended in a ValueError traceback with exit 1
    "dpc-forwarding": (["--P", "10", "--Q", "10", "--sigma2", "5", "--gamma", "0"],
                       "its per-step coefficients do not fit in memory"),
    "noisy-forwarding": (["--P", "10", "--Q", "10", "--sigma2", "5", "--sigma_z2", "1",
                          "--gamma", "0"], "its per-step coefficients do not fit in memory"),
}


@pytest.mark.parametrize("name", sorted(HUGE_BLOCKS))
def test_a_block_numpy_cannot_hold_is_rejected_in_one_line(capsys, name):
    flags, message = HUGE_BLOCKS[name]
    argv = ["simulate", name.split("-")[0], *flags, "--n", "100000000000000000000",
            "--rate", "1e-30", "--trials", "5"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: n = 100000000000000000000 is too long") and err.count("\n") == 1
    assert err.rstrip().endswith(message)


#: gamma*P/sigma2 = 5e15 lies past the closed form's range and the recursion stops at step 2
CANCELLING = {
    "dpc": ["--P", "1e10", "--Q", "1", "--sigma2", "1e-6", "--gamma", "0.5"],
    "noisy": ["--P", "1e10", "--Q", "1", "--sigma2", "1e-6", "--sigma_z2", "0", "--gamma", "0.5"],
}


@pytest.mark.parametrize("scheme", sorted(CANCELLING))
def test_a_recursion_that_stops_names_its_stop_at_an_n_numpy_cannot_hold(capsys, scheme):
    # at n = 1e20 the verdict on the record once came first and said it does not fit
    errors = []
    for n in ("1000", "100000000000000000000"):
        code, out, err = run_cli(capsys, "simulate", scheme, *CANCELLING[scheme], "--n", n,
                                 "--rate", "1e-30", "--trials", "5")
        assert code == 2 and out == "" and err.count("\n") == 1
        errors.append(err)
    assert errors[0] == errors[1]
    assert errors[1].rstrip().endswith(
        "= 5e+15 is too large: the error variance update cancels in float64 at step 2")
    assert (noisy_obs.EQUIVALENT_NOISE in errors[1]) == (scheme == "noisy")


#: The runs above by name, each with its channel and split flags
VERDICTS = {**{name: flags for name, (flags, _) in HUGE_BLOCKS.items()},
            **{f"{scheme}-cancelling": flags for scheme, flags in CANCELLING.items()}}


def _coefficient_call(name, n):
    """The public coefficient call of the run VERDICTS names: its split's recursion, on
    the noisy scheme's equivalent channel, or its forwarding record at gamma = 0."""
    scheme, flags = name.split("-")[0], VERDICTS[name]
    keys = {flag[2:]: float(value) for flag, value in zip(flags[::2], flags[1::2])}
    gamma, beta = keys.pop("gamma"), keys.pop("beta", None)
    channel, noise = CHANNELS[scheme](**keys), "sigma2"
    if scheme == "mac":
        return lambda: sk_dpmac.mac_coefficients(channel, gamma, beta, n)
    if scheme == "noisy":
        channel, noise = noisy_obs.make_equivalent(channel), noisy_obs.EQUIVALENT_NOISE
    if gamma:
        return lambda: sk_dpc.compute_coefficients(channel, gamma, n, noise)
    return lambda: sk_dpc.forwarding_coefficients(channel, gamma, n)


def _no_step(*args):
    raise AssertionError("the recursion ran a step")


def test_a_public_call_gives_the_clis_verdict(capsys, monkeypatch):
    # at n = 10**20 a direct dpc or noisy call named its record, where the run
    # named the variance update that cancels at step 2; forwarding runs no step
    n = 10**20
    for name, flags in sorted(VERDICTS.items()):
        code, _, err = run_cli(capsys, "simulate", name.split("-")[0], *flags, "--n", str(n),
                               "--rate", "1e-30", "--trials", "5")
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, name
        with monkeypatch.context() as patch:
            if name.endswith("forwarding"):
                patch.setattr(sk_dpc, "_check_variance", _no_step)
            with pytest.raises(ConfigError) as info:
                _coefficient_call(name, n)()
        assert f"error: {info.value}\n" == err, name
        assert info.value.field == ("gamma" if name.endswith("cancelling") else "n"), name


#: A bad value of gamma or n for each scheme, and its label
BAD_KEYS = {
    **{f"{scheme}-n-{label}": (scheme, "n", value) for scheme in ("dpc", "noisy")
       for label, value in (("0", 0), ("1", 1), ("10.5", 10.5), ("text", "10"),
                            ("true", True), ("huge", 10**400))},
    **{f"mac-n-{label}": ("mac", "n", value)
       for label, value in (("2", 2), ("10.5", 10.5), ("text", "10"), ("true", True),
                            ("huge", 10**400))},
    **{f"{scheme}-gamma-{label}": (scheme, "gamma", value) for scheme in sorted(CHANNELS)
       for label, value in (("-0.1", -0.1), ("1.5", 1.5), ("nan", math.nan), ("huge", 10**400),
                            ("text", "0.5"), ("true", True), ("none", None))},
}


def _key_call(scheme, key, value):
    """The scheme's public coefficient call on the values of RUNS, ``key`` set to ``value``."""
    run = {**RUNS[scheme], key: value}
    channel = CHANNELS[scheme](**{k: v for k, v in run.items()
                                  if k not in ("gamma", "beta", "n", "trials")})
    if scheme == "mac":
        return lambda: sk_dpmac.mac_coefficients(channel, run["gamma"], run["beta"], run["n"])
    if scheme == "noisy":
        channel = noisy_obs.make_equivalent(channel)
    return lambda: sk_dpc.compute_coefficients(channel, run["gamma"], run["n"])


@pytest.mark.parametrize("name", sorted(BAD_KEYS))
def test_a_public_call_gives_the_clis_message_for_a_bad_key(capsys, tmp_path, name):
    # the coefficient functions checked gamma and n with copies of their own: gamma =
    # "0.5" raised TypeError, True was accepted, and NaN, mac's n = 2 and a huge n
    # read differently; each value goes through a config file, as text would
    scheme, key, value = BAD_KEYS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}), encoding="utf-8")
    flags = _flags({k: v for k, v in RUNS[scheme].items() if k != key})
    cli_run = run_cli(capsys, "simulate", scheme, *flags, "--config", str(path))
    with pytest.raises(ConfigError) as info:
        _key_call(scheme, key, value)()
    assert cli_run == (2, "", f"error: {info.value}\n") and info.value.field == key


@pytest.mark.parametrize("name, module, function", [
    ("dpc-cancelling", sk_dpc, "compute_coefficients"),
    ("mac", sk_dpmac, "mac_coefficients"),
], ids=["dpc-cancelling", "mac"])
def test_a_runs_verdict_calls_the_public_coefficient_function(capsys, monkeypatch, name, module,
                                                               function):
    # the dpc verdict ran a copy of the recursion's first 2**16 steps of its own
    calls = []
    public = getattr(module, function)

    def counted(*args, **kwargs):
        calls.append(args)
        return public(*args, **kwargs)

    monkeypatch.setattr(module, function, counted)
    code, out, _ = run_cli(capsys, "simulate", name.split("-")[0], *VERDICTS[name], "--n",
                           "100000000000000000000", "--rate", "1e-30", "--trials", "5")
    assert code == 2 and out == "" and len(calls) == 1


def test_a_sweep_names_a_points_longest_block_before_the_runs_draws(capsys):
    # the gamma = 0 point's verdict probed the batch's draws and named them first
    code, out, err = run_cli(capsys, "sweep", "dpc", *CHANNEL_DPC, "--grid", "2", "--n",
                             "1000000000000000", "--rate", "1e-30", "--trials", "5")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.rstrip().endswith("the longest block is n = 642")


def test_a_sweep_whose_block_numpy_cannot_hold_is_rejected_in_one_line(capsys):
    # its gamma = 0 point resolves first and once ended in numpy's ValueError traceback
    code, out, err = run_cli(capsys, "sweep", "dpc", *CHANNEL_DPC, "--grid", "2", "--n",
                             "100000000000000000000", "--rate", "1e-30", "--trials", "5")
    assert code == 2 and out == ""
    assert err.startswith("error: n = 100000000000000000000 is too long") and err.count("\n") == 1


@pytest.mark.parametrize("scheme", sorted(CHANNELS))
def test_a_block_numpy_cannot_hold_is_a_config_error_in_the_library(scheme):
    # at every split, gamma*P = 0 included, for one run and for a sweep
    channel = {"dpc": DpcParams(10, 10, 5), "mac": MacParams(10, 10, 10, 5),
               "noisy": NoisyObsParams(10, 10, 5, 1)}[scheme]
    block, plan = BlockConfig(n=10**20, rate=1e-30), harness.RandomPlan(7)
    fractions = PowerSplit(0.0, 0.5 if scheme == "mac" else None)
    for run in (lambda: harness.run_experiment(scheme, channel, [fractions], block, 5, plan),
                lambda: harness.sweep(scheme, channel, [0.0, 1.0], block, 5, plan)):
        with pytest.raises(ConfigError) as info:
            run()
        assert info.value.field == "n" and str(info.value).startswith("n = 10")


BAD_GRIDS = {
    "grid": ["sweep", "dpc", "--P", "10", "--Q", "10", "--sigma2", "5", "--n", "10",
             "--trials", "5", "--grid", "2.5"],
    "beta-grid": ["region", "mac-fb", *CHANNEL_MAC, "--beta-grid", "1e3"],
    "rho-grid": ["region", "mac-fb", *CHANNEL_MAC, "--rho-grid", "x"],
}


@pytest.mark.parametrize("name", sorted(BAD_GRIDS))
def test_a_bad_grid_size_fails_like_a_bad_key(capsys, name):
    # grid flags once took argparse's int and ended in its usage text
    code, out, err = run_cli(capsys, *BAD_GRIDS[name])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {name} must be a positive integer") and err.count("\n") == 1


CHANNEL_DPC = ["--P", "10", "--Q", "10", "--sigma2", "5"]
HUGE_COUNTS = {
    # command: (the flag the count goes to last, the command without it)
    "simulate-dpc": ("trials", ["simulate", "dpc", *CHANNEL_DPC, "--gamma", "0.5", "--n", "30"]),
    "simulate-mac": ("trials", ["simulate", "mac", *CHANNEL_MAC, "--gamma", "0.8",
                                "--beta", "0.8", "--n", "30"]),
    "sweep-noisy": ("trials", ["sweep", "noisy", *CHANNEL_DPC, "--sigma_z2", "1", "--n", "30"]),
    "sweep-dpc": ("grid", ["sweep", "dpc", *CHANNEL_DPC, "--n", "30", "--trials", "5"]),
    "region-dpc-fb": ("grid", ["region", "dpc-fb", *CHANNEL_DPC]),
    "region-mac-fb": ("rho-grid", ["region", "mac-fb", *CHANNEL_MAC, "--grid", "2"]),
    "region-mac-nofb": ("beta-grid", ["region", "mac-nofb", *CHANNEL_MAC, "--grid", "2"]),
}


# numpy refuses these counts without allocating; only such counts are tried here
@pytest.mark.parametrize("count", [10**21, 2**62, 2**63 - 1, 2**63])
@pytest.mark.parametrize("name", sorted(HUGE_COUNTS))
def test_a_count_numpy_cannot_allocate_is_rejected_in_one_line(capsys, name, count):
    # the allocation's ValueError or MemoryError once ended in a traceback
    flag, argv = HUGE_COUNTS[name]
    code, out, err = run_cli(capsys, *argv, f"--{flag}", str(count))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} = {count} is too") and err.count("\n") == 1
    assert err.rstrip().endswith("do not fit in memory")


REGION_DPC = ["region", "dpc-fb", *CHANNEL_DPC]
GRID_ERRORS = {
    # the argv, and its stderr as it read before the library checked grid counts
    "grid-0": ([*REGION_DPC, "--grid", "0"], "grid must be a positive integer, got 0"),
    "grid-minus-1": ([*REGION_DPC, "--grid", "-1"], "grid must be a positive integer, got -1"),
    "grid-True": ([*REGION_DPC, "--grid", "True"],
                  "grid must be a positive integer, got 'True'"),
    "beta-grid-2.5": (["region", "mac-fb", *CHANNEL_MAC, "--beta-grid", "2.5"],
                      "beta-grid must be a positive integer, got 2.5"),
    "rho-grid-x": (["region", "mac-fb", *CHANNEL_MAC, "--rho-grid", "x"],
                   "rho-grid must be a positive integer, got 'x'"),
    "grid-1e21": ([*REGION_DPC, "--grid", str(10**21)],
                  f"grid = {10**21} is too large: its points do not fit in memory"),
}


@pytest.mark.parametrize("name", sorted(GRID_ERRORS))
def test_a_bad_grid_count_keeps_its_error_line(capsys, name):
    argv, message = GRID_ERRORS[name]
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


TINY_SPLIT = {
    "dpc": ["--P", "10", "--Q", "10", "--sigma2", "5"],
    "mac": CHANNEL_MAC + ["--beta", "0.5"],
    "noisy": ["--P", "10", "--Q", "10", "--sigma2", "5", "--sigma_z2", "1"],
}


@pytest.mark.parametrize("gamma", ["1e-310", "1e-309"])
@pytest.mark.parametrize("scheme", sorted(TINY_SPLIT))
def test_tiny_message_power_is_rejected(capsys, scheme, gamma):
    # sigma2/(12 gamma P) overflows float64 at gamma = 1e-310 but not at 1e-309
    argv = ["simulate", scheme, *TINY_SPLIT[scheme], "--gamma", gamma,
            "--n", "10", "--trials", "10", "--format", "json"]
    code, out, err = run_cli(capsys, *argv)
    if gamma == "1e-310":
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert "overflows float64" in err
    else:
        assert code == 0
        assert "NaN" not in out and "Infinity" not in out


def test_tiny_noisy_message_power_names_the_equivalent_noise(capsys):
    # the loop runs on the equivalent channel, whose noise the first variance divides;
    # the message once said sigma2/(12 gamma P)
    argv = ["simulate", "noisy", *TINY_SPLIT["noisy"], "--gamma", "1e-310", "--n", "10",
            "--trials", "10"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert ("the first error variance (the equivalent channel's noise kappa*sigma_z2 + sigma2)"
            "/(12 gamma*P) overflows float64") in err


CANCELLING_SPLITS = {
    "dpc-n2": ["dpc", "--P", "1e10", "--Q", "1", "--sigma2", "1e-6", "--gamma", "0.5",
               "--n", "2"],
    "dpc-n20": ["dpc", "--P", "1e10", "--Q", "1", "--sigma2", "1e-6", "--gamma", "0.5",
                "--n", "20"],
    "noisy": ["noisy", "--P", "1e10", "--Q", "1", "--sigma2", "1e-6", "--sigma_z2", "1e-9",
              "--gamma", "0.5", "--n", "20"],
    "mac-both-negative": ["mac", "--P1", "1e10", "--P2", "1e10", "--Q", "1", "--sigma2", "1e-6",
                          "--gamma", "0.5", "--beta", "0.5", "--n", "20"],
    "mac-tiny-negative": ["mac", "--P1", "1e17", "--P2", "1e17", "--Q", "1", "--sigma2", "1",
                          "--gamma", "0.5", "--beta", "0.5", "--n", "4"],
}


@pytest.mark.parametrize("name", sorted(CANCELLING_SPLITS))
def test_variance_cancellation_is_rejected(capsys, name):
    # a variance update that cancels to <= 0 once named an impossible longest
    # block (n = 1 or 2), raised a math domain error, or gave a report with exit 0
    code, out, err = run_cli(capsys, "simulate", *CANCELLING_SPLITS[name], "--trials", "20")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert "cancels in float64" in err and "longest block" not in err


def test_noisy_cancellation_names_the_equivalent_noise(capsys):
    # the loop runs on the equivalent channel, whose noise kappa*sigma_z2 + sigma2 = 2e-6
    # is twice the user's sigma2; the message once quoted its 5e15 as gamma*P/sigma2,
    # while the user's gamma*P/sigma2 is 1e16
    argv = ["simulate", "noisy", "--P", "2e10", "--Q", "1", "--sigma2", "1e-6",
            "--sigma_z2", "1e-6", "--gamma", "0.5", "--n", "20", "--trials", "5"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert "gamma*P/sigma2" not in err and "cancels in float64" in err
    assert "equivalent channel's noise kappa*sigma_z2 + sigma2) = 5e+15" in err


# Y_1 cancels S_1 against the offset, and on the theta scale that rounds terms
# of size omega sqrt(Q / (12 gamma P)); where that reaches half a grid step, the
# decoder errs although the exact error rate is near 0. So the limit scales with
# sqrt(Q / (gamma P)), not with n*rate alone. Each input names the error
# rates its report must hold.
FINER_THAN_FLOAT64 = {
    # n*rate = 48 bits and alpha_n is near 1e-261; the theta scale is ~9
    "dpc-48-bits": (("pe",), ["dpc", "--P", "10", "--Q", "1e4", "--sigma2", "1e-12",
                              "--gamma", "1", "--n", "20", "--rate", "2.4"]),
    # M = 21 (4.4 bits) under a state of Q = 1e32; steady_power reads 1.3 against P = 1
    "dpc-large-state": (("pe",), ["dpc", "--P", "1", "--Q", "1e32", "--sigma2", "1",
                                  "--gamma", "0.5", "--n", "30", "--rate_fraction", "0.5"]),
    # M1 = M2 = 19 under the same state
    "mac-large-state": (("pe1", "pe2"), ["mac", "--P1", "1", "--P2", "1", "--Q", "1e32",
                                         "--sigma2", "1", "--gamma", "0.5", "--beta", "0.5",
                                         "--n", "30", "--rate_fraction", "0.5"]),
}


@pytest.mark.xfail(strict=True, reason="a message grid finer than float64 resolves is accepted")
@pytest.mark.parametrize("name", sorted(FINER_THAN_FLOAT64))
def test_message_grid_finer_than_float64_is_rejected_or_decoded(capsys, name):
    keys, command = FINER_THAN_FLOAT64[name]
    argv = ["simulate", *command, "--trials", "400", "--seed", "7", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2 or (code == 0 and all(json.loads(out)["empirical"][key] == 0.0
                                           for key in keys))


OVERFLOWING_CHANNELS = {
    "region-dpc-huge": ["region", "dpc-fb", "--P", "1e308", "--Q", "1e308", "--sigma2", "5"],
    "region-mac-huge": ["region", "mac-fb", "--P1", "1e160", "--P2", "1e160", "--Q", "1e160",
                        "--sigma2", "5"],
    "region-dpc-tiny-noise": ["region", "dpc-fb", "--P", "10", "--Q", "10",
                              "--sigma2", "1e-320"],
    "simulate-dpc-tiny-state": ["simulate", "dpc", "--P", "10", "--Q", "1e-320", "--sigma2", "5",
                                "--gamma", "0.5", "--n", "20", "--rate_fraction", "0.5",
                                "--trials", "20"],
    "simulate-mac-tiny-state": ["simulate", "mac", *CHANNEL_MAC[:4], "--Q", "1e-320",
                                "--sigma2", "5", "--gamma", "0.5", "--beta", "0.5", "--n", "20",
                                "--rate_fraction", "0.5", "--trials", "20"],
    "simulate-noisy-huge": ["simulate", "noisy", "--P", "1e100", "--Q", "1e-100",
                            "--sigma2", "1e100", "--sigma_z2", "1e100", "--gamma", "0.5",
                            "--n", "20", "--trials", "20"],
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_CHANNELS))
def test_channel_values_outside_the_float64_range_are_rejected(capsys, name):
    # each of these once printed NaN or inf with exit 0, or raised OverflowError
    code, out, err = run_cli(capsys, *OVERFLOWING_CHANNELS[name], "--format", "json")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def _all_finite(value):
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


EDGE = ("0", "1e-50", "1e50")
CORNER_COMMANDS = {
    "region-dpc-fb": (["region", "dpc-fb"], ("P", "Q"), ()),
    "region-noisy": (["region", "noisy"], ("P", "Q", "sigma_z2"), ()),
    "region-mac-fb": (["region", "mac-fb"], ("P1", "Q"), ()),
    "simulate-dpc": (["simulate", "dpc"], ("P", "Q"), ("--gamma", "0.5")),
    "simulate-noisy": (["simulate", "noisy"], ("P", "Q", "sigma_z2"), ("--gamma", "0.5")),
    "simulate-mac": (["simulate", "mac"], ("P1", "Q"), ("--gamma", "0.5", "--beta", "0.5")),
}


@pytest.mark.parametrize("name", sorted(CORNER_COMMANDS))
def test_channel_range_corners_give_finite_reports_or_errors(capsys, name):
    # every corner of the accepted channel range, with P1 = P2 for the two encoders
    command, keys, split = CORNER_COMMANDS[name]
    if command[0] == "simulate":
        split += ("--n", "20", "--rate_fraction", "0.5", "--trials", "20")
    else:
        split += ("--grid", "16")
    for values in itertools.product(*[EDGE] * len(keys), ("1e-50", "1e50")):
        flags = []
        for key, value in zip(keys + ("sigma2",), values):
            flags += [f"--{key}", value] + (["--P2", value] if key == "P1" else [])
        code, out, _ = run_cli(capsys, *command, *flags, *split, "--format", "json")
        if code == 0:
            assert _all_finite(json.loads(out)), flags
        else:
            assert code in (1, 2) and out == "", flags


@pytest.mark.parametrize("Q, sigma_z2, sigma2", [("1e-50", "1", "5"), ("1e50", "1e50", "1e50")])
def test_noisy_channel_runs_when_its_equivalent_channel_leaves_the_range(
    capsys, Q, sigma_z2, sigma2
):
    # kappa Q = 1e-100 in the first case, kappa sigma_z2 + sigma2 = 1.5e50 in the second;
    # the range bounds the values a user enters, not the ones the scheme derives
    code, out, _ = run_cli(capsys, "simulate", "noisy", "--P", "10", "--Q", Q,
                           "--sigma_z2", sigma_z2, "--sigma2", sigma2, "--gamma", "0.5",
                           "--n", "20", "--rate_fraction", "0.5", "--trials", "20",
                           "--format", "json")
    assert code == 0 and _all_finite(json.loads(out))


# ---------------------------------------------------------------------------
# flags and config files


#: A valid run of each scheme, as configuration-file values.
RUNS = {
    "dpc": {"P": 10, "Q": 10, "sigma2": 5, "gamma": 0.5, "n": 10, "trials": 5},
    "mac": {"P1": 10, "P2": 10, "Q": 10, "sigma2": 5, "gamma": 0.5, "beta": 0.5,
            "n": 10, "trials": 5},
    "noisy": {"P": 10, "Q": 10, "sigma2": 5, "sigma_z2": 1, "gamma": 0.5, "n": 10,
              "trials": 5},
}


def _flags(config):
    return [text for key, value in config.items() for text in (f"--{key}", str(value))]


def _run_both_ways(capsys, tmp_path, command, flags, config):
    """Exit code, stdout and stderr of ``command`` given ``config`` as flags
    and then as a config file, each time after ``flags``."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    by_flag = run_cli(capsys, *command, *flags, *_flags(config))
    by_file = run_cli(capsys, *command, *flags, "--config", str(path))
    return by_flag, by_file


FLOAT_KEYS = [key for key in CONFIG_KEYS if key not in ("n", "trials", "seed")]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_an_integer_beyond_float64_fails_cleanly(capsys, tmp_path, key):
    # float() of such an integer raises OverflowError; it must read as inf
    scheme = next((s for s, run in RUNS.items() if key in run), "dpc")
    flags = _flags({k: v for k, v in RUNS[scheme].items() if k != key})
    by_flag, by_file = _run_both_ways(capsys, tmp_path, ["simulate", scheme], flags,
                                      {key: 10**400})
    assert by_flag == by_file == (2, "", f"error: {key} must be finite, got inf\n")


def _without(config, *keys):
    return {k: v for k, v in config.items() if k not in keys}


SIGNED_ZEROS = {
    "simulate-dpc-Q-gamma0": (["simulate", "dpc"], {**RUNS["dpc"], "gamma": 0}, "Q"),
    **{f"simulate-dpc-{key}": (["simulate", "dpc"], RUNS["dpc"], key)
       for key in ("Q", "P", "gamma", "rate", "rate_fraction")},
    **{f"simulate-noisy-{key}": (["simulate", "noisy"], RUNS["noisy"], key)
       for key in ("Q", "sigma_z2")},
    **{f"simulate-mac-{key}": (["simulate", "mac"], RUNS["mac"], key) for key in ("Q", "beta")},
    "sweep-noisy-Q": (["sweep", "noisy", "--grid", "2"], _without(RUNS["noisy"], "gamma"), "Q"),
    "sweep-dpc-rate": (["sweep", "dpc", "--grid", "2"], _without(RUNS["dpc"], "gamma"), "rate"),
    **{f"region-{variant}-Q": (["region", variant, "--grid", "3"],
                               _without(RUNS[scheme], "gamma", "beta", "n", "trials"), "Q")
       for variant, scheme in (("dpc-fb", "dpc"), ("noisy", "noisy"), ("mac-fb", "mac"))},
}


@pytest.mark.parametrize("name", SIGNED_ZEROS)
def test_zero_has_one_sign(capsys, name):
    # validation stores -0.0 as +0.0, so neither the config echo nor any
    # value formed from it can print a negative zero
    command, config, key = SIGNED_ZEROS[name]
    negative, positive = (
        run_cli(capsys, *command, *_flags({**config, key: zero}), "--format", "json")
        for zero in ("-0.0", "0.0")
    )
    assert negative == positive


@pytest.mark.parametrize("scheme, command", [
    ("dpc", ["simulate", "dpc"]), ("mac", ["simulate", "mac"]), ("noisy", ["sweep", "noisy"]),
])
def test_a_block_length_beyond_float64_fails_cleanly(capsys, tmp_path, scheme, command):
    # n*rate and the finite-n targets are formed in float64, and once raised
    # OverflowError with a traceback
    base = {k: v for k, v in RUNS[scheme].items() if k != "n"}
    if command[0] == "sweep":
        base = {k: v for k, v in base.items() if k != "gamma"}
        command = command + ["--grid", "3"]
    by_flag, by_file = _run_both_ways(capsys, tmp_path, command, _flags(base), {"n": 10**400})
    expected = ("error: n must lie within float64's range (<= 1.798e+308), "
                "got an integer of 1329 bits\n")
    assert by_flag == by_file == (2, "", expected)


BAD_VALUES = {
    "trials": {"trials": 2.5},
    "n": {"n": 10.0},
    "rate-and-fraction": {"rate": 0.1, "rate_fraction": 0.3},
    "seed": {"seed": -1},
    "gamma": {"gamma": 1.5},
    "P": {"P": math.nan},
}


@pytest.mark.parametrize("command, case", [
    *[("simulate", case) for case in BAD_VALUES],
    *[("sweep", case) for case in BAD_VALUES if case != "gamma"],  # a sweep reads no gamma
])
def test_a_bad_flag_and_a_bad_config_entry_fail_alike(capsys, tmp_path, command, case):
    bad = BAD_VALUES[case]
    base = {k: v for k, v in RUNS["dpc"].items() if k not in bad}
    if command == "sweep":
        base.pop("gamma", None)
    flags = _flags(base) + (["--grid", "2"] if command == "sweep" else [])
    by_flag, by_file = _run_both_ways(capsys, tmp_path, [command, "dpc"], flags, bad)
    assert by_flag == by_file
    code, out, err = by_flag
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("scheme", CHANNELS)
def test_a_flag_and_a_config_entry_give_the_same_report(capsys, tmp_path, scheme):
    power = next(iter(RUNS[scheme]))
    flags = _flags({k: v for k, v in RUNS[scheme].items() if k not in (power, "gamma")})
    by_flag = run_cli(capsys, "simulate", scheme, *flags, f"--{power}", "10", "--gamma", "1",
                      "--format", "json")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({power: 10.0, "gamma": 1.0}), encoding="utf-8")
    by_file = run_cli(capsys, "simulate", scheme, *flags, "--config", str(path),
                      "--format", "json")
    assert by_flag[0] == 0 and by_flag == by_file


def _leaf_commands():
    """argv prefix and parser of every command that runs."""
    for name, command in _subcommands(cli.build_parser()).items():
        if any(isinstance(a, argparse._SubParsersAction) for a in command._actions):
            for variant, leaf in _subcommands(command).items():
                yield [name, variant], leaf
        else:
            yield [name], command


RHO_STAR = {"P1": 5, "P2": 5, "sigma2": 5, "gamma": 1, "beta": 1}


@pytest.mark.parametrize("command, grid, config, key", [
    (["sweep", "dpc"], ["--grid", "2"], RUNS["dpc"], "gamma"),
    (["region", "dpc-fb"], ["--grid", "2"], RUNS["dpc"], "gamma"),
    *[(["rho-star"], [], {**RHO_STAR, key: 1}, key) for key in ("n", "trials", "seed", "rate")],
], ids=["sweep-dpc", "region-dpc-fb", "rho-star-n", "rho-star-trials", "rho-star-seed",
        "rho-star-rate"])
def test_a_config_key_the_command_does_not_read_is_rejected(capsys, tmp_path, command, grid,
                                                            config, key):
    # a key the command does not read must fail, not be ignored
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(capsys, *command, *grid, "--config", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: key {key!r} does not apply to the {' '.join(command)} command\n"


def test_every_command_rejects_each_key_it_has_no_flag_for(capsys, tmp_path):
    path = tmp_path / "config.json"
    for argv, parser in _leaf_commands():
        flags = {action.dest for action in parser._actions}
        for key in CONFIG_KEYS:
            if key in flags:
                continue
            path.write_text(json.dumps({key: 1}), encoding="utf-8")
            code, out, err = run_cli(capsys, *argv, "--config", str(path))
            assert (code, out) == (2, ""), (argv, key)
            assert f"key {key!r} does not apply to the " in err, (argv, key)


@pytest.mark.parametrize("command, config, key", [
    *[(["simulate", "dpc"], {**RUNS["dpc"], key: None}, key)
      for key in ("P", "gamma", "n", "trials", "seed")],
    (["sweep", "dpc"], {k: v for k, v in RUNS["dpc"].items() if k != "gamma"} | {"n": None},
     "n"),
    (["rho-star"], {**RHO_STAR, "gamma": None}, "gamma"),
], ids=["simulate-P", "simulate-gamma", "simulate-n", "simulate-trials", "simulate-seed",
        "sweep-n", "rho-star-gamma"])
def test_a_null_config_entry_of_a_required_key_fails_cleanly(capsys, tmp_path, command,
                                                             config, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(capsys, *command, "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {key} must be ") and err.endswith(", got None\n")


# ---------------------------------------------------------------------------
# one BLAS thread

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
# a fresh interpreter that ignores PYTHON* variables and imports dpsk from SRC
CHILD = "import sys; sys.path.insert(0, sys.argv[1]); "
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _child_env(**setting):
    env = {key: value for key, value in os.environ.items() if key not in BLAS_VARIABLES}
    return {**env, **setting}


def _run_child(code, *args, env):
    done = subprocess.run([sys.executable, "-I", "-c", CHILD + code, SRC, *args],
                          env=env, capture_output=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, b""), done.stderr
    return done.stdout


@pytest.mark.parametrize("argv", [
    ["simulate", "dpc", "--P", "0.001"],
    ["simulate", "mac", "--P1", "0.001", "--P2", "0.001", "--beta", "1"],
], ids=["dpc", "mac"])
def test_long_block_bytes_do_not_depend_on_blas_threads(argv):
    # OpenBLAS splits a dot of more than 10,000 terms across its threads, and
    # the offsets of these 20,000-slot blocks are such dots; dpsk pins one thread
    argv = [*argv, "--Q", "1", "--sigma2", "1", "--gamma", "1", "--n", "20000",
            "--rate_fraction", "0.1", "--trials", "8", "--seed", "7", "--format", "json"]
    outputs = {
        name: _run_child("from dpsk import cli; sys.exit(cli.main(sys.argv[2:]))", *argv,
                         env=_child_env(**setting))
        for name, setting in {
            "unset": {},
            "openblas-1": {"OPENBLAS_NUM_THREADS": "1"},
            "openblas-2": {"OPENBLAS_NUM_THREADS": "2"},
            "omp-2": {"OMP_NUM_THREADS": "2"},
        }.items()
    }
    digests = {name: hashlib.sha256(out).hexdigest()[:8] for name, out in outputs.items()}
    assert len(set(digests.values())) == 1, digests


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("setting", [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}],
                         ids=["unset", "openblas-2", "omp-2"])
def test_importing_dpsk_leaves_one_thread(setting):
    code = ("import os; assert 'numpy' not in sys.modules; import dpsk, numpy; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")
    assert _run_child(code, env=_child_env(**setting)).split() == [b"1", b"1"]


TWO_BATCHES = ["simulate", "dpc", "--P", "10", "--Q", "10", "--sigma2", "5", "--gamma", "0.5",
               "--n", "20", "--rate", "0.2", "--trials", str(harness.BATCH + 1)]


DRAWS_BEYOND_2GB = {
    # scheme: its flags; the recursion runs its 200,000 steps, a batch's
    # normal draws would take 2 (dpc, mac) or 3 (noisy) x 6.1 GiB
    "dpc": ["--P", "1e-6", "--Q", "1", "--sigma2", "1", "--gamma", "1"],
    "noisy": ["--P", "1e-6", "--Q", "1", "--sigma2", "1", "--sigma_z2", "1", "--gamma", "1"],
    "mac": ["--P1", "1e-6", "--P2", "1e-6", "--Q", "1", "--sigma2", "1", "--gamma", "1",
            "--beta", "1"],
}


@pytest.mark.parametrize("scheme", sorted(DRAWS_BEYOND_2GB))
def test_a_batch_whose_draws_do_not_fit_is_rejected_in_one_line(scheme):
    # the first draw ended in a traceback of numpy's _ArrayMemoryError; a
    # 2 GB address space refuses the draws whatever the machine's overcommit
    pytest.importorskip("resource")
    code = (f"import resource; resource.setrlimit(resource.RLIMIT_AS, ({2 << 30}, {2 << 30})); "
            "from dpsk import cli; sys.exit(cli.main(sys.argv[2:]))")
    argv = ["simulate", scheme, *DRAWS_BEYOND_2GB[scheme], "--n", "200000",
            "--rate_fraction", "0.5", "--trials", "4096", "--workers", "1"]
    done = subprocess.run([sys.executable, "-I", "-c", CHILD + code, SRC, *argv],
                          env=_child_env(), capture_output=True, timeout=120)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == (b"error: n = 200000 is too long: a batch's normal draws do not fit "
                           b"in memory\n")


@pytest.mark.parametrize("scheme", sorted(DRAWS_BEYOND_2GB))
def test_a_batch_whose_draws_do_not_fit_runs_no_recursion(scheme):
    # it ran the recursion for its length before the rejection (2.1 s at n = 2e6)
    pytest.importorskip("resource")
    code = (f"import resource; resource.setrlimit(resource.RLIMIT_AS, ({2 << 30}, {2 << 30})); "
            "from dpsk import cli, sk_dpc, sk_dpmac; "
            "sk_dpc.compute_coefficients = sk_dpmac.mac_coefficients = None; "
            "sys.exit(cli.main(sys.argv[2:]))")
    argv = ["simulate", scheme, *DRAWS_BEYOND_2GB[scheme], "--n", "200000",
            "--rate_fraction", "0.5", "--trials", "4096", "--workers", "1"]
    done = subprocess.run([sys.executable, "-I", "-c", CHILD + code, SRC, *argv],
                          env=_child_env(), capture_output=True, timeout=120)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == (b"error: n = 200000 is too long: a batch's normal draws do not fit "
                           b"in memory\n")


@pytest.mark.parametrize("argv", [
    [],
    [*TWO_BATCHES, "--workers", "1"],
    pytest.param([*TWO_BATCHES, "--workers", "2"],
                 marks=pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")),
], ids=["import", "workers-1", "workers-2"])
def test_no_run_imports_multiprocessing(argv):
    # a worker is forked with os.fork and sends through an os.pipe; importing
    # multiprocessing would add to the start-up of every run that forks
    code = ("from dpsk import cli; assert not sys.argv[2:] or cli.main(sys.argv[2:]) == 0; "
            "print('multiprocessing' in sys.modules)")
    assert _run_child(code, *argv, env=_child_env()).split()[-1] == b"False"
