import json
import math
import os

import numpy as np
import pytest

from dpsk import cli, output, regions, sk_dpmac
from dpsk.params import DpcParams, MacParams


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
