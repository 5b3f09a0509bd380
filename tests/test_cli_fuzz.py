"""Fuzz of the command line: every key of every command, drawn over many decades.

A run either exits 0, with no NaN in a ``simulate`` report, or exits 2 or 1
with exactly one ``error:`` line and no traceback. The draws run in one child
interpreter under a 2 GiB address space, so a value that slips validation
fails as a MemoryError instead of taking the machine's memory, and numpy's
RuntimeWarnings are errors there as they are in the suite. The draws are
derandomized; ``DPSK_CLI_FUZZ_EXAMPLES`` sets how many (default 80, about
2 s). Run as a script, ``python tests/test_cli_fuzz.py src 1000``, this file
runs the draws itself under the same cap.
"""

import dataclasses
import io
import json
import os
import subprocess
import sys

import pytest

EXAMPLES = int(os.environ.get("DPSK_CLI_FUZZ_EXAMPLES", "80"))

#: Values no key accepts, or accepts only at its edge: zero, subnormals,
#: the ends of float64, NaN, text that reads as a bool, and a missing key
SPECIAL = [None, "0", "-1", "5e-324", "1e-310", "1e308", "-1e308", "nan", "True", "False"]
#: The commands, each with the scheme whose keys it reads
COMMANDS = [*[("simulate", s) for s in ("dpc", "mac", "noisy")],
            *[("sweep", s) for s in ("dpc", "mac", "noisy")],
            ("region", "dpc-fb"), ("region", "mac-fb"), ("region", "mac-nofb"),
            ("region", "noisy"), ("rho-star",)]


def _argv_strategy():
    """A strategy of one command line: every key the command reads, each from
    its accepted range but for at most one, drawn from the values around it.
    The flags take the ``--key=value`` form, so that no value reads as a flag."""
    from hypothesis import strategies as st

    from dpsk.params import CHANNELS

    def decades(low, high):
        return st.floats(low, high).map(lambda exponent: repr(10.0**exponent))

    def counts(most):
        # grid sizes: the few points a run affords, or ones that ask for nothing,
        # are no integer or whose points cannot be held
        return st.integers(1, most).map(str), st.sampled_from(
            ["0", "-1", "2.5", "True", "x", str(10**12), str(2**63), str(10**21)])

    def kinds(shortest):
        """(accepted, bad) value strategies of each key kind."""
        return {
            "channel": (decades(-50, 50), st.one_of(decades(-60, 60), st.sampled_from(SPECIAL))),
            "fraction": (st.floats(0, 1).map(repr), st.sampled_from(["1.5", "-0.0", *SPECIAL])),
            # the scheme's shortest block, a long one, and lengths validation must reject
            "n": (st.one_of(st.just(str(shortest)), st.integers(shortest, 2000).map(str)),
                  st.one_of(st.integers(12, 30).map(lambda e: str(10**e)),
                            st.sampled_from(["1", "2.5", *SPECIAL]))),
            "rate": (decades(-6, 0), st.sampled_from(SPECIAL)),
            "rate_fraction": (st.floats(0, 1.2).map(repr), st.sampled_from(SPECIAL)),
            "trials": (st.integers(1, 64).map(str), st.sampled_from(["0", "2.5", *SPECIAL])),
            "seed": (st.integers(0, 2**64 - 1).map(str),
                     st.sampled_from(["-1", str(2**64), *SPECIAL])),
            "sweep-grid": counts(3), "region-grid": counts(12),
        }

    @st.composite
    def argv(draw):
        command = draw(st.sampled_from(COMMANDS))
        channel = CHANNELS[{"rho-star": "mac"}.get(command[0], command[-1].split("-")[0])]
        keys = dict.fromkeys((f.name for f in dataclasses.fields(channel)), "channel")
        if command[0] in ("simulate", "rho-star"):
            keys.update(dict.fromkeys(channel.SPLIT, "fraction"))
        if command[0] in ("simulate", "sweep"):
            rate = draw(st.sampled_from([(), ("rate",), ("rate_fraction",)]))
            keys.update({"n": "n", **{key: key for key in rate}, "trials": "trials",
                         "seed": "seed"})
        if command[0] in ("sweep", "region"):
            grids = ["grid", *(f"{name}-grid" for name in channel.SPLIT[1:])]
            grids += ["rho-grid"] if command[-1] == "mac-fb" else []
            # a grid after gamma's may be left to its default
            grids = grids[:1] + [grid for grid in grids[1:] if draw(st.booleans())]
            keys.update(dict.fromkeys(grids, f"{command[0]}-grid"))
        strategies = kinds(len(channel.SPLIT) + 1)
        bad = draw(st.sampled_from([None, *keys]))
        values = {key: draw(strategies[kind][key == bad]) for key, kind in keys.items()}
        flags = [f"--{key}={value}" for key, value in values.items() if value is not None]
        run = ["--workers=1"] if command[0] in ("simulate", "sweep") else []
        return [*command, *flags, *run, *(["--format=json"] if command[0] == "simulate" else [])]

    return argv()


def _nan(constant):
    raise AssertionError(f"the report holds {constant}")


def check_run(argv):
    """Run ``dpsk`` on ``argv`` in this process and assert one of the two outcomes."""
    from contextlib import redirect_stderr, redirect_stdout

    from dpsk import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        if argv[0] == "simulate":
            json.loads(out, parse_constant=_nan)
    else:
        assert code in (1, 2) and out == "", (code, out)
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err


def fuzz(examples):
    """Run ``examples`` derandomized command lines through :func:`check_run`."""
    import warnings

    from hypothesis import given, settings

    warnings.simplefilter("error", RuntimeWarning)

    @settings(max_examples=examples, derandomize=True, deadline=None, database=None)
    @given(argv=_argv_strategy())
    def run(argv):
        check_run(argv)

    run()


def test_every_command_line_exits_cleanly():
    # one child interpreter for all draws; --workers=1 keeps every run in it
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("dpsk").__file__)))
    done = subprocess.run([sys.executable, "-I", __file__, src, str(EXAMPLES)],
                          capture_output=True, timeout=600, text=True)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr[-4000:]


if __name__ == "__main__":
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    sys.path.insert(0, sys.argv[1])
    fuzz(int(sys.argv[2]))
