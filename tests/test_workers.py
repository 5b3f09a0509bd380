"""Batches shared among processes: the same bytes from any worker count,
clean failures of a worker, and the runs that stay in one process.

A worker is forked, so a method patched here before a run is patched in the
workers too; comparing ``os.getpid()`` with this process's pid makes a
patch fail in the workers alone. No test starts more than two workers.
"""

import atexit
import errno
import json
import os
import pickle
import signal
import sys

import pytest

from dpsk import cli, harness, output
from dpsk.errors import DpskError
from dpsk.params import BlockConfig, DpcParams, MacParams, NoisyObsParams, PowerSplit

B = harness.BATCH
RUNS = {
    # scheme: (channel, split, block, sweep gamma grid, sweep beta grid)
    "dpc": (DpcParams(P=10, Q=10, sigma2=5), PowerSplit(0.5), BlockConfig(20, rate=0.2),
            [0.0, 0.5, 1.0], None),
    "noisy": (NoisyObsParams(P=7.7, Q=10, sigma2=5, sigma_z2=1), PowerSplit(0.5),
              BlockConfig(20, rate_fraction=0.7), [0.0, 0.5, 1.0], None),
    "mac": (MacParams(P1=10, P2=5, Q=10, sigma2=5), PowerSplit(0.8, 0.8),
            BlockConfig(20, rate_fraction=0.25), [0.0, 0.8], [0.6, 1.0]),
}

MAC_ARGS = ["simulate", "mac", "--P1", "10", "--P2", "5", "--Q", "10", "--sigma2", "5",
            "--gamma", "0.8", "--beta", "0.8", "--n", "20", "--rate_fraction", "0.25",
            "--seed", "3"]
NOISY_SWEEP_ARGS = ["sweep", "noisy", "--P", "7.7", "--Q", "10", "--sigma2", "5",
                    "--sigma_z2", "1", "--grid", "3", "--n", "20", "--rate_fraction", "0.7",
                    "--trials", str(B + 3), "--seed", "3"]


def run_cli(capfd, *argv):
    # capfd, not capsys: it also sees what a forked worker writes to fd 2
    code = cli.main(list(argv))
    captured = capfd.readouterr()
    return code, captured.out, captured.err


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def no_fork(monkeypatch):
    """Make any attempt to fork a batch worker fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a batch worker process was started")

    monkeypatch.setattr(os, "fork", refuse)


@pytest.mark.parametrize("trials", [B + 3, 3 * B])
@pytest.mark.parametrize("scheme", sorted(RUNS))
def test_reports_do_not_depend_on_the_worker_count(scheme, trials):
    channel, split, block, gammas, betas = RUNS[scheme]
    runs, sweeps = {}, {}
    for workers in (1, 2, 3):
        (report,) = harness.run_experiment(scheme, channel, [split], block, trials,
                                           harness.RandomPlan(9), workers=workers)
        runs[workers] = output.json_text(report.as_dict())
        sweeps[workers] = output.json_text(harness.sweep(
            scheme, channel, gammas, block, trials, harness.RandomPlan(9), beta_grid=betas,
            workers=workers))
    assert runs[2] == runs[3] == runs[1]
    assert sweeps[2] == sweeps[3] == sweeps[1]
    _assert_no_child_left()


#: A second split of each scheme, run beside the one of RUNS on the same trials
SECOND_SPLITS = {"dpc": PowerSplit(1.0), "noisy": PowerSplit(1.0), "mac": PowerSplit(1.0, 0.6)}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("scheme", sorted(RUNS))
def test_a_two_split_run_equals_its_single_split_runs(scheme, workers):
    # a batch's last split writes its Y over the batch's eta (a noisy split
    # over the raw eta, every split), so an earlier split that read eta after
    # it, or a batch that kept the written eta, would change a report; two
    # batches, the second of 3 trials, with the splits in either order
    channel, split, block, _, _ = RUNS[scheme]
    splits = [split, SECOND_SPLITS[scheme]]

    def reports(splits):
        return [output.json_text(report.as_dict()) for report in harness.run_experiment(
            scheme, channel, splits, block, B + 3, harness.RandomPlan(9), workers=workers)]

    alone = [text for split in splits for text in reports([split])]
    assert reports(splits) == alone
    assert reports(splits[::-1]) == alone[::-1]
    _assert_no_child_left()


@pytest.mark.parametrize("argv", [MAC_ARGS + ["--trials", str(B + 3)], NOISY_SWEEP_ARGS],
                         ids=["simulate-mac", "sweep-noisy"])
def test_cli_stdout_does_not_depend_on_the_worker_count(capfd, argv):
    outputs = {}
    for workers in ([], ["--workers", "1"], ["--workers", "2"]):
        code, out, err = run_cli(capfd, *argv, *workers, "--format", "json")
        assert (code, err) == (0, "")
        outputs[" ".join(workers) or "default"] = out
    assert len(set(outputs.values())) == 1, sorted(outputs)


def test_the_config_echo_does_not_name_the_worker_count(capfd):
    argv = MAC_ARGS + ["--trials", "5", "--format", "json"]
    echoes = [json.loads(run_cli(capfd, *argv, *extra)[1])["config"]
              for extra in ([], ["--workers", "2"])]
    assert echoes[0] == echoes[1]
    assert "workers" not in echoes[0]


def _fail_in(monkeypatch, failure, workers=True):
    """Patch ``RandomPlan.normals`` to call ``failure()`` in the worker
    processes, or in this process alone if not ``workers``."""
    parent, normals = os.getpid(), harness.RandomPlan.normals

    def patched(plan, *args):
        if (os.getpid() != parent) == workers:
            failure()
        return normals(plan, *args)

    monkeypatch.setattr(harness.RandomPlan, "normals", patched)


def _raise():
    raise RuntimeError("injected failure")


def _die():
    os.kill(os.getpid(), signal.SIGKILL)


def _exit():
    sys.exit(3)


@pytest.mark.parametrize("failure, message", [
    (_raise, "a batch worker process failed: RuntimeError: injected failure"),
    (_die, f"a batch worker process died on signal {signal.SIGKILL.value}"),
    (_exit, "a batch worker process exited with code 3"),
], ids=["raises", "killed", "exits"])
def test_a_failing_worker_is_one_line_and_exit_one(monkeypatch, capfd, failure, message):
    _fail_in(monkeypatch, failure)
    channel, split, block, _, _ = RUNS["dpc"]
    with pytest.raises(DpskError, match=f"^{message}$"):
        harness.run_experiment("dpc", channel, [split], block, B + 1, harness.RandomPlan(1),
                               workers=2)
    _assert_no_child_left()
    assert capfd.readouterr().err == ""
    code, out, err = run_cli(capfd, *MAC_ARGS, "--trials", str(B + 1), "--workers", "2")
    assert (code, out, err) == (1, "", f"error: {message}\n")
    _assert_no_child_left()


def _timeout(signum, frame):
    raise TimeoutError("the run did not return")


def test_a_failing_caller_stops_and_joins_its_workers(monkeypatch):
    # a batch result holds B squared errors, so a worker of three batches
    # fills its pipe and would wait for a read that never comes if it ran on
    _fail_in(monkeypatch, _raise, workers=False)
    channel, split, block, _, _ = RUNS["dpc"]
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(30)
    try:
        with pytest.raises(RuntimeError, match="^injected failure$"):
            harness.run_experiment("dpc", channel, [split], block, 6 * B,
                                   harness.RandomPlan(1), workers=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _assert_no_child_left()


def _out_of_memory():
    raise MemoryError("Unable to allocate 6.10 GiB")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_caller_that_runs_out_of_memory_is_one_line_and_exit_one(monkeypatch, capfd,
                                                                   workers):
    # it ended in a traceback, where a worker that ran out already gave one line
    _fail_in(monkeypatch, _out_of_memory, workers=False)
    code, out, err = run_cli(capfd, *MAC_ARGS, "--trials", str(B + 1), "--workers", workers)
    assert (code, out) == (1, "")
    assert err == "error: a batch failed: MemoryError: Unable to allocate 6.10 GiB\n"
    _assert_no_child_left()


def test_a_worker_that_cannot_start_is_one_line_and_exit_one(monkeypatch, capfd):
    # the first worker starts, the second does not: the first is stopped and reaped
    fork = os.fork
    started = []

    def fork_once():
        if started:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        started.append(fork())
        return started[-1]

    monkeypatch.setattr(os, "fork", fork_once)
    code, out, err = run_cli(capfd, *MAC_ARGS, "--trials", str(2 * B + 1), "--workers", "3")
    assert (code, out) == (1, "")
    assert err == ("error: could not start a batch worker process: "
                   "[Errno 11] Resource temporarily unavailable\n")
    assert len(started) == 1 and started[0] > 0
    with pytest.raises(ChildProcessError):
        os.waitpid(started[0], os.WNOHANG)
    _assert_no_child_left()


def test_a_worker_killed_while_it_sends_is_one_line_and_exit_one(monkeypatch, capfd):
    # the caller reads half a pickle, then the end of the pipe
    parent, dump = os.getpid(), pickle.dump

    def half_then_die(obj, file, *args):
        if os.getpid() == parent:
            return dump(obj, file, *args)
        data = pickle.dumps(obj, *args)
        file.write(data[:len(data) // 2])
        file.flush()
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(pickle, "dump", half_then_die)
    message = f"a batch worker process died on signal {signal.SIGKILL.value}"
    channel, split, block, _, _ = RUNS["dpc"]
    with pytest.raises(DpskError, match=f"^{message}$"):
        harness.run_experiment("dpc", channel, [split], block, 2 * B, harness.RandomPlan(1),
                               workers=2)
    _assert_no_child_left()
    code, out, err = run_cli(capfd, *MAC_ARGS, "--trials", str(2 * B), "--workers", "2")
    assert (code, out, err) == (1, "", f"error: {message}\n")
    _assert_no_child_left()


@pytest.mark.parametrize("failure", [None, _exit], ids=["sends", "exits"])
def test_a_worker_never_runs_the_callers_atexit_handlers(monkeypatch, tmp_path, failure):
    # a worker leaves through os._exit, whether it sends every batch or exits
    ran = tmp_path / "atexit"

    def handler():
        ran.write_text(str(os.getpid()))

    if failure is not None:
        _fail_in(monkeypatch, failure)
    channel, split, block, _, _ = RUNS["dpc"]
    atexit.register(handler)
    try:
        try:
            harness.run_experiment("dpc", channel, [split], block, 2 * B,
                                   harness.RandomPlan(1), workers=2)
        except DpskError as exc:
            assert failure is _exit and str(exc) == "a batch worker process exited with code 3"
        else:
            assert failure is None
    finally:
        atexit.unregister(handler)
    assert not ran.exists()
    _assert_no_child_left()


@pytest.mark.parametrize("count", [3, None], ids=["three", "none"])
def test_the_default_worker_count_without_affinity_is_the_cpu_count(monkeypatch, count):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert cli.build_parser().parse_args(MAC_ARGS).workers == (count or 1)


@pytest.mark.parametrize("value", ["0", "-1", "1.5", "abc"])
def test_a_bad_worker_count_exits_two(capfd, value):
    code, out, err = run_cli(capfd, *MAC_ARGS, "--trials", "5", "--workers", value)
    assert (code, out) == (2, "")
    assert err.startswith("error: workers must be a positive integer, got ")
    assert err.count("\n") == 1


def test_runs_that_stay_in_process_start_no_worker(no_fork, capfd):
    channel, split, block, _, _ = RUNS["dpc"]
    # the library default
    harness.run_experiment("dpc", channel, [split], block, 2 * B, harness.RandomPlan(2))
    # a run with a trace writer
    written = []
    harness.run_experiment("dpc", channel, [split], block, B + 1, harness.RandomPlan(2),
                           trace_writer=lambda trial, columns: written.append(trial),
                           workers=2)
    assert written == list(range(B + 1))
    # a run of one batch, however many workers it may have
    code, _, err = run_cli(capfd, *MAC_ARGS, "--trials", str(B), "--workers", str(10**9))
    assert (code, err) == (0, "")
    _assert_no_child_left()
