"""Benchmark of the ``dpsk`` command line.

    python3 perfbench/run.py --workload simulate-dpc --seed 7 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 35

Each workload is one ``dpsk`` command. A run is a closed loop from this one
process: after one untimed warm-up it starts the command in a fresh
process, waits for it, and starts the next, until ``--seconds`` have passed
(at least three timed commands). Every command's stdout, and for
``dump-traces`` its trace files in name order, must match the sha256
goldens in ``goldens.json``; a command that exits non-zero or differs counts
as failed.

``--trace 0`` reports the end-to-end metrics as medians over the commands.
``--trace 1`` alternates untraced and traced commands; the traced ones wrap
the public functions of each dpsk module (``tracer.py``) and give the
per-layer metrics. Their counts must repeat exactly and each workload must
reach the functions it declares, or the run stops with an error and a
non-zero exit code.

The program seed is ``--seed`` modulo 16, so that every seed has a golden
output; seed 7 is the acceptance-gate seed. Results, with provenance, go to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json`` and the spans of
the last traced command to ``.perfbench_out/<workload>-seed<seed>.spans.csv``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
import tracer  # noqa: E402

GOLDEN_SEEDS = 16
MIN_SAMPLES = 3
#: Stop starting commands after this many seconds, so a run ends within 180 s.
HARD_STOP_S = 120.0
KILL_AFTER_S = 170.0

DPC = ("simulate", "dpc", "--P", "10", "--Q", "10", "--sigma2", "5", "--gamma", "0.5",
       "--n", "100", "--rate_fraction", "0.7", "--format", "json")


@dataclasses.dataclass(frozen=True)
class Workload:
    argv: tuple
    dump_traces: bool
    #: Wrapped functions the traced command must call at least once.
    must_call: tuple
    #: Prefixes of wrapped functions it must never call.
    never_call: tuple
    why: str

    def flag(self, name, default=None):
        return int(self.argv[self.argv.index(name) + 1]) if name in self.argv else default

    @property
    def blocks(self):
        """Blocks simulated per command: trials times grid points."""
        return self.flag("--trials") * self.flag("--grid", 1)


WORKLOADS = {
    "simulate-dpc": Workload(
        argv=DPC + ("--trials", "8192"),
        dump_traces=False,
        must_call=("cli.main", "params.validate", "harness.run_config",
                   "harness.run_experiment", "harness.RandomPlan.normal_block",
                   "harness.RandomPlan.message", "sk_dpc.compute_coefficients",
                   "sk_dpc.simulate_message_batch", "sk_dpc.decode_batch",
                   "sk_dpc.estimate_state", "regions.dpc_rate_cap", "output.json_text",
                   "output.write_text"),
        never_call=("sk_dpmac.", "noisy_obs.", "harness.sweep", "output.trace_csv"),
        why="single-user run of criterion 03; draws and thread pool dominate, "
            "never reaches sk_dpmac or noisy_obs",
    ),
    "simulate-mac": Workload(
        argv=("simulate", "mac", "--P1", "10", "--P2", "10", "--Q", "10", "--sigma2", "5",
              "--gamma", "0.8", "--beta", "0.8", "--n", "200", "--rate_fraction", "0.25",
              "--trials", "8192", "--format", "json"),
        dump_traces=False,
        must_call=("cli.main", "params.validate", "harness.run_config",
                   "harness.run_experiment", "harness.RandomPlan.normal_block",
                   "harness.RandomPlan.message", "sk_dpmac.resolve_mac_rates",
                   "sk_dpmac.mac_coefficients", "sk_dpmac.simulate_mac_batch",
                   "sk_dpmac.mac_decode_batch", "regions.mac_constraints",
                   "output.json_text", "output.write_text"),
        never_call=("sk_dpc.simulate_", "sk_dpc.compute_coefficients", "noisy_obs.",
                    "harness.sweep", "output.trace_csv"),
        why="two-encoder run with the largest kernel share and memory; "
            "the only workload for sk_dpmac",
    ),
    "sweep-noisy": Workload(
        argv=("sweep", "noisy", "--P", "7.7", "--Q", "10", "--sigma2", "5", "--sigma_z2", "1",
              "--grid", "11", "--n", "60", "--rate_fraction", "0.7", "--trials", "800"),
        dump_traces=False,
        must_call=("cli.main", "harness.sweep", "harness.run_experiment",
                   "harness.RandomPlan.normal_block", "harness.RandomPlan.message",
                   "noisy_obs.make_equivalent", "noisy_obs.true_state_coefficient",
                   "sk_dpc.compute_coefficients", "sk_dpc.simulate_message_batch",
                   "sk_dpc.simulate_forwarding_batch", "regions.boundary_sweep",
                   "output.rows_csv", "output.write_text"),
        never_call=("sk_dpmac.", "harness.run_config", "output.trace_csv"),
        why="11-point noisy sweep redrawing the same substreams at every point, "
            "gamma=0 forwarding included; the only workload for noisy_obs and sweep",
    ),
    "dump-traces": Workload(
        argv=DPC + ("--trials", "600"),
        dump_traces=True,
        must_call=("cli.main", "harness.run_config", "harness.run_experiment",
                   "harness.RandomPlan.normal_block", "sk_dpc.simulate_message_batch",
                   "output.trace_csv", "output.write_text", "output.json_text"),
        never_call=("sk_dpmac.", "noisy_obs.", "harness.sweep"),
        why="single-user run writing one trace CSV per trial; output dominates "
            "and the (B, n) trace arrays are needed",
    ),
}


@dataclasses.dataclass
class Sample:
    ok: bool
    setup_s: float = None
    run_s: float = None
    cpu_s: float = None
    peak_rss_mb: float = None
    spans: list = None


def usable_cpus():
    return len(os.sched_getaffinity(0))


def child_env():
    """Environment of the commands and the worker policy that produced it."""
    env = dict(os.environ)
    usable = usable_cpus()
    cpus = os.cpu_count() or 1
    if cpus <= usable:
        env.pop("DPSK_THREADS", None)
        return env, "default: DPSK_THREADS unset", cpus
    env["DPSK_THREADS"] = str(usable)
    return env, "DPSK_THREADS set to the usable CPU count", usable


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def source_digest():
    """sha256 of src/dpsk/*.py in name order; identifies the program without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "dpsk")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fp:
                digest.update(name.encode() + b"\0" + fp.read())
    return digest.hexdigest()


def provenance(seed, policy, workers):
    return {
        "nproc": usable_cpus(),
        "os_cpu_count": os.cpu_count(),
        "workers": workers,
        "threads_policy": policy,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "seed": seed,
        "program_seed": seed % GOLDEN_SEEDS,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "machine": platform.machine(),
    }


def output_digests(stdout_path, trace_dir):
    """sha256 of stdout and, if given, of the trace files in name order."""
    with open(stdout_path, "rb") as fp:
        digests = {"stdout": hashlib.sha256(fp.read()).hexdigest()}
    if trace_dir is not None and os.path.isdir(trace_dir):
        digest = hashlib.sha256()
        for name in sorted(os.listdir(trace_dir)):
            with open(os.path.join(trace_dir, name), "rb") as fp:
                digest.update(name.encode() + b"\0" + fp.read())
        digests["traces"] = digest.hexdigest()
    return digests


def _reap(proc, timeout):
    """Wait for ``proc`` without polling, so this process stays idle while the
    command runs; return its resource usage, or None if it had to be killed."""
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill():
        with lock:
            if not state["exited"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    watchdog = threading.Timer(timeout, kill)
    watchdog.start()
    # WNOWAIT keeps the pid reserved until the watchdog can no longer fire
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    with lock:
        state["exited"] = True
    watchdog.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return None if state["killed"] else usage


def scratch_path(kind):
    """Per-command file of this benchmark process under .perfbench_out."""
    suffix = {"child": ".json", "stdout": ".txt", "spans": ".csv", "traces": ""}[kind]
    return os.path.join(OUT, f"{kind}-{os.getpid()}{suffix}")


def invoke(workload, program_seed, env, timeout, trace=False):
    """Run the workload's command once. Returns the sample and the output digests."""
    result_path = scratch_path("child")
    stdout_path = scratch_path("stdout")
    spans_path = scratch_path("spans")
    trace_dir = scratch_path("traces") if workload.dump_traces else None
    for path in (result_path, spans_path):
        if os.path.exists(path):
            os.remove(path)
    if trace_dir is not None:
        shutil.rmtree(trace_dir, ignore_errors=True)

    argv = list(workload.argv) + ["--seed", str(program_seed)]
    if trace_dir is not None:
        argv += ["--dump-traces", trace_dir]
    cmd = [sys.executable, "-I", CHILD, ROOT, result_path]
    if trace:
        cmd += ["--spans", spans_path]
    cmd += ["--"] + argv

    with open(stdout_path, "wb") as stdout:
        launch = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=stdout, env=env, cwd=ROOT)
        usage = _reap(proc, timeout)
    try:
        digests = output_digests(stdout_path, trace_dir)
    finally:
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
    if usage is None or not os.path.exists(result_path):
        return Sample(ok=False), digests
    with open(result_path, encoding="utf-8") as fp:
        result = json.load(fp)
    sample = Sample(
        ok=proc.returncode == 0 and result["code"] == 0,
        setup_s=result["ready"] - launch,
        run_s=result["run_s"],
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    if trace:
        sample.spans = tracer.read_spans(spans_path)
    return sample, digests


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load_json(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fp:
        return json.load(fp)


def check_coverage(name, workload, calls):
    """Raise SystemExit if the traced command skipped a declared function or
    reached a forbidden one."""
    missing = [f for f in workload.must_call if calls[f] == 0]
    reached = sorted(f for f in calls if f.startswith(workload.never_call))
    if missing or reached:
        raise SystemExit(
            f"coverage guard failed on {name}: not called {missing}, "
            f"called but not expected {reached}; the wrapped layers no longer "
            "match this workload"
        )


def run_workload(name, seed, seconds, trace, spec):
    workload = WORKLOADS[name]
    trials = workload.flag("--trials")
    program_seed = seed % GOLDEN_SEEDS
    golden = load_json("perfbench/goldens.json")["outputs"][name][str(program_seed)]
    env, policy, workers = child_env()
    os.makedirs(OUT, exist_ok=True)
    began = time.monotonic()

    attempted = failed = 0

    def timed(traced=False):
        nonlocal attempted, failed
        timeout = max(5.0, KILL_AFTER_S - (time.monotonic() - began))
        sample, digests = invoke(workload, program_seed, env, timeout, trace=traced)
        attempted += 1
        if not sample.ok or digests != golden:
            sample.ok = False
            failed += 1
        return sample

    timed()  # warm-up: file cache and bytecode, checked but not timed
    start = time.monotonic()
    plain, traced = [], []
    while True:
        elapsed = time.monotonic() - start
        if len(plain) >= MIN_SAMPLES and (elapsed >= seconds or
                                          time.monotonic() - began >= HARD_STOP_S):
            break
        plain.append(timed())
        if trace:
            sample = timed(traced=True)
            if sample.spans is not None:
                metrics, _, calls = tracer.summarize(sample.spans, trials)
                check_coverage(name, workload, calls)
                sample.spans = None
                traced.append((sample, metrics))

    timings = [s for s in plain if s.run_s is not None]
    if not timings:
        raise SystemExit(f"{name}: no command produced timings")
    summary = {}
    for key in ("setup_s", "run_s", "cpu_s", "peak_rss_mb"):
        summary[key] = quartiles([getattr(s, key) for s in timings])
    summary["trials_per_s"] = quartiles(
        [workload.blocks / s.run_s for s in timings])
    header = {
        "workload": name, "why": workload.why, "trace": trace,
        "timed_commands": len(plain), "traced_commands": len(traced),
        "provenance": provenance(seed, policy, workers),
    }
    print(f"# {name}: {len(plain)} timed commands"
          + (f" and {len(traced)} traced" if trace else "") + " after one warm-up")
    print("# provenance " + json.dumps(header["provenance"], sort_keys=True))

    if not trace:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        print(f"{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}  unit")
        for key, (q1, q2, q3) in summary.items():
            print(f"{key:<16}{q2:>14.6g}{q1:>14.6g}{q3:>14.6g}  {units.get(key, '')}")
        print(f"{'failed_ratio':<16}{failed / attempted:>14.6g}{'':>28}  ratio"
              f" ({failed} of {attempted} commands)")
        all_metrics = {key: q2 for key, (_, q2, _) in summary.items()}
        all_metrics["failed_ratio"] = failed / attempted
        metric_spec = spec["end_to_end"]
    else:
        if not traced:
            raise SystemExit(f"{name}: no traced command produced spans")
        all_metrics = traced_metrics(name, plain, traced)
        metric_spec = spec["per_layer"]
        spans_file = os.path.join(OUT, f"{name}-seed{seed}.spans.csv")
        os.replace(scratch_path("spans"), spans_file)
        metrics, layers, _ = tracer.summarize(tracer.read_spans(spans_file), trials)
        print(f"# per-layer table of {os.path.relpath(spans_file, ROOT)}")
        tracer.print_table(metrics, layers)
        print(f"{'trace.overhead_s':<30}{all_metrics['trace.overhead_s']:>14.6g}")

    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fp:
        json.dump({**header, "attempted": attempted, "failed": failed,
                   "metrics": all_metrics,
                   "samples": [dataclasses.asdict(s) for s in plain]},
                  fp, indent=2)
    for kind in ("child", "stdout"):
        path = scratch_path(kind)
        if os.path.exists(path):
            os.remove(path)
    reported = {m["name"]: {"value": all_metrics[m["name"]], "unit": m["unit"]}
                for m in metric_spec}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": reported}


def traced_metrics(name, plain, traced):
    """Per-layer medians over the traced commands, after the exact-count
    check, and the cost of tracing."""
    runs = [metrics for _, metrics in traced]
    for key in tracer.EXACT:
        values = {r[key] for r in runs}
        if len(values) != 1:
            raise SystemExit(f"{key} did not repeat exactly on {name}: {sorted(values)}")
    merged = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
    merged["trace.overhead_s"] = (statistics.median(s.run_s for s, _ in traced)
                                  - statistics.median(s.run_s for s in plain))
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dpsk", "cli.py")):
        print(f"error: no dpsk source under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    spec = load_json("BENCHMARK.json")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), spec)
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
