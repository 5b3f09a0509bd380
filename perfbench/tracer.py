"""Span tracing of the dpsk modules, installed from outside the package.

``install()`` wraps the public functions of each ``src/dpsk`` module so
that every call records a span: name, wall start and end, thread CPU time
at start and end, parent span and thread. The program itself is not
changed; the wrappers replace module attributes in the running process
only. Spans stay in memory and ``Tracer.write`` stores them as CSV.

``read_spans()`` and ``summarize()`` turn a spans file into the per-layer
metrics, and running this file prints the per-layer table of a spans file:

    python3 perfbench/tracer.py .perfbench_out/simulate-dpc-seed7.spans.csv --trials 16384
"""

import argparse
import collections
import concurrent.futures
import csv
import inspect
import itertools
import threading
import time

import numpy as np

#: Modules whose every public function is wrapped.
ALL_PUBLIC = ("params", "regions", "noisy_obs", "sk_dpc", "sk_dpmac")

#: Modules wrapped at a named subset; ``output.fmt`` and ``output.csv_text``
#: run once per value and would swamp the trace.
NAMED = {
    "cli": ("main",),
    "harness": ("run_config", "run_experiment", "sweep",
                "RandomPlan.normal_block", "RandomPlan.message"),
    "output": ("trace_csv", "json_text", "rows_csv", "report_csv", "write_text"),
}

DRAWS = ("harness.RandomPlan.normal_block", "harness.RandomPlan.message")
KERNELS = {
    "sk_dpc": ("sk_dpc.simulate_message_batch", "sk_dpc.simulate_forwarding_batch"),
    "sk_dpmac": ("sk_dpmac.simulate_mac_batch",),
}
DECODERS = {
    "sk_dpc": ("sk_dpc.decode_batch", "sk_dpc.estimate_state"),
    "sk_dpmac": ("sk_dpmac.mac_decode_batch",),
}
#: Span wrapped around each work unit the harness hands to its thread pool,
#: and the span of creating that pool (its detail is the worker count).
BATCH = "harness.batch"
POOL = "harness.pool"

#: Layer buckets of self time, in table order.
BUCKETS = (
    "cli.self", "params", "harness.self", "harness.draw",
    "sk_dpc.coeff", "sk_dpc.kernel", "sk_dpc.decode",
    "sk_dpmac.coeff", "sk_dpmac.kernel", "sk_dpmac.decode",
    "noisy_obs", "regions", "output",
)

#: Metrics that must repeat exactly from one traced invocation to the next.
EXACT = (
    "harness.draw_calls", "harness.draws_per_trial", "harness.draw_reuse", "harness.workers",
    "sk_dpc.kernel_calls", "sk_dpmac.kernel_calls",
    "sk_dpc.kernel_mb_computed", "sk_dpmac.kernel_mb_computed",
    "noisy_obs.calls", "regions.calls", "params.calls", "output.bytes",
)

SPAN_HEADER = ("id", "parent", "thread", "name", "start", "end", "cpu_start", "cpu_end", "detail")


def bucket(name):
    """Layer bucket a span's self time is charged to."""
    module = name.split(".", 1)[0]
    if name in DRAWS:
        return "harness.draw"
    if module in KERNELS:
        if name in KERNELS[module]:
            return f"{module}.kernel"
        if name in DECODERS[module]:
            return f"{module}.decode"
        return f"{module}.coeff"
    if module in ("cli", "harness"):
        return f"{module}.self"
    return module


def _draw_key(args, kwargs, result):
    """Stream index of a draw: trial * 8 + component, as RandomPlan.key uses."""
    trial = args[1] if len(args) > 1 else kwargs["trial"]
    component = args[2] if len(args) > 2 else kwargs["component"]
    return trial * 8 + component


def _array_bytes(args, kwargs, result):
    """Bytes of the array inputs and outputs of a kernel call, from their shapes."""
    values = list(args) + list(kwargs.values())
    values += list(result) if isinstance(result, tuple) else [result]
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _text_bytes(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return len(text.encode("utf-8"))


def _pool_size(args, kwargs, result):
    return args[0]._max_workers


def _detail_for(name):
    if name in DRAWS:
        return _draw_key
    if any(name in kernels for kernels in KERNELS.values()):
        return _array_bytes
    if name == "output.write_text":
        return _text_bytes
    if name == POOL:
        return _pool_size
    return None


class Tracer:
    """Records spans; one span stack and one record list per thread."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._records = []
        self._lock = threading.Lock()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                thread = len(self._records)
                records = []
                self._records.append(records)
            state = self._local.state = (thread, [], records)
        return state

    def current(self):
        """Id of the innermost open span on this thread, or 0."""
        _, stack, _ = self._state()
        return stack[-1] if stack else 0

    def wrap(self, name, fn, parent=0):
        """``fn`` recording one span per call; ``parent`` is used when no
        span is open on the calling thread."""
        detail = _detail_for(name)

        def traced(*args, **kwargs):
            thread, stack, records = self._state()
            span = next(self._ids)
            up = stack[-1] if stack else parent
            stack.append(span)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
            extra = detail(args, kwargs, result) if detail else ""
            records.append((span, up, thread, name, t0, t1, c0, c1, extra))
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        spans = sorted(itertools.chain.from_iterable(self._records))
        origin = min((s[4] for s in spans), default=0.0)
        with open(path, "w", newline="", encoding="utf-8") as fp:
            out = csv.writer(fp)
            out.writerow(SPAN_HEADER)
            for span, up, thread, name, t0, t1, c0, c1, extra in spans:
                out.writerow((span, up, thread, name, f"{t0 - origin:.9f}",
                              f"{t1 - origin:.9f}", f"{c0:.9f}", f"{c1:.9f}", extra))


def _targets(package):
    """(module, owner, attribute, qualified name) of every function to wrap."""
    targets = []
    for module_name in ALL_PUBLIC:
        module = getattr(package, module_name)
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                targets.append((module, module, attr, f"{module_name}.{attr}"))
    for module_name, names in NAMED.items():
        module = getattr(package, module_name)
        for qualified in names:
            owner = module
            *path, attr = qualified.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if not callable(getattr(owner, attr, None)):
                raise SystemExit(f"trace: dpsk.{module_name}.{qualified} no longer exists")
            targets.append((module, owner, attr, f"{module_name}.{qualified}"))
    return targets


def install(package):
    """Wrap the dpsk modules of ``package`` and the harness thread pool."""
    tracer = Tracer()
    modules = [m for m in vars(package).values() if inspect.ismodule(m)
               and m.__name__.startswith(package.__name__ + ".")]
    for module, owner, attr, name in _targets(package):
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original)
        setattr(owner, attr, wrapped)
        if owner is module:
            # names imported with ``from .x import f`` are rebound too
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)

    base = concurrent.futures.ThreadPoolExecutor

    class TracedPool(base):
        def submit(self, fn, /, *args, **kwargs):
            traced = tracer.wrap(BATCH, fn, parent=tracer.current())
            return super().submit(traced, *args, **kwargs)

    TracedPool.__init__ = tracer.wrap(POOL, base.__init__)
    concurrent.futures.ThreadPoolExecutor = TracedPool
    return tracer


def read_spans(path):
    with open(path, newline="", encoding="utf-8") as fp:
        rows = list(csv.DictReader(fp))
    return [
        {
            "id": int(r["id"]), "parent": int(r["parent"]), "thread": int(r["thread"]),
            "name": r["name"], "cpu": float(r["cpu_end"]) - float(r["cpu_start"]),
            "detail": r["detail"],
        }
        for r in rows
    ]


def summarize(spans, trials):
    """Per-layer metrics and the per-bucket (busy, calls) table of one
    traced invocation.

    Busy times are thread CPU self times summed over threads: a span's CPU
    time minus that of its children on the same thread. ``trials`` is the
    workload's trial count.
    """
    by_id = {s["id"]: s for s in spans}
    child_cpu = collections.Counter()
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["thread"] == s["thread"]:
            child_cpu[s["parent"]] += s["cpu"]
    busy = dict.fromkeys(BUCKETS, 0.0)
    bucket_calls = dict.fromkeys(BUCKETS, 0)
    calls = collections.Counter()
    for s in spans:
        key = bucket(s["name"])
        busy[key] += s["cpu"] - child_cpu[s["id"]]
        bucket_calls[key] += 1
        calls[s["name"]] += 1

    def detail_sum(names):
        return sum(int(s["detail"]) for s in spans if s["name"] in names)

    def module_calls(module):
        return sum(n for name, n in calls.items() if name.startswith(module + "."))

    draw_calls = sum(calls[name] for name in DRAWS)
    draw_keys = {s["detail"] for s in spans if s["name"] in DRAWS}
    pools = [int(s["detail"]) for s in spans if s["name"] == POOL]
    metrics = {
        "harness.draw_s": busy["harness.draw"],
        "harness.draw_calls": draw_calls,
        "harness.draws_per_trial": draw_calls / trials,
        "harness.draw_reuse": len(draw_keys) / draw_calls if draw_calls else 0.0,
        "harness.self_s": busy["harness.self"],
        "harness.workers": max(pools, default=1),
    }
    for module in KERNELS:
        metrics[f"{module}.kernel_s"] = busy[f"{module}.kernel"]
        metrics[f"{module}.kernel_calls"] = sum(calls[name] for name in KERNELS[module])
        metrics[f"{module}.kernel_mb_computed"] = detail_sum(KERNELS[module]) / 1e6
        metrics[f"{module}.coeff_s"] = busy[f"{module}.coeff"]
        metrics[f"{module}.decode_s"] = busy[f"{module}.decode"]
    for module in ("noisy_obs", "regions", "params"):
        metrics[f"{module}.s"] = busy[module]
        metrics[f"{module}.calls"] = module_calls(module)
    metrics["output.s"] = busy["output"]
    metrics["output.bytes"] = detail_sum(("output.write_text",))
    metrics["cli.self_s"] = busy["cli.self"]
    for role in ("kernel", "coeff", "decode"):
        metrics[f"sk.{role}_s"] = sum(metrics[f"{m}.{role}_s"] for m in KERNELS)
    layers = {key: (busy[key], bucket_calls[key]) for key in BUCKETS}
    return metrics, layers, calls


def print_table(metrics, layers):
    """Busy self time, its share and the call count per layer, then the
    exact counts."""
    busy_total = sum(b for b, _ in layers.values())
    print(f"{'layer':<18}{'busy_s':>10}{'share':>8}{'calls':>10}")
    for key, (busy, calls) in layers.items():
        share = busy / busy_total if busy_total else 0.0
        print(f"{key:<18}{busy:>10.4f}{share:>8.1%}{calls:>10}")
    print(f"{'total':<18}{busy_total:>10.4f}")
    for name in EXACT:
        print(f"{name:<30}{metrics[name]:>14.6g}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="Print the per-layer table of a spans file.")
    parser.add_argument("spans", help="spans CSV written by a traced run")
    parser.add_argument("--trials", type=int, required=True, help="trials of the workload")
    args = parser.parse_args(argv)
    metrics, layers, _ = summarize(read_spans(args.spans), args.trials)
    print_table(metrics, layers)


if __name__ == "__main__":
    main()
