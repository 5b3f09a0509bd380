"""Seeded Monte Carlo experiments over the three coding schemes.

Randomness contract: every trial owns one counter-based substream per
random component (state, channel noise, observation noise, messages),
keyed by (master_seed, trial, component) alone. Draws therefore do not
depend on batch size or execution order, and two runs with the same seed
and configuration produce bit-identical reports. A plan builds one Philox
generator and re-keys it per substream, which draws exactly what a fresh
``Philox(key=...)`` per substream would. An experiment runs its power splits
on the same trials, batch after batch: each batch is drawn once, the one
batch runner of every scheme, :func:`run_batch`, runs each split on it,
and each split adds its per-trial results and per-slot symbol powers to
its own sums in batch order.
A batch's messages map its substreams' first Philox words, made in one numpy
pass, as numpy's ``integers`` maps them; :meth:`RandomPlan.message` draws the
trials that rule rejects, and one per batch and M as a check. The runner stores the
per-symbol Y, X and theta_hat traces only for a run with a trace writer;
without one the state estimate and then the squared error are formed in
the kernel's Y buffer, and Y takes the buffer of a draw the batch no longer
needs: eta once the batch's last run reads it, so a dpc or mac batch holds
two (B, n) arrays, S and eta, not three.
Importing ``dpsk`` pins BLAS to one thread, so dots longer than 10,000
terms round alike on any CPU count unless the program imported numpy first.

A run's batches are shared among P = min(workers, batches) processes, or
one where the platform has no ``fork``, and a run with a trace writer
keeps P = 1: batch b runs in the calling process when P divides b, which
is every batch when P = 1, else in forked child b % P, and the caller adds
every batch's results in batch order, so the report's bytes do not depend
on P. A child is forked with ``os.fork``, pickles its results to an
``os.pipe`` and leaves through ``os._exit``. ``fork`` copies only the
calling thread, and dpsk starts no thread of its own.
"""

import collections
import dataclasses
import functools
import math
import os
import pickle
import sys

import numpy as np

from . import noisy_obs, regions, sk_dpc, sk_dpmac
from .errors import ConfigError, DegenerateSplit, DpskError
from .params import (PowerSplit, RunConfig, check_count, check_flag, check_grid, check_seed,
                     shown, to_config_dict)
from .sk_dpc import _check_loop
from .sk_dpmac import _check_mac

# Stream component ids. OBS_NOISE sits between NOISE and MSG so that a
# noisy-observation run with sigma_z2 = 0 consumes exactly the same state,
# noise and message draws as the plain run it must reproduce.
STATE, NOISE, OBS_NOISE, MSG, MSG2 = range(5)
_STREAMS_PER_TRIAL = 8
_LOW = (1 << 32) - 1
_TRIALS = (1 << 64) // _STREAMS_PER_TRIAL
# Philox4x64-10's round multipliers and key increments (Salmon et al., SC 2011)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)

#: The normal components a run draws, each by the channel field of its variance.
_VARIANCES = ((STATE, "Q"), (NOISE, "sigma2"), (OBS_NOISE, "sigma_z2"))

#: Trials simulated per batch; fixed so batching never affects output.
BATCH = 4096

_RHO_CONVERGENCE_TOL = 1e-3
_DISTORTION_FLAG_REL = 0.02


@dataclasses.dataclass(frozen=True)
class RandomPlan:
    """Derivation rule from a master seed to per-trial substreams.

    A plan keeps no draws: every call draws its batch anew. Batches come
    back read-only, since every split of a batch shares them.
    """

    master_seed: int

    def __post_init__(self):
        check_seed("seed", self.master_seed)
        # one Philox and the state it is re-keyed from: a draw sets the key alone
        state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
                 "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        object.__setattr__(self, "_shared", (np.random.Generator(np.random.Philox(key=0)), state))

    def key(self, trial, component):
        """128-bit counter key: the master seed in the low 64-bit word and
        trial * 8 + component, unique per (trial, component), in the high one."""
        if isinstance(trial, bool) or not isinstance(trial, int):
            raise ConfigError(f"trial index must be an integer, got {shown(trial)}",
                              field="trial")
        if not 0 <= trial < _TRIALS:
            raise ConfigError(f"trial index must be in 0..2**61-1, got {shown(trial)}",
                              field="trial")
        if not 0 <= component < _STREAMS_PER_TRIAL:
            raise ConfigError(f"component must be in 0..7, got {shown(component)}",
                              field="component")
        return self.master_seed + ((trial * _STREAMS_PER_TRIAL + component) << 64)

    def _check_span(self, start, stop, component):
        """:meth:`key`'s ConfigError for trials start..stop-1 unless integers in its range, or
        for a stop before start; checked once per span, at its bounds, never per trial."""
        self.key(start, component)
        if isinstance(stop, int) and stop < start:
            raise ConfigError(f"trials {start}..{shown(stop - 1)} end before they start",
                              field="trial")
        self.key(max(start, stop - 1) if isinstance(stop, int) else stop, component)

    def _generator(self, trial, component):
        """The shared Generator re-keyed to the substream of (trial, component),
        bit for bit a fresh ``Philox(key=...)`` until the next draw re-keys it
        again, so a plan is not for use from several threads at once."""
        if not (0 <= trial < _TRIALS and 0 <= component < _STREAMS_PER_TRIAL):
            self.key(trial, component)  # raises the range's ConfigError
        generator, state = self._shared
        # the key's two 64-bit words, without forming the 128-bit key
        state["state"]["key"] = (self.master_seed, trial * _STREAMS_PER_TRIAL + component)
        generator.bit_generator.state = state
        return generator

    def normal_block(self, trial, component, out):
        """``out``, a row of n values, filled with N(0,1)^n and returned."""
        # no size: numpy's check of it against out's shape costs more than the copy saved
        return self._generator(trial, component).standard_normal(out=out)

    def message(self, trial, component, M):
        """A message uniform on 1..M: numpy's ``integers(1, M + 1)``, as :meth:`messages` draws."""
        return int(self._generator(trial, component).integers(1, M + 1))

    def normals(self, start, stop, component, n, std):
        """std * N(0,1)^n of trials start..stop-1, one row each; each row is
        drawn as unit normals and the batch scaled once, so the stream layout
        does not depend on std (std = 0 gives zeros)."""
        self._check_span(start, stop, component)
        out = np.empty((stop - start, n))
        for row, trial in zip(out, range(start, stop)):
            self.normal_block(trial, component, row)
        out *= std
        out.flags.writeable = False
        return out

    def first_words(self, start, stop, component):
        """The first 64-bit words of the substreams of trials start..stop-1, each bit for bit
        ``Philox(key=self.key(trial, component)).random_raw()``, in one numpy pass."""
        self._check_span(start, stop, component)
        k0, k1 = self.master_seed, np.arange(start, stop, dtype=np.uint64) * 8 + component
        # round 1 takes counter (1, 0, 0, 0) to (k0, 0, k1, M0); k0 is an int: np.uint64 warns
        c0, c1, c2, c3 = np.full_like(k1, k0), 0, k1, _PHILOX_M[0]
        for _ in range(9):
            k0, k1 = (k0 + _PHILOX_W[0]) & (2**64 - 1), k1 + np.uint64(_PHILOX_W[1])
            (hi0, lo0), (hi1, lo1) = _mulhilo(c0, _PHILOX_M[0]), _mulhilo(c2, _PHILOX_M[1])
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        return c0

    def messages(self, start, stop, component, sizes):
        """{M: the messages of trials start..stop-1 out of 1..M} for each M in ``sizes``, bit
        for bit :meth:`message`. M <= 2**32 maps the low 32 bits of each trial's first word by
        Lemire's rule, or the high 32 bits, numpy's next uint32, where it rejects the low ones; a
        larger M maps the whole word by numpy's 64-bit rule. ``message`` draws the trials these
        reject and, as a check, the first they keep; if that differs, it draws every trial."""
        words, out = self.first_words(start, stop, component), {}
        for M in sorted(set(sizes)):
            if M > 1 << 32:
                m, low = _mulhilo(words, M)
                rejected = low < (2**64 - M) % M
            else:
                m = (words & _LOW) * np.uint64(M)
                m = np.where(m & _LOW < (2**32 - M) % M, (words >> 32) * np.uint64(M), m)
                m, rejected = m >> 32, m & _LOW < (2**32 - M) % M
            out[M] = W = m.astype(np.int64) + 1
            redrawn = np.flatnonzero(rejected).tolist()
            for kept in np.flatnonzero(~rejected)[:1].tolist():  # the check: the first kept trial
                if W[kept] != self.message(start + kept, component, M):
                    redrawn = range(stop - start)
            for i in redrawn:
                W[i] = self.message(start + i, component, M)
            W.flags.writeable = False
        return out


def _mulhilo(a, b):
    """The high and low 64-bit words of a * b, uint64 array by integer, from 32-bit halves."""
    a_lo, a_hi, b_lo, b_hi = a & _LOW, a >> 32, np.uint64(b & _LOW), np.uint64(b >> 32)
    t = a_hi * b_lo + (a_lo * b_lo >> 32)
    u = (t & _LOW) + a_lo * b_hi
    return a_hi * b_hi + (t >> 32) + (u >> 32), a * np.uint64(b)


def _pe_with_ci(count, trials):
    pe = float(count) / trials
    half = 1.96 * math.sqrt(pe * (1.0 - pe) / trials)
    return pe, half


def _mean_with_se(values):
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(values.size))


@dataclasses.dataclass(frozen=True)
class ExperimentReport:
    """Aggregated Monte Carlo results next to the matching theory values.

    ``deltas`` holds empirical minus theory for every quantity both sides
    define. Error bars: binomial 95% normal-approximation half-width for
    error probabilities, standard error of the mean for distortion.
    """

    scheme: str
    config: dict
    trials: int
    rates: dict
    empirical: dict
    theory: dict
    deltas: dict
    flags: list

    def as_dict(self):
        return dataclasses.asdict(self)


#: Per-user name suffixes of the report keys and trace columns, by user count.
_SUFFIXES = {1: ("",), 2: ("1", "2")}


def run_batch(coeffs, sizes, messages, S, eta, weight, traces=True, *, out=None):
    """The :class:`dpsk.sk_dpc.SchemeTrace` of a batch of any scheme: the K encoders of
    ``coeffs`` with their K message-set ``sizes`` and (B,) ``messages``, over the (B, n)
    state ``S`` and noise ``eta`` its loop runs on, and the receiver's state estimate,
    ``weight`` (a scalar or an (n,) row) times Y. Y, X and theta_hat are None unless
    ``traces``; without them the state estimate takes the kernel's Y buffer, which is
    ``out``, eta itself included, as in :func:`dpsk.sk_dpc._closed_loop`, or a new one."""
    thetas = [sk_dpc.message_to_theta(W, M) for W, M in zip(messages, sizes)]
    sk_dpc.check_batch((len(messages[0]), coeffs.n), S=S, eta=eta)
    # read by L and K when called; _closed_loop and decode_batch once perfbench names neither
    L = len(coeffs.message_amp)
    loop = (sk_dpc.simulate_forwarding_batch, sk_dpc.simulate_message_batch,
            sk_dpmac.simulate_mac_batch)[L](coeffs, *thetas[:L], S, eta, traces, out=out)
    W_hat = (np.stack(sk_dpmac.mac_decode_batch(*loop.theta_final, *sizes)) if len(sizes) == 2
             else sk_dpc.decode_batch(loop.theta_final, *sizes))
    S_hat = sk_dpc.estimate_state(loop.Y, weight, out=None if traces else loop.Y)
    return loop._replace(Y=loop.Y if traces else None, W=np.stack(messages), W_hat=W_hat,
                         M=tuple(sizes), S=S, S_hat=S_hat)


#: A scheme run function's rates, M per message component, :func:`run_batch` data and tail.
_Run = collections.namedtuple("_Run", ("rates", "sizes", "coeffs", "weight", "tail"))


def _simulate(params, stds, n, trials, plan, runs, trace_writer, workers):
    """Each run's measured block (:func:`_empirical`) over every batch.

    A batch draws each (component, standard deviation) of ``stds`` as (B, n)
    rows and each message component as {M: messages} over every run's M,
    once, and turns an observation noise into the equivalent draws, whose
    state takes its buffer. Each run takes its :func:`run_batch` on them, with
    Y, X and theta_hat traces, and the true S, only for a ``trace_writer``;
    without one, its Y takes the buffer of a draw the batch no longer needs,
    if any, as each run's Y is reduced before the next run starts: eta for
    the last run, or the raw eta for every run on the equivalent draws. The
    batches run in up to
    ``workers`` processes (:func:`_in_batch_order`), and their results are
    added in batch order. A trial count whose per-trial results numpy cannot
    allocate is rejected before the first draw.
    """
    suffixes = _SUFFIXES[len(params.SPLIT)]
    try:
        sq_err = np.empty((len(runs), trials))
    except (ValueError, MemoryError):
        raise ConfigError(f"trials = {shown(trials)} is too many: their per-trial results do not "
                          "fit in memory", field="trials") from None
    errors = np.zeros((len(runs), len(suffixes)), dtype=np.int64)
    power_sums = np.zeros((len(runs), len(suffixes), n))
    sizes = {component: {run.sizes[component] for run in runs} for component in runs[0].sizes}
    traces = trace_writer is not None

    def measure(start):
        """Each run's (K,) error counts, (K, n) power row and (B,) squared
        errors on the batch of trials from ``start``."""
        stop = min(start + BATCH, trials)
        normals = {c: plan.normals(start, stop, c, n, std) for c, std in stds}
        messages = {c: plan.messages(start, stop, c, Ms) for c, Ms in sizes.items()}
        S, eta = normals[STATE], normals.pop(NOISE)
        # this batch's own draws: only the buffers below are written, each once it is dead
        eta.flags.writeable = True
        draws, buffers = (S, eta), [None] * (len(runs) - 1) + [eta]
        if OBS_NOISE in normals:  # the noisy loops' own state, in Z, and (slot-major) noise
            Z = normals.pop(OBS_NOISE)
            Z.flags.writeable = True
            draws = noisy_obs.equivalent_draws(params, S, Z, eta, out=Z)
            buffers = [eta] * len(runs)
        results = []
        for run, buffer in zip(runs, buffers):
            Ws = [messages[c][M] for c, M in run.sizes.items()]
            trace = run_batch(run.coeffs, run.sizes.values(), Ws, *draws, run.weight, traces,
                              out=None if traces else buffer)
            # unless a trace writer reads S_hat, its buffer takes the squared error
            err = np.subtract(S, trace.S_hat, out=None if traces else trace.S_hat)
            results.append((np.count_nonzero(trace.W_hat != trace.W, axis=1), trace.power,
                            np.mean(np.square(err, out=err), axis=1)))
            if traces:
                columns = {**{f"X{s}": x for s, x in zip(suffixes, trace.X)}, "Y": trace.Y,
                           **{f"theta{s}_hat": th for s, th in zip(suffixes, trace.theta_hat)},
                           "S": S, "S_hat": trace.S_hat}
                for j, trial in enumerate(range(start, stop)):
                    trace_writer(trial, {name: column[j] for name, column in columns.items()})
            # free the kernel's (B, n) outputs before the next runner or draw
            del trace, err
        return results

    def add(start, results):
        for i, (count, power, sq) in enumerate(results):
            errors[i] += count
            power_sums[i] += power
            sq_err[i, start:start + sq.size] = sq

    # a trace writer keeps its batches in process: forked ones would pickle their
    # (B, n) traces to it (mac peak RSS 93 -> 159 MB at 2 workers, no time saved)
    _in_batch_order(measure, add, range(0, trials, BATCH), 1 if traces else workers)
    return [_empirical(*sums, trials) for sums in zip(errors, sq_err, power_sums)]


def _in_batch_order(measure, add, starts, workers):
    """``add(start, measure(start))`` for each of ``starts``, in order.

    With P = min(workers, batches) processes, or one where the platform
    cannot fork, batch b runs in process b % P: this one when P divides b,
    which is every batch when P = 1, else one of P - 1 forked
    :class:`_Worker` children. Draws are keyed by trial, so a batch draws the
    same bits in any process, and adding the results in batch order gives
    the bytes of one process. A child that fails, dies or cannot start, and
    a batch of this process that runs out of memory, raise DpskError here;
    on any failure every child is sent SIGTERM, and every child is reaped
    before this returns or raises.
    """
    processes = min(workers, len(starts)) if hasattr(os, "fork") else 1
    children = []
    try:
        if processes > 1:
            # a child that writes flushes its copies of these buffers, so they must be empty
            sys.stdout.flush()
            sys.stderr.flush()
        for p in range(1, processes):
            children.append(_Worker(measure, starts[p::processes]))
        for b, start in enumerate(starts):
            if b % processes:
                add(start, children[b % processes - 1].received())
                continue
            try:
                results = measure(start)
            except MemoryError as exc:
                raise DpskError(f"a batch failed: {type(exc).__name__}: {exc}") from None
            add(start, results)
    except BaseException:
        # a child left running could wait forever on a full pipe
        for child in children:
            child.stop()
        raise
    finally:
        for child in children:
            child.close()


class _Worker:
    """A forked batch worker process and the read end of the pipe it sends
    its batches' results through."""

    def __init__(self, measure, starts):
        self.code = None  # the exit code once reaped, negative for a signal
        reader, writer = os.pipe()
        try:
            self.pid = os.fork()
        except OSError as exc:
            os.close(reader)
            os.close(writer)
            raise DpskError(f"could not start a batch worker process: {exc}") from None
        if self.pid == 0:
            _send_batches(measure, starts, reader, writer)  # never returns
        os.close(writer)
        self.pipe = open(reader, "rb")

    def received(self):
        """The next results the worker sent; DpskError if it failed or died."""
        try:
            results = pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):  # nothing more, or a truncated pickle
            code = self.wait()
            how = f"died on signal {-code}" if code < 0 else f"exited with code {code}"
            raise DpskError(f"a batch worker process {how}") from None
        if isinstance(results, str):
            raise DpskError(f"a batch worker process failed: {results}")
        return results

    def wait(self):
        """The worker's exit code, negative for a signal; it is reaped once."""
        if self.code is None:
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.code

    def stop(self):
        """Send the worker SIGTERM, unless it is reaped."""
        import signal  # only a failing run needs it, and importing it costs 0.6 ms

        if self.code is None:
            os.kill(self.pid, signal.SIGTERM)

    def close(self):
        """Close the pipe and reap the worker."""
        self.pipe.close()
        self.wait()


def _send_batches(measure, starts, reader, writer):
    """A batch worker process: each of ``starts``' results pickled to the
    pipe ``writer``, in order, or the first failure as one line of text. It
    leaves through ``os._exit``, with SystemExit's code or 1 for any other
    escaping exception, so it never returns into the caller's stack and
    never runs the caller's ``atexit`` handlers."""
    code = 1
    try:
        os.close(reader)
        with open(writer, "wb") as pipe:
            try:
                for start in starts:
                    pickle.dump(measure(start), pipe, pickle.HIGHEST_PROTOCOL)
                    pipe.flush()
            except Exception as exc:  # the worker's boundary: the caller reports it
                pickle.dump(f"{type(exc).__name__}: {exc}", pipe)
        code = 0
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        os._exit(code)


def _empirical(errors, sq_err, power_sums, trials):
    """The report's measured block for one or two users.

    Per-user keys carry the :data:`_SUFFIXES` of the user count. Steady
    power skips the slots in which the loops start, one per user.
    """
    users = len(errors)
    suffixes = _SUFFIXES[users]
    per_symbol = power_sums / trials
    rows = list(zip(suffixes, per_symbol))
    empirical = {}
    for s, count in zip(suffixes, errors):
        empirical[f"pe{s}"], empirical[f"pe{s}_ci95"] = _pe_with_ci(count, trials)
    empirical["distortion"], empirical["distortion_se"] = _mean_with_se(sq_err)
    empirical.update({f"power{s}": float(row.mean()) for s, row in rows})
    if users == 1:
        empirical["time1_power"] = float(per_symbol[0, 0])
    empirical.update({f"steady_power{s}": float(row[users:].mean()) for s, row in rows})
    empirical.update({f"symbol_power{s}": [float(v) for v in row] for s, row in rows})
    return empirical


def _run_dpc(params, loop, split, block, paper_sgn):
    """The single-user scheme's :class:`_Run`, whose tail maps the measured block to
    the report's theory, deltas and flags; ``loop`` is ``params``, ``paper_sgn`` unused."""
    gamma = split.gamma
    rate, M, coeffs = sk_dpc.resolve_loop(params, gamma, block)

    def tail(empirical):
        d_step = regions.dpc_min_distortion(params, gamma)
        theory = {
            "rate_cap": regions.dpc_rate_cap(params, gamma),
            "distortion": regions.finite_n_distortion(params.Q, block.n, d_step, 1),
            "distortion_step": d_step,
            "power": sk_dpc.spent_power(gamma, params.P, params.Q),
            "time1_power": sk_dpc.time1_power_theory(coeffs, M),
        }
        deltas = {
            "distortion": empirical["distortion"] - theory["distortion"],
            "time1_power": empirical["time1_power"] - theory["time1_power"],
            "steady_power": empirical["steady_power"] - theory["power"],
        }
        return theory, deltas, []

    return _Run({"rate": rate, "M": M}, {MSG: M}, coeffs,
                sk_dpc.estimation_coefficient(params, gamma), tail)


def _run_noisy(params, loop, split, block, paper_sgn):
    """:func:`_run_dpc` for the noisy-observation scheme, whose loop runs on
    ``loop``, the clean-state channel it reduces to."""
    gamma = split.gamma
    rate, M, coeffs = sk_dpc.resolve_loop(loop, gamma, block, noisy_obs.EQUIVALENT_NOISE)

    def tail(empirical):
        bound_step = regions.noisy_min_distortion(params, gamma)
        scheme_step = noisy_obs.scheme_step_distortion(params, gamma)
        theory = {
            "rate_cap": regions.noisy_rate_cap(params, gamma),
            "kappa": regions.observation_weight(params),
            "distortion_scheme": regions.finite_n_distortion(params.Q, block.n, scheme_step, 1),
            "distortion_scheme_step": scheme_step,
            "distortion_bound": regions.finite_n_distortion(params.Q, block.n, bound_step, 1),
            "distortion_bound_step": bound_step,
            "power": sk_dpc.spent_power(gamma, loop.P, loop.Q),
        }
        distortion = empirical["distortion"]
        deltas = {
            "distortion_scheme": distortion - theory["distortion_scheme"],
            "distortion_bound": distortion - theory["distortion_bound"],
            "steady_power": empirical["steady_power"] - theory["power"],
        }
        flags = []
        bound = theory["distortion_bound"]
        if bound > 0.0 and abs(distortion - bound) / bound > _DISTORTION_FLAG_REL:
            # The published closed form and the simulated scheme disagree
            # beyond tolerance (the scheme's distortion lies below it); report
            # both rather than hide it.
            flags.append("distortion_bound_mismatch")
        return theory, deltas, flags

    return _Run({"rate": rate, "M": M}, {MSG: M}, coeffs,
                noisy_obs.true_state_coefficient(params, gamma), tail)


def _run_mac(params, loop, split, block, paper_sgn):
    """:func:`_run_dpc` for the two-encoder scheme."""
    gamma, beta = split.gamma, split.beta
    (rate1, M1), (rate2, M2), caps = sk_dpmac.resolve_mac_rates(params, gamma, beta, block)
    coeffs = sk_dpmac.mac_coefficients(params, gamma, beta, block.n, paper_sgn=paper_sgn)

    def tail(empirical):
        rho_final = float(coeffs.rho[-1])
        theory = {
            "rho_star": caps.rho,
            "rho_final": rho_final,
            "r1_max": caps.r1_max, "r2_max": caps.r2_max, "rsum_max": caps.rsum_max,
            "distortion": regions.finite_n_distortion(params.Q, block.n, caps.d_min, 2),
            "distortion_step": caps.d_min,
            "power1": sk_dpc.spent_power(gamma, params.P1, params.Q),
            "power2": sk_dpc.spent_power(beta, params.P2, params.Q),
        }
        deltas = {
            "distortion": empirical["distortion"] - theory["distortion"],
            "steady_power1": empirical["steady_power1"] - theory["power1"],
            "steady_power2": empirical["steady_power2"] - theory["power2"],
            "rho": rho_final - caps.rho,
        }
        flags = []
        if abs(deltas["rho"]) > _RHO_CONVERGENCE_TOL:
            flags.append("mac_rho_nonconvergence")
        return theory, deltas, flags

    return _Run({"rate1": rate1, "M1": M1, "rate2": rate2, "M2": M2}, {MSG: M1, MSG2: M2},
                coeffs, coeffs.est_coef, tail)


def _dpc_points(params, gamma_grid, beta_grid, n):
    """Each sweep point's region record as the columns that lead its row
    (the point) and the theory columns that end it."""
    return [({"gamma": p.gamma}, {"rate_cap": p.rate, "theory_distortion": p.distortion})
            for p in regions.boundary_sweep(params, gamma_grid)]


def _noisy_points(params, gamma_grid, beta_grid, n):
    """:func:`_dpc_points` with sigma_z2 and the scheme's own finite-n distortion."""
    points = _dpc_points(params, gamma_grid, beta_grid, n)
    for lead, theory in points:
        lead["sigma_z2"] = params.sigma_z2
        step = noisy_obs.scheme_step_distortion(params, lead["gamma"])
        theory["theory_distortion_scheme"] = regions.finite_n_distortion(params.Q, n, step, 1)
    return points


def _mac_points(params, gamma_grid, beta_grid, n):
    """:func:`_dpc_points` over the two-encoder feedback region at rho*."""
    return [
        ({"gamma": c.gamma, "beta": c.beta, "rho_star": c.rho},
         {"r1_max": c.r1_max, "r2_max": c.r2_max, "rsum_max": c.rsum_max, "d_min": c.d_min})
        for c in regions.mac_fb_region(params, gamma_grid, beta_grid)
    ]


_Scheme = collections.namedtuple("_Scheme", ("run", "points", "measured", "check", "loop"),
                                 defaults=(None,))

#: Each scheme's run function, its sweep points, the report entries (rates, then empirical
#: values) that a sweep row carries, its split's verdict on n, which its coefficient call also
#: reaches, and the function that gives the channel its loops run on, unless the scheme's own.
_SCHEMES = {
    "dpc": _Scheme(_run_dpc, _dpc_points, ("rate", "pe", "distortion"), _check_loop),
    "mac": _Scheme(_run_mac, _mac_points, ("rate1", "rate2", "pe1", "pe2", "distortion"),
                   _check_mac),
    "noisy": _Scheme(_run_noisy, _noisy_points, ("rate", "pe", "distortion"),
                     functools.partial(_check_loop, noise=noisy_obs.EQUIVALENT_NOISE),
                     noisy_obs.make_equivalent),
}


def _run_config(scheme, params, split, block, trials, plan):
    """The run's validated :class:`RunConfig`; a run needs a block and a :class:`RandomPlan`."""
    if block is None:
        raise ConfigError("simulation needs a block configuration", field="n")
    if not isinstance(plan, RandomPlan):
        raise ConfigError(f"plan must be a RandomPlan, got {type(plan).__name__}", field="plan")
    return RunConfig(scheme, params, split, block, trials, plan.master_seed)


def run_experiment(scheme, params, splits, block, trials, plan,
                   paper_sgn=False, trace_writer=None, workers=1):
    """One seeded Monte Carlo report per power split of ``splits``, in
    order, all on the same trials and each batch drawn once.

    A split whose resolution raises DegenerateSplit gets None; if every
    split does, the first one's is raised. ``trace_writer``, for one split
    only, is called per trial, in trial order, with the trial index and a
    dict of per-symbol columns. Messages are drawn uniformly; the error
    probability is the fraction of wrongly decoded messages and distortion
    the time-averaged squared estimation error including the estimate-free
    initial slots. Up to ``workers`` processes share the batches of a run
    without a trace writer; the reports do not depend on how many. Each
    split's verdict on n, then the fit of a batch of draws, precede resolution.
    """
    check_count("workers", workers)
    check_flag("paper_sgn", paper_sgn)
    splits = check_grid("splits", splits)
    if trace_writer is not None and len(splits) > 1:
        raise ConfigError(f"a trace writer takes the trials of one split, not {len(splits)}")
    configs = [_run_config(scheme, params, split, block, trials, plan) for split in splits]
    stds = [(c, math.sqrt(getattr(params, v))) for c, v in _VARIANCES if hasattr(params, v)]
    spec = _SCHEMES[scheme]
    loop = spec.loop(params) if spec.loop else params  # the channel the loops run on
    for split in splits:
        spec.check(loop, split, block.n, paper_sgn)
    try:
        np.empty((len(stds), min(trials, BATCH), block.n))
    except (ValueError, MemoryError):
        raise ConfigError(f"n = {block.n} is too long: a batch's normal draws do not fit in "
                          "memory", field="n") from None
    runs = []
    for split in splits:
        try:
            runs.append(spec.run(params, loop, split, block, paper_sgn))
        except DegenerateSplit as exc:
            runs.append(exc)
    live = [run for run in runs if isinstance(run, _Run)]
    if not live:
        raise runs[0]
    measured = iter(_simulate(params, stds, block.n, trials, plan, live, trace_writer, workers))
    reports = []
    for config, run in zip(configs, runs):
        report = None
        if isinstance(run, _Run):
            empirical = next(measured)
            report = ExperimentReport(scheme, to_config_dict(config), trials, run.rates,
                                      empirical, *run.tail(empirical))
        reports.append(report)
    return reports


def run_config(config: RunConfig, paper_sgn=False, trace_writer=None, workers=1):
    """The report of :func:`run_experiment` on a RunConfig's one split."""
    (report,) = run_experiment(
        config.scheme, config.channel, [config.split], config.block, config.trials,
        RandomPlan(config.seed), paper_sgn=paper_sgn, trace_writer=trace_writer,
        workers=workers,
    )
    return report


def sweep(scheme, params, gamma_grid, block, trials, plan, beta_grid=None, paper_sgn=False,
          workers=1):
    """One experiment over every grid point's split, each row the point's
    region record (the ``region`` command's boundary, or the two-encoder
    feedback region at rho*) with its report's measured columns in between.
    All points share each batch's draws; rows are comparable but not
    mutually independent. The two-encoder beta grid defaults to the gamma
    grid; :func:`dpsk.params.check_grid` rejects an empty or non-sequence grid.
    ``workers`` is :func:`run_experiment`'s.

    A point whose resolution raises DegenerateSplit keeps its theory
    columns and holds NaN in the measured ones: two-encoder points without
    message power on both sides, and single-user points at gamma*P = 0
    under a fixed rate that needs more than one message.
    """
    gamma_grid = check_grid("gamma_grid", gamma_grid)
    if beta_grid is None and "beta" in getattr(params, "SPLIT", ()):
        beta_grid = gamma_grid
    # a split with the fractions the grids vary checks the sweep up front
    _run_config(scheme, params, PowerSplit(0.0, None if beta_grid is None else 0.0),
                block, trials, plan)
    _, region_points, keys, _, _ = _SCHEMES[scheme]
    points = region_points(params, gamma_grid, beta_grid, block.n)
    splits = [PowerSplit(lead["gamma"], lead.get("beta")) for lead, _ in points]
    try:
        reports = run_experiment(scheme, params, splits, block, trials, plan, paper_sgn,
                                 workers=workers)
    except DegenerateSplit:
        reports = [None] * len(splits)
    rows = []
    for (lead, theory), report in zip(points, reports):
        if report is None:
            measured = dict.fromkeys(keys, math.nan)
        else:
            values = {**report.rates, **report.empirical}
            measured = {key: values[key] for key in keys}
        rows.append({**lead, **measured, **theory})
    return rows
