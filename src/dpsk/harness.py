"""Seeded Monte Carlo experiments over the three coding schemes.

Randomness contract: every trial owns one counter-based substream per
random component (state, channel noise, observation noise, messages),
keyed by (master_seed, trial, component) alone. Draws therefore do not
depend on batch size or execution order, and two runs with the same seed
and configuration produce bit-identical reports. A plan builds one Philox
generator and re-keys it per substream, which draws exactly what a fresh
``Philox(key=...)`` per substream would. Trials run in batches,
one after the other; per-trial results land in preallocated slots and each
batch's per-slot symbol powers, which the batch runner sums over the
batch's trials in order, are added to running per-user sums in batch
order. Normal blocks are drawn as unit normals straight into the rows of
their batch, which is then scaled once. The runners store the per-symbol
X and theta_hat traces only for a run with a trace writer.
"""

import collections
import dataclasses
import math

import numpy as np

from . import noisy_obs, regions, sk_dpc, sk_dpmac
from .errors import ConfigError, DegenerateSplit
from .params import PowerSplit, RunConfig, check_seed, to_config_dict

# Stream component ids. OBS_NOISE sits between NOISE and MSG so that a
# noisy-observation run with sigma_z2 = 0 consumes exactly the same state,
# noise and message draws as the plain run it must reproduce.
STATE, NOISE, OBS_NOISE, MSG, MSG2 = range(5)
_STREAMS_PER_TRIAL = 8
_WORD = (1 << 64) - 1
_TRIALS = (1 << 64) // _STREAMS_PER_TRIAL

#: Trials simulated per batch; fixed so batching never affects output.
BATCH = 4096

_RHO_CONVERGENCE_TOL = 1e-3
_DISTORTION_FLAG_REL = 0.02


@dataclasses.dataclass(frozen=True)
class RandomPlan:
    """Derivation rule from a master seed to per-trial substreams, and the
    last batch of trials drawn for each component.

    A plan keeps that batch read-only and hands it back while the same draw
    (trials, length and scale, or message-set size) is asked for again. So
    the points of a sweep with at most ``BATCH`` trials share one set of
    state, noise and observation-noise arrays, and arrays taken from a plan
    must not be written to. The kept batches are not keyed by the seed,
    which is why a plan is frozen.
    """

    master_seed: int

    def __post_init__(self):
        check_seed("seed", self.master_seed)
        object.__setattr__(self, "_shared", np.random.Generator(np.random.Philox(key=0)))
        object.__setattr__(self, "_kept", {})

    def key(self, trial, component):
        """128-bit counter key: the master seed in the low 64-bit word and
        trial * 8 + component, unique per (trial, component), in the high one."""
        if not 0 <= trial < _TRIALS:
            raise ConfigError(f"trial index must be in 0..2**61-1, got {trial}", field="trial")
        if not 0 <= component < _STREAMS_PER_TRIAL:
            raise ConfigError(f"component must be in 0..7, got {component}", field="component")
        return self.master_seed + ((trial * _STREAMS_PER_TRIAL + component) << 64)

    def _generator(self, trial, component):
        """The shared Generator re-keyed to the substream of (trial, component),
        bit for bit a fresh ``Philox(key=...)`` until the next draw re-keys it
        again, so a plan is not for use from several threads at once."""
        key = self.key(trial, component)
        self._shared.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (key & _WORD, key >> 64)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._shared

    def normal_block(self, trial, component, n, out=None):
        """N(0,1)^n, written into ``out`` (a new array when None)."""
        return self._generator(trial, component).standard_normal(n, out=out)

    def message(self, trial, component, M):
        """A message drawn uniformly from 1..M."""
        return int(self._generator(trial, component).integers(1, M + 1))

    def normals(self, start, stop, component, n, std):
        """std * N(0,1)^n of trials start..stop-1, one row each; each row is
        drawn as unit normals and the batch scaled once, so the stream layout
        does not depend on std (std = 0 gives zeros)."""
        def draw():
            out = np.empty((stop - start, n))
            for row, trial in zip(out, range(start, stop)):
                self.normal_block(trial, component, n, out=row)
            out *= std
            return out

        return self._batch(component, (start, stop, n, std), draw)

    def messages(self, start, stop, component, M):
        """The messages out of 1..M of trials start..stop-1."""
        def draw():
            return np.fromiter((self.message(trial, component, M) for trial in range(start, stop)),
                               dtype=np.int64, count=stop - start)

        return self._batch(component, (start, stop, M), draw)

    def _batch(self, component, key, draw):
        """``draw()``'s batch of ``component``, drawn again only when ``key``
        differs from the last one drawn for it."""
        kept = self._kept.get(component)
        if kept is not None and kept[0] == key:
            return kept[1]
        batch = draw()
        batch.flags.writeable = False
        self._kept[component] = (key, batch)
        return batch


def _spans(trials):
    return [(s, min(s + BATCH, trials)) for s in range(0, trials, BATCH)]


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


def _simulate(params, n, trials, plan, run_batch, trace_writer):
    """Draw, simulate and reduce every batch of trials in order.

    ``run_batch(start, stop, S, eta, traces)`` draws the messages (and any
    other draw the scheme needs) of trials start..stop-1 and returns the
    :class:`dpsk.sk_dpc.SchemeTrace` of the scheme's batch runner on them,
    with K = ``len(params.SPLIT)`` encoders. The runner stores its X and
    theta_hat traces only when ``traces`` is set, that is, when there is a
    ``trace_writer`` to hand them to, one column per user. Collects per-user
    error counts (K,), per-trial squared estimation errors and per-user
    symbol power sums (K, n), and returns the report's measured block built
    from them by :func:`_empirical`. A trial count whose per-trial results
    numpy cannot allocate is rejected before any draw.
    """
    suffixes = _SUFFIXES[len(params.SPLIT)]
    try:
        sq_err = np.empty(trials)
    except (ValueError, MemoryError):
        raise ConfigError(f"trials = {trials} is too many: their per-trial results do not "
                          "fit in memory", field="trials") from None
    errors = np.zeros(len(suffixes), dtype=np.int64)
    power_sums = np.zeros((len(suffixes), n))
    traces = trace_writer is not None

    for start, stop in _spans(trials):
        S = plan.normals(start, stop, STATE, n, math.sqrt(params.Q))
        eta = plan.normals(start, stop, NOISE, n, math.sqrt(params.sigma2))
        trace = run_batch(start, stop, S, eta, traces)
        errors += np.count_nonzero(trace.W_hat != trace.W, axis=1)
        power_sums += trace.power
        sq_err[start:stop] = np.mean((S - trace.S_hat) ** 2, axis=1)
        if traces:
            columns = {**{f"X{s}": x for s, x in zip(suffixes, trace.X)}, "Y": trace.Y,
                       **{f"theta{s}_hat": th for s, th in zip(suffixes, trace.theta_hat)},
                       "S": trace.S, "S_hat": trace.S_hat}
            for i, trial in enumerate(range(start, stop)):
                trace_writer(trial, {name: column[i] for name, column in columns.items()})
        # free the kernel's (B, n) outputs before the next draw; the draws
        # themselves stay with the plan until it draws that component again
        del trace
    return _empirical(errors, sq_err, power_sums, trials)


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


def _run_dpc(params, split, block, trials, plan, paper_sgn, trace_writer):
    """The single-user scheme's rates, measured block, theory, deltas and
    flags; ``paper_sgn`` does not apply to it."""
    gamma = split.gamma
    rate, M, coeffs = sk_dpc.resolve_loop(params, gamma, block)

    def run_batch(start, stop, S, eta, traces):
        W = plan.messages(start, stop, MSG, M)
        return sk_dpc.run_batch(params, gamma, M, coeffs, W, S, eta, traces=traces)

    empirical = _simulate(params, block.n, trials, plan, run_batch, trace_writer)
    forwarded = sk_dpc.state_forward_coefficient(params, gamma) ** 2 * params.Q
    d_step = regions.dpc_min_distortion(params, gamma)
    message_path = coeffs is not None
    theory = {
        "rate_cap": regions.dpc_rate_cap(params, gamma),
        "distortion": regions.finite_n_distortion(params.Q, block.n, d_step, 1),
        "distortion_step": d_step,
        "power": params.P if message_path else forwarded,
        "time1_power": sk_dpc.time1_power_theory(coeffs, M) if message_path else forwarded,
    }
    deltas = {
        "distortion": empirical["distortion"] - theory["distortion"],
        "time1_power": empirical["time1_power"] - theory["time1_power"],
        "steady_power": empirical["steady_power"] - theory["power"],
    }
    return {"rate": rate, "M": M}, empirical, theory, deltas, []


def _run_noisy(params, split, block, trials, plan, paper_sgn, trace_writer):
    """:func:`_run_dpc` for the noisy-observation scheme, which runs on the
    clean-state channel it reduces to."""
    gamma = split.gamma
    eq_params = noisy_obs.make_equivalent(params)
    rate, M, coeffs = sk_dpc.resolve_loop(eq_params, gamma, block, noisy_obs.EQUIVALENT_NOISE)

    def run_batch(start, stop, S, eta, traces):
        W = plan.messages(start, stop, MSG, M)
        Z = plan.normals(start, stop, OBS_NOISE, block.n, math.sqrt(params.sigma_z2))
        return noisy_obs.noisy_run_batch(params, gamma, M, coeffs, W, S, Z, eta, traces=traces)

    empirical = _simulate(params, block.n, trials, plan, run_batch, trace_writer)
    forward = sk_dpc.state_forward_coefficient(eq_params, gamma)
    bound_step = regions.noisy_min_distortion(params, gamma)
    scheme_step = noisy_obs.scheme_step_distortion(params, gamma)
    theory = {
        "rate_cap": regions.noisy_rate_cap(params, gamma),
        "kappa": regions.observation_weight(params),
        "distortion_scheme": regions.finite_n_distortion(params.Q, block.n, scheme_step, 1),
        "distortion_scheme_step": scheme_step,
        "distortion_bound": regions.finite_n_distortion(params.Q, block.n, bound_step, 1),
        "distortion_bound_step": bound_step,
        "power": params.P if coeffs is not None else forward**2 * eq_params.Q,
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
    return {"rate": rate, "M": M}, empirical, theory, deltas, flags


def _run_mac(params, split, block, trials, plan, paper_sgn, trace_writer):
    """:func:`_run_dpc` for the two-encoder scheme."""
    gamma, beta = split.gamma, split.beta
    (rate1, M1), (rate2, M2), caps = sk_dpmac.resolve_mac_rates(params, gamma, beta, block)
    coeffs = sk_dpmac.mac_coefficients(params, gamma, beta, block.n, paper_sgn=paper_sgn)

    def run_batch(start, stop, S, eta, traces):
        W1 = plan.messages(start, stop, MSG, M1)
        W2 = plan.messages(start, stop, MSG2, M2)
        return sk_dpmac.mac_run_batch(coeffs, M1, M2, W1, W2, S, eta, traces=traces)

    empirical = _simulate(params, block.n, trials, plan, run_batch, trace_writer)
    rho_final = float(coeffs.rho[-1])
    theory = {
        "rho_star": caps.rho,
        "rho_final": rho_final,
        "r1_max": caps.r1_max,
        "r2_max": caps.r2_max,
        "rsum_max": caps.rsum_max,
        "distortion": regions.finite_n_distortion(params.Q, block.n, caps.d_min, 2),
        "distortion_step": caps.d_min,
        "power1": params.P1,
        "power2": params.P2,
    }
    deltas = {
        "distortion": empirical["distortion"] - theory["distortion"],
        "steady_power1": empirical["steady_power1"] - params.P1,
        "steady_power2": empirical["steady_power2"] - params.P2,
        "rho": rho_final - caps.rho,
    }
    flags = []
    if abs(deltas["rho"]) > _RHO_CONVERGENCE_TOL:
        flags.append("mac_rho_nonconvergence")
    rates = {"rate1": rate1, "M1": M1, "rate2": rate2, "M2": M2}
    return rates, empirical, theory, deltas, flags


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


_Scheme = collections.namedtuple("_Scheme", ("run", "points", "measured"))

#: Each scheme's run function, its sweep points, and the report entries
#: (rates, then empirical values) that a sweep row carries.
_SCHEMES = {
    "dpc": _Scheme(_run_dpc, _dpc_points, ("rate", "pe", "distortion")),
    "mac": _Scheme(_run_mac, _mac_points, ("rate1", "rate2", "pe1", "pe2", "distortion")),
    "noisy": _Scheme(_run_noisy, _noisy_points, ("rate", "pe", "distortion")),
}


def _run_config(scheme, params, split, block, trials, plan):
    """The run's validated :class:`RunConfig`; a run needs a block."""
    if block is None:
        raise ConfigError("simulation needs a block configuration", field="n")
    return RunConfig(scheme, params, split, block, trials, plan.master_seed)


def run_experiment(scheme, params, split, block, trials, plan,
                   paper_sgn=False, trace_writer=None):
    """Run a seeded Monte Carlo experiment and aggregate a report.

    ``trace_writer``, when given, is called once per trial, in trial
    order, with the trial index and a dict of per-symbol columns. Messages
    are drawn uniformly; the error probability is the fraction of wrongly
    decoded messages and distortion the time-averaged squared estimation
    error including the estimate-free initial slots.
    """
    config = _run_config(scheme, params, split, block, trials, plan)
    rates, empirical, theory, deltas, flags = _SCHEMES[scheme].run(
        params, split, block, trials, plan, paper_sgn, trace_writer
    )
    return ExperimentReport(
        scheme=scheme,
        config=to_config_dict(config),
        trials=trials,
        rates=rates,
        empirical=empirical,
        theory=theory,
        deltas=deltas,
        flags=flags,
    )


def run_config(config: RunConfig, paper_sgn=False, trace_writer=None):
    """Convenience wrapper over :func:`run_experiment` for a RunConfig."""
    return run_experiment(
        config.scheme, config.channel, config.split, config.block, config.trials,
        RandomPlan(config.seed), paper_sgn=paper_sgn, trace_writer=trace_writer,
    )


def sweep(scheme, params, gamma_grid, block, trials, plan, beta_grid=None, paper_sgn=False):
    """One experiment per grid point, each row the point's region record
    (the ``region`` command's boundary, or the two-encoder feedback region
    at rho*) with the report's measured columns in between. All points
    reuse the same per-trial substreams; rows are comparable but not
    mutually independent. Every point runs on ``plan``, which keeps its
    last batch per component, so with at most ``BATCH`` trials the state,
    noise and observation-noise arrays are drawn once and shared by all
    points, and messages are drawn again only where the message-set size
    changes. The two-encoder beta grid defaults to the gamma grid; the
    region functions reject empty grids with EmptyGrid.

    A point whose run raises DegenerateSplit keeps its theory columns and
    holds NaN in the measured ones: two-encoder points without message
    power on both sides, and single-user points at gamma*P = 0 under a
    fixed rate that needs more than one message.
    """
    gamma_grid = list(gamma_grid)
    if beta_grid is None and "beta" in getattr(params, "SPLIT", ()):
        beta_grid = gamma_grid
    # a split with the fractions the grids vary checks the sweep up front
    _run_config(scheme, params, PowerSplit(0.0, None if beta_grid is None else 0.0),
                block, trials, plan)
    _, points, keys = _SCHEMES[scheme]
    rows = []
    for lead, theory in points(params, gamma_grid, beta_grid, block.n):
        split = PowerSplit(lead["gamma"], lead.get("beta"))
        try:
            report = run_experiment(scheme, params, split, block, trials, plan, paper_sgn)
        except DegenerateSplit:
            measured = dict.fromkeys(keys, math.nan)
        else:
            values = {**report.rates, **report.empirical}
            measured = {key: values[key] for key in keys}
        rows.append({**lead, **measured, **theory})
    return rows
