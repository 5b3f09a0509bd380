"""Seeded Monte Carlo experiments over the three coding schemes.

Randomness contract: every trial owns one counter-based substream per
random component (state, channel noise, observation noise, messages),
keyed by (master_seed, trial, component) alone. Draws therefore do not
depend on batch size or execution order, and two runs with the same seed
and configuration produce bit-identical reports. A plan builds one Philox
generator and re-keys it per substream, which draws exactly what a fresh
``Philox(key=...)`` per substream would. Trials run in batches,
one after the other; per-trial results land in preallocated slots and each
batch's symbol powers are added to running per-user sums in batch order.
"""

import dataclasses
import functools
import math

import numpy as np

from . import noisy_obs, regions, sk_dpc, sk_dpmac
from .errors import ConfigError, DegenerateSplit
from .params import CHANNELS, PowerSplit, RunConfig, check_count, check_seed, to_config_dict

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
    """Derivation rule from a master seed to per-trial substreams."""

    master_seed: int

    def __post_init__(self):
        check_seed(self.master_seed)

    def key(self, trial, component):
        """128-bit counter key: the master seed in the low 64-bit word and
        trial * 8 + component, unique per (trial, component), in the high one."""
        if not 0 <= trial < _TRIALS:
            raise ConfigError(f"trial index must be in 0..2**61-1, got {trial}", field="trial")
        if not 0 <= component < _STREAMS_PER_TRIAL:
            raise ConfigError(f"component must be in 0..7, got {component}", field="component")
        return self.master_seed + ((trial * _STREAMS_PER_TRIAL + component) << 64)

    @functools.cached_property
    def _shared(self):
        return np.random.Generator(np.random.Philox(key=0))

    def generator(self, trial, component):
        """The plan's one shared Generator, re-keyed to the substream of
        (trial, component) and bit for bit a fresh ``Philox(key=...)``.

        It stays valid only until the next draw from this plan, which
        re-keys it again, so a plan is not for use from several threads
        at once.
        """
        key = self.key(trial, component)
        gen = self._shared
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (key & _WORD, key >> 64)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen

    def normal_block(self, trial, component, n, std):
        """std * N(0,1)^n; drawing standard normals first keeps the stream
        layout identical across variance choices (std = 0 gives zeros)."""
        return std * self.generator(trial, component).standard_normal(n)

    def message(self, trial, component, M):
        return int(self.generator(trial, component).integers(1, M + 1))


def _spans(trials):
    return [(s, min(s + BATCH, trials)) for s in range(0, trials, BATCH)]


def _draw_normals(plan, start, stop, n, std, component):
    out = np.empty((stop - start, n))
    for i, trial in enumerate(range(start, stop)):
        out[i] = plan.normal_block(trial, component, n, std)
    return out


def _draw_messages(plan, start, stop, M, component):
    out = np.empty(stop - start, dtype=np.int64)
    for i, trial in enumerate(range(start, stop)):
        out[i] = plan.message(trial, component, M)
    return out


def _pe_with_ci(errors, trials):
    pe = float(np.count_nonzero(errors)) / trials
    half = 1.96 * math.sqrt(max(pe * (1.0 - pe), 0.0) / trials)
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


def _simulate(scheme, params, gamma, n, trials, plan, sizes, coeffs, trace_writer):
    """Draw, simulate and reduce every batch of trials in order.

    ``sizes`` holds one message-set size per user and ``coeffs`` the
    scheme's loop coefficients (None on the single-user forwarding-only
    path). Collects per-user error flags (users, trials), per-trial squared
    estimation errors and per-user symbol power sums (users, n), and
    returns the report's measured block built from them by :func:`_empirical`.
    """
    errors = np.zeros((len(sizes), trials), dtype=bool)
    sq_err = np.empty(trials)
    power_sums = np.zeros((len(sizes), n))

    for start, stop in _spans(trials):
        S = _draw_normals(plan, start, stop, n, math.sqrt(params.Q), STATE)
        eta = _draw_normals(plan, start, stop, n, math.sqrt(params.sigma2), NOISE)
        if scheme == "mac":
            W1, W2 = (_draw_messages(plan, start, stop, M, c) for M, c in zip(sizes, (MSG, MSG2)))
            trace = sk_dpmac.mac_run_batch(coeffs, *sizes, W1, W2, S, eta)
            users = ((W1, trace.W1_hat, trace.X1), (W2, trace.W2_hat, trace.X2))
        else:
            W = _draw_messages(plan, start, stop, sizes[0], MSG)
            if scheme == "noisy":
                Z = _draw_normals(plan, start, stop, n, math.sqrt(params.sigma_z2), OBS_NOISE)
                trace = noisy_obs.noisy_run_batch(params, gamma, sizes[0], coeffs, W, S, Z, eta)
            else:
                trace = sk_dpc.run_batch(params, gamma, sizes[0], coeffs, W, S, eta)
            users = ((W, trace.W_hat, trace.X),)
        for user, (w, w_hat, x) in enumerate(users):
            errors[user, start:stop] = w_hat != w
            power_sums[user] += np.sum(x * x, axis=0)
        sq_err[start:stop] = np.mean((S - trace.S_hat) ** 2, axis=1)
        if trace_writer is not None:
            # the per-symbol (B, n) fields of the trace record, in field order
            columns = {f.name: getattr(trace, f.name) for f in dataclasses.fields(trace)
                       if np.ndim(getattr(trace, f.name)) == 2}
            for i, trial in enumerate(range(start, stop)):
                trace_writer(trial, {name: column[i] for name, column in columns.items()})
        # the trace holds this batch's S too; free its (B, n) arrays before the next draw
        del trace, users
    return _empirical(errors, sq_err, power_sums, trials)


def _empirical(errors, sq_err, power_sums, trials):
    """The report's measured block for one or two users.

    Per-user keys carry no suffix with one user and 1/2 with two. Steady
    power skips the slots in which the loops start, one per user.
    """
    users = len(errors)
    suffixes = ("",) if users == 1 else ("1", "2")
    per_symbol = power_sums / trials
    rows = list(zip(suffixes, per_symbol))
    empirical = {}
    for s, flags in zip(suffixes, errors):
        empirical[f"pe{s}"], empirical[f"pe{s}_ci95"] = _pe_with_ci(flags, trials)
    empirical["distortion"], empirical["distortion_se"] = _mean_with_se(sq_err)
    empirical.update({f"power{s}": float(row.mean()) for s, row in rows})
    if users == 1:
        empirical["time1_power"] = float(per_symbol[0, 0])
    empirical.update({f"steady_power{s}": float(row[users:].mean()) for s, row in rows})
    empirical.update({f"symbol_power{s}": [float(v) for v in row] for s, row in rows})
    return empirical


def _dpc_summary(params, gamma, n, M, coeffs, empirical):
    forwarded = sk_dpc.state_forward_coefficient(params, gamma) ** 2 * params.Q
    d_step = regions.dpc_min_distortion(params, gamma)
    message_path = coeffs is not None
    theory = {
        "rate_cap": regions.dpc_rate_cap(params, gamma),
        "distortion": regions.finite_n_distortion(params.Q, n, d_step, 1),
        "distortion_step": d_step,
        "power": params.P if message_path else forwarded,
        "time1_power": sk_dpc.time1_power_theory(coeffs, M) if message_path else forwarded,
    }
    deltas = {
        "distortion": empirical["distortion"] - theory["distortion"],
        "time1_power": empirical["time1_power"] - theory["time1_power"],
        "steady_power": empirical["steady_power"] - theory["power"],
    }
    return theory, deltas, []


def _noisy_summary(params, eq_params, gamma, n, message_path, empirical):
    forward = sk_dpc.state_forward_coefficient(eq_params, gamma)
    bound_step = regions.noisy_min_distortion(params, gamma)
    scheme_step = noisy_obs.scheme_step_distortion(params, gamma)
    theory = {
        "rate_cap": regions.noisy_rate_cap(params, gamma),
        "kappa": regions.observation_weight(params),
        "distortion_scheme": regions.finite_n_distortion(params.Q, n, scheme_step, 1),
        "distortion_scheme_step": scheme_step,
        "distortion_bound": regions.finite_n_distortion(params.Q, n, bound_step, 1),
        "distortion_bound_step": bound_step,
        "power": params.P if message_path else forward**2 * eq_params.Q,
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


def _mac_summary(params, n, coeffs, caps, empirical):
    rho_final = float(coeffs.rho[-1])
    theory = {
        "rho_star": caps.rho,
        "rho_final": rho_final,
        "r1_max": caps.r1_max,
        "r2_max": caps.r2_max,
        "rsum_max": caps.rsum_max,
        "distortion": regions.finite_n_distortion(params.Q, n, caps.d_min, 2),
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
    return theory, deltas, flags


#: Each scheme's report entries (rates, then empirical values) that a sweep
#: row carries.
_MEASURED = {
    "dpc": ("rate", "pe", "distortion"),
    "noisy": ("rate", "pe", "distortion"),
    "mac": ("rate1", "rate2", "pe1", "pe2", "distortion"),
}


def _check_run(scheme, params, block, trials):
    if block is None:
        raise ConfigError("simulation needs a block configuration", field="n")
    check_count(trials, "trials")
    if scheme not in _MEASURED:
        raise ConfigError(f"unknown scheme {scheme!r}", field="scheme")
    if not isinstance(params, channel := CHANNELS[scheme]):
        got = type(params).__name__
        raise ConfigError(f"{scheme} runs on {channel.__name__}, got {got}", field="scheme")


def run_experiment(scheme, params, split, block, trials, plan,
                   paper_sgn=False, trace_writer=None):
    """Run a seeded Monte Carlo experiment and aggregate a report.

    ``trace_writer``, when given, is called once per trial, in trial
    order, with the trial index and a dict of per-symbol columns. Messages
    are drawn uniformly; the error probability is the fraction of wrongly
    decoded messages and distortion the time-averaged squared estimation
    error including the estimate-free initial slots.
    """
    _check_run(scheme, params, block, trials)
    if scheme == "mac" and split.beta is None:
        raise ConfigError("the two-encoder scheme needs beta", field="beta")

    n, gamma, beta = block.n, split.gamma, split.beta
    if scheme == "mac":
        (rate1, M1), (rate2, M2), caps = sk_dpmac.resolve_mac_rates(params, gamma, beta, block)
        rates = {"rate1": rate1, "M1": M1, "rate2": rate2, "M2": M2}
        sizes = (M1, M2)
        coeffs = sk_dpmac.mac_coefficients(params, gamma, beta, n, paper_sgn=paper_sgn)
    else:
        # the noisy scheme runs on the clean-state channel it reduces to
        if scheme == "noisy":
            kernel_params, noise = noisy_obs.make_equivalent(params), noisy_obs.EQUIVALENT_NOISE
        else:
            kernel_params, noise = params, "sigma2"
        rate, M, coeffs = sk_dpc.resolve_loop(kernel_params, gamma, block, noise)
        rates = {"rate": rate, "M": M}
        sizes = (M,)

    empirical = _simulate(scheme, params, gamma, n, trials, plan, sizes, coeffs, trace_writer)
    if scheme == "mac":
        theory, deltas, flags = _mac_summary(params, n, coeffs, caps, empirical)
    elif scheme == "noisy":
        theory, deltas, flags = _noisy_summary(
            params, kernel_params, gamma, n, coeffs is not None, empirical
        )
    else:
        theory, deltas, flags = _dpc_summary(params, gamma, n, M, coeffs, empirical)

    return ExperimentReport(
        scheme=scheme,
        config=to_config_dict(RunConfig(
            scheme=scheme, channel=params, split=split, block=block,
            trials=trials, seed=plan.master_seed,
        )),
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
        config.scheme,
        config.channel,
        config.split,
        config.block,
        config.trials,
        RandomPlan(config.seed),
        paper_sgn=paper_sgn,
        trace_writer=trace_writer,
    )


def _sweep_points(scheme, params, gamma_grid, beta_grid, n):
    """Each sweep point's region record as the columns that lead its row
    (the point) and the theory columns that end it."""
    if scheme == "mac":
        records = regions.mac_fb_region(
            params, gamma_grid, gamma_grid if beta_grid is None else beta_grid
        )
        return [
            ({"gamma": c.gamma, "beta": c.beta, "rho_star": c.rho},
             {"r1_max": c.r1_max, "r2_max": c.r2_max, "rsum_max": c.rsum_max, "d_min": c.d_min})
            for c in records
        ]
    points = []
    for p in regions.boundary_sweep(params, gamma_grid):
        lead, theory = {"gamma": p.gamma}, {"rate_cap": p.rate, "theory_distortion": p.distortion}
        if scheme == "noisy":
            lead["sigma_z2"] = params.sigma_z2
            step = noisy_obs.scheme_step_distortion(params, p.gamma)
            theory["theory_distortion_scheme"] = regions.finite_n_distortion(params.Q, n, step, 1)
        points.append((lead, theory))
    return points


def sweep(scheme, params, gamma_grid, block, trials, plan, beta_grid=None, paper_sgn=False):
    """One experiment per grid point, each row the point's region record
    (the ``region`` command's boundary, or the two-encoder feedback region
    at rho*) with the report's measured columns in between. All points
    reuse the same per-trial substreams; rows are comparable but not
    mutually independent. The two-encoder beta grid defaults to the gamma
    grid; the region functions reject empty grids with EmptyGrid.

    A point whose run raises DegenerateSplit keeps its theory columns and
    holds NaN in the measured ones: two-encoder points without message
    power on both sides, and single-user points at gamma*P = 0 under a
    fixed rate that needs more than one message.
    """
    _check_run(scheme, params, block, trials)
    if scheme != "mac" and beta_grid is not None:
        raise ConfigError("beta grid only applies to the two-encoder scheme", field="beta")
    keys = _MEASURED[scheme]
    rows = []
    for lead, theory in _sweep_points(scheme, params, list(gamma_grid), beta_grid, block.n):
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
