"""Seeded Monte Carlo experiments over the three coding schemes.

Randomness contract: every trial owns one counter-based substream per
random component (state, channel noise, observation noise, messages),
keyed by (master_seed, trial, component) alone. Draws therefore do not
depend on batch size or execution order, and two runs with the same seed
and configuration produce bit-identical reports. Trials run in batches,
one after the other; per-trial results land in preallocated slots and the
per-batch power sums are reduced in index order.
"""

import dataclasses
import math

import numpy as np

from . import noisy_obs, regions, sk_dpc, sk_dpmac
from .errors import ConfigError, DegenerateSplit, EmptyGrid
from .params import PowerSplit, RunConfig, check_trials, resolve_block, to_config_dict

# Stream component ids. OBS_NOISE sits between NOISE and MSG so that a
# noisy-observation run with sigma_z2 = 0 consumes exactly the same state,
# noise and message draws as the plain run it must reproduce.
STATE, NOISE, OBS_NOISE, MSG, MSG2 = range(5)
_STREAMS_PER_TRIAL = 8

#: Trials simulated per batch; fixed so batching never affects output.
BATCH = 4096

_RHO_CONVERGENCE_TOL = 1e-3
_DISTORTION_FLAG_REL = 0.02


@dataclasses.dataclass(frozen=True)
class RandomPlan:
    """Derivation rule from a master seed to per-trial substreams."""

    master_seed: int

    def key(self, trial, component):
        """128-bit counter key; unique per (trial, component)."""
        if trial < 0:
            raise ConfigError(f"trial index must be >= 0, got {trial}", field="trial")
        if not 0 <= component < _STREAMS_PER_TRIAL:
            raise ConfigError(f"component must be in 0..7, got {component}", field="component")
        return (self.master_seed % (1 << 64)) + ((trial * _STREAMS_PER_TRIAL + component) << 64)

    def generator(self, trial, component):
        return np.random.Generator(np.random.Philox(key=self.key(trial, component)))

    def normal_block(self, trial, component, n, std):
        """std * N(0,1)^n; drawing standard normals first keeps the stream
        layout identical across variance choices (std = 0 gives zeros)."""
        return std * self.generator(trial, component).standard_normal(n)

    def message(self, trial, component, M):
        return int(self.generator(trial, component).integers(1, M + 1))


def _spans(trials):
    starts = range(0, trials, BATCH)
    return [(i, s, min(s + BATCH, trials)) for i, s in enumerate(starts)]


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


def _theta_grid(W, M):
    return -0.5 + (2.0 * W - 1.0) / (2.0 * M)


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


def _config_echo(scheme, params, split, block, trials, plan):
    run = RunConfig(
        scheme=scheme, channel=params, split=split, block=block,
        trials=trials, seed=plan.master_seed,
    )
    return to_config_dict(run)


def _symbol_stats(power_sums, trials):
    per_symbol = np.sum(power_sums, axis=0) / trials
    return [float(v) for v in per_symbol], per_symbol


def _simulate(scheme, params, kernel_params, gamma, n, trials, plan, sizes, coeffs,
              trace_writer):
    """Draw, simulate, decode and reduce every batch of trials in order.

    ``sizes`` holds one message-set size per user. The single-user schemes
    run the dpc kernel on ``kernel_params``; ``coeffs`` is None on their
    forwarding-only path. Returns per-user error flags (users, trials),
    per-trial squared estimation errors and per-user batch power sums
    (users, batches, n).
    """
    spans = _spans(trials)
    errors = np.zeros((len(sizes), trials), dtype=bool)
    sq_err = np.empty(trials)
    power_sums = np.zeros((len(sizes), len(spans), n))
    noisy = scheme == "noisy"
    kappa = noisy_obs.make_equivalent(params).kappa if noisy else None
    estimate = noisy_obs.estimate_true_state if noisy else sk_dpc.estimate_state

    for bi, start, stop in spans:
        S = _draw_normals(plan, start, stop, n, math.sqrt(params.Q), STATE)
        eta = _draw_normals(plan, start, stop, n, math.sqrt(params.sigma2), NOISE)
        if scheme == "mac":
            W = [_draw_messages(plan, start, stop, M, c) for M, c in zip(sizes, (MSG, MSG2))]
            X1, X2, Y, th1, th2, _, _ = sk_dpmac.simulate_mac_batch(
                coeffs, _theta_grid(W[0], sizes[0]), _theta_grid(W[1], sizes[1]), S, eta
            )
            W_hat = sk_dpmac.mac_decode_batch(th1[:, -1], th2[:, -1], *sizes)
            X = (X1, X2)
            s_hat = coeffs.est_coef * Y
            columns = {"X1": X1, "X2": X2, "Y": Y, "theta1_hat": th1, "theta2_hat": th2}
        else:
            s_in, eta_in = S, eta
            if noisy:
                Z = _draw_normals(plan, start, stop, n, math.sqrt(params.sigma_z2), OBS_NOISE)
                s_in = kappa * (S + Z)
                # the state the encoder cannot see rides with the channel noise
                eta_in = (S - s_in) + eta
            W = [_draw_messages(plan, start, stop, sizes[0], MSG)]
            if coeffs is not None:
                x, Y, th, _ = sk_dpc.simulate_message_batch(
                    coeffs, _theta_grid(W[0], sizes[0]), s_in, eta_in
                )
                W_hat = [sk_dpc.decode_batch(th[:, -1], sizes[0])]
            else:
                x, Y = sk_dpc.simulate_forwarding_batch(kernel_params, gamma, s_in, eta_in)
                th = np.zeros_like(Y)
                W_hat = W
            X = (x,)
            s_hat = estimate(Y, params, gamma)
            columns = {"X": x, "Y": Y, "theta_hat": th}
        for user, (w, w_hat, x) in enumerate(zip(W, W_hat, X)):
            errors[user, start:stop] = w_hat != w
            power_sums[user, bi] = np.sum(x * x, axis=0)
        sq_err[start:stop] = np.mean((S - s_hat) ** 2, axis=1)
        if trace_writer is not None:
            columns.update(S=S, S_hat=s_hat)
            for i, trial in enumerate(range(start, stop)):
                trace_writer(trial, {name: column[i] for name, column in columns.items()})
    return errors, sq_err, power_sums


def _single_user_empirical(errors, sq_err, power_sums, trials):
    pe, pe_half = _pe_with_ci(errors[0], trials)
    distortion, dist_se = _mean_with_se(sq_err)
    symbol_power, per_symbol = _symbol_stats(power_sums[0], trials)
    return {
        "pe": pe,
        "pe_ci95": pe_half,
        "distortion": distortion,
        "distortion_se": dist_se,
        "power": float(per_symbol.mean()),
        "time1_power": float(per_symbol[0]),
        "steady_power": float(per_symbol[1:].mean()),
        "symbol_power": symbol_power,
    }


def _dpc_summary(params, gamma, n, M, message_path, empirical):
    forward = sk_dpc.state_forward_coefficient(params, gamma)
    theory = {
        "rate_cap": regions.dpc_rate_cap(params, gamma),
        "distortion": sk_dpc.finite_n_distortion(params, gamma, n),
        "distortion_step": regions.dpc_min_distortion(params, gamma),
        "power": params.P if message_path else forward**2 * params.Q,
        "time1_power": (
            sk_dpc.time1_power_theory(params, gamma, n, M=M)
            if message_path
            else forward**2 * params.Q
        ),
    }
    deltas = {
        "distortion": empirical["distortion"] - theory["distortion"],
        "time1_power": empirical["time1_power"] - theory["time1_power"],
        "steady_power": empirical["steady_power"] - theory["power"],
    }
    return theory, deltas, []


def _noisy_summary(params, eq_params, gamma, n, message_path, empirical):
    eq = noisy_obs.make_equivalent(params)
    forward = sk_dpc.state_forward_coefficient(eq_params, gamma)
    bound_step = regions.noisy_min_distortion(params, gamma)
    theory = {
        "rate_cap": regions.noisy_rate_cap(params, gamma),
        "kappa": eq.kappa,
        "distortion_scheme": noisy_obs.finite_n_distortion(params, gamma, n),
        "distortion_scheme_step": noisy_obs.scheme_step_distortion(params, gamma),
        "distortion_bound": params.Q / n + (n - 1) / n * bound_step,
        "distortion_bound_step": bound_step,
        "power": params.P if message_path else forward**2 * eq.state_var,
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
        # The conservative closed-form bound and the simulated scheme
        # disagree beyond tolerance; report both rather than hide it.
        flags.append("distortion_bound_mismatch")
    return theory, deltas, flags


def _mac_summary(params, gamma, beta, n, coeffs, rho_star, errors, sq_err, power_sums,
                 trials):
    pe1, half1 = _pe_with_ci(errors[0], trials)
    pe2, half2 = _pe_with_ci(errors[1], trials)
    distortion, dist_se = _mean_with_se(sq_err)
    symbol_power1, per_symbol1 = _symbol_stats(power_sums[0], trials)
    symbol_power2, per_symbol2 = _symbol_stats(power_sums[1], trials)
    caps = regions.mac_constraints(params, gamma, beta, rho_star)
    rho_final = float(coeffs.rho[-1])
    theory = {
        "rho_star": rho_star,
        "rho_final": rho_final,
        "r1_max": caps.r1_max,
        "r2_max": caps.r2_max,
        "rsum_max": caps.rsum_max,
        "distortion": sk_dpmac.finite_n_distortion(params, gamma, beta, n),
        "distortion_step": caps.d_min,
        "power1": params.P1,
        "power2": params.P2,
    }
    empirical = {
        "pe1": pe1,
        "pe1_ci95": half1,
        "pe2": pe2,
        "pe2_ci95": half2,
        "distortion": distortion,
        "distortion_se": dist_se,
        "power1": float(per_symbol1.mean()),
        "power2": float(per_symbol2.mean()),
        "steady_power1": float(per_symbol1[2:].mean()),
        "steady_power2": float(per_symbol2[2:].mean()),
        "symbol_power1": symbol_power1,
        "symbol_power2": symbol_power2,
    }
    deltas = {
        "distortion": distortion - theory["distortion"],
        "steady_power1": empirical["steady_power1"] - params.P1,
        "steady_power2": empirical["steady_power2"] - params.P2,
        "rho": rho_final - rho_star,
    }
    flags = []
    if abs(rho_final - rho_star) > _RHO_CONVERGENCE_TOL:
        flags.append("mac_rho_nonconvergence")
    return empirical, theory, deltas, flags


def _check_run(block, trials):
    if block is None:
        raise ConfigError("simulation needs a block configuration", field="n")
    check_trials(trials)


def run_experiment(scheme, params, split, block, trials, plan,
                   paper_sgn=False, trace_writer=None):
    """Run a seeded Monte Carlo experiment and aggregate a report.

    ``trace_writer``, when given, is called once per trial, in trial
    order, with the trial index and a dict of per-symbol columns. Messages
    are drawn uniformly; the error probability is the fraction of wrongly
    decoded messages and distortion the time-averaged squared estimation
    error including the estimate-free initial slots.
    """
    _check_run(block, trials)
    if scheme not in ("dpc", "mac", "noisy"):
        raise ConfigError(f"unknown scheme {scheme!r}", field="scheme")
    if scheme == "mac" and split.beta is None:
        raise ConfigError("the two-encoder scheme needs beta", field="beta")

    n, gamma, beta = block.n, split.gamma, split.beta
    kernel_params = params
    if scheme == "mac":
        (rate1, M1), (rate2, M2), rho_star = sk_dpmac.resolve_mac_rates(
            params, gamma, beta, block
        )
        rates = {"rate1": rate1, "M1": M1, "rate2": rate2, "M2": M2}
        sizes = (M1, M2)
        coeffs = sk_dpmac.mac_coefficients(params, gamma, beta, n, paper_sgn=paper_sgn)
    else:
        cap = regions.noisy_rate_cap if scheme == "noisy" else regions.dpc_rate_cap
        rate, M = resolve_block(block, cap(params, gamma))
        rates = {"rate": rate, "M": M}
        sizes = (M,)
        message_path = gamma * params.P > 0.0
        if not message_path and M > 1:
            raise DegenerateSplit("gamma*P = 0 cannot carry a message, resolve M = 1")
        if scheme == "noisy":
            # the clean-state channel the noisy problem reduces to
            kernel_params = noisy_obs.equivalent_dpc_params(params)
        coeffs = sk_dpc.compute_coefficients(kernel_params, gamma, n) if message_path else None

    errors, sq_err, power_sums = _simulate(
        scheme, params, kernel_params, gamma, n, trials, plan, sizes, coeffs, trace_writer
    )
    if scheme == "mac":
        empirical, theory, deltas, flags = _mac_summary(
            params, gamma, beta, n, coeffs, rho_star, errors, sq_err, power_sums, trials
        )
    else:
        empirical = _single_user_empirical(errors, sq_err, power_sums, trials)
        if scheme == "noisy":
            theory, deltas, flags = _noisy_summary(
                params, kernel_params, gamma, n, message_path, empirical
            )
        else:
            theory, deltas, flags = _dpc_summary(params, gamma, n, M, message_path, empirical)

    return ExperimentReport(
        scheme=scheme,
        config=_config_echo(scheme, params, split, block, trials, plan),
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


def sweep(scheme, params, gamma_grid, block, trials, plan, beta_grid=None, paper_sgn=False):
    """One experiment per grid point, each row paired with the theory
    boundary at that point. All points reuse the same per-trial
    substreams; rows are comparable but not mutually independent.

    Two-encoder grid points without message power on both sides (gamma*P1
    or beta*P2 zero) cannot run the joint loop; their rows keep the theory
    columns and hold NaN everywhere else.
    """
    _check_run(block, trials)
    gamma_grid = list(gamma_grid)
    if not gamma_grid:
        raise EmptyGrid("gamma grid is empty")
    if scheme == "mac":
        beta_grid = list(beta_grid) if beta_grid is not None else list(gamma_grid)
        if not beta_grid:
            raise EmptyGrid("beta grid is empty")
    elif beta_grid is not None:
        raise ConfigError("beta grid only applies to the two-encoder scheme", field="beta")

    rows = []
    if scheme == "mac":
        for gamma in gamma_grid:
            for beta in beta_grid:
                rho_star = regions.solve_rho_star(params, gamma, beta)
                caps = regions.mac_constraints(params, gamma, beta, rho_star)
                if gamma * params.P1 > 0.0 and beta * params.P2 > 0.0:
                    report = run_experiment(
                        scheme, params, PowerSplit(gamma, beta), block, trials, plan,
                        paper_sgn=paper_sgn,
                    )
                    measured = {
                        "rate1": report.rates["rate1"],
                        "rate2": report.rates["rate2"],
                        "pe1": report.empirical["pe1"],
                        "pe2": report.empirical["pe2"],
                        "distortion": report.empirical["distortion"],
                    }
                else:
                    measured = dict.fromkeys(
                        ("rate1", "rate2", "pe1", "pe2", "distortion"), math.nan
                    )
                rows.append({
                    "gamma": gamma,
                    "beta": beta,
                    "rho_star": rho_star,
                    **measured,
                    "r1_max": caps.r1_max,
                    "r2_max": caps.r2_max,
                    "rsum_max": caps.rsum_max,
                    "d_min": caps.d_min,
                })
        return rows

    for gamma in gamma_grid:
        report = run_experiment(scheme, params, PowerSplit(gamma), block, trials, plan)
        point = regions.boundary_sweep(params, [gamma])[0]
        row = {"gamma": gamma}
        if scheme == "noisy":
            row["sigma_z2"] = params.sigma_z2
        row.update({
            "rate": report.rates["rate"],
            "pe": report.empirical["pe"],
            "distortion": report.empirical["distortion"],
            "rate_cap": point.rate,
            "theory_distortion": point.distortion,
        })
        if scheme == "noisy":
            row["theory_distortion_scheme"] = report.theory["distortion_scheme"]
        rows.append(row)
    return rows
