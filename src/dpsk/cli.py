"""Command-line front end.

Subcommands: ``region`` (closed-form trade-off boundaries), ``rho-star``
(two-encoder fixed-point correlation), ``simulate`` (seeded Monte Carlo
with a report), ``sweep`` (simulation across a power-split grid).

Parameter flags are spelled exactly like the configuration-file keys, so a
``--config`` JSON file and command-line flags are interchangeable; flags
win. Exit codes: 0 success, 2 configuration or usage error, 1 runtime
error.
"""

import argparse
import dataclasses
import os
import sys

from . import harness, output, regions
from . import params as params_mod
from .errors import ConfigError, DpskError


def _merged_config(args, scheme):
    """Config-file values overridden by whatever flags were given, checked
    against the configuration vocabulary of ``scheme``."""
    raw = params_mod.load_config(args.config) if args.config else {}
    for key in params_mod.CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    params_mod.resolve_scheme(raw, scheme)
    return raw


def _grid(count, name="grid"):
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ConfigError(f"{name} must be a positive integer, got {count!r}", field=name)
    return regions.unit_grid(count)


# ---------------------------------------------------------------------------
# handlers


#: Channel scheme of each region variant.
_REGION_SCHEMES = {"dpc-fb": "dpc", "mac-fb": "mac", "mac-nofb": "mac", "noisy": "noisy"}


def _cmd_region(args):
    variant = args.variant
    scheme = _REGION_SCHEMES[variant]
    channel = params_mod.channel_from(_merged_config(args, scheme), scheme)
    gamma_grid = _grid(args.grid)
    if scheme != "mac":
        points = regions.boundary_sweep(channel, gamma_grid)
        return output.region_rows(points, sigma_z2=channel.sigma_z2 if scheme == "noisy" else None)

    beta_grid = _grid(args.beta_grid, "beta-grid") if args.beta_grid is not None else gamma_grid
    if variant == "mac-fb":
        rho_grid = _grid(args.rho_grid, "rho-grid") if args.rho_grid is not None else None
        rows = regions.mac_fb_region(channel, gamma_grid, beta_grid, rho_grid=rho_grid)
    else:
        rows = regions.mac_nofb_region(channel, gamma_grid, beta_grid)
    return output.region_rows(rows)


def _cmd_rho_star(args):
    raw = _merged_config(args, "mac")
    raw.setdefault("Q", 0.0)  # rho* does not involve the state variance
    channel = params_mod.channel_from(raw, "mac")
    split = params_mod.split_from(raw, "mac")
    return {"rho_star": regions.solve_rho_star(channel, split.gamma, split.beta)}


def _value_csv(data):
    """The single value of ``data``, bare, as its CSV form."""
    (value,) = data.values()
    return output.fmt(value) + "\n"


def _trace_writer(directory, trials):
    os.makedirs(directory, exist_ok=True)
    width = max(6, len(str(max(trials - 1, 0))))
    def write(trial, columns):
        name = f"trial_{trial:0{width}d}.csv"
        output.write_text(output.trace_csv(columns), os.path.join(directory, name))
    return write


def _cmd_simulate(args):
    run = params_mod.validate(_merged_config(args, args.variant), scheme=args.variant)
    writer = None
    if args.dump_traces:
        writer = _trace_writer(args.dump_traces, run.trials)
    report = harness.run_config(
        run, paper_sgn=getattr(args, "paper_sgn", False), trace_writer=writer
    )
    return report.as_dict()


def _cmd_sweep(args):
    scheme = args.variant
    raw = _merged_config(args, scheme)
    channel = params_mod.channel_from(raw, scheme)
    block = params_mod.block_from(raw, scheme)
    trials = params_mod.trials_from(raw)
    seed = params_mod.seed_from(raw)
    gamma_grid = _grid(args.grid)
    beta_grid = getattr(args, "beta_grid", None)
    if beta_grid is not None:
        beta_grid = _grid(beta_grid, "beta-grid")
    return harness.sweep(
        scheme, channel, gamma_grid, block, trials, harness.RandomPlan(seed),
        beta_grid=beta_grid, paper_sgn=getattr(args, "paper_sgn", False),
    )


# ---------------------------------------------------------------------------
# parser


def _common_flags():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--config", metavar="PATH", help="JSON file with parameter defaults")
    return common


def _add_channel_flags(parser, scheme):
    for field in dataclasses.fields(params_mod.CHANNELS[scheme]):
        parser.add_argument(f"--{field.name}", type=float, default=None)


def _add_block_flags(parser):
    parser.add_argument("--n", type=int, default=None, help="block length")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--rate", type=float, default=None, help="bits per channel use")
    group.add_argument(
        "--rate_fraction", type=float, default=None,
        help="rate as a multiple of the theoretical cap",
    )


def _add_trial_flags(parser):
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)


def build_parser():
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="dpsk",
        description="Feedback coding and state estimation for dirty paper channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    region = sub.add_parser("region", help="closed-form trade-off boundaries")
    region_sub = region.add_subparsers(dest="variant", required=True)
    for variant, scheme in _REGION_SCHEMES.items():
        p = region_sub.add_parser(variant, parents=[common])
        _add_channel_flags(p, scheme)
        p.add_argument("--grid", type=int, default=101, help="points on the gamma grid")
        if scheme == "mac":
            p.add_argument("--beta-grid", type=int, default=None, dest="beta_grid")
        if variant == "mac-fb":
            p.add_argument(
                "--rho-grid", type=int, default=None, dest="rho_grid",
                help="evaluate a rho grid instead of the fixed point rho*",
            )
        p.set_defaults(func=_cmd_region, csv=output.rows_csv)

    rho = sub.add_parser("rho-star", parents=[common],
                         help="fixed-point error correlation of the two-encoder loop")
    _add_channel_flags(rho, "mac")
    rho.add_argument("--gamma", type=float, default=None)
    rho.add_argument("--beta", type=float, default=None)
    rho.set_defaults(func=_cmd_rho_star, csv=_value_csv)

    simulate = sub.add_parser("simulate", help="seeded Monte Carlo experiment")
    simulate_sub = simulate.add_subparsers(dest="variant", required=True)
    for variant in ("dpc", "mac", "noisy"):
        p = simulate_sub.add_parser(variant, parents=[common])
        _add_channel_flags(p, variant)
        p.add_argument("--gamma", type=float, default=None)
        if variant == "mac":
            p.add_argument("--beta", type=float, default=None)
            p.add_argument("--paper-sgn", action="store_true", dest="paper_sgn",
                           help="sign convention that silences encoder 2 whenever the "
                                "error correlation goes negative")
        _add_block_flags(p)
        _add_trial_flags(p)
        p.add_argument("--dump-traces", metavar="DIR", dest="dump_traces",
                       help="write one per-symbol trace CSV per trial into DIR")
        p.set_defaults(func=_cmd_simulate, csv=output.report_csv)

    sweep = sub.add_parser("sweep", help="simulate across a power-split grid")
    sweep_sub = sweep.add_subparsers(dest="variant", required=True)
    for variant in ("dpc", "mac", "noisy"):
        p = sweep_sub.add_parser(variant, parents=[common])
        _add_channel_flags(p, variant)
        p.add_argument("--grid", type=int, default=11, help="points on the gamma grid")
        if variant == "mac":
            p.add_argument("--beta-grid", type=int, default=None, dest="beta_grid")
            p.add_argument("--paper-sgn", action="store_true", dest="paper_sgn")
        _add_block_flags(p)
        _add_trial_flags(p)
        p.set_defaults(func=_cmd_sweep, csv=output.rows_csv)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        data = args.func(args)
        text = output.json_text(data) if args.format == "json" else args.csv(data)
        output.write_text(text, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DpskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
