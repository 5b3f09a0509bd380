"""Command-line front end.

Subcommands: ``region`` (closed-form trade-off boundaries), ``rho-star``
(two-encoder fixed-point correlation), ``simulate`` (seeded Monte Carlo
with a report), ``sweep`` (simulation across a power-split grid).

Parameter flags are spelled like the configuration-file keys. Argparse
reads the text of every key and grid-size flag with :func:`_number`, and
:mod:`dpsk.params` alone checks the value, so a ``--config`` JSON file and
flags are interchangeable (flags win) and fail alike; a file key the
command has no flag for is rejected. Exit codes: 0 success, 2
configuration or usage error, 1 runtime error.
"""

import argparse
import dataclasses
import os
import sys

from . import harness, output, regions
from . import params as params_mod
from .errors import ConfigError, DpskError


def _number(text):
    """A flag's text as an int if it reads as one, else as a float if it
    reads as one, else unchanged."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _merged_config(args, scheme):
    """Config-file values overridden by whatever flags were given, checked
    against the configuration vocabulary of ``scheme``; a key the command
    has no flag for is rejected, not ignored."""
    raw = params_mod.load_config(args.config) if args.config else {}
    for key in params_mod.CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    params_mod.resolve_scheme(raw, scheme)
    for key in raw:
        if not hasattr(args, key):
            command = " ".join(filter(None, (args.command, getattr(args, "variant", None))))
            raise ConfigError(f"key {key!r} does not apply to the {command} command", field=key)
    return raw


def _grid(count, name="grid"):
    return regions.unit_grid(params_mod.check_count(name, count), name)


def _split_grids(args, scheme):
    """The grid of each split fraction, keyed ``gamma_grid``, ``beta_grid``;
    a fraction after gamma runs over the gamma grid unless given its own."""
    gamma_grid = _grid(args.grid)
    grids = {"gamma_grid": gamma_grid}
    for name in params_mod.CHANNELS[scheme].SPLIT[1:]:
        count = getattr(args, f"{name}_grid")
        grids[f"{name}_grid"] = gamma_grid if count is None else _grid(count, f"{name}-grid")
    return grids


# ---------------------------------------------------------------------------
# handlers


#: Channel scheme and region function of each region variant.
_REGIONS = {
    "dpc-fb": ("dpc", regions.boundary_sweep),
    "mac-fb": ("mac", regions.mac_fb_region),
    "mac-nofb": ("mac", regions.mac_nofb_region),
    "noisy": ("noisy", regions.boundary_sweep),
}


def _cmd_region(args):
    scheme, region = _REGIONS[args.variant]
    channel = params_mod.channel_from(_merged_config(args, scheme), scheme)
    grids = _split_grids(args, scheme)
    if getattr(args, "rho_grid", None) is not None:
        grids["rho_grid"] = _grid(args.rho_grid, "rho-grid")
    rows = region(channel, *grids.values())
    return output.region_rows(rows, sigma_z2=getattr(channel, "sigma_z2", None))


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
    width = max(6, len(str(trials - 1)))
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
    block = params_mod.block_from(raw)
    grids = _split_grids(args, scheme)
    return harness.sweep(
        scheme, channel, block=block, trials=raw.get("trials", params_mod.DEFAULT_TRIALS),
        plan=harness.RandomPlan(raw.get("seed", params_mod.DEFAULT_SEED)),
        paper_sgn=getattr(args, "paper_sgn", False), **grids,
    )


# ---------------------------------------------------------------------------
# parser


def _common_flags():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--config", metavar="PATH", help="JSON file with parameter defaults")
    return common


#: Help text of the configuration keys that have one.
_KEY_HELP = {"n": "block length", "rate": "bits per channel use",
             "rate_fraction": "rate as a multiple of the theoretical cap"}


def _add_key_flags(parser, scheme, split=False, run=False):
    """A flag spelled like each configuration key the command reads: the
    scheme's channel fields, its split fractions if ``split``, and if
    ``run`` the block, trials, seed and the sign rule of two encoders."""
    channel = params_mod.CHANNELS[scheme]
    keys = [field.name for field in dataclasses.fields(channel)]
    if split:
        keys += channel.SPLIT
    if run:
        keys += ("n", "rate", "rate_fraction", "trials", "seed")
    for key in keys:
        parser.add_argument(f"--{key}", type=_number, help=_KEY_HELP.get(key))
    if run and len(channel.SPLIT) > 1:
        parser.add_argument("--paper-sgn", action="store_true", dest="paper_sgn",
                            help="sign convention that silences encoder 2 whenever the "
                                 "error correlation goes negative")


def _add_grid_flags(parser, scheme, default):
    parser.add_argument("--grid", type=_number, default=default, help="points on the gamma grid")
    for name in params_mod.CHANNELS[scheme].SPLIT[1:]:
        parser.add_argument(f"--{name}-grid", type=_number, default=None, dest=f"{name}_grid")


def build_parser():
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="dpsk",
        description="Feedback coding and state estimation for dirty paper channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    region = sub.add_parser("region", help="closed-form trade-off boundaries")
    region_sub = region.add_subparsers(dest="variant", required=True)
    for variant, (scheme, _) in _REGIONS.items():
        p = region_sub.add_parser(variant, parents=[common])
        _add_key_flags(p, scheme)
        _add_grid_flags(p, scheme, 101)
        if variant == "mac-fb":
            p.add_argument(
                "--rho-grid", type=_number, default=None, dest="rho_grid",
                help="evaluate a rho grid instead of the fixed point rho*",
            )
        p.set_defaults(func=_cmd_region, csv=output.rows_csv)

    rho = sub.add_parser("rho-star", parents=[common],
                         help="fixed-point error correlation of the two-encoder loop")
    _add_key_flags(rho, "mac", split=True)
    rho.set_defaults(func=_cmd_rho_star, csv=_value_csv)

    simulate = sub.add_parser("simulate", help="seeded Monte Carlo experiment")
    simulate_sub = simulate.add_subparsers(dest="variant", required=True)
    for variant in params_mod.CHANNELS:
        p = simulate_sub.add_parser(variant, parents=[common])
        _add_key_flags(p, variant, split=True, run=True)
        p.add_argument("--dump-traces", metavar="DIR", dest="dump_traces",
                       help="write one per-symbol trace CSV per trial into DIR")
        p.set_defaults(func=_cmd_simulate, csv=output.report_csv)

    sweep = sub.add_parser("sweep", help="simulate across a power-split grid")
    sweep_sub = sweep.add_subparsers(dest="variant", required=True)
    for variant in params_mod.CHANNELS:
        p = sweep_sub.add_parser(variant, parents=[common])
        _add_key_flags(p, variant, run=True)
        _add_grid_flags(p, variant, 11)
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
    except (DpskError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
