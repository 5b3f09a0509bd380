"""Feedback coding and receiver-side state estimation for dirty paper channels.

The package implements recursive feedback coding schemes in which the
transmitter splits its power between refining the receiver's message
estimate and forwarding the channel state it knows ahead of time, so a
single receiver can both decode and estimate the interfering state.
Three channel models are covered: the single-user channel
(:mod:`dpsk.sk_dpc`), the two-encoder multiple-access channel
(:mod:`dpsk.sk_dpmac`), and the single-user channel with a noisy state
observation at the transmitter (:mod:`dpsk.noisy_obs`). Closed-form
rate-distortion trade-off regions live in :mod:`dpsk.regions`; seeded
Monte Carlo experiments and the ``dpsk`` command line in
:mod:`dpsk.harness` and :mod:`dpsk.cli`.
"""

import os
# OpenBLAS reads this once, when numpy loads: one thread rounds alike on any CPU count.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .errors import ConfigError, DpskError
from .harness import ExperimentReport, RandomPlan, run_experiment, sweep
from .noisy_obs import make_equivalent
from .params import (
    BlockConfig,
    DpcParams,
    MacParams,
    NoisyObsParams,
    PowerSplit,
    RunConfig,
    validate,
)
from .regions import (
    boundary_sweep,
    dpc_fb_boundary,
    dpc_min_distortion,
    dpc_rate_cap,
    mac_constraints,
    mac_fb_region,
    mac_nofb_region,
    noisy_boundary,
    solve_rho_star,
)
from .sk_dpc import SchemeTrace, compute_coefficients
from .sk_dpmac import mac_coefficients

__version__ = "0.1.0"

__all__ = [
    "BlockConfig",
    "ConfigError",
    "DpcParams",
    "DpskError",
    "ExperimentReport",
    "MacParams",
    "NoisyObsParams",
    "PowerSplit",
    "RandomPlan",
    "RunConfig",
    "SchemeTrace",
    "boundary_sweep",
    "compute_coefficients",
    "dpc_fb_boundary",
    "dpc_min_distortion",
    "dpc_rate_cap",
    "mac_coefficients",
    "mac_constraints",
    "mac_fb_region",
    "mac_nofb_region",
    "make_equivalent",
    "noisy_boundary",
    "run_experiment",
    "solve_rho_star",
    "sweep",
    "validate",
]
