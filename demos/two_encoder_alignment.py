"""Two-encoder feedback run: sign alignment and where the error
correlation settles.

The raw correlation between the two encoders' running errors flips sign
every step. Encoder 2 absorbs the flip by multiplying its transmission
with s_t, so the aligned correlation |rho_t| converges to the fixed
point rho* that solves the steady-state quartic. The sum-rate cap at
rho* sits strictly above the no-feedback cap whenever both users spend
message power, which is the whole point of the scheme.

Run it to watch rho_t approach rho*, then to compare the feedback caps
against the no-feedback region, then to check a seeded simulation hits
the distortion floor.
"""

from dpsk import harness, regions, sk_dpmac
from dpsk.params import BlockConfig, MacParams, PowerSplit

PARAMS = MacParams(P1=10, P2=10, Q=10, sigma2=5)
GAMMA = BETA = 0.8


def show_convergence():
    rho_star = regions.solve_rho_star(PARAMS, GAMMA, BETA)
    coeffs = sk_dpmac.mac_coefficients(PARAMS, GAMMA, BETA, 14)
    print(f"rho* = {rho_star:.12f}")
    print(f"{'t':>3} {'raw rho':>12} {'aligned':>12} {'|gap to rho*|':>14}")
    for t in range(2, 14):
        raw = coeffs.rho_raw[t]
        aligned = coeffs.rho[t]
        print(f"{t:3d} {raw:+12.6f} {aligned:12.6f} {abs(aligned - rho_star):14.2e}")
    print()


def show_caps():
    rho_star = regions.solve_rho_star(PARAMS, GAMMA, BETA)
    fb = regions.mac_constraints(PARAMS, GAMMA, BETA, rho_star)
    nofb = regions.mac_constraints(PARAMS, GAMMA, BETA, 0.0)
    print("rate caps at gamma = beta = 0.8")
    for label, caps in (("feedback:   ", fb), ("no feedback:", nofb)):
        print(f"  {label} R1 <= {caps.r1_max:.4f}  R2 <= {caps.r2_max:.4f}"
              f"  sum <= {caps.rsum_max:.4f}")
    print(f"  sum-rate gain {fb.rsum_max - nofb.rsum_max:+.4f} bits,"
          f" distortion floor {fb.d_min:.4f}")
    print()


def show_simulation():
    n, trials = 120, 3000
    block = BlockConfig(n, rate_fraction=0.25)
    plan = harness.RandomPlan(23)
    split = PowerSplit(GAMMA, BETA)
    (report,) = harness.run_experiment("mac", PARAMS, [split], block, trials, plan)
    print(f"simulated n={n}, {trials} trials, both rates at 25% of cap")
    print(f"  pe1 {report.empirical['pe1']:.2e}  pe2 {report.empirical['pe2']:.2e}")
    print(f"  empirical distortion {report.empirical['distortion']:.4f}")
    print(f"  finite-n target      {report.theory['distortion']:.4f}")


if __name__ == "__main__":
    show_convergence()
    show_caps()
    show_simulation()
