"""Independent oracles the tests check library values against.

Everything here deliberately avoids the library's own recursions. The
per-step constants are recomputed by tracking each tracking error as an
explicit coefficient vector over the i.i.d. noise coordinates and
evaluating every second moment with compensated summation, so agreement
with the closed-form recursions is evidence, not tautology.
"""

import math

from dpsk.regions import (
    MacRegionConstraints,
    _half_log2,
    _mac_split_terms,
    mac_power_normalizer,
)


def _fsum_dot(a, b, var):
    return var * math.fsum(x * y for x, y in zip(a, b))


def sk_coefficient_oracle(P, Q, sigma2, gamma, n):
    """(mu, alpha) for the single-user loop via noise-basis propagation.

    The tracking error after step t is a linear combination of the first t
    noise samples; mu_t and alpha_t follow from exact second moments of
    those vectors. Returns mu (length n-1) and alpha (length n).
    """
    gp = gamma * P
    amp = math.sqrt(12.0 * gp)
    # error vector over (eta_1 .. eta_n), unit-variance coordinates scaled by sigma2
    e = [0.0] * n
    e[0] = 1.0 / amp
    alpha = [_fsum_dot(e, e, sigma2)]
    mu = []
    for t in range(2, n + 1):
        g = math.sqrt(gp / alpha[-1])
        z = [g * v for v in e]
        z[t - 1] += 1.0
        m = _fsum_dot(e, z, sigma2) / _fsum_dot(z, z, sigma2)
        mu.append(m)
        e = [ev - m * zv for ev, zv in zip(e, z)]
        alpha.append(_fsum_dot(e, e, sigma2))
    return mu, alpha


def mac_coefficient_oracle(P1, P2, Q, sigma2, gamma, beta, n, paper_sgn=False):
    """Two-encoder per-step constants via joint noise-basis propagation.

    Returns a dict of lists indexed like the library arrays (slot k is
    time k+1): mu1, mu2, alpha1, alpha2, rho_raw, rho (sign-aligned),
    signs, v (variance of the innovation z_t for t >= 3).
    """
    A = gamma * P1
    B = beta * P2
    amp1 = math.sqrt(12.0 * A)
    amp2 = math.sqrt(12.0 * B)
    a = [0.0] * n
    b = [0.0] * n
    a[0] = 1.0 / amp1
    b[1] = 1.0 / amp2

    out = {
        "mu1": [0.0, 0.0], "mu2": [0.0, 0.0],
        "alpha1": [_fsum_dot(a, a, sigma2)] * 2,
        "alpha2": [float("nan"), _fsum_dot(b, b, sigma2)],
        "rho_raw": [float("nan"), 0.0],
        "rho": [float("nan"), 0.0],
        "signs": [1.0, 1.0],
        "v": [float("nan"), float("nan")],
    }
    for t in range(3, n + 1):
        var1 = _fsum_dot(a, a, sigma2)
        var2 = _fsum_dot(b, b, sigma2)
        raw_prev = _fsum_dot(a, b, sigma2) / math.sqrt(var1 * var2)
        if raw_prev >= 0.0:
            s = 1.0
        else:
            s = 0.0 if paper_sgn else -1.0
        g1 = math.sqrt(A / var1)
        g2 = s * math.sqrt(B / var2)
        z = [g1 * av + g2 * bv for av, bv in zip(a, b)]
        z[t - 1] += 1.0
        vz = _fsum_dot(z, z, sigma2)
        m1 = _fsum_dot(a, z, sigma2) / vz
        m2 = _fsum_dot(b, z, sigma2) / vz
        a = [av - m1 * zv for av, zv in zip(a, z)]
        b = [bv - m2 * zv for bv, zv in zip(b, z)]
        var1 = _fsum_dot(a, a, sigma2)
        var2 = _fsum_dot(b, b, sigma2)
        raw = _fsum_dot(a, b, sigma2) / math.sqrt(var1 * var2)
        out["mu1"].append(m1)
        out["mu2"].append(m2)
        out["alpha1"].append(var1)
        out["alpha2"].append(var2)
        out["rho_raw"].append(raw)
        out["rho"].append((1.0 if raw >= 0.0 else (0.0 if paper_sgn else -1.0)) * raw)
        out["signs"].append(s)
        out["v"].append(vz)
    return out


def quartic_rho_oracle():
    """Root in (0, 1) of rho^4 - 4 rho^2 - 2 rho + 1 = 0 by bisection.

    This is the symmetric fixed-point equation when both message powers
    equal the noise variance, reduced by hand to a plain quartic.
    """
    def p(x):
        return ((x * x - 4.0) * x - 2.0) * x + 1.0

    lo, hi = 0.0, 1.0  # p(0) = 1 > 0 > p(1) = -4
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if p(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def time1_power_oracle(P, Q, sigma2, gamma, n, M):
    """E[X_1^2] assembled from raw moments of theta, S and the offset.

    X_1 = amp (theta - O) + sc S_1 with
    O = omega (S_1 / amp - sum_i mu_i S_{i+1}); theta is uniform on the
    M-point grid, S i.i.d. N(0, Q), everything independent.
    """
    gp = gamma * P
    amp = math.sqrt(12.0 * gp)
    sc = math.sqrt((1.0 - gamma) * P / Q) if Q else 0.0
    omega = 1.0 + sc
    mu, _ = sk_coefficient_oracle(P, Q, sigma2, gamma, n)
    var_theta = (M * M - 1.0) / (12.0 * M * M)
    # coefficient of S_1 in X_1: -omega + sc; of S_{i+1}: amp omega mu_i
    c1 = sc - omega
    tail = math.fsum((amp * omega * m) ** 2 for m in mu)
    return amp * amp * var_theta + Q * (c1 * c1 + tail)


def estimation_coefficient_oracle(P, Q, sigma2, gamma):
    """Steady-state E[S Y]/E[Y^2] from the scheme's signal model."""
    if Q == 0.0:
        return 0.0
    gp = gamma * P
    omega = 1.0 + math.sqrt((1.0 - gamma) * P / Q)
    return omega * Q / (gp + omega * omega * Q + sigma2)


def noisy_moment_oracle(P, Q, sigma2, sigma_z2, gamma):
    """(c_true, per-step true-state MMSE) from raw second moments.

    Y_t = G_t + omega' kappa S~_t + Z~_t + eta_t with S = kappa S~ + Z~,
    Var S~ = Q + sigma_z2, Var Z~ = (1-kappa) Q, all terms orthogonal.
    """
    if Q == 0.0:
        return 0.0, 0.0
    kappa = Q / (Q + sigma_z2)
    obs_var = Q + sigma_z2
    state_var = kappa * kappa * obs_var  # Var(kappa S~)
    resid_var = (1.0 - kappa) * Q  # Var(Z~)
    omega = 1.0 + math.sqrt((1.0 - gamma) * P / state_var)
    ey2 = gamma * P + omega * omega * state_var + resid_var + sigma2
    esy = omega * kappa * kappa * obs_var + resid_var
    c = esy / ey2
    return c, Q - esy * esy / ey2


def mac_nofb_constraints(params, gamma, beta):
    """No-feedback baseline region, written out independently.

    The library evaluates this region as the feedback region frozen at
    rho = 0; this separate code path is what that case is cross-checked
    against.
    """
    gamma, beta, A, B = _mac_split_terms(params, gamma, beta)
    s2 = params.sigma2
    L = mac_power_normalizer(params, gamma, beta)
    return MacRegionConstraints(
        gamma=gamma,
        beta=beta,
        rho=0.0,
        r1_max=_half_log2(A / s2),
        r2_max=_half_log2(B / s2),
        rsum_max=_half_log2((A + B) / s2),
        d_min=params.Q * (A + B + s2) / L if params.Q else 0.0,
    )
