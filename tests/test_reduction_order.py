"""The numpy properties behind the reductions of the slot-major loop.

The closed loop runs slot-major, one (B,) row per slot, but a report must
keep the bits of the reductions over the row-major (B, n) batch:
``np.sum(X * X, axis=0)``, which adds the trials one by one in order, and
``np.mean((S - S_hat) ** 2, axis=1)``. ``np.sum`` over the contiguous
trial axis of a slot-major row adds pairwise and differs in the last bit,
so the runner's per-slot power sum accumulates instead. The per-trial
mean keeps its bits whether the estimates come row-major, as the runners
store them, or as a transposed view of a slot-major Y, and when the
squared error is formed in place in the estimates' buffer, as a run
without a trace writer does. A numpy build that breaks either property
fails here by name before it shows up as a golden digest mismatch.
"""

import numpy as np
import pytest

from dpsk import sk_dpc

# every block length for the small batches; for a full batch, lengths around
# numpy's unroll and block sizes and the benchmark's blocks (the whole grid
# takes over a minute there)
LONG = (2, 3, 4, 5, 7, 8, 9, 16, 17, 60, 100, 127, 128, 129, 200, 255, 256, 257, 414, 600, 1000)
CASES = [(B, n) for B in (1, 2, 3) for n in range(2, 1001)] + [(4096, n) for n in LONG]


@pytest.fixture(scope="module")
def draws():
    return np.random.default_rng(31).normal(size=2 * 4096 * 1000)


def _batches(draws, B, n):
    """A row-major (B, n) batch and an unrelated slot-major (n, B) one."""
    return draws[: B * n].reshape(B, n), draws[-B * n :].reshape(n, B)


def test_the_power_sum_adds_the_trials_in_order(draws):
    for B, n in CASES:
        X, _ = _batches(draws, B, n)
        slot_major = np.ascontiguousarray(X.T)
        np.testing.assert_array_equal(
            sk_dpc._power_sum(slot_major), np.sum(X * X, axis=0), err_msg=f"B = {B}, n = {n}"
        )
        # the loop reduces one contiguous slot row at a time
        k = n // 2
        assert sk_dpc._power_sum(slot_major[k]) == np.sum(X * X, axis=0)[k]


def test_the_squared_error_ignores_the_estimates_layout(draws):
    weight = 0.3
    for B, n in CASES:
        S, Y = _batches(draws, B, n)
        row_major = sk_dpc.estimate_state(np.ascontiguousarray(Y.T), weight)
        view = sk_dpc.estimate_state(Y.T, weight)
        expected = np.mean((S - row_major) ** 2, axis=1)
        np.testing.assert_array_equal(np.mean((S - view) ** 2, axis=1), expected,
                                      err_msg=f"B = {B}, n = {n}")
        # the harness's form: the error and its square written over the estimates
        err = np.subtract(S, row_major, out=row_major)
        np.testing.assert_array_equal(np.mean(np.square(err, out=err), axis=1), expected,
                                      err_msg=f"B = {B}, n = {n}")
        # the two-encoder receiver weighs each slot by its own coefficient
        coef = np.linspace(0.0, 0.5, n)
        np.testing.assert_array_equal(
            np.mean((S - coef * Y.T) ** 2, axis=1),
            np.mean((S - coef * np.ascontiguousarray(Y.T)) ** 2, axis=1),
            err_msg=f"B = {B}, n = {n}",
        )
