"""The numpy property behind the batch kernels' bit-for-bit offsets.

Both kernels form their state offsets with ``np.vecdot`` over a column
slice of the (B, n) state batch. That rounds every row exactly like the
per-block dot ``float(mu @ row)`` of the stepwise reference; matmul,
``einsum``, ``inner`` and ``matvec`` differ from it in the last bit on
most rows. A numpy build that breaks the property fails here by name
before it shows up as a golden digest mismatch.
"""

import numpy as np
import pytest


@pytest.mark.parametrize("offset", [1, 2])
def test_vecdot_rounds_like_the_per_row_dot(offset):
    rng = np.random.default_rng(19)
    for n in range(2, 1001):
        S = rng.normal(size=(16, n))
        mu = rng.normal(size=n - offset)
        tail = S[:, offset:]
        np.testing.assert_array_equal(
            np.vecdot(tail, mu), [float(mu @ row) for row in tail], err_msg=f"n = {n}"
        )
