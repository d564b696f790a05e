import math

import numpy as np
import pytest

from poincheck.numerics import ksum, ksum_rows


def _wide_values(n, seed):
    """Signed values whose magnitudes span about 1e-20 to 1e20."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-20.0, 20.0, n)


@pytest.mark.parametrize("n", [1, 812, 65535, 65536, 65537, 200000])
def test_ksum_is_exactly_rounded(n):
    x = _wide_values(n, n)
    assert ksum(x) == math.fsum(x.tolist())
    assert ksum(x[::-1].reshape(-1, 1)) == math.fsum(x.tolist())


def test_ksum_rows_sums_each_row_exactly():
    m = _wide_values(7 * 812, 9).reshape(7, 812)
    got = ksum_rows(m)
    assert got.shape == (7,)
    for r in range(7):
        assert got[r] == math.fsum(m[r].tolist())
    assert np.array_equal(ksum_rows(m[:, :5]), [math.fsum(row.tolist()) for row in m[:, :5]])
