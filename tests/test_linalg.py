"""Dense linear-algebra helpers."""

import numpy as np
import pytest

from medsolve.linalg import hs_norm


def _matrices(real: bool):
    """100 seeded m x m matrices, m = 2..8, among them the zero matrix and one
    scaled by 1e-200, whose squares fall below the normal range."""
    rng = np.random.default_rng(31 + real)
    for k in range(100):
        m = 2 + k % 7
        mat = rng.normal(size=(m, m))
        if not real:
            mat = mat + 1j * rng.normal(size=(m, m))
        yield mat * (0.0 if k == 0 else 1e-200 if k == 1 else 10.0 ** rng.uniform(-8, 8))


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_hs_norm_is_numpys_square_root(real):
    # math.sqrt and np.sqrt are both correctly rounded
    for mat in _matrices(real):
        got = hs_norm(mat)
        assert type(got) is float
        assert got.hex() == float(np.sqrt(np.vdot(mat, mat).real)).hex()
