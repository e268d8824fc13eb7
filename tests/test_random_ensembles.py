"""The random ensembles: the complex draw's bits, and the rows ``verify`` builds from its draws."""

import numpy as np
import pytest

from varbounds.random_ensembles import (
    _complex_gaussian,
    gue_hermitian,
    haar_state,
    haar_unitary,
    wishart_density_matrix,
)
from varbounds.verify import _Accumulator, _verify_dimension


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("shape", [(5,), (3, 4), (1000, 6), (7, 3, 3), (501, 6, 6)])
def test_complex_gaussian_has_the_bits_of_the_sum(shape):
    rng = np.random.default_rng(9)
    want = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = _complex_gaussian(np.random.default_rng(9), shape)
    assert got.dtype == np.complex128 and got.shape == shape
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("d", [2, 3, 4, 6])
@pytest.mark.parametrize("n", [7, 40])
def test_verify_draws_every_row_in_order(d, n):
    # verify draws every row's numbers as the public ensembles do, in this order, and keeps
    # the density matrices of the odd rows and the bases of the even rows
    rng = np.random.default_rng([5, d])
    psi = haar_state(rng, d, n)
    rho = wishart_density_matrix(rng, d, n)[1::2]
    a, b = gue_hermitian(rng, d, n), gue_hermitian(rng, d, n)
    basis = haar_unitary(rng, d, n)[0::2]
    data = _verify_dimension(d, n, 5, _Accumulator())
    for key, want in (("psi", psi), ("rho", rho), ("a", a), ("b", b), ("basis", basis)):
        assert data[key].shape == want.shape, key
        assert np.array_equal(_bits(data[key]), _bits(want)), key
