from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

_TESTS = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    # an overflow or invalid operation anywhere in the library fails the
    # test that caused it, unless the test says otherwise
    for item in items:
        if _TESTS in item.path.resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"), append=False)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def complex_entries(max_mag=4.0):
    return st.complex_numbers(
        max_magnitude=max_mag,
        allow_nan=False,
        allow_infinity=False,
        allow_subnormal=False,
    )


@st.composite
def square_matrices(draw, min_dim=1, max_dim=5, max_mag=4.0):
    n = draw(st.integers(min_value=min_dim, max_value=max_dim))
    return draw(
        hnp.arrays(np.complex128, (n, n), elements=complex_entries(max_mag))
    )


@st.composite
def matrix_pairs(draw, min_dim=1, max_dim=4, max_mag=4.0):
    n = draw(st.integers(min_value=min_dim, max_value=max_dim))
    shape = (n, n)
    a = draw(hnp.arrays(np.complex128, shape, elements=complex_entries(max_mag)))
    b = draw(hnp.arrays(np.complex128, shape, elements=complex_entries(max_mag)))
    return a, b


def random_complex(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
