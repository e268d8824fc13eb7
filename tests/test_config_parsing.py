"""Matrix and vector literals: the one-pass parser against the per-token parser.

``parse_matrix`` and ``parse_vector`` parse a whole literal at once.  They
must give the complex128 bits that ``parse_complex`` gives token by token,
and raise the same :class:`ConfigError`, with the same message, as a
row-by-row parse.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbounds.config import parse_complex, parse_matrix, parse_vector
from varbounds.errors import ConfigError

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
exponents = st.builds(lambda m, e: math.ldexp(m, e), st.floats(-1.0, 1.0), st.integers(-1070, 1020))
reals = st.one_of(finite, exponents, st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -2.5e300]))


@st.composite
def entries(draw) -> str:
    """One entry as ``repr`` writes its parts: a bare real, or a real with a +/- imaginary part."""
    re = repr(draw(reals))
    if draw(st.booleans()):
        return re
    im = repr(draw(reals))
    return f"{re}{im if im.startswith('-') else '+' + im}i"


@st.composite
def literals(draw, max_rows=5) -> str:
    rows, width = draw(st.integers(1, max_rows)), draw(st.integers(1, 5))
    seps = st.sampled_from([" ", "  ", ",", ", ", " , ", "\t"])
    text = []
    for _ in range(rows):
        cells = [draw(entries()) for _ in range(width)]
        row = cells[0]
        for cell in cells[1:]:
            row += draw(seps) + cell
        text.append(draw(st.sampled_from(["", " "])) + row)
    lead = draw(st.sampled_from(["", ";", " ; "]))
    trail = draw(st.sampled_from(["", ";", " ;", "; "]))
    return lead + ";".join(text) + trail


def _per_token(text: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip()]
    return np.array([[parse_complex(t) for t in r.replace(",", " ").split()] for r in rows],
                    dtype=np.complex128)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=100, deadline=None)
@given(literals())
def test_matrix_literal_has_the_bits_of_each_token(text):
    got, want = parse_matrix(text), _per_token(text)
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


@settings(max_examples=100, deadline=None)
@given(literals(max_rows=1))
def test_vector_literal_has_the_bits_of_each_token(text):
    row = text.strip().strip(";")
    got, want = parse_vector(row), _per_token(row)[0]
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


# (literal, message of parse_matrix, message of parse_vector), as a row-by-row parse raises them
BAD_LITERALS = [
    ("", "empty matrix literal", "empty vector literal"),
    (" ; ;", "empty matrix literal", "bad complex literal ';'"),
    ("1 2; 3", "matrix rows have unequal lengths", "bad complex literal '2;'"),
    ("1 x; 2 3", "bad complex literal 'x'", "bad complex literal 'x;'"),
    ("1 2; ,", "empty vector literal", "bad complex literal '2;'"),
    ("x; ,", "bad complex literal 'x'", "bad complex literal 'x;'"),
    (", ; x", "empty vector literal", "bad complex literal ';'"),
    ("1 2; 3 4 y; ,", "bad complex literal 'y'", "bad complex literal '2;'"),
    ("inf", "complex literal 'inf' is not finite", "complex literal 'inf' is not finite"),
    ("1 nan; 2 3", "complex literal 'nan' is not finite", "bad complex literal 'nan;'"),
    ("2 3; 1 nan", "complex literal 'nan' is not finite", "bad complex literal '3;'"),
    ("1 2; 1e400 x", "complex literal '1e400' is not finite", "bad complex literal '2;'"),
    ("1 x; 1+infi 2", "bad complex literal 'x'", "bad complex literal 'x;'"),
    ("1+2I", "bad complex literal '1+2I'", "bad complex literal '1+2I'"),
    ("1+-2i", "bad complex literal '1+-2i'", "bad complex literal '1+-2i'"),
]


@pytest.mark.parametrize("text,matrix_message,vector_message", BAD_LITERALS,
                         ids=[repr(b[0]) for b in BAD_LITERALS])
def test_bad_literals_raise_the_row_by_row_error(text, matrix_message, vector_message):
    with pytest.raises(ConfigError) as exc:
        parse_matrix(text)
    assert str(exc.value) == matrix_message
    with pytest.raises(ConfigError) as exc:
        parse_vector(text)
    assert str(exc.value) == vector_message
