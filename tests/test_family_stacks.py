"""A sweep as one stack: family vectors, the shared row normaliser and the CSV join.

Each row of a family stack has the bits of the one-row stack of its theta,
and the Bloch family has the bits of the scalar construction it replaced.
The normaliser gives ``v / np.linalg.norm(v)`` bit for bit; that parity is
what keeps the ``compute`` and ``optimize`` goldens unchanged.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import pure_bloch_vector_reference
from varbounds.errors import DimensionMismatch, VarboundsError
from varbounds.linalg import QuantumState, pauli_operators, qubit_state_from_bloch, unit_rows
from varbounds.moments import Instance
from varbounds.reporting import format_float, render_csv
from varbounds.sweep import STATE_FAMILIES, SweepTable

THETAS = st.lists(st.floats(-100.0, 100.0, allow_nan=False), min_size=1, max_size=40)
SPECIAL = [k * math.pi / 2 for k in range(-8, 9)] + [-0.0, 1e-300]


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _bloch_r(theta: float) -> list:
    """The fig3 family's Bloch vector, as the family writes it."""
    return [math.cos(theta / 2.0), math.sqrt(3.0) / 2.0 * math.sin(theta / 2.0),
            0.5 * math.sin(theta / 2.0)]


@pytest.mark.parametrize("family", sorted(STATE_FAMILIES))
@settings(max_examples=60, deadline=None)
@given(thetas=THETAS)
@example(thetas=SPECIAL)
def test_a_family_row_has_the_bits_of_its_one_row_stack(family, thetas):
    dim, build = STATE_FAMILIES[family]
    raw = build(thetas)
    assert raw.shape == (len(thetas), dim) and raw.dtype == np.complex128
    stack = unit_rows(raw)
    for theta, row in zip(thetas, stack):
        one = QuantumState.pure(build([theta])[0]).vector
        assert (_bits(row) == _bits(one)).all(), (family, theta)


@settings(max_examples=60, deadline=None)
@given(thetas=THETAS)
@example(thetas=SPECIAL)
def test_the_bloch_family_has_the_bits_of_the_scalar_construction(thetas):
    # the rephasing modulus is scalar abs: with np.abs of the complex array, 680 of
    # 5000 random theta in [-7, 7] move by up to 3 ulp, all with the anchor on |1>
    _, build = STATE_FAMILIES["qubit_bloch_fig3"]
    stack = unit_rows(build(thetas))
    for theta, row in zip(thetas, stack):
        want = pure_bloch_vector_reference(_bloch_r(theta))
        assert (_bits(row) == _bits(want)).all(), theta
        assert (_bits(qubit_state_from_bloch(_bloch_r(theta)).vector) == _bits(want)).all(), theta


@pytest.mark.parametrize("d", range(1, 17))
def test_the_normaliser_has_the_bits_of_np_linalg_norm(d):
    rng = np.random.default_rng(d)
    v = rng.standard_normal((400, d)) + 1j * rng.standard_normal((400, d))
    v /= np.linalg.norm(v, axis=1)[:, None]  # norm 1 within round-off, not exactly
    want = np.array([x / np.linalg.norm(x) for x in v])
    assert (_bits(unit_rows(v)) == _bits(want)).all()
    assert (_bits(unit_rows(v[7:8])) == _bits(want[7:8])).all()
    assert (_bits(QuantumState.pure(v[7]).vector) == _bits(want[7])).all()


def test_a_stacked_instance_checks_rows_as_quantumstate_pure_does():
    sx, _, sz = pauli_operators()
    rows = np.array([[1.0, 0.0], [0.6, 0.8j], [1.0 + 5e-13, 0.0], [1.0 + 2e-12, 0.0]])
    inst = Instance(rows[:3], sx, sz)
    assert (_bits(inst.vectors[2]) == _bits(QuantumState.pure(rows[2]).vector)).all()
    with pytest.raises(VarboundsError) as stacked:
        Instance(rows, sx, sz)
    with pytest.raises(VarboundsError) as single:
        QuantumState.pure(rows[3])
    assert str(stacked.value) == str(single.value)
    assert "is not 1 within 1e-12" in str(single.value)
    with pytest.raises(DimensionMismatch):
        Instance(np.eye(3, dtype=np.complex128), sx, sz)
    with pytest.raises(VarboundsError):
        Instance(rows[0], sx, sz)  # one vector is not a stack


CELLS = st.one_of(st.none(), st.floats(), st.floats().map(np.float64),
                  st.text(alphabet="abc -()=", max_size=6))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(CELLS, min_size=3, max_size=3), min_size=1, max_size=4))
def test_csv_cells_are_empty_text_or_format_float(rows):
    table = SweepTable(columns=("x", "y", "z"), rows=rows, metadata={})
    header, *lines = render_csv(table).split("\n")[:-1]
    assert header == "x,y,z"
    assert lines == [",".join("" if v is None else v if isinstance(v, str) else format_float(v)
                              for v in row) for row in rows]
