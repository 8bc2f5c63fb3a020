"""F2 linear algebra and rational text forms."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from upsilonkit.exact import F2Matrix, F2Space, rational_from_text, rational_to_text


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------


def test_rational_text_forms():
    assert rational_from_text("2/3") == Fraction(2, 3)
    assert rational_from_text("-4/6") == Fraction(-2, 3)
    assert rational_from_text("5") == Fraction(5)
    assert rational_to_text(Fraction(2, 3)) == "2/3"
    assert rational_to_text(Fraction(-10, 4)) == "-5/2"
    assert rational_to_text(Fraction(3, 1)) == "3"


@pytest.mark.parametrize("bad", ["", "x", "1/0", "2.5.1", "1//2"])
def test_rational_malformed(bad):
    with pytest.raises(ValueError):
        rational_from_text(bad)


@given(st.fractions())
def test_rational_round_trip(x):
    assert rational_from_text(rational_to_text(x)) == x


# ---------------------------------------------------------------------------
# F2Matrix: frozen examples
# ---------------------------------------------------------------------------


def mat(rows_of_lists):
    ncols = len(rows_of_lists[0]) if rows_of_lists else 0
    rows = []
    for entries in rows_of_lists:
        row = 0
        for j, e in enumerate(entries):
            if e:
                row |= 1 << j
        rows.append(row)
    return F2Matrix(len(rows_of_lists), ncols, rows)


def test_rank_hand_examples():
    assert mat([[1, 0], [0, 1]]).rank() == 2
    assert mat([[1, 1], [1, 1]]).rank() == 1
    assert mat([[1, 1, 0], [0, 1, 1], [1, 0, 1]]).rank() == 2  # rows sum to 0
    assert F2Matrix(0, 3, []).rank() == 0
    assert F2Matrix(3, 0, [0, 0, 0]).rank() == 0


def test_solve_hand_examples():
    a = mat([[1, 1, 0], [0, 1, 1]])
    x = a.solve(0b11)  # b = (1, 1)
    assert x is not None
    assert a.mat_vec(x) == 0b11
    # inconsistent: rows equal, b entries differ
    b = mat([[1, 0], [1, 0]])
    assert b.solve(0b01) is None
    assert b.solve(0b11) is not None


def test_nullspace_hand_example():
    a = mat([[1, 1, 0], [0, 1, 1]])
    basis = a.nullspace()
    assert len(basis) == 1
    assert basis[0] == 0b111


def test_matrix_validates_row_bits():
    with pytest.raises(ValueError):
        F2Matrix(1, 2, [0b100])
    with pytest.raises(ValueError):
        F2Matrix(2, 2, [0b01])


# ---------------------------------------------------------------------------
# F2Matrix: laws on random instances
# ---------------------------------------------------------------------------


@st.composite
def matrices(draw, max_dim=8):
    nrows = draw(st.integers(0, max_dim))
    ncols = draw(st.integers(0, max_dim))
    rows = [draw(st.integers(0, (1 << ncols) - 1)) for _ in range(nrows)]
    return F2Matrix(nrows, ncols, rows)


@given(matrices())
def test_rank_bounded(a):
    assert 0 <= a.rank() <= min(a.nrows, a.ncols)


@given(matrices(), st.data())
def test_solve_recovers_images(a, data):
    x = data.draw(st.integers(0, max(0, (1 << a.ncols) - 1)))
    b = a.mat_vec(x)
    y = a.solve(b)
    assert y is not None
    assert a.mat_vec(y) == b


@given(matrices())
def test_rank_nullity(a):
    basis = a.nullspace()
    assert a.rank() + len(basis) == a.ncols
    for v in basis:
        assert a.mat_vec(v) == 0
    # basis vectors are independent
    space = F2Space()
    for v in basis:
        assert space.add(v)


@given(matrices(), st.data())
def test_nullspace_spans_kernel(a, data):
    if a.ncols == 0:
        return
    space = F2Space(a.nullspace())
    x = data.draw(st.integers(0, (1 << a.ncols) - 1))
    if a.mat_vec(x) == 0:
        assert space.contains(x)
    else:
        assert not space.contains(x)


@given(matrices(), st.data())
def test_nullspace_and_solve_are_the_reduced_echelon_ones(a, data):
    # Column j is independent when it is not in the span of the earlier
    # columns.  The nullspace has one vector per dependent column j, with top
    # bit j and its other bits on independent columns, and solve returns the
    # solution supported on independent columns: both are unique.
    independent = 0
    span = F2Space()
    for j in range(a.ncols):
        if span.add(sum(((row >> j) & 1) << i for i, row in enumerate(a.rows))):
            independent |= 1 << j
    basis = a.nullspace()
    dependent = [j for j in range(a.ncols) if not (independent >> j) & 1]
    assert [v.bit_length() - 1 for v in basis] == dependent
    for j, v in zip(dependent, basis):
        assert (v ^ (1 << j)) & ~independent == 0
    x = data.draw(st.integers(0, max(0, (1 << a.ncols) - 1)))
    assert a.solve(a.mat_vec(x)) & ~independent == 0


# ---------------------------------------------------------------------------
# F2Space
# ---------------------------------------------------------------------------


def test_space_membership():
    s = F2Space([0b011, 0b110])
    assert s.dim == 2
    assert s.contains(0b101)
    assert s.contains(0)
    assert not s.contains(0b001)
    assert not s.add(0b110)
    assert s.add(0b001)
    assert s.dim == 3


@given(st.lists(st.integers(0, 255), max_size=10), st.data())
def test_space_closed_under_addition(vecs, data):
    s = F2Space(vecs)
    if not vecs:
        assert s.dim == 0
        return
    a = data.draw(st.sampled_from(vecs))
    b = data.draw(st.sampled_from(vecs))
    assert s.contains(a ^ b)
