"""Exact arithmetic kernels: rationals and F2 linear algebra.

Everything downstream is exact.  Rational numbers are `fractions.Fraction`
(re-exported as `Rational`); linear algebra over the two-element field is done
on bit-packed vectors (a Python int, bit i = coordinate i), so one XOR adds a
whole row or column.  There is one echelon kernel, `_echelonize`: it reduces
vectors by their leading bit against a dict of pivots, carrying a companion
vector along to record which inputs were added; `_reduce_pair` is its
one-vector step, which only this module calls.  `F2Matrix` rank, solve and
nullspace, the `F2Space` span tests (which serve `representative_cycle` and
the oracles only), and every engine elimination run on `_echelonize`: the
clearing, the elimination of the rows above a key (`_below`) and the
secondary invariant's target and column scan, which echelonizes the
columns of one position at a time.  Only the engine's least-key reduction
(`_least_top`) inlines the kernel's loop, since it stops at the first row
that answers its query; its companion is one bit, so it packs each row and
companion into one int and keeps its pivots in a list by bit length.  The
companions `_echelonize` carries are wide (column indices at the engine
build, whole columns in `_below`), and packing them measured slower, so
its pivots stay (vector, companion) pairs in a dict.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction


def rational_from_text(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational.

    Raises ValueError on malformed input (including "1/0").
    """
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational: {text!r}") from None
    except ValueError:
        raise ValueError(f"malformed rational: {text!r}") from None


def rational_to_text(value: Fraction) -> str:
    """Canonical text form: lowest terms, positive denominator, "/1" omitted."""
    return str(Fraction(value))


def _parity(x: int) -> int:
    return x.bit_count() & 1


class F2Matrix:
    """A matrix over F2 with bit-packed rows.

    `rows[i]` is an int whose bit j is the (i, j) entry.  Vectors over the
    column space (solutions) and over the row space (right-hand sides) are
    likewise ints.
    """

    def __init__(self, nrows: int, ncols: int, rows: list[int] | tuple[int, ...]):
        if len(rows) != nrows:
            raise ValueError(f"expected {nrows} rows, got {len(rows)}")
        mask = (1 << ncols) - 1
        for r in rows:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the column range")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = list(rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(format(r, f"0{self.ncols}b")[::-1] for r in self.rows)
        return f"F2Matrix({self.nrows}x{self.ncols}: {body})"

    def mat_vec(self, x: int) -> int:
        """Matrix-vector product: bit i of the result is <row_i, x>."""
        out = 0
        for i, row in enumerate(self.rows):
            if _parity(row & x):
                out |= 1 << i
        return out

    def rank(self) -> int:
        pivots: dict = {}
        _echelonize(pivots, ((row, 0) for row in self.rows))
        return len(pivots)

    def solve(self, b: int) -> int | None:
        """Solve A·x = b; return one solution as a column bitmask, or None.

        The right-hand side `b` is a bitmask over rows.  The solution is the
        one supported on the independent columns (each column not in the
        span of the earlier ones); it is re-multiplied through the matrix and
        checked before returning.
        """
        pivots: dict = {}
        _echelonize(pivots, ((col, 1 << j) for j, col in enumerate(_columns(self))))
        rest, x = _reduce_pair(pivots, b, 0)
        if rest:
            return None
        if self.mat_vec(x) != b:  # re-multiplication check
            raise AssertionError("F2 solve produced a non-solution")
        return x

    def nullspace(self) -> list[int]:
        """Basis of {x : A·x = 0}, as column bitmasks.

        One vector per column j in the span of the earlier columns: bit j
        plus the independent columns that sum to column j (the reduced
        echelon basis), in column order.
        """
        basis = _echelonize({}, ((col, 1 << j) for j, col in enumerate(_columns(self))))
        for v in basis:
            if self.mat_vec(v) != 0:
                raise AssertionError("F2 nullspace vector fails A·v = 0")
        return basis


def _reduce_pair(pivots: dict, v: int, c: int) -> tuple[int, int]:
    """Reduce v against `pivots` (leading bit -> (vector, companion)) until
    its leading bit has no pivot, XORing the companion c along with it."""
    while v and (pivot := pivots.get(v.bit_length() - 1)) is not None:
        v ^= pivot[0]
        c ^= pivot[1]
    return v, c


def _echelonize(pivots: dict, pairs) -> list[int]:
    """The one F2 elimination kernel: reduce each (vector, companion) pair
    against `pivots` and store it under its leading bit if it stays nonzero.

    Returns the companions of the pairs that reduce to zero, in order.  A
    stored companion records which inputs sum to its vector, so a zero
    pair's companion is a relation among the inputs.
    """
    zeros = []
    for v, c in pairs:  # `_reduce_pair` inlined: a call per vector would slow every engine build
        while v and (pivot := pivots.get(v.bit_length() - 1)) is not None:
            v ^= pivot[0]
            c ^= pivot[1]
        if v:
            pivots[v.bit_length() - 1] = (v, c)
        else:
            zeros.append(c)
    return zeros


def _columns(m: F2Matrix) -> list[int]:
    """The columns of m as row masks."""
    return _transpose(m.rows, m.ncols)


def _transpose(vectors, n: int) -> list[int]:
    """The transpose of these bit vectors, as n bit vectors (bit j of the
    i-th is bit i of vectors[j]), from one walk over each vector's set bits,
    from the top (a bit length is cheaper than `_bits`'s x & -x)."""
    out = [0] * n
    for j, v in enumerate(vectors):
        bit = 1 << j
        while v:
            i = v.bit_length() - 1
            out[i] |= bit
            v ^= 1 << i
    return out


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _mask(indices) -> int:
    """The bit mask with these bits set: the inverse of `_bits`."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


class F2Space:
    """An incrementally built subspace of F2^n, for membership tests.

    Maintains an echelon basis keyed by leading bit.  `add` returns True if
    the vector enlarged the space.
    """

    def __init__(self, vectors: "tuple[int, ...] | list[int]" = ()):
        self._pivots: dict[int, tuple[int, int]] = {}
        _echelonize(self._pivots, ((v, 0) for v in vectors))

    def reduce(self, v: int) -> int:
        return _reduce_pair(self._pivots, v, 0)[0]

    def add(self, v: int) -> bool:
        return not _echelonize(self._pivots, ((v, 0),))

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def dim(self) -> int:
        return len(self._pivots)
