"""Exact arithmetic kernels: rationals and F2 linear algebra.

Everything downstream is exact.  Rational numbers are `fractions.Fraction`
(re-exported as `Rational`); linear algebra over the two-element field is done
on bit-packed rows (a row is a Python int, bit i = column i), so one XOR adds
a whole row.  `F2Matrix` serves validation and representative cycles, and
`F2Space` the span tests of the secondary invariant and the oracles; the
invariant engine's filtered reduction works on the same packed masks directly,
on differentials of several hundred rows and columns.
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
        work = list(self.rows)
        return len(_eliminate(work, self.ncols))

    def solve(self, b: int) -> int | None:
        """Solve A·x = b; return one solution as a column bitmask, or None.

        The right-hand side `b` is a bitmask over rows.  The returned solution
        is re-multiplied through the matrix and checked before returning.
        """
        aug = [row | (((b >> i) & 1) << self.ncols) for i, row in enumerate(self.rows)]
        pivots = _eliminate(aug, self.ncols)
        aug_bit = 1 << self.ncols
        for row in aug[len(pivots):]:
            if row == aug_bit:
                return None
        x = 0
        for r, col in enumerate(pivots):
            if aug[r] & aug_bit:
                x |= 1 << col
        if self.mat_vec(x) != b:  # re-multiplication check
            raise AssertionError("F2 solve produced a non-solution")
        return x

    def nullspace(self) -> list[int]:
        """Basis of {x : A·x = 0}, as column bitmasks."""
        work = list(self.rows)
        pivots = _eliminate(work, self.ncols)
        pivot_set = set(pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            v = 1 << free
            for r, col in enumerate(pivots):
                if (work[r] >> free) & 1:
                    v |= 1 << col
            if self.mat_vec(v) != 0:
                raise AssertionError("F2 nullspace vector fails A·v = 0")
            basis.append(v)
        return basis


def _eliminate(rows: list[int], ncols: int) -> list[int]:
    """In-place reduced row echelon form over the first `ncols` columns.

    Returns the pivot columns in order; row i of the result is the row with
    pivot `pivots[i]`.  Bits at positions >= ncols (augmentation) ride along.
    """
    pivots: list[int] = []
    nrows = len(rows)
    for col in range(ncols):
        sel = None
        for r in range(len(pivots), nrows):
            if (rows[r] >> col) & 1:
                sel = r
                break
        if sel is None:
            continue
        dest = len(pivots)
        rows[dest], rows[sel] = rows[sel], rows[dest]
        pivot_row = rows[dest]
        for r in range(nrows):
            if r != dest and (rows[r] >> col) & 1:
                rows[r] ^= pivot_row
        pivots.append(col)
    return pivots


class F2Space:
    """An incrementally built subspace of F2^n, for membership tests.

    Maintains an echelon basis keyed by leading bit.  `add` returns True if
    the vector enlarged the space.
    """

    def __init__(self, vectors: "tuple[int, ...] | list[int]" = ()):
        self._rows: dict[int, int] = {}
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        rows = self._rows
        while v:
            lead = v.bit_length() - 1
            pivot = rows.get(lead)
            if pivot is None:
                return v
            v ^= pivot
        return 0

    def add(self, v: int) -> bool:
        v = self.reduce(v)
        if v == 0:
            return False
        self._rows[v.bit_length() - 1] = v
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def dim(self) -> int:
        return len(self._rows)
