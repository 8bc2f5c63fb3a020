"""Exact arithmetic kernels: rationals and F2 linear algebra.

Everything downstream is exact.  Rational numbers are `fractions.Fraction`
(re-exported as `Rational`); linear algebra over the two-element field is done
on bit-packed vectors (a Python int, bit i = coordinate i), so one XOR adds a
whole row or column.  There is one echelon kernel, `_echelonize`: it reduces
vectors by their leading bit against a dict of pivots, carrying a companion
vector along to record which inputs were added.  Every engine elimination
runs on it: the clearing, the elimination of the rows above a key
(`_below`) and the secondary invariant's relations, target and column
scan, which echelonizes the coordinates of one position's columns at a
time; so do `F2Matrix` and `F2Space` of `oracles`, which serve the
brute-force oracles only.  Only the engine's least-key reduction
(`_least_top`) inlines the kernel's loop, since
it stops at the first row that answers its query; its companion is one bit,
so it packs each row and companion into one int and keeps its pivots in a
list by bit length.  The companions `_echelonize` carries are wide (column
indices at the engine build, coordinate masks over the basis of im d1 with
a flag bit above every column index in `_below`), and packing them
measured slower, so its pivots stay (vector, companion) pairs in a dict.

`_Value` and `_OrderedValue` are the base of every frozen value class of
the package (generators, complexes, regions, PL functions, semigroups).
A class states its fields once, in `_fields`: equality, hash, repr and
the order all read the field tuple `_Value._key` builds from it, and
`_OrderedValue` writes only `__lt__` (`functools.total_ordering` derives
the rest).  They stand in for the standard library's frozen dataclass:
importing its module pulls in `inspect`, `ast` and `tokenize`, and it
compiles each generated method with `exec`, which made it the largest
start-up cost of every command that the package controls.

`_lazy` is the one way a module hands out names it does not hold: the
code that few commands run lives in modules of its own, and the module it
was split off from names it in a table, so that a command compiles only
the modules it runs and every name still resolves where it always did.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from importlib import import_module

Rational = Fraction

_set = object.__setattr__  # how a value class's `__init__` writes its fields


class _Value:
    """A frozen value: equality, hash and repr over its field tuple, as a
    frozen dataclass has them.

    Each subclass names its fields in the class-level `_fields` and writes
    its own `__init__`, storing every field with `_set`; `_key` reads the
    fields in that order.  Instances keep a `__dict__` (for
    `cached_property` and lazy fields), but assigning or deleting an
    attribute raises AttributeError.  Equality holds only between instances
    of one class; the hash is the hash of the field tuple.
    """

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class _OrderedValue(_Value):
    """A `_Value` ordered by its field tuple, within its class: `__lt__`
    compares the tuples and `total_ordering` derives the other three."""

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key() < other._key()
        return NotImplemented


def _lazy(namespace: dict, homes: dict):
    """A module `__getattr__` (PEP 562) for the module of this namespace:
    each name of `homes` (sibling module -> names) loads that module on its
    first read and is bound here, so later reads find it as an attribute,
    as the package `__init__` binds its exports."""
    home_of = {name: home for home, names in homes.items() for name in names}

    def __getattr__(name: str):
        home = home_of.get(name)
        if home is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(
            import_module(f".{home}", namespace["__package__"]), name)
        return value

    return __getattr__


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


def _echelonize(pivots: dict, pairs) -> list[int]:
    """The one F2 elimination kernel: reduce each (vector, companion) pair
    against `pivots` and store it under its leading bit if it stays nonzero.

    Returns the companions of the pairs that reduce to zero, in order.  A
    stored companion records which inputs sum to its vector, so a zero
    pair's companion is a relation among the inputs.
    """
    zeros = []
    for v, c in pairs:  # the reduction inlined: a call per vector would slow every engine build
        while v and (pivot := pivots.get(v.bit_length() - 1)) is not None:
            v ^= pivot[0]
            c ^= pivot[1]
        if v:
            pivots[v.bit_length() - 1] = (v, c)
        else:
            zeros.append(c)
    return zeros


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
