"""The parser of the region DSL:

    H(t) | Q(s) | hp(a,b,c) | trunc(R, x) | R & R | R | R | (R)

with & binding tighter than |.  It rides on the lexing, the bracket rule
and the atom rule that the knot DSL shares (`regions._Scanner`): each term
is a row of `_ATOMS`, its argument shape and its builder.  It raises
`regions.RegionParseError`, a positioned `regions._ParseError`.  Only the
commands that take a region (`--region`, `--cplus`, `--cminus`) load this
module; `regions` hands out `parse_region` on first use.
"""

from __future__ import annotations

from fractions import Fraction

from .regions import (RegionParseError, SouthWestRegion, _Scanner, intersect, make_halfplane,
                      truncate, union, upsilon_halfplane, v_region)


# Region term -> (argument shape, builder): `_Scanner.arguments` reads the
# shape, 'r' a rational and 'e' a nested region, and the builder makes the
# region of the arguments read.
_ATOMS = {"H": ("r", upsilon_halfplane), "Q": ("r", v_region), "hp": ("r,r,r", make_halfplane),
          "trunc": ("e,r", truncate)}


class _RegionParser(_Scanner):
    """Recursive descent over the region DSL; & binds tighter than |."""

    error, what, atoms = RegionParseError, "region", _ATOMS

    def expr(self) -> SouthWestRegion:
        """A union of intersections."""
        region = self.intersect_expr()
        while self.peek() == "|":
            self.pos += 1
            region = union(region, self.intersect_expr())
        return region

    def intersect_expr(self) -> SouthWestRegion:
        region = self.atom()
        while self.peek() == "&":
            self.pos += 1
            region = intersect(region, self.atom())
        return region

    def make(self, name, row, args):
        return row[1](*args)

    def rational(self) -> Fraction:
        self.skip_ws()
        start = self.digits(signed=True)
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            self.digits()
        token = self.text[start:self.pos]
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise RegionParseError(f"malformed rational {token!r}", start) from None

    readers = {"r": rational, "e": expr}


def parse_region(text: str) -> SouthWestRegion:
    """Parse the region DSL; raises RegionParseError with a position on failure."""
    return _RegionParser(text).parse()
