"""The parser of the region DSL:

    H(t) | Q(s) | hp(a,b,c) | trunc(R, x) | R & R | R | R | (R)

with & binding tighter than |.  It rides on the lexing and the bracket
rule that the knot DSL shares (`regions._Scanner`) and raises
`regions.RegionParseError`, a positioned `regions._ParseError`.  Only the
commands that take a region (`--region`, `--cplus`, `--cminus`) load this
module; `regions` hands out `parse_region` on first use.
"""

from __future__ import annotations

from fractions import Fraction

from .regions import (RegionParseError, SouthWestRegion, _Scanner, intersect, make_halfplane,
                      truncate, union, upsilon_halfplane, v_region)


class _RegionParser(_Scanner):
    """Recursive descent over the region DSL; & binds tighter than |."""

    error = RegionParseError

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

    def atom(self) -> SouthWestRegion:
        if self.peek() == "(":
            return self.group()
        start, name = self.term_name("region")
        try:
            if name == "H":
                self.expect("(")
                t = self.rational()
                self.expect(")")
                return upsilon_halfplane(t)
            if name == "Q":
                self.expect("(")
                s = self.rational()
                self.expect(")")
                return v_region(s)
            if name == "hp":
                self.expect("(")
                a = self.rational()
                self.expect(",")
                b = self.rational()
                self.expect(",")
                c = self.rational()
                self.expect(")")
                return make_halfplane(a, b, c)
            if name == "trunc":
                self.descend()
                self.expect("(")
                region = self.expr()
                self.depth -= 1
                self.expect(",")
                x = self.rational()
                self.expect(")")
                return truncate(region, x)
        except ValueError as exc:
            if isinstance(exc, RegionParseError):
                raise
            raise RegionParseError(str(exc), start) from None
        raise RegionParseError(f"unknown region term {name!r}", start)

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


def parse_region(text: str) -> SouthWestRegion:
    """Parse the region DSL; raises RegionParseError with a position on failure."""
    return _RegionParser(text).parse()
