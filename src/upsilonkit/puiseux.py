"""Puiseux characteristic sequences and the singularity semigroups they give.

An algebraic knot, the link of a cuspidal plane curve singularity, is an
iterated cable named by its characteristic sequence (a; q_1 < ... < q_n);
its staircase is that of the semigroup ⟨a, s_1, ..., s_n⟩.  Only the `alg`
atom loads this module; `zoo` hands out its names on first use.
"""

from __future__ import annotations

import math
from functools import cached_property

from .exact import _set, _Value
from .zoo import Semigroup, semigroup_from_generators


class PuiseuxData(_Value):
    """Characteristic sequence (a; q_1 < ... < q_n) of a cuspidal singularity.

    The gcd chain D_0 = a, D_i = gcd(D_{i-1}, q_i) must strictly decrease to 1
    (equivalently: D_i never divides q_{i+1}, and the overall gcd is 1).
    """

    _fields = ("a", "qs")

    def __init__(self, a: int, qs: tuple[int, ...]):
        _set(self, "a", a)
        _set(self, "qs", qs)
        self.__post_init__()

    def __post_init__(self):
        qs = tuple(self.qs)
        if not isinstance(self.a, int) or self.a < 2:
            raise ValueError("Puiseux exponent a must be an integer >= 2")
        if not qs or any(not isinstance(q, int) or q <= self.a for q in qs):
            raise ValueError("characteristic exponents must be integers > a")
        if any(q1 >= q2 for q1, q2 in zip(qs, qs[1:])):
            raise ValueError("characteristic exponents must be strictly increasing")
        ds = self.d_chain
        for i, q in enumerate(qs[1:], start=1):
            if q % ds[i] == 0:
                raise ValueError(
                    f"gcd(a, q_1..q_{i}) = {ds[i]} divides q_{i + 1} = {q}; "
                    "not a characteristic sequence"
                )
        if ds[-1] != 1:
            raise ValueError(f"gcd(a, q_1, ..., q_n) = {ds[-1]} != 1")
        _set(self, "qs", qs)

    @cached_property
    def d_chain(self) -> tuple[int, ...]:
        """D_0 = a, D_i = gcd(a, q_1, ..., q_i)."""
        ds = [self.a]
        for q in self.qs:
            ds.append(math.gcd(ds[-1], q))
        return tuple(ds)

    @cached_property
    def s_values(self) -> tuple[int, ...]:
        """Semigroup generators beyond a:  s_1 = q_1,
        s_i = (a q_1 + sum_{l<i} D_l (q_{l+1} - q_l)) / D_{i-1}."""
        ds = self.d_chain
        out = [self.qs[0]]
        for i in range(2, len(self.qs) + 1):
            num = self.a * self.qs[0]
            for l in range(1, i):
                num += ds[l] * (self.qs[l] - self.qs[l - 1])
            den = ds[i - 1]
            if num % den:
                raise AssertionError(f"s_{i} = {num}/{den} is not an integer")
            out.append(num // den)
        return tuple(out)

    @property
    def cable_description(self) -> str:
        stages = ", ".join(
            f"stage {i}: winding s_{i} = {s}, gcd level D_{i} = {d}"
            for i, (s, d) in enumerate(zip(self.s_values, self.d_chain[1:]), start=1)
        )
        return (
            f"iterated cable from characteristic sequence ({self.a}; "
            + ", ".join(map(str, self.qs))
            + f"); {stages}"
        )


def semigroup_from_puiseux(p: PuiseuxData) -> Semigroup:
    """The singularity semigroup ⟨a, s_1, ..., s_n⟩ of a characteristic sequence."""
    return semigroup_from_generators((p.a, *p.s_values))
