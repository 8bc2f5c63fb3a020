"""The value classes' contract: construction, repr, equality, hash, order and
immutability, pinned on one instance of each."""

from fractions import Fraction

import pytest

from upsilonkit import (AlexanderPolynomial, BaseGenerator, BreakingPoint, Chain, HalfPlane,
                        KnotComplex, LatticeGenerator, PLFunction, PuiseuxData, Semigroup,
                        SouthWestRegion, ValidationReport)

F = Fraction
X = BaseGenerator("x", 0, 0, 0)
HP = HalfPlane(F(1, 2), F(1, 2), F(0))

# (instance, the same instance built by keyword, its repr, its field tuple)
CASES = [
    (X, BaseGenerator(name="x", alexander=0, algebraic=0, maslov=0),
     "BaseGenerator(name='x', alexander=0, algebraic=0, maslov=0)", ("x", 0, 0, 0)),
    (LatticeGenerator(X, 1), LatticeGenerator(base=X, upower=1),
     "LatticeGenerator(base=BaseGenerator(name='x', alexander=0, algebraic=0, maslov=0), "
     "upower=1)", (X, 1)),
    (Chain(frozenset({LatticeGenerator(X, 0)})), Chain(gens=frozenset({LatticeGenerator(X, 0)})),
     "Chain(gens=frozenset({LatticeGenerator(base=BaseGenerator(name='x', alexander=0, "
     "algebraic=0, maslov=0), upower=0)}))", (frozenset({LatticeGenerator(X, 0)}),)),
    (KnotComplex((X,), ()), KnotComplex(generators=[X], arrows=[]),
     "KnotComplex(generators=(BaseGenerator(name='x', alexander=0, algebraic=0, maslov=0),), "
     "arrows=())", ((X,), ())),
    (ValidationReport(("bad",)), ValidationReport(problems=("bad",)),
     "ValidationReport(problems=('bad',))", (("bad",),)),
    (HP, HalfPlane(alpha=F(1, 2), beta=F(1, 2), c=F(0)),
     "HalfPlane(alpha=Fraction(1, 2), beta=Fraction(1, 2), c=Fraction(0, 1))",
     (F(1, 2), F(1, 2), F(0))),
    (SouthWestRegion(((HP, HP),)), SouthWestRegion(atoms=[[HP]]),
     "SouthWestRegion(atoms=((HalfPlane(alpha=Fraction(1, 2), beta=Fraction(1, 2), "
     "c=Fraction(0, 1)),),))", (((HP,),),)),
    (PLFunction(((0, 0), (1, 1), (2, 2))), PLFunction(points=[(F(0), 0), (2, F(2))]),
     "PLFunction(points=((Fraction(0, 1), Fraction(0, 1)), (Fraction(2, 1), Fraction(2, 1))))",
     (((F(0), F(0)), (F(2), F(2))),)),
    (BreakingPoint(F(1), F(2), 0, 1), BreakingPoint(t=F(1), jump=F(2), i_minus=0, i_plus=1),
     "BreakingPoint(t=Fraction(1, 1), jump=Fraction(2, 1), i_minus=0, i_plus=1)",
     (F(1), F(2), 0, 1)),
    (Semigroup((3, 2, 3)), Semigroup(generators=(2, 3)),
     "Semigroup(generators=(2, 3))", ((2, 3),)),
    (PuiseuxData(2, [3]), PuiseuxData(a=2, qs=(3,)),
     "PuiseuxData(a=2, qs=(3,))", (2, (3,))),
    (AlexanderPolynomial(((-1, 1), (0, -1), (1, 1))),
     AlexanderPolynomial(terms=((-1, 1), (0, -1), (1, 1))),
     "AlexanderPolynomial(terms=((-1, 1), (0, -1), (1, 1)))", (((-1, 1), (0, -1), (1, 1)),)),
]
ORDERED = {BaseGenerator, LatticeGenerator, HalfPlane}
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("x, by_keyword, text, values", CASES, ids=IDS)
def test_value_class_contract(x, by_keyword, text, values):
    assert repr(x) == repr(by_keyword) == text
    assert x == by_keyword and not x != by_keyword
    assert hash(x) == hash(by_keyword) == hash(values)
    # equality is per class: a field tuple, or any other object, is never equal
    assert x != values and values != x and x != object()
    assert x.__eq__(values) is NotImplemented
    name = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(x, name, None)
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert repr(x) == text


@pytest.mark.parametrize("x, values", [(case[0], case[3]) for case in CASES], ids=IDS)
def test_only_the_generator_and_half_plane_classes_are_ordered(x, values):
    ops = [lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b]
    if type(x) in ORDERED:
        assert [op(x, x) for op in ops] == [False, True, False, True]
        with pytest.raises(TypeError):
            x < values
    else:
        for op in ops:
            with pytest.raises(TypeError):
                op(x, x)


def test_orders_follow_the_field_tuples():
    a, b = BaseGenerator("a", 5, 5, 5), BaseGenerator("b", 0, 0, 0)
    assert a < b and sorted([b, a]) == [a, b]
    assert LatticeGenerator(a, 2) < LatticeGenerator(b, 0) < LatticeGenerator(b, 1)
    assert HalfPlane(F(0), F(1), F(3)) < HalfPlane(F(1, 2), F(1, 2), F(-9)) <= HP


def test_defaults():
    assert BreakingPoint(F(1), F(2)).i_minus is None
    assert BreakingPoint(F(1), F(2)).i_plus is None
    assert ValidationReport().problems == ()
    assert ValidationReport().ok and not ValidationReport(("bad",)).ok
    with pytest.raises(TypeError):
        BaseGenerator("x", 0, 0)


@pytest.mark.parametrize("make", [
    lambda: BaseGenerator("x", 0, 0, 0, 0),  # a positional argument too many
    lambda: HalfPlane(F(1), F(0), F(0), gamma=F(0)),  # an unknown keyword
    lambda: Semigroup((2, 3), generators=(2, 3)),  # a field given twice
    lambda: BreakingPoint(F(1)),  # a field with no default missing
], ids=["extra_positional", "unknown_keyword", "given_twice", "missing"])
def test_construction_refuses_what_a_signature_would(make):
    with pytest.raises(TypeError):
        make()
