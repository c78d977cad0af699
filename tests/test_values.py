"""The package's immutable values: equality, hash, repr, copies and refused assignment.

Every value class shares one base in `twobridge.core`; the reprs are the
text that the package printed before that base replaced generated classes.
"""

import copy
import pickle
import sys

import pytest

from twobridge.cli import _Command
from twobridge.conway import ConwayDiagram
from twobridge.core import Expansion, ExtendedRational, KnotId
from twobridge.diagram import all_shortest_expansions
from twobridge.invariants import PlumbingSurface, invariant_report
from twobridge.oracles import AdditiveExpansion
from twobridge.reduction import ReductionStep, Rule, reduce_expansion
from twobridge.table import KnotRecord, _Table


def _record():
    return KnotRecord("7_4", ExtendedRational(4, 15), 3, Expansion(0, (4, 4)), True)


def _trace():
    trace = reduce_expansion(Expansion(0, (2, 2, 2, 2)))[1]
    assert len(trace.steps) == 3  # fills the cached property, which no comparison reads
    return trace


def _shortest_set():
    shortest = all_shortest_expansions(ExtendedRational(4, 15))
    assert shortest.size == 1  # fills the cached automaton, which no comparison reads
    return shortest


# (make, repr, hashable): make builds a fresh value from the same fields on each call
VALUES = [
    (lambda: ExtendedRational(-6, -4), "ExtendedRational(numerator=3, denominator=2)", True),
    (lambda: Expansion(1, [2, -3]), "Expansion(integer_part=1, coefficients=(2, -3))", True),
    (lambda: AdditiveExpansion(0, [2, 3]), "AdditiveExpansion(integer_part=0, coefficients=(2, 3))", True),
    (lambda: KnotId(15, 19), "KnotId(q=15, p=4)", True),
    (lambda: PlumbingSurface((3, 2), 2, False), "PlumbingSurface(bands=(3, 2), first_betti=2, orientable=False)", True),
    (
        lambda: invariant_report(KnotId(15, 4)),
        "InvariantReport(knot=KnotId(q=15, p=4), crosscap=3, genus=1,"
        " reduced=Expansion(integer_part=0, coefficients=(4, 4)), even_runs=(0, ((4, 1), (4, 1))),"
        " boundary=<Boundary.COMPRESSIBLE: 'BoundaryCompressible'>)",
        True,
    ),
    (
        lambda: ReductionStep(Rule.REMOVE_UNIT, 2, epsilon=1),
        "ReductionStep(rule=<Rule.REMOVE_UNIT: 'RemoveUnit'>, position=2, epsilon=1, block_length=0)",
        True,
    ),
    (
        _trace,
        "ReductionTrace(initial=Expansion(integer_part=0, coefficients=(2, 2, 2, 2)),"
        " moves=(ReductionStep(rule=<Rule.REMOVE_BLOCK: 'RemoveBlock'>, position=1, epsilon=1, block_length=2),"
        " ReductionStep(rule=<Rule.REMOVE_UNIT: 'RemoveUnit'>, position=2, epsilon=1, block_length=0),"
        " ReductionStep(rule=<Rule.REMOVE_UNIT: 'RemoveUnit'>, position=2, epsilon=1, block_length=0)),"
        " final=Expansion(integer_part=1, coefficients=(-5,)))",
        True,
    ),
    (
        _shortest_set,
        "ShortestSet(reduced=Expansion(integer_part=0, coefficients=(4, 4)))",
        True,
    ),
    (
        lambda: ConwayDiagram((3, -1, 5, 1, 2), Expansion(0, (4, 5, 1))),
        "ConwayDiagram(twist_regions=(3, -1, 5, 1, 2),"
        " source_expansion=Expansion(integer_part=0, coefficients=(4, 5, 1)))",
        True,
    ),
    (
        _record,
        "KnotRecord(name='7_4', fraction=ExtendedRational(numerator=4, denominator=15), gamma=3,"
        " expansion=Expansion(integer_part=0, coefficients=(4, 4)), starred=True)",
        True,
    ),
    # a list and dicts as fields: equal, but unhashable
    (lambda: _Table([], {}, {}), "_Table(records=[], by_name={}, by_pair={})", False),
    (
        lambda: _Command(len, "expansion", None, "evaluate", flag_help="x"),
        "_Command(run=<built-in function len>, operand='expansion', flag=None, help='evaluate',"
        " operand_help='', flag_help='x')",
        True,
    ),
]


@pytest.mark.parametrize("make,text,hashable", VALUES, ids=[text.split("(")[0] for _, text, _ in VALUES])
def test_value_semantics(make, text, hashable):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    assert repr(a) == text
    field = text.split("(")[1].split("=")[0]
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.unknown = None
    assert repr(a) == text
    for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(twin) is type(a) and twin == a and repr(twin) == text


def test_equal_fields_of_different_types_differ():
    assert KnotId(3, 1) != ExtendedRational(3, 1)
    assert Expansion(0, (2, 3)) != AdditiveExpansion(0, (2, 3))
    assert ExtendedRational(3, 1) != (3, 1)


@pytest.mark.parametrize("limit", [4300, 640])
def test_repr_writes_every_digit_past_the_int_string_limit(limit):
    # 5,000 digits, past the default limit of 4,300; ints inside tuples are written the same way
    n = 7 * (10**5000 - 1) // 9
    sevens = "7" * 5000
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert repr(Expansion(0, (n,))) == f"Expansion(integer_part=0, coefficients=({sevens},))"
        assert repr(Expansion(-n, (2, n))) == f"Expansion(integer_part=-{sevens}, coefficients=(2, {sevens}))"
        surface = f"PlumbingSurface(bands=({sevens},), first_betti={sevens}, orientable=True)"
        assert repr(PlumbingSurface((n,), n, True)) == surface
    finally:
        sys.set_int_max_str_digits(saved)
