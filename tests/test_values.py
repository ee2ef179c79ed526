"""Value semantics of the record classes: equality, hash, repr, immutability, pickling and copying."""

import copy
import dataclasses
import pickle
import pprint
from types import MappingProxyType

import pytest

import oscitab  # noqa: F401  (loads every module, so every record class exists)
from oscitab import analysis, correspondences, oscillating, polyring
from oscitab.analysis import LatticePolytopeCheck, SchurExpansion
from oscitab.correspondences import EMPTY_ARRAY, SundaramPair, TwoRowArray
from oscitab.oscillating import ADD, DELETE, EMPTY_SSOT, SSOT, EventTrace, OscillatingTableau, Run
from oscitab.polyring import SparsePoly, ssot_poly
from oscitab.shapes import _Record

# (class, fields, fields of an unequal instance, fields the constructor rejects)
CASES = [
    (
        OscillatingTableau,
        {"chain": ((), (1,), (2,), (1,))},
        {"chain": ((), (1,), (1, 1), (1,))},
        [{"chain": ((), (2,))}, {"chain": None}, {"chain": [1, 2]}],
    ),
    (
        EventTrace,
        {"profile": (1, 1, 2), "boxes": ((1, 1), (1, 2), (1, 2)), "kinds": (ADD, ADD, DELETE)},
        {"profile": (1, 2, 3), "boxes": ((1, 1), (1, 2), (1, 2)), "kinds": (ADD, ADD, DELETE)},
        [
            {"profile": None, "boxes": None, "kinds": None},
            {"profile": (0,), "boxes": ((1, 1),), "kinds": (ADD,)},
            {"profile": (1,), "boxes": ((True, 1),), "kinds": (ADD,)},
            {"profile": (1,), "boxes": ((1, 1),), "kinds": ("move",)},
            {"profile": (1, 1), "boxes": ((1, 1),), "kinds": (ADD,)},
        ],
    ),
    (
        Run,
        {"letters": (1, 1, 2, 2), "bars": frozenset({2})},
        {"letters": (1, 1, 2, 2), "bars": frozenset()},
        [
            {"letters": (2, 1), "bars": frozenset()},
            {"letters": None, "bars": None},
            {"letters": (0, 1), "bars": frozenset()},
            {"letters": (1, 1.5), "bars": frozenset()},
            {"letters": (1, 2), "bars": ("a",)},
            {"letters": (1, 2), "bars": [[1]]},
        ],
    ),
    (
        SSOT,
        {"steps": (((), (1,)), ((1,), (2, 1)), ((1, 1), (1, 1)), ((1,), (1,)))},
        {"steps": (((), (1,)), ((1,), (2, 1)))},
        [{"steps": (((1,), (1,)),)}, {"steps": [1]}, {"steps": None}],
    ),
    (
        TwoRowArray,
        {"pairs": ((2, 1), (3, 1), (3, 2))},
        {"pairs": ((2, 1),)},
        [{"pairs": ((0, 1),)}, {"pairs": None}, {"pairs": [1, 2]}],
    ),
    (
        SundaramPair,
        {"burge": TwoRowArray(((2, 1),)), "tableau": ((1, 2), (3,))},
        {"burge": TwoRowArray(()), "tableau": ((1, 2), (3,))},
        [{"burge": ((2, 1),), "tableau": ((1, 2), (3,))}],
    ),
    (
        SchurExpansion,
        {"degree": 3, "coefficients": MappingProxyType({(3,): 1, (2, 1): 1})},
        {"degree": 3, "coefficients": MappingProxyType({(3,): 1})},
        [
            {"degree": None, "coefficients": None},
            {"degree": "a", "coefficients": {(1,): "x"}},
            {"degree": 1, "coefficients": {(1,): "x"}},
            {"degree": 3, "coefficients": {(2,): 1}},
            {"degree": 1, "coefficients": [1]},
            {"degree": 1, "coefficients": {(1,): -3}},
        ],
    ),
    (
        LatticePolytopeCheck,
        {"support": ((2, 0), (0, 2)), "polytope_points": ((2, 0), (1, 1), (0, 2)), "snp": False},
        {"support": ((2, 0), (0, 2)), "polytope_points": ((2, 0), (0, 2)), "snp": True},
        [
            {"support": None, "polytope_points": 1.5, "snp": "x"},
            {"support": ((2, 0),), "polytope_points": ((2, 0),), "snp": 1},
            {"support": ((2.0, 0),), "polytope_points": (), "snp": True},
            {"support": (1, 2), "polytope_points": (), "snp": True},
        ],
    ),
    (
        SparsePoly,
        {"nvars": 2, "terms": MappingProxyType({(2, 0): 3, (1, 1): -1})},
        {"nvars": 2, "terms": MappingProxyType({(2, 0): 3})},
        [
            {"nvars": 2.0, "terms": {}},
            {"nvars": True, "terms": {(1,): 1}},
            {"nvars": None, "terms": {}},
            {"nvars": "3", "terms": {}},
            {"nvars": 2, "terms": [1]},
            {"nvars": 2, "terms": {5: 1}},
        ],
    ),
]
IDS = [case[0].__name__ for case in CASES]


def forged(cls, fields):
    """An instance holding ``fields`` as given, past every check of the constructor."""
    out = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out


@pytest.mark.parametrize("cls,fields,other,bad", CASES, ids=IDS)
def test_record_value_semantics(cls, fields, other, bad):
    value = cls(**fields)
    assert value == cls(*fields.values()) and hash(value) == hash(cls(*fields.values()))
    assert [getattr(value, name) for name in fields] == list(fields.values())
    assert value != cls(**other) and not value == cls(**other)
    for case in CASES:  # records of two classes are never equal
        if case[0] is not cls:
            assert value != case[0](**case[1])
            assert value.__eq__(case[0](**case[1])) is NotImplemented
    if cls is not SparsePoly:  # a polynomial prints as its terms
        assert repr(value) == f"{cls.__name__}({', '.join(f'{name}={v!r}' for name, v in fields.items())})"
    with pytest.raises(TypeError):  # a field too many
        cls(*fields.values(), None)
    with pytest.raises(TypeError):  # the first field missing
        cls(**dict(list(fields.items())[1:]))

    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**fields)

    assert not hasattr(value, "__dict__")
    trusted = cls._of(*fields.values())  # the trusted builder makes the same value
    assert trusted == value and hash(trusted) == hash(value) and not hasattr(trusted, "__dict__")

    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)

    # dataclasses.replace copies through the constructor, as for the frozen dataclasses some records were
    assert dataclasses.is_dataclass(value) and [f.name for f in dataclasses.fields(value)] == list(fields)
    assert dataclasses.replace(value) == value and dataclasses.replace(value, **other) == cls(**other)
    assert pprint.pformat(value, width=20) == repr(value)

    for rejected in bad:
        with pytest.raises(ValueError):
            cls(**rejected)
        with pytest.raises(ValueError):
            dataclasses.replace(value, **rejected)
        with pytest.raises(ValueError):  # unpickling builds through the constructor, which checks again
            pickle.loads(pickle.dumps(forged(cls, rejected)))


def test_run_stores_immutable_fields():
    frozen = Run((1, 1, 2), frozenset({2}))
    for run in (Run((1, 1, 2), {2}), Run([1, 1, 2], [2])):
        assert type(run.letters) is tuple and type(run.bars) is frozenset
        assert run == frozen and hash(run) == hash(frozen)


def test_schur_expansion_drops_zero_coefficients():
    # zero terms add nothing to an expansion, so they are not kept, as in SparsePoly
    empty = SchurExpansion(1, {})
    for zero in (SchurExpansion(1, {(1,): 0}), SchurExpansion(1, [((1,), 0)])):
        assert zero == empty and hash(zero) == hash(empty) and zero.coefficients == {}
    assert SchurExpansion(3, {(3,): 0, (2, 1): 2}).coefficients == {(2, 1): 2}


def records(cls=_Record):
    """Every subclass of ``cls``, at any depth."""
    for sub in cls.__subclasses__():
        yield sub
        yield from records(sub)


def test_every_record_is_tested_and_keeps_the_one_value_model():
    # every record of the package is in CASES, and none writes its own equality, hash, pickling or trusted builder
    assert set(records()) == {case[0] for case in CASES}
    for cls in records():
        own = {"__eq__", "__hash__", "__reduce__", "_of"} & set(vars(cls))
        assert own == ({"_of"} if cls is SparsePoly else set()), cls  # a polynomial drops its zero coefficients


def test_polynomial_attributes_are_read_only():
    f = ssot_poly((2, 1), 5, 3)
    terms, key = dict(f.terms), hash(f)
    for name in ("nvars", "terms", "_nvars", "_terms", "__dict__", "extra"):
        with pytest.raises(AttributeError):
            setattr(f, name, {})
        with pytest.raises(AttributeError):
            delattr(f, name)
    for name in ("_nvars", "_terms", "extra"):  # the fields are the only storage: no slot or dict behind them
        with pytest.raises(AttributeError):
            object.__setattr__(f, name, {})
    assert f.terms == terms and hash(f) == key and f == ssot_poly((2, 1), 5, 3)


# functions that take a record, each with a record of another class
TAKES_A_RECORD = [
    (oscillating.substep_events, EMPTY_ARRAY),
    (oscillating.ot_events, EMPTY_SSOT),
    (oscillating.com, OscillatingTableau(((),))),
    (oscillating.destandardize, EMPTY_ARRAY),
    (oscillating.standardize, EMPTY_ARRAY),
    (oscillating.descent_positions, EMPTY_SSOT),
    (oscillating.ssot_to_dict, EMPTY_ARRAY),
    (correspondences.symmetrize, EMPTY_SSOT),
    (correspondences.burge_map, EMPTY_SSOT),
    (correspondences.sundaram, EMPTY_ARRAY),
    (correspondences.sundaram_inverse, EMPTY_ARRAY),
    (polyring.is_symmetric, EMPTY_SSOT),
    (polyring.schur_expand, EMPTY_SSOT),
    (analysis.has_snp, EMPTY_SSOT),
]


@pytest.mark.parametrize("fn,wrong_record", TAKES_A_RECORD, ids=[fn.__name__ for fn, _ in TAKES_A_RECORD])
def test_functions_that_take_a_record_reject_anything_else(fn, wrong_record):
    for value in (None, (), [((), (1,))], {"steps": []}, wrong_record):
        with pytest.raises(ValueError, match="^expected "):
            fn(value)
