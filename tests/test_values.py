"""Value semantics of the record classes: equality, hash, repr, immutability, pickling and copying."""

import copy
import pickle

import pytest

from oscitab.correspondences import SundaramPair, TwoRowArray
from oscitab.oscillating import ADD, DELETE, SSOT, EventTrace, OscillatingTableau, Run

# (class, fields, fields of an unequal instance, fields the constructor rejects or None)
CASES = [
    (
        OscillatingTableau,
        {"chain": ((), (1,), (2,), (1,))},
        {"chain": ((), (1,), (1, 1), (1,))},
        {"chain": ((), (2,))},
    ),
    (
        EventTrace,
        {"profile": (1, 1, 2), "boxes": ((1, 1), (1, 2), (1, 2)), "kinds": (ADD, ADD, DELETE)},
        {"profile": (1, 2, 3), "boxes": ((1, 1), (1, 2), (1, 2)), "kinds": (ADD, ADD, DELETE)},
        None,  # an event trace is a plain record; its builders check it
    ),
    (
        Run,
        {"letters": (1, 1, 2, 2), "bars": frozenset({2})},
        {"letters": (1, 1, 2, 2), "bars": frozenset()},
        {"letters": (2, 1), "bars": frozenset()},
    ),
    (
        SSOT,
        {"steps": (((), (1,)), ((1,), (2, 1)), ((1, 1), (1, 1)), ((1,), (1,)))},
        {"steps": (((), (1,)), ((1,), (2, 1)))},
        {"steps": (((1,), (1,)),)},
    ),
    (
        TwoRowArray,
        {"pairs": ((2, 1), (3, 1), (3, 2))},
        {"pairs": ((2, 1),)},
        {"pairs": ((0, 1),)},
    ),
    (
        SundaramPair,
        {"burge": TwoRowArray(((2, 1),)), "tableau": ((1, 2), (3,))},
        {"burge": TwoRowArray(()), "tableau": ((1, 2), (3,))},
        {"burge": ((2, 1),), "tableau": ((1, 2), (3,))},
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
    assert repr(value) == f"{cls.__name__}({', '.join(f'{name}={v!r}' for name, v in fields.items())})"

    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**fields)

    assert not hasattr(value, "__dict__")
    if hasattr(cls, "_of"):  # the trusted builder makes the same value
        trusted = cls._of(*fields.values())
        assert trusted == value and hash(trusted) == hash(value) and not hasattr(trusted, "__dict__")

    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)

    if bad is not None:
        with pytest.raises(ValueError):
            cls(**bad)
        with pytest.raises(ValueError):  # unpickling builds through the constructor, which checks again
            pickle.loads(pickle.dumps(forged(cls, bad)))
