"""Every public entry point of the library ends in a result or a ``ValueError``, whatever it is given.

The targets are found through ``vars(module)``, so a new public function,
record, classmethod or method is probed without being listed here; a new
record needs one value in ``SAMPLES`` for its methods to be called on.
"""

import inspect
from collections.abc import Iterator
from itertools import product

from oscitab import analysis, correspondences, oscillating, polyring, shapes, tableaux
from oscitab.shapes import _Record

MODULES = (shapes, tableaux, oscillating, polyring, analysis, correspondences)

# wrong types, wrong values and a few right ones, tried at every required argument
CORPUS = (None, 1.5, True, "3", (1, 2), (-1,), [2, 1], 0, -1, (), ((1,),), 3)


# one value of each record, built through its public constructor, whose methods are probed
SAMPLES = {
    oscillating.OscillatingTableau: oscillating.OscillatingTableau(((), (1,), (2,))),
    oscillating.EventTrace: oscillating.EventTrace((1, 1), ((1, 1), (1, 2)), ("add", "add")),
    oscillating.Run: oscillating.Run((1, 2), {1}),
    oscillating.SSOT: oscillating.SSOT((((), (2,)),)),
    polyring.SparsePoly: polyring.SparsePoly(2, {(1, 0): 1, (0, 2): -3}),
    analysis.SchurExpansion: analysis.SchurExpansion(2, {(2,): 1, (1, 1): 2}),
    analysis.LatticePolytopeCheck: analysis.LatticePolytopeCheck(((1, 0), (0, 1)), ((1, 0), (0, 1)), True),
    correspondences.TwoRowArray: correspondences.TwoRowArray(((2, 1), (3, 1))),
    correspondences.SundaramPair: correspondences.SundaramPair(correspondences.TwoRowArray(((2, 1),)), ((1, 3),)),
}


def required(fn) -> int:
    """Number of required positional parameters of ``fn``."""
    params = inspect.signature(fn).parameters.values()
    return sum(1 for p in params if p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD))


def public(module):
    """The public functions and classes that ``module`` defines, by name."""
    for name, obj in vars(module).items():
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module.__name__:
            yield f"{module.__name__}.{name}", obj


def targets():
    """``(name, callable, arity)``: functions of at most 3 required arguments, records at full arity.

    Of each record also its classmethods, and its methods bound to its value in ``SAMPLES``.
    """
    for module in MODULES:
        for name, obj in public(module):
            if inspect.isfunction(obj):
                if required(obj) <= 3:
                    yield name, obj, required(obj)
            elif issubclass(obj, _Record):
                yield name, obj, len(obj._fields)
                for attr, raw in vars(obj).items():
                    if not attr.startswith("_") and isinstance(raw, classmethod):
                        yield f"{name}.{attr}", getattr(obj, attr), required(getattr(obj, attr))
                    elif not attr.startswith("_") and inspect.isfunction(raw):
                        method = getattr(SAMPLES[obj], attr)
                        yield f"{name}().{attr}", method, required(method)


def test_every_public_entry_point_ends_in_a_result_or_value_error():
    failures = {}
    calls = 0
    for name, fn, arity in targets():
        for args in product(CORPUS, repeat=arity):
            calls += 1
            try:
                result = fn(*args)
                if isinstance(result, Iterator):  # a generator checks its input when first advanced
                    next(result, None)
            except ValueError:
                pass
            except Exception as exc:  # noqa: BLE001  (anything else is the failure under test)
                failures.setdefault(name, f"{type(exc).__name__} at {args!r}: {exc}")
    assert calls > 20000
    assert not failures, failures
