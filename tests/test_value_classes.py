"""The library's value classes are plain ``__slots__`` classes.

``RingSpec`` and ``FunctorSpec`` are values: equal fields give equal
values and equal hashes, assignment is refused, and copy, deepcopy and
pickle give back an equal value.  The result classes keep their field
order, so positional construction reads each field back.
"""

import copy
import pickle

import pytest

from twohom.complex2 import HomologyData
from twohom.derived import FunctorSpec, LongSeq, LongSeqEntry
from twohom.exactlin import RingSpec, ZZ
from twohom.fpmod import FPModule
from twohom.twomod import RelKernelResult


def _values():
    """(value, a twin built apart from it, its repr text)."""
    z4 = FPModule.cyclic(ZZ, 4)
    return [
        (RingSpec.Z(), RingSpec(kind="Z"), "RingSpec(kind='Z', n=None)"),
        (RingSpec.Zmod(6), RingSpec("Zmod", 6), "RingSpec(kind='Zmod', n=6)"),
        (RingSpec.Zmod(12), RingSpec(kind="Zmod", n=12),
         "RingSpec(kind='Zmod', n=12)"),
        (FunctorSpec.identity(), FunctorSpec(kind="identity"),
         "FunctorSpec(kind='identity', module=None)"),
        (FunctorSpec.tensor_with(z4),
         FunctorSpec("tensor", FPModule.cyclic(ZZ, 4)),
         "FunctorSpec(kind='tensor', module=FPModule(Z, gens=1, rel=[[4]]))"),
    ]


VALUES = _values()
IDS = [r for _, _, r in VALUES]


@pytest.mark.parametrize("value, twin, text", VALUES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(value, twin, text):
    assert value == twin and value is not twin and not value != twin
    assert hash(value) == hash(twin)
    assert {value: 1}[twin] == 1
    others = [v for v, _, r in VALUES if r != text]
    assert all(value != o and not value == o for o in others)
    assert len({v for v, _, _ in VALUES} | {t for _, t, _ in VALUES}) == 5
    for other in (None, "Z", value.kind, (value.kind, None)):
        assert value != other and not value == other


@pytest.mark.parametrize("value, twin, text", VALUES, ids=IDS)
def test_assignment_is_refused(value, twin, text):
    fields = {name: getattr(value, name) for name in value.__slots__}
    for name in value.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, 7)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 7
    assert not hasattr(value, "__dict__")
    assert {name: getattr(value, name) for name in value.__slots__} == fields
    assert value == twin and hash(value) == hash(twin) and repr(value) == text


@pytest.mark.parametrize("value, twin, text", VALUES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(value, twin, text):
    for back in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value)
        assert repr(back) == text


@pytest.mark.parametrize("value, twin, text", VALUES, ids=IDS)
def test_repr_text_is_the_field_listing(value, twin, text):
    assert repr(value) == repr(twin) == text


def test_invalid_fields_raise():
    with pytest.raises(ValueError, match="unknown ring kind 'Q'"):
        RingSpec("Q")
    for n in (None, 1, 0, -4):
        with pytest.raises(ValueError, match="modulus must be an integer >= 2"):
            RingSpec("Zmod", n)
    with pytest.raises(ValueError, match="Z takes no modulus"):
        RingSpec("Z", 6)
    with pytest.raises(ValueError, match="unknown functor kind 'dual'"):
        FunctorSpec("dual")
    with pytest.raises(ValueError, match="tensor functor needs a module"):
        FunctorSpec("tensor")


@pytest.mark.parametrize("cls, fields", [
    (LongSeq, ["functor", "depth", "entries", "maps", "cells"]),
    (LongSeqEntry, ["label", "degree", "homology"]),
    (RelKernelResult, ["K", "e", "eps", "incl", "to_a", "to_b", "F", "phi",
                       "G"]),
    (HomologyData, ["kernel", "module", "c", "n"]),
], ids=["LongSeq", "LongSeqEntry", "RelKernelResult", "HomologyData"])
def test_results_take_their_fields_positionally(cls, fields):
    vals = [object() for _ in fields]
    made = cls(*vals)
    assert all(getattr(made, f) is v for f, v in zip(fields, vals))
    by_name = cls(**dict(zip(fields, vals)))
    assert all(getattr(by_name, f) is v for f, v in zip(fields, vals))
    with pytest.raises(TypeError):
        cls(*vals, object())
