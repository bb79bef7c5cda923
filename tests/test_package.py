"""Package-wide contracts: the lazily loaded public names, and the immutable
records that the value types are built on."""

import copy
import importlib
import pickle
from types import SimpleNamespace

import pytest

import tensorcube
from tensorcube import (AllEven, DecompositionResult, DistinctOddEvenLength, GroupSpec, Hook,
                        Partition, Rectangle, SkewShape, SkewTableau, classify,
                        tensor_decompose)

# --- lazy exports ---


@pytest.mark.parametrize("name", tensorcube.__all__)
def test_every_export_is_the_object_in_its_home_module(name):
    home = importlib.import_module(f"tensorcube.{tensorcube._HOME[name]}")
    assert getattr(tensorcube, name) is getattr(home, name)


def test_exports_are_listed_once():
    assert len(tensorcube.__all__) == len(set(tensorcube.__all__))


def test_star_import_and_submodule_access_resolve():
    namespace = {}
    exec("from tensorcube import *", namespace)
    assert set(tensorcube.__all__) <= set(namespace)
    assert namespace["detects"] is importlib.import_module("tensorcube.detection").detects
    assert tensorcube.detection is importlib.import_module("tensorcube.detection")
    assert "detects" in dir(tensorcube) and "oracle" in dir(tensorcube)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tensorcube.no_such_name
    with pytest.raises(ImportError):
        exec("from tensorcube import no_such_name", {})


# --- records ---

def _tableau():
    return SkewTableau(SkewShape((2, 1), (1,)), [[1], [2]])


# (a maker of one record of each class, a record of that class with other
# fields or None, the repr the frozen dataclass it replaces gave)
RECORDS = [
    (AllEven, None, "AllEven()"),
    (DistinctOddEvenLength, None, "DistinctOddEvenLength()"),
    (lambda: Hook(arm=2, leg=1), Hook(1, 2), "Hook(arm=2, leg=1)"),
    (lambda: Rectangle(rows=2, cols=3), Rectangle(3, 2), "Rectangle(rows=2, cols=3)"),
    (lambda: SkewShape((3, 2), (1,)), SkewShape((3, 2), (2,)),
     "SkewShape(outer=Partition((3, 2)), inner=Partition((1,)))"),
    (_tableau, SkewTableau(SkewShape((2, 1), (1,)), [[2], [3]]),
     "SkewTableau(shape=SkewShape(outer=Partition((2, 1)), inner=Partition((1,))), "
     "rows=((1,), (2,)))"),
    (lambda: GroupSpec("C", 4), GroupSpec("B", 4), "GroupSpec(family='C', rank=4)"),
    (lambda: tensor_decompose((1,), (1,), GroupSpec("D", 2)),
     tensor_decompose((1,), (1,), GroupSpec("D", 4)),
     "DecompositionResult(group=GroupSpec(family='D', rank=2), left=Partition((1,)), "
     "right=Partition((1,)), terms={Partition((2,)): 1, Partition(()): 1}, "
     "inadmissible={Partition((1, 1)): 1}, stable=True)"),
]
IDS = ["AllEven", "DistinctOddEvenLength", "Hook", "Rectangle", "SkewShape", "SkewTableau",
       "GroupSpec", "DecompositionResult"]


@pytest.mark.parametrize("make, other, shown", RECORDS, ids=IDS)
def test_record_repr_is_the_dataclass_repr(make, other, shown):
    assert repr(make()) == shown


@pytest.mark.parametrize("make, other, shown", RECORDS, ids=IDS)
def test_record_equality_and_hash_follow_the_fields(make, other, shown):
    a, b = make(), make()
    assert a == b and not a != b
    if isinstance(a, DecompositionResult):  # its fields hold dicts
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    if other is not None:
        assert a != other
    # a record never equals one of another class, even with equal fields
    assert a != SimpleNamespace(**{name: getattr(a, name) for name in a.__slots__})
    assert a != tuple(getattr(a, name) for name in a.__slots__)
    assert AllEven() != DistinctOddEvenLength()
    assert Hook(2, 2) != Rectangle(2, 2)


@pytest.mark.parametrize("make, other, shown", RECORDS, ids=IDS)
def test_record_assignment_raises(make, other, shown):
    record = make()
    for name in (*record.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    with pytest.raises(AttributeError):
        delattr(record, (*record.__slots__, "kind")[0])
    assert repr(record) == shown


@pytest.mark.parametrize("make, other, shown", RECORDS, ids=IDS)
def test_record_pickle_and_copy_round_trip(make, other, shown):
    record = make()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record) and back == record
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record and repr(clone) == shown


def test_empty_partition_keeps_both_field_free_families():
    assert classify(()) == frozenset({AllEven(), DistinctOddEvenLength()})
    assert len(classify(())) == 2
    assert classify(Partition((2, 2))) == frozenset({AllEven(), Rectangle(rows=2, cols=2)})
