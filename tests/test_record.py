"""`wps.record` checked against `dataclasses.dataclass(frozen=True)`.

Each factory below defines the same class under a given decorator, so every
case compares a record with its frozen-dataclass twin."""

import dataclasses
import inspect
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

from fano_wci.catalog import FamilyPair, FamilyRecord, Member
from fano_wci.singularities import ClassificationError, QuotientSingularity
from fano_wci.wps import record

SRC = Path(__file__).resolve().parents[1] / "src"


def with_defaults(decorate):
    @decorate
    class Center:
        kind: str
        degree: int | None = None
        locus: str = ""

    return Center


def with_base(decorate):
    @decorate
    class Pair:
        g: int
        gprime: str

    @decorate
    class Derived(Pair):
        support: tuple
        count: int = 1

    return Derived


def with_post_init(decorate):
    @decorate
    class Quotient:
        r: int
        a: int = 1

        def __post_init__(self):
            if not 1 <= self.a < self.r:
                raise ValueError(f"not a type 1/{self.r}(1,{self.a})")

    return Quotient


def with_one_field(decorate):
    @decorate
    class Weights:
        weights: tuple

    return Weights


def with_init_local_names(decorate):
    # the generated __init__ holds self.__dict__ in a local named apart from every field
    @decorate
    class Local:
        d: int
        d_: int = 0

    return Local


# factory, positional arguments, the same as keywords
CASES = {
    "defaults": (with_defaults, ("curve", 3), {"kind": "curve", "degree": 3}),
    "subclass": (with_base, (1, "x", ((1, 0),), 2), {"g": 1, "gprime": "x", "support": ((1, 0),), "count": 2}),
    "post-init": (with_post_init, (5, 2), {"r": 5, "a": 2}),
    "one-field": (with_one_field, ((1, 2, 3),), {"weights": (1, 2, 3)}),
    "init-local-names": (with_init_local_names, (1, 2), {"d": 1, "d_": 2}),
}
frozen = dataclasses.dataclass(frozen=True)


@pytest.mark.parametrize("case", CASES)
def test_record_matches_a_frozen_dataclass(case):
    make, args, kwargs = CASES[case]
    rec, ref = make(record), make(frozen)
    assert inspect.signature(rec.__init__) == inspect.signature(ref.__init__)
    r, d = rec(*args), ref(*args)
    # the generated __init__ stores exactly the fields, in field order, as the dataclass does
    assert list(vars(r).items()) == list(vars(d).items()) == list(vars(rec(**kwargs)).items())
    assert r == rec(**kwargs) and not r != rec(**kwargs)
    assert hash(r) == hash(d) == hash(rec(**kwargs))
    assert rec.__qualname__ == ref.__qualname__  # so the whole repr can be compared
    assert repr(r) == repr(d)
    # equal values, different classes: never equal, as for dataclasses
    assert r != d and d != r
    assert r != make(record)(*args)
    assert r != tuple(vars(r).values())
    name = next(iter(kwargs))
    for obj in (r, d):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.unknown = 1
    assert list(vars(r).items()) == list(vars(d).items())
    assert getattr(r, name) == kwargs[name]


def test_record_init_runs_post_init_of_a_package_record():
    assert vars(QuotientSingularity(5, 2, "p2")) == {"r": 5, "a": 2, "locus": "p2", "count": 1}
    for r, a, reason in ((4, 2, "is not terminal"), (5, 3, "not a normalized type")):
        with pytest.raises(ClassificationError, match=reason):
            QuotientSingularity(r, a)


def test_a_cached_property_on_a_record_caches_and_stays_out_of_equality():
    calls = []

    @record
    class Weights:
        weights: tuple

        @cached_property
        def total(self) -> int:
            calls.append(self.weights)
            return sum(self.weights)

    kept, fresh = Weights((1, 2)), Weights((1, 2))
    assert kept.total == kept.total == 3 and calls == [(1, 2)]
    assert list(vars(kept)) == ["weights", "total"] and list(vars(fresh)) == ["weights"]
    assert kept == fresh and hash(kept) == hash(fresh) and repr(kept) == repr(fresh)
    with pytest.raises(AttributeError):
        kept.total = 4
    # the package's kept values: a record's (-K)^3
    rec = FamilyRecord(17, "Gprime", (1, 1, 1, 2, 4), (8,))
    assert rec.a_cube() is rec.a_cube() and rec == FamilyRecord(17, "Gprime", (1, 1, 1, 2, 4), (8,))


def test_record_defaults_and_missing_arguments():
    rec, ref = with_defaults(record), with_defaults(frozen)
    assert repr(rec("point")) == repr(ref("point"))
    for cls in (rec, ref):
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls("point", 1, "p4", "extra")


def test_record_runs_post_init_on_every_construction():
    rec, ref = with_post_init(record), with_post_init(frozen)
    for args in ((1,), (5, 5), (5, 0)):
        with pytest.raises(ValueError) as by_record:
            rec(*args)
        with pytest.raises(ValueError) as by_dataclass:
            ref(*args)
        assert str(by_record.value) == str(by_dataclass.value)


def test_record_rejects_a_required_field_after_a_default():
    def late_required(decorate):
        @decorate
        class Late:
            a: int = 0
            b: int

    for decorate in (record, frozen):
        with pytest.raises(TypeError):
            late_required(decorate)


def test_member_fields_follow_its_family_pair_fields():
    assert FamilyPair.__record_fields__ == ("g", "gprime", "golden")
    assert Member.__record_fields__ == FamilyPair.__record_fields__ + tuple(Member.__annotations__)
    assert list(inspect.signature(Member).parameters) == list(Member.__record_fields__)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = "import fano_wci.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    # -S: no site-packages .pth hooks, which can import either module themselves
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
