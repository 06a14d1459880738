"""Every record class and term node behaves as a frozen dataclass would:
its repr text, == within one class only, hash, __match_args__, pickle and
copy round trips that keep every field, and fields that refuse assignment
and deletion."""

import copy
import dataclasses
import operator
import pickle

import pytest

from numlam import (
    App,
    CheckCase,
    CheckReport,
    Fuel,
    I,
    Normal,
    NumeralSystem,
    NumericFunction,
    OutOfFuel,
    Program,
    SequenceSpec,
    Var,
    builtin_system,
    church,
    head_reduce,
)
from numlam.reduction import HeadTrace
from numlam.report import EqVerdict

I_TEXT = "Lam(binder='x', body=Var(name='x'))"
HEAD = head_reduce(App(I, I))
CHURCH = builtin_system("church")

# name: (record, its repr, its __match_args__: the parameters of __init__)
RECORDS = {
    "Var": (Var("x"), "Var(name='x')", ("name",)),
    "Lam": (I, I_TEXT, ("binder", "body")),
    "App": (App(Var("f"), Var("x")), "App(fn=Var(name='f'), arg=Var(name='x'))", ("fn", "arg")),
    "Fuel": (Fuel(7), "Fuel(max_steps=7)", ("max_steps",)),
    "Normal": (Normal(I, 1), f"Normal(term={I_TEXT}, steps=1, eta_steps=0)",
               ("term", "steps", "eta_steps")),
    "OutOfFuel": (OutOfFuel(I, 1), f"OutOfFuel(term={I_TEXT}, steps=1)", ("term", "steps")),
    "HeadResult": (HEAD, f"HeadResult(trace={HEAD.trace!r}, reached_hnf=True)",
                   ("trace", "reached_hnf")),
    "EqVerdict": (EqVerdict("unknown", "out of fuel"),
                  "EqVerdict(kind='unknown', reason='out of fuel')", ("kind", "reason")),
    "CheckCase": (CheckCase("n=1", EqVerdict("equal"), 3),
                  "CheckCase(label='n=1', verdict=EqVerdict(kind='equal', reason=None), "
                  "steps=3, witness=None)", ("label", "verdict", "steps", "witness")),
    "CheckReport": (CheckReport("s", (CheckCase("c", True),)),
                    "CheckReport(subject='s', cases=(CheckCase(label='c', verdict=True, "
                    "steps=None, witness=None),))", ("subject", "cases")),
    "NumeralSystem": (CHURCH, f"NumeralSystem(name='church', numeral={church!r}, "
                      f"successor={CHURCH.successor!r}, predecessor={CHURCH.predecessor!r}, "
                      f"zero_test={CHURCH.zero_test!r})",
                      ("name", "numeral", "successor", "predecessor", "zero_test", "_step")),
    "SequenceSpec": (SequenceSpec("church", church), f"SequenceSpec(name='church', element={church!r})",
                     ("name", "element")),
    "Program": (Program((("id", I),)), f"Program(definitions=(('id', {I_TEXT}),))", ("definitions",)),
    "NumericFunction": (NumericFunction(2, operator.add),
                        f"NumericFunction(arity=2, eval={operator.add!r})", ("arity", "eval")),
}


def fields(record):
    """The fields __init__ takes, a head trace given by what it holds, as it
    has no == of its own."""
    return [(value.length, value.final, value.states) if isinstance(value, HeadTrace) else value
            for value in (getattr(record, name) for name in type(record).__match_args__)]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_behaves_as_a_frozen_dataclass(name):
    record, text, match_args = RECORDS[name]
    cls = type(record)
    assert cls.__name__ == name and not isinstance(record, tuple)
    assert repr(record) == text and cls.__match_args__ == match_args
    twin = cls(*(getattr(record, field) for field in match_args))
    assert twin is not record and twin == record and hash(twin) == hash(record)
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls and fields(clone) == fields(record)
    for field in match_args:
        before = getattr(record, field)
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(record, field)
        assert getattr(record, field) is before


def test_records_of_two_classes_differ_on_equal_fields():
    assert Normal(I, 1) != OutOfFuel(I, 1)
    assert Normal(I, 1).__eq__(OutOfFuel(I, 1)) is NotImplemented
    assert EqVerdict("equal") != ("equal", None)


def test_a_system_compares_without_its_step():
    """A system's step builds its numerals faster; it is no part of the
    system's value, so == and repr leave it out."""
    again = builtin_system("church")
    assert again == CHURCH and hash(again) == hash(CHURCH) and again._step is not None
    assert "_step" not in repr(CHURCH)
    assert NumeralSystem("church", church, CHURCH.successor, CHURCH.predecessor, CHURCH.zero_test) == CHURCH


def test_a_system_rebuilds_through_dataclasses_replace():
    """bench/spans.py times a system's numerals by wrapping `numeral` with
    dataclasses.replace, which keeps every other field."""
    def numeral(n):
        return church(n)

    wrapped = dataclasses.replace(CHURCH, numeral=numeral)
    assert type(wrapped) is NumeralSystem and wrapped.numeral is numeral
    assert (wrapped.name, wrapped.successor, wrapped.zero_test, wrapped._step) == (
        CHURCH.name, CHURCH.successor, CHURCH.zero_test, CHURCH._step)
