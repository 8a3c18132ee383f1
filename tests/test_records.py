"""The code, label, slot and context classes behave as the dataclasses they
stand for: each record class is checked against a ``make_dataclass`` twin
with the same fields, defaults and settings, and the import of ``genrep``
pulls in neither ``dataclasses`` nor ``inspect``."""

import copy
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, field, make_dataclass

import pytest

from genrep import TT, corpus, embed, gvalue, indexed, instant, multirec, oracle, polyp
from genrep import regular, spine
from genrep.gvalue import TOP_SLOT, EmptySlot, index_set, label

from helpers import child_env, indexed_list

A, B = label("a"), label("b")
U = spine.Unit()
FRESH_LIST = object()  # a default that is a fresh empty list per instance

# (class, fields, defaults, frozen, eq, sample argument tuples)
RECORDS = [
    (gvalue.IndexLabel, ["name", "tags"], {"tags": ()}, True, True,
     [("a",), ("a", ("L",)), ("b", ("R", "L"))]),
    (gvalue.IndexSet, ["labels"], {"labels": ()}, True, True, [(), ((A, B),), ((B, A),)]),
    (gvalue.PayloadToken, ["sort", "ident"], {}, True, True, [("nat", 0), ("nat", 3), ("bit", 0)]),
    (gvalue.PayloadSlot, ["sort"], {}, True, True, [("⊤",), ("nat",)]),
    (gvalue.EmptySlot, [], {}, True, True, [()]),
    (spine.Unit, [], {}, True, True, [()]),
    (spine.Sum, ["left", "right"], {}, True, True, [(U, U), (U, regular.Id()), (U, U)]),
    (spine.Prod, ["left", "right"], {}, True, True, [(U, U), (regular.Id(), U)]),
    (regular.Id, [], {}, True, True, [()]),
    (regular.MuSlot, ["code"], {}, True, True, [(corpus.NAT_C,), (corpus.BIN_C,)]),
    (polyp.Par, [], {}, True, True, [()]),
    (polyp.Id, [], {}, True, True, [()]),
    (polyp.Comp, ["left", "right"], {}, True, True,
     [(corpus.LIST_C, polyp.Id()), (polyp.Par(), polyp.Id())]),
    (polyp.MuSlot, ["code", "param"], {}, True, True,
     [(corpus.LIST_C, TOP_SLOT), (corpus.ROSE_C, EmptySlot())]),
    (polyp.InterpSlot, ["code", "slots"], {}, True, True,
     [(corpus.LIST_C, polyp.SlotPair(TOP_SLOT, EmptySlot()))]),
    (polyp.SlotPair, ["param", "rec"], {}, True, True,
     [(TOP_SLOT, EmptySlot()), (TOP_SLOT, polyp.MuSlot(corpus.LIST_C, TOP_SLOT))]),
    (multirec.Id, ["label"], {}, True, True, [(A,), (B,)]),
    (multirec.Tag, ["label"], {}, True, True, [(A,), (B,)]),
    (multirec.MultirecCode, ["indices", "body"], {}, True, True,
     [(index_set(A), U), (corpus.ZIG_ZAG_C.indices, corpus.ZIG_ZAG_C.body)]),
    (multirec.MuSlot, ["code"], {}, True, True, [(corpus.ZIG_ZAG_C,)]),
    (indexed.Id, ["label"], {}, True, True, [(A,), (B,)]),
    (indexed.Tag, ["label"], {}, True, True, [(A,)]),
    (indexed.Comp, ["left", "right"], {}, True, True,
     [(corpus.LIST_I, corpus.NAT_I), (corpus.NAT_I, corpus.LIST_I)]),
    (indexed.Fix, ["inner"], {}, True, True, [(corpus.NAT_I,), (corpus.ROSE_I,)]),
    (indexed.IndexedCode, ["ins", "outs", "body"], {}, True, True,
     [(index_set(A), index_set(A), U), (index_set(A), index_set(B), indexed.Id(A))]),
    (indexed.InterpSlot, ["code", "assign", "at"], {}, True, False,
     [(corpus.LIST_I, {A: TOP_SLOT}, A)]),
    (indexed.MuSlot, ["inner", "under", "at"], {}, True, False,
     [(corpus.NAT_I, {A: TOP_SLOT}, A), (corpus.NAT_I, {A: TOP_SLOT}, A)]),
    (instant.Prim, ["sort"], {}, True, True, [("⊤",), ("nat",)]),
    (instant.EqWitness, ["a", "b"], {}, True, True, [(A, B), (A, A)]),
    (instant.OfCode, ["ref"], {}, True, True, [("ig0",)]),
    (instant.K, ["payload"], {}, True, True, [(instant.Prim("⊤"),), (instant.OfCode("ig0"),)]),
    (instant.R, ["ref"], {}, True, True, [("ig0",), ("ig1",)]),
    (instant.CrushSpec, ["combine", "step", "unit"], {}, True, True, [(max, abs, TT())]),
    (embed.ConversionReport, ["checked_count", "failures"],
     {"checked_count": 0, "failures": FRESH_LIST}, False, True,
     [(), (3,), (2, [(TT(), "forward", "boom")]), (0, [])]),
    (embed.PathContext, ["universe", "code", "at", "table", "env"],
     {"at": None, "table": None, "env": None}, True, True,
     [("regular", corpus.NAT_C), ("multirec", corpus.ZIG_ZAG_C, embed.LSTAR),
      ("indexed", corpus.LIST_I, embed.STAR, {embed.STAR: instant.Prim("⊤")}),
      ("instant", instant.R("ig0"), None, None, {"ig0": U})]),
    (oracle.EnumBudget, ["max_size"], {}, True, True, [(1,), (12,)]),
]


def _twin(cls, fields, defaults, frozen, eq):
    spec = []
    for name in fields:
        if name not in defaults:
            spec.append(name)
        elif defaults[name] is FRESH_LIST:
            spec.append((name, object, field(default_factory=list)))
        else:
            spec.append((name, object, field(default=defaults[name])))
    return make_dataclass(cls.__qualname__, spec, frozen=frozen, eq=eq)


def _hash(x):
    """``hash(x)``, ``"identity"`` for an identity hash, or the text of the
    error for an unhashable object."""
    try:
        h = hash(x)
    except TypeError as err:
        return str(err)
    return "identity" if h == object.__hash__(x) else h


def _raised(action):
    try:
        action()
    except Exception as err:
        return type(err), str(err)
    return None


def _record_classes():
    """Every class a ``genrep`` module defines that takes class patterns
    and is neither a value node nor a tuple."""
    import genrep  # noqa: F401  (every module loaded)

    found = set()
    for name, module in sys.modules.items():
        if name == "genrep" or name.startswith("genrep."):
            for obj in vars(module).values():
                if (isinstance(obj, type) and obj.__module__ == name
                        and hasattr(obj, "__match_args__")
                        and not issubclass(obj, (tuple, gvalue._Node))):
                    found.add(obj)
    return found


def test_every_record_class_is_checked():
    assert _record_classes() == {row[0] for row in RECORDS}
    assert len(RECORDS) == 36


@pytest.mark.parametrize("cls, fields, defaults, frozen, eq, samples", RECORDS,
                         ids=[f"{row[0].__module__[7:]}.{row[0].__qualname__}" for row in RECORDS])
def test_a_record_behaves_as_its_dataclass_twin(cls, fields, defaults, frozen, eq, samples):
    twin = _twin(cls, fields, defaults, frozen, eq)
    assert cls.__match_args__ == twin.__match_args__ == tuple(fields)
    records = [cls(*args) for args in samples]
    twins = [twin(*args) for args in samples]
    required = [name for name in fields if name not in defaults]
    assert repr(cls(*samples[0][:len(required)])) == repr(twin(*samples[0][:len(required)]))
    for args, rec, tw in zip(samples, records, twins):
        assert repr(rec) == repr(tw)
        keywords = dict(zip(fields, args))
        assert repr(cls(**keywords)) == repr(rec)
        assert (cls(**keywords) == rec) == (twin(**keywords) == tw)
        assert (cls(*args) != rec) == (twin(*args) != tw)
        assert _hash(rec) == _hash(tw)
        assert rec != tw and tw != rec and not rec == tw
        assert rec != object() and (rec == object()) is False
        fresh, fresh_twin = cls(*args), twin(*args)
        for name in [*fields, "other"]:
            assert (_raised(lambda: setattr(fresh, name, 1))
                    == _raised(lambda: setattr(fresh_twin, name, 1)))
            assert (_raised(lambda: delattr(fresh, name))
                    == _raised(lambda: delattr(fresh_twin, name)))
    for i, (first, first_twin) in enumerate(zip(records, twins)):
        for second, second_twin in zip(records[i:], twins[i:]):
            assert (first == second) == (first_twin == second_twin)
            assert (first != second) == (first_twin != second_twin)


def test_frozen_records_refuse_assignment_as_dataclasses_do():
    sums = spine.Sum(U, U), _twin(spine.Sum, ["left", "right"], {}, True, True)(U, U)
    for x in sums:
        with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'left'$"):
            x.left = U
        with pytest.raises(FrozenInstanceError, match="^cannot delete field 'right'$"):
            del x.right
        with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'extra'$"):
            x.extra = U


def test_a_report_is_mutable_and_each_gets_its_own_list():
    first, second = embed.ConversionReport(), embed.ConversionReport()
    assert first.failures == [] and first.failures is not second.failures
    first.checked_count += 2
    first.failures.append((TT(), "forward", "boom"))
    assert repr(first) == ("ConversionReport(checked_count=2, "
                           "failures=[(TT(), 'forward', 'boom')])")
    assert embed.ConversionReport.__hash__ is None and not first.ok() and second.ok()


def test_a_slot_that_holds_itself_prints_as_the_dataclass_does():
    """An indexed ``MuSlot``'s ``under`` table holds the slot itself."""
    twin = _twin(indexed.MuSlot, ["inner", "under", "at"], {}, True, False)
    texts = []
    for cls in (indexed.MuSlot, twin):
        under = {}
        slot = cls(corpus.NAT_I, under, A)
        under[A] = slot
        texts.append(repr(slot))
        assert slot == slot and slot != cls(corpus.NAT_I, under, A)
    assert texts[0] == texts[1]
    assert "under={IndexLabel(name='a', tags=()): ...}" in texts[0]


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_warm_code_round_trips_with_an_empty_cache(clone):
    code = corpus.LIST_I
    v = indexed_list([TT(), TT()])
    assert indexed.conform_i(code, {embed.STAR: TOP_SLOT}, embed.STAR, v)
    assert code.__dict__["_cache"]
    twin = clone(code)
    assert twin == code and twin is not code and hash(twin) == hash(code)
    assert repr(twin) == repr(code)
    assert not twin.__dict__["_cache"]
    assert indexed.conform_i(twin, {embed.STAR: TOP_SLOT}, embed.STAR, v)
    assert twin.__dict__["_cache"]


def test_importing_genrep_loads_neither_dataclasses_nor_inspect():
    script = ("import genrep, sys; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules))); "
              "genrep.cli.run_cli(['enum', '--universe', 'regular', '--code', 'NatC', "
              "'--max-size', '9'])")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=child_env())
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == (
        "[]\n"
        "<in1 tt>\n"
        "<in2 <in1 tt>>\n"
        "<in2 <in2 <in1 tt>>>\n"
        "<in2 <in2 <in2 <in1 tt>>>>\n"
    )
