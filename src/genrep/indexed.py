"""Codes indexed by an input set and an output set, with composition and an
internal fixed point.

Composition needs no fixed point here (its interpretation just nests), and
the fixed point is itself a code whose inner body draws inputs from the
disjoint union of the outer inputs (Left) and the recursive outputs (Right).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping, TypeVar, Union

from . import spine
from .gvalue import (
    EmptySlot,
    GenericValue,
    IndexLabel,
    IndexNotInSet,
    IndexSet,
    MalformedValue,
    PayloadSlot,
    Refl,
    Roll,
    Transformer,
    disjoint_union,
    left,
    payload_slot_accepts,
    print_label,
    print_value,
    right,
)
from .spine import Prod, Sum, Unit

T = TypeVar("T")


@dataclass(frozen=True)
class Id:
    label: IndexLabel


@dataclass(frozen=True)
class Tag:
    label: IndexLabel


@dataclass(frozen=True)
class Comp:
    """Left code consumes what the right code produces."""

    left: "IndexedCode"
    right: "IndexedCode"


@dataclass(frozen=True)
class Fix:
    """Inner inputs are Left(outer inputs) plus Right(recursive outputs)."""

    inner: "IndexedCode"


IndexedBody = Union[Unit, Id, Tag, Sum, Prod, Comp, Fix]


@dataclass(frozen=True)
class IndexedCode:
    ins: IndexSet
    outs: IndexSet
    body: IndexedBody


def wellformed_i(code: IndexedCode) -> bool:
    """Check label membership and the index-set side conditions everywhere."""
    return all(_wf_atom(code, node) for node in spine.atoms(code.body))


def _wf_atom(code: IndexedCode, node: IndexedBody) -> bool:
    match node:
        case Id(lbl):
            return lbl in code.ins
        case Tag(lbl):
            return lbl in code.outs
        case Comp(f, g):
            return (
                f.outs == code.outs
                and g.ins == code.ins
                and f.ins == g.outs
                and wellformed_i(f)
                and wellformed_i(g)
            )
        case Fix(f):
            return (
                f.outs == code.outs
                and f.ins == disjoint_union(code.ins, code.outs)
                and wellformed_i(f)
            )
    raise TypeError(f"not an indexed body: {node!r}")


@dataclass(frozen=True)
class InterpSlot:
    """Inhabitants of the interpretation of ``code`` under ``assign`` at ``at``."""

    code: IndexedCode
    assign: "SlotTable"
    at: IndexLabel


@dataclass(frozen=True)
class MuSlot:
    """Fixed-point values of the inner code ``inner`` under ``assign`` at ``at``."""

    inner: IndexedCode
    assign: "SlotTable"
    at: IndexLabel


IndexedSlot = Union[PayloadSlot, EmptySlot, InterpSlot, MuSlot]

SlotTable = Mapping[IndexLabel, IndexedSlot]


def split_tables(
    first: Mapping[IndexLabel, T], second: Mapping[IndexLabel, T]
) -> dict[IndexLabel, T]:
    """Join two label-keyed tables (slots or transformers) over a disjoint
    union: Left labels look up the first, Right labels the second."""
    joined: dict[IndexLabel, T] = {}
    for lbl, entry in first.items():
        joined[left(lbl)] = entry
    for lbl, entry in second.items():
        joined[right(lbl)] = entry
    return joined


def mu_assign(inner: IndexedCode, assign: SlotTable) -> dict[IndexLabel, IndexedSlot]:
    """The assignment one layer under a fixed point: Left inputs keep their
    slots in ``assign``, Right inputs hold the fixed point of ``inner``."""
    return split_tables(assign, {lbl: MuSlot(inner, assign, lbl) for lbl in inner.outs})


def check_output(code: IndexedCode, at: IndexLabel) -> None:
    """Conformance, map and enumeration all reject an index outside the outputs."""
    if at not in code.outs:
        raise IndexNotInSet(f"index {print_label(at)} is not an output of the code")


def slot_at(assign: SlotTable, lbl: IndexLabel) -> IndexedSlot:
    """The slot ``assign`` gives ``lbl``, which it must have."""
    if lbl not in assign:
        raise IndexNotInSet(f"no slot for index {print_label(lbl)}")
    return assign[lbl]


def slot_accepts_i(slot: IndexedSlot, v: GenericValue) -> bool:
    match slot:
        case PayloadSlot():
            return payload_slot_accepts(slot, v)
        case EmptySlot():
            return False
        case InterpSlot(code, assign, at):
            return conform_i(code, assign, at, v)
        case MuSlot(inner, assign, at):
            match v:
                case Roll(w):
                    return conform_i(inner, mu_assign(inner, assign), at, w)
            return False
    raise TypeError(f"not an indexed slot: {slot!r}")


def conform_i(code: IndexedCode, assign: SlotTable, at: IndexLabel, v: GenericValue) -> bool:
    """Does ``v`` inhabit the interpretation of ``code`` under ``assign`` at ``at``?

    Assumes ``wellformed_i(code)``.
    """
    check_output(code, at)

    def atom(node: IndexedBody, w: GenericValue) -> bool:
        match node:
            case Id(lbl):
                return slot_accepts_i(slot_at(assign, lbl), w)
            case Tag(lbl):
                return w == Refl() and at == lbl
            case Comp(f, g):
                middle = {lbl: InterpSlot(g, assign, lbl) for lbl in f.ins}
                return conform_i(f, middle, at, w)
            case Fix(f):
                match w:
                    case Roll(x):
                        return conform_i(f, mu_assign(f, assign), at, x)
                return False
        raise TypeError(f"not an indexed body: {node!r}")

    return spine.conform(code.body, v, atom)


IxTransform = Mapping[IndexLabel, Transformer]


def map_i(
    code: IndexedCode,
    fam: IxTransform,
    at: IndexLabel,
    v: GenericValue,
) -> GenericValue:
    """Apply a per-index transformer family at every identity position.

    Mapping through a fixed point unrolls it, one ``Roll`` of the value per
    layer.
    """
    check_output(code, at)
    return spine.map(code.body, v, partial(_map_atom, fam, at))


def _map_atom(
    fam: IxTransform, at: IndexLabel, node: IndexedBody, v: GenericValue
) -> GenericValue:
    match node:
        case Id(lbl):
            if lbl not in fam:
                raise IndexNotInSet(f"no transformer for index {print_label(lbl)}")
            return fam[lbl](v)
        case Tag(_):
            if v != Refl():
                raise MalformedValue(f"tag position is not refl: {print_value(v)}")
            return v
        case Comp(f, g):
            middle = {lbl: (lambda w, lbl=lbl: map_i(g, fam, lbl, w)) for lbl in f.ins}
            return map_i(f, middle, at, v)
        case Fix(f):
            match v:
                case Roll(w):
                    recur = {lbl: partial(_map_atom, fam, lbl, node) for lbl in f.outs}
                    return Roll(map_i(f, split_tables(fam, recur), at, w))
            raise MalformedValue(f"fixed-point layer is not rolled: {print_value(v)}")
    raise TypeError(f"not an indexed body: {node!r}")
