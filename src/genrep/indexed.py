"""Codes indexed by an input set and an output set, with composition and an
internal fixed point.

Composition needs no fixed point here (its interpretation just nests), and
the fixed point is itself a code whose inner body draws inputs from the
disjoint union of the outer inputs (Left) and the recursive outputs (Right).
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class MuSlot:
    """Fixed-point values of the inner code ``inner`` at ``at``; ``under`` is
    the assignment one layer under the fixed point, which holds this slot."""

    inner: IndexedCode
    under: "SlotTable"
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


def mu_assign(inner: IndexedCode, assign: Mapping[IndexLabel, T]) -> dict[IndexLabel, T | MuSlot]:
    """The assignment one layer under ``Fix(inner)``: Left inputs keep their
    entries in ``assign``, slots or transformers, and each Right input
    ``lbl`` holds ``MuSlot(inner, under, lbl)``, whose ``under`` is this very
    table, so that every deeper layer of the fixed point reuses it."""
    under: dict[IndexLabel, T | MuSlot] = {}
    under.update(split_tables(assign, {lbl: MuSlot(inner, under, lbl) for lbl in inner.outs}))
    return under


def check_output(code: IndexedCode, at: IndexLabel) -> None:
    """Conformance, map, enumeration and i→ig reject an index outside the
    outputs, once per call: in a well-formed code every inner walk's index
    is an output of the code it walks."""
    if at not in code.outs:
        raise IndexNotInSet(f"index {print_label(at)} is not an output of the code")


def slot_at(assign: SlotTable, lbl: IndexLabel) -> IndexedSlot:
    """The slot ``assign`` gives ``lbl``, which it must have."""
    slot = assign.get(lbl)
    if slot is None:
        raise IndexNotInSet(f"no slot for index {print_label(lbl)}")
    return slot


def inner_assign(tables: dict, node: Comp | Fix, assign: Mapping[IndexLabel, T]) -> Mapping:
    """The assignment the inner code of ``node`` reads under ``assign``: a
    composition's left inputs interpret its right code (``InterpSlot``), and
    a fixed point's Right inputs re-enter it (``mu_assign``). Conformance,
    enumeration, map and both i→ig directions read a code through it, so its
    entries other than these two slots are whatever the walk's own entries
    are: payload slots, constant sets or transformers. ``tables`` lives for
    one walk and keeps, under ``(id(node), id(assign))``, each assignment it
    builds, so each is built once per walk however many layers of a value
    pass through ``node``; ``assign``, the walk's first assignment or one
    kept there, outlives the walk, so its ``id`` names it."""
    key = (id(node), id(assign))
    table = tables.get(key)
    if table is None:
        match node:
            case Comp(f, g):
                table = {lbl: InterpSlot(g, assign, lbl) for lbl in f.ins}
            case Fix(f):
                table = mu_assign(f, assign)
        tables[key] = table
    return table


def _slot_accepts_i(tables: dict, slot: IndexedSlot, v: GenericValue) -> bool:
    match slot:
        case PayloadSlot():
            return payload_slot_accepts(slot, v)
        case EmptySlot():
            return False
        case InterpSlot(code, assign, at):
            return _conform_i(tables, code, assign, at, v)
        case MuSlot(inner, under, at):
            match v:
                case Roll(w):
                    return _conform_i(tables, inner, under, at, w)
            return False
    raise TypeError(f"not an indexed slot: {slot!r}")


def conform_i(code: IndexedCode, assign: SlotTable, at: IndexLabel, v: GenericValue) -> bool:
    """Does ``v`` inhabit the interpretation of ``code`` under ``assign`` at ``at``?

    Assumes ``wellformed_i(code)``. Each ``Comp`` node's middle assignment
    and each ``Fix`` node's table is built once per assignment it sits
    under, however many layers of the value pass through it.
    """
    check_output(code, at)
    return _conform_i({}, code, assign, at, v)


def _conform_i(
    tables: dict, code: IndexedCode, assign: SlotTable, at: IndexLabel, v: GenericValue
) -> bool:
    def atom(node: IndexedBody, w: GenericValue) -> bool:
        match node:
            case Id(lbl):
                return _slot_accepts_i(tables, slot_at(assign, lbl), w)
            case Tag(lbl):
                return w == Refl() and at == lbl
            case Comp(f, _):
                return _conform_i(tables, f, inner_assign(tables, node, assign), at, w)
            case Fix(f):
                match w:
                    case Roll(x):
                        return _conform_i(tables, f, inner_assign(tables, node, assign), at, x)
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

    ``fam`` is read as an assignment, the way ``conform_i`` reads its slots:
    a composition's inputs map its right code (``InterpSlot``), and a fixed
    point's Right inputs map one more layer (``MuSlot``), one ``Roll`` of
    the value each; any other entry is a transformer of ``fam`` and is
    applied. Each table is built once per walk by ``inner_assign``.
    """
    check_output(code, at)
    return _map_i({}, code, fam, at, v)


def _map_i(
    tables: dict, code: IndexedCode, assign: Mapping, at: IndexLabel, v: GenericValue
) -> GenericValue:
    # The hot walk of the sweep: dispatch on the exact class, as spine does.
    def atom(node: IndexedBody, w: GenericValue) -> GenericValue:
        kind = type(node)
        if kind is Id:
            entry = assign.get(node.label)
            if entry is None:
                raise IndexNotInSet(f"no transformer for index {print_label(node.label)}")
            kind = type(entry)
            if kind is InterpSlot:
                return _map_i(tables, entry.code, entry.assign, entry.at, w)
            if kind is MuSlot:
                return _map_layer(tables, entry.inner, entry.under, entry.at, w)
            return entry(w)
        if kind is Tag:
            if w != Refl():
                raise MalformedValue(f"tag position is not refl: {print_value(w)}")
            return w
        if kind is Comp:
            return _map_i(tables, node.left, inner_assign(tables, node, assign), at, w)
        if kind is Fix:
            return _map_layer(tables, node.inner, inner_assign(tables, node, assign), at, w)
        raise TypeError(f"not an indexed body: {node!r}")

    return spine.map(code.body, v, atom)


def _map_layer(
    tables: dict, inner: IndexedCode, under: Mapping, at: IndexLabel, v: GenericValue
) -> GenericValue:
    """Map one layer of ``Fix(inner)`` under its table ``under``, whose Right
    entries map the next layer the same way."""
    if type(v) is Roll:
        return Roll(_map_i(tables, inner, under, at, v.inner))
    raise MalformedValue(f"fixed-point layer is not rolled: {print_value(v)}")
