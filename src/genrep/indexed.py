"""Codes indexed by an input set and an output set, with composition and an
internal fixed point.

Composition needs no fixed point here (its interpretation just nests), and
the fixed point is itself a code whose inner body draws inputs from the
disjoint union of the outer inputs (Left) and the recursive outputs (Right).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, TypeVar, Union

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


def under_fix(
    inner: IndexedCode,
    outer: Mapping[IndexLabel, T],
    recur: Callable[[dict[IndexLabel, T], IndexLabel], T],
) -> dict[IndexLabel, T]:
    """The table one layer under ``Fix(inner)``: Left inputs keep their
    entries in ``outer``, and each Right input ``lbl`` holds
    ``recur(under, lbl)``, which may keep ``under``, this very table, so that
    every deeper layer of the fixed point reuses it."""
    under: dict[IndexLabel, T] = {}
    under.update(split_tables(outer, {lbl: recur(under, lbl) for lbl in inner.outs}))
    return under


def mu_assign(inner: IndexedCode, assign: SlotTable) -> dict[IndexLabel, IndexedSlot]:
    """The assignment one layer under a fixed point: Left inputs keep their
    slots in ``assign``, Right inputs hold the fixed point of ``inner``."""
    return under_fix(inner, assign, partial(MuSlot, inner))


def check_output(code: IndexedCode, at: IndexLabel) -> None:
    """Conformance, map and enumeration all reject an index outside the outputs."""
    if at not in code.outs:
        raise IndexNotInSet(f"index {print_label(at)} is not an output of the code")


def slot_at(assign: SlotTable, lbl: IndexLabel) -> IndexedSlot:
    """The slot ``assign`` gives ``lbl``, which it must have."""
    slot = assign.get(lbl)
    if slot is None:
        raise IndexNotInSet(f"no slot for index {print_label(lbl)}")
    return slot


def _table(tables: dict, node: IndexedBody, outer: Mapping, build: Callable[[], T]) -> T:
    """The table ``build()`` makes for ``node`` under the table ``outer``, made
    once per walk. ``tables`` lives for one walk and holds every table it
    makes, so ``outer``, the caller's table or one of those, outlives it and
    its ``id`` names it."""
    key = (id(node), id(outer))
    if key not in tables:
        tables[key] = build()
    return tables[key]


def inner_assign(tables: dict, node: Comp | Fix, assign: SlotTable) -> SlotTable:
    """The assignment the inner code of ``node`` reads under ``assign``: a
    composition's left inputs interpret its right code, and a fixed point's
    Right inputs re-enter it (``mu_assign``). Conformance, enumeration and
    the i→ig conversion all read a code through it. ``tables`` lives for one
    walk and keeps, under ``(id(node), id(assign))``, each assignment it
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


def slot_accepts_i(slot: IndexedSlot, v: GenericValue) -> bool:
    return _slot_accepts_i({}, slot, v)


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
    return _conform_i({}, code, assign, at, v)


def _conform_i(
    tables: dict, code: IndexedCode, assign: SlotTable, at: IndexLabel, v: GenericValue
) -> bool:
    check_output(code, at)

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

    Mapping through a fixed point unrolls it, one ``Roll`` of the value per
    layer. Each ``Comp`` node's middle family and each ``Fix`` node's table
    is built once per family it sits under.
    """
    return _map_i({}, code, fam, at, v)


def _map_i(
    tables: dict, code: IndexedCode, fam: IxTransform, at: IndexLabel, v: GenericValue
) -> GenericValue:
    check_output(code, at)
    return spine.map(code.body, v, partial(_map_atom, tables, fam, at))


def _map_atom(
    tables: dict, fam: IxTransform, at: IndexLabel, node: IndexedBody, v: GenericValue
) -> GenericValue:
    match node:
        case Id(lbl):
            transform = fam.get(lbl)
            if transform is None:
                raise IndexNotInSet(f"no transformer for index {print_label(lbl)}")
            return transform(v)
        case Tag(_):
            if v != Refl():
                raise MalformedValue(f"tag position is not refl: {print_value(v)}")
            return v
        case Comp(f, g):
            middle = _table(
                tables,
                node,
                fam,
                lambda: {lbl: partial(_map_i, tables, g, fam, lbl) for lbl in f.ins},
            )
            return _map_i(tables, f, middle, at, v)
        case Fix(f):
            layer = lambda table, lbl: partial(_map_layer, tables, f, table, lbl)
            under = _table(tables, node, fam, lambda: under_fix(f, fam, layer))
            return _map_layer(tables, f, under, at, v)
    raise TypeError(f"not an indexed body: {node!r}")


def _map_layer(
    tables: dict, inner: IndexedCode, under: IxTransform, at: IndexLabel, v: GenericValue
) -> GenericValue:
    """Map one layer of ``Fix(inner)`` under its table ``under``, whose Right
    transformers map the next layer the same way."""
    match v:
        case Roll(w):
            return Roll(_map_i(tables, inner, under, at, w))
    raise MalformedValue(f"fixed-point layer is not rolled: {print_value(v)}")
