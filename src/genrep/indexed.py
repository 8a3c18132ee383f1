"""Codes indexed by an input set and an output set, with composition and an
internal fixed point.

Composition needs no fixed point here (its interpretation just nests), and
the fixed point is itself a code whose inner body draws inputs from the
disjoint union of the outer inputs (Left) and the recursive outputs (Right).
"""

from __future__ import annotations

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
    Roll,
    Transformer,
    disjoint_union,
    left,
    print_label,
    print_value,
    right,
)
from .spine import Prod, Record, Sum, Unit

T = TypeVar("T")


class Id(Record):
    label: IndexLabel


class Tag(Record):
    label: IndexLabel


class Comp(Record):
    """Left code consumes what the right code produces."""

    left: "IndexedCode"
    right: "IndexedCode"


class Fix(Record):
    """Inner inputs are Left(outer inputs) plus Right(recursive outputs)."""

    inner: "IndexedCode"


IndexedBody = Union[Unit, Id, Tag, Sum, Prod, Comp, Fix]


class IndexedCode(Record):
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


class InterpSlot(Record, eq=False):
    """Inhabitants of the interpretation of ``code`` under ``assign`` at
    ``at``. It compares and hashes by identity, as ``MuSlot`` does, so an
    assignment that holds one can key a borrowed walk (``conform_i``)."""

    code: IndexedCode
    assign: "SlotTable"
    at: IndexLabel


class MuSlot(Record, eq=False):
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


def inner_assign(tables: dict, node: Comp | Fix, assign: Mapping[IndexLabel, T]) -> Mapping:
    """The assignment the inner code of ``node`` reads under ``assign``: a
    composition's left inputs interpret its right code (``InterpSlot``), and
    a fixed point's Right inputs re-enter it (``mu_assign``). Every
    ``Walk`` (conformance, map, enumeration and both i→ig directions) reads
    a code through it, so its entries other than these two slots are
    whatever the walk's own entries are: payload slots, constant sets or
    transformers. ``tables`` lives for one walk, and
    keeps, under ``(id(node), id(assign))`` (``spine.once``), each
    assignment it builds, so each is built once however many layers of a
    value pass through ``node``. Every object a key names lives as long as
    ``tables`` is read: ``node`` is part of the code and ``assign`` the
    first assignment or one kept in ``tables``, and a walk reads its tables
    only while it is built. So the ``id``s name them."""

    def build() -> Mapping:
        match node:
            case Comp(f, g):
                return {lbl: InterpSlot(g, assign, lbl) for lbl in f.ins}
            case Fix(f):
                return mu_assign(f, assign)

    return spine.once(tables, (id(node), id(assign)), build)


class Walk(spine.Walk):
    """A walk of ``code`` under ``assign`` at ``at``, compiled into closures
    when it is built. Its recursion points are the slots it meets below the
    top layer, each an entry of ``assign`` or one kept in ``tables`` and
    each one ``Walk.point`` (``enter``): a ``MuSlot`` (one fixed-point
    layer, also where the walk enters a ``Fix`` node) and an ``InterpSlot``
    (one layer of a composition's right code).

    The body of a recursion point is ``_point(slot)``: the walk of the
    slot's code, which ``_interp(layer)`` wraps for an ``InterpSlot`` (by
    default ``layer`` itself) and ``_rolled(layer)`` for a ``MuSlot``, where
    it adds or takes the ``Roll`` of one layer. A ``Fix`` node is its
    ``MuSlot``'s point. A subclass gives ``_spine`` (``spine.conformer``,
    ``spine.mapper`` or ``spine.generator``) and these hooks, which compile
    one position each: ``_interp``, ``_rolled``, ``_leaf(entry)`` any other
    entry, ``_tag(lbl, at)`` a tag and ``_comp(layer)`` a composition whose
    left code compiles to ``layer`` (by default ``layer`` itself). A walk
    that maps values answers a value that is not a layer with the static
    ``_unrolled(v)``. ``_entries`` names an entry in the error for a missing
    one.
    """

    _entries = "slot"

    def __init__(self, code: IndexedCode, assign: Mapping, at: IndexLabel):
        super().__init__()
        check_output(code, at)
        self.top = self._walk(code, assign, at)

    def _walk(self, code: IndexedCode, assign: Mapping, at: IndexLabel):
        def atom(node: IndexedBody):
            kind = type(node)
            if kind is Id:
                entry = assign.get(node.label)
                if entry is None:
                    missing = f"no {self._entries} for index {print_label(node.label)}"
                    return self._raising(IndexNotInSet, missing)
                kind = type(entry)
                if kind is MuSlot or kind is InterpSlot:
                    return self.enter(entry)
                return self._leaf(entry)
            if kind is Tag:
                return self._tag(node.label, at)
            if kind is Comp:
                inner = inner_assign(self.tables, node, assign)
                return self._comp(self._walk(node.left, inner, at))
            if kind is Fix:
                return self._fix(node, assign, at)
            return self._raising(TypeError, f"not an indexed body: {node!r}")

        return self._spine(code.body, atom)

    def _fix(self, node: Fix, assign: Mapping, at: IndexLabel):
        # A value enters the fixed point at its table's slot for ``at``.
        slot = inner_assign(self.tables, node, assign).get(right(at))
        if slot is None:
            return self._raising(IndexNotInSet, f"no slot for index {print_label(right(at))}")
        return self.enter(slot)

    def _point(self, slot: InterpSlot | MuSlot):
        if type(slot) is InterpSlot:
            return self._interp(self._walk(slot.code, slot.assign, slot.at))
        return self._rolled(self._walk(slot.inner, slot.under, slot.at))

    def _interp(self, layer):
        return layer

    _comp = _interp  # both default to the layer itself


class Conformer(Walk):
    """Does a value inhabit the interpretation of ``code`` under ``assign``
    at ``at``?

    Assumes ``wellformed_i(code)``. Each ``Comp`` node's middle assignment
    and each ``Fix`` node's table is built once per assignment it sits
    under, however many layers of the values pass through it.
    """

    _spine = staticmethod(spine.conformer)

    _rolled = staticmethod(spine.rolled)

    def _leaf(self, slot: IndexedSlot) -> Callable[[GenericValue], bool]:
        return spine.leaf(slot, "an indexed")

    def _tag(self, lbl: IndexLabel, at: IndexLabel) -> Callable[[GenericValue], bool]:
        return spine.is_refl if at == lbl else spine.never


def conform_i(code: IndexedCode, assign: SlotTable, at: IndexLabel, v: GenericValue) -> bool:
    """Does ``v`` inhabit the interpretation of ``code`` under ``assign`` at
    ``at``? The call borrows a ``Conformer`` (``spine.borrow``) keyed by the
    index and the slots ``assign`` holds now, and built on a copy of it."""
    build = lambda: Conformer(code, dict(assign), at)
    return spine.borrow(code, ("conform_i", at, spine.Contents(assign)), build, v)


class Mapper(Walk):
    """Apply a per-index transformer family at every identity position.

    The family is read as an assignment, the way ``Conformer`` reads its
    slots: a composition's inputs map its right code (``InterpSlot``), and
    a fixed point's Right inputs map one more layer (``MuSlot``), one
    ``Roll`` of the value each; any other entry is a transformer of the
    family and is applied. Transformers must be pure: the memo reuses one
    result for every position that holds the same subtree.
    """

    _spine = staticmethod(spine.mapper)
    _entries = "transformer"

    def _rolled(self, layer: Callable) -> Callable[[GenericValue], GenericValue]:
        unrolled = self._unrolled
        return lambda v: Roll(layer(v.inner)) if type(v) is Roll else unrolled(v)

    @staticmethod
    def _unrolled(v: GenericValue) -> GenericValue:
        raise MalformedValue(f"fixed-point layer is not rolled: {print_value(v)}")

    def _leaf(self, f: Transformer) -> Transformer:
        return f

    def _tag(self, lbl: IndexLabel, at: IndexLabel) -> Callable[[GenericValue], GenericValue]:
        return spine.map_tag


class Generator(Walk, spine.Generating):
    """Every value of ``code`` under ``assign`` at ``at`` with exactly ``m``
    nodes, each once: ``gen(m)``, for any ``m >= 1``. Each position compiles
    to a node of ``spine.Generating``, with its support: a payload slot and
    a tag at ``at`` have values of one node, an empty slot and another tag
    none, and a fixed point's layer one node more than its body."""

    def _spine(self, code: IndexedBody, atom: Callable) -> tuple:
        return spine.generator(code, atom, self)

    def _rolled(self, layer: tuple) -> tuple:
        return self.wrapped(Roll, layer)

    def _leaf(self, slot: IndexedSlot) -> tuple:
        if type(slot) is PayloadSlot:
            return spine.token_node(slot)
        if type(slot) is EmptySlot:
            return spine.NOTHING
        return self._raising(TypeError, f"not an indexed slot: {slot!r}")

    def _tag(self, lbl: IndexLabel, at: IndexLabel) -> tuple:
        return spine.REFL if at == lbl else spine.NOTHING
