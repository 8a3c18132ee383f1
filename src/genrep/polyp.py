"""Two-slot codes: a parameter position, a recursive position, and a
composition constructor whose interpretation takes a fixed point.

Composition is deliberately asymmetric: the interpretation of ``Comp(F, G)``
at (A, R) is the fixed point of F whose parameters are interpretations of G
at (A, R). Trees-of-lists and friends live here; the naive composition of two
container codes is usually not the container-of-containers code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import spine
from .gvalue import (
    EmptySlot,
    GenericValue,
    MalformedValue,
    PayloadSlot,
    Roll,
    Transformer,
    payload_slot_accepts,
    print_value,
)
from .spine import Prod, Sum, Unit


@dataclass(frozen=True)
class Par:
    pass


@dataclass(frozen=True)
class Id:
    pass


@dataclass(frozen=True)
class Comp:
    left: "PolyPCode"
    right: "PolyPCode"


PolyPCode = Union[Unit, Par, Id, Sum, Prod, Comp]


@dataclass(frozen=True)
class MuSlot:
    """Layers of the fixed point of ``code`` with parameter slot ``param``."""

    code: PolyPCode
    param: "PolyPSlot"


@dataclass(frozen=True)
class InterpSlot:
    """Inhabitants of the interpretation of ``code`` at ``slots``."""

    code: PolyPCode
    slots: "SlotPair"


PolyPSlot = Union[PayloadSlot, EmptySlot, MuSlot, InterpSlot]


@dataclass(frozen=True)
class SlotPair:
    param: PolyPSlot
    rec: PolyPSlot


def _layer_slots(tables: dict, slot: MuSlot) -> SlotPair:
    """The slots of one layer of ``slot``'s fixed point: parameters at
    ``slot.param`` and recursive positions at ``slot`` itself. Built once
    per ``tables``, which lives as long as its walk, so every layer reuses
    it."""
    pair = tables.get(id(slot))
    if pair is None:
        pair = tables[id(slot)] = SlotPair(slot.param, slot)
    return pair


def _comp_slot(tables: dict, node: Comp, slots: SlotPair) -> MuSlot:
    """The interpretation equation: values of ``Comp(F, G)`` at ``slots``
    are fixed-point values of F whose parameters interpret G at ``slots``.
    Built once per node and slot pair in ``tables``."""
    key = (id(node), id(slots))
    slot = tables.get(key)
    if slot is None:
        slot = tables[key] = MuSlot(node.left, InterpSlot(node.right, slots))
    return slot


class _Walk:
    """A walk from one slot, for as many values as it is given.

    Its recursion points are the ``MuSlot`` entries (one fixed-point layer
    each) and the ``InterpSlot`` entries (one layer of a composition's right
    code) that it meets below the top of a value, each the root slot or one
    kept in ``tables``; the memo (``spine.memoized``) keeps the walk's
    result for each value a point was given, so each point walks a shared
    subtree once for the life of the object.
    """

    def __init__(self, slot: PolyPSlot):
        self.slot = slot
        self.tables: dict = {}
        self.memo: dict = {}

    def __call__(self, v: GenericValue):
        slot = self.slot
        kind = type(slot)
        if kind is MuSlot or kind is InterpSlot:
            return self._point(slot, v)
        return self._leaf(slot, v)

    def _layer(self, code: PolyPCode, slots: SlotPair, v: GenericValue):
        def atom(node: PolyPCode, w: GenericValue):
            kind = type(node)
            if kind is Par:
                slot = slots.param
            elif kind is Id:
                slot = slots.rec
            elif kind is Comp:
                slot = _comp_slot(self.tables, node, slots)
            else:
                raise TypeError(f"not a polyp code: {node!r}")
            kind = type(slot)
            if kind is MuSlot or kind is InterpSlot:
                return spine.memoized(self.memo, slot, w, self._point)
            return self._leaf(slot, w)

        return self._spine(code, v, atom)


class Conformer(_Walk):
    """Does a value inhabit the slot? ``Conformer(MuSlot(code, param))``
    judges fixed-point values and ``Conformer(InterpSlot(code, slots))``
    one layer."""

    _spine = staticmethod(spine.conform)

    def _point(self, slot: MuSlot | InterpSlot, v: GenericValue) -> bool:
        if type(slot) is InterpSlot:
            return self._layer(slot.code, slot.slots, v)
        if type(v) is not Roll:
            return False
        return self._layer(slot.code, _layer_slots(self.tables, slot), v.inner)

    def _leaf(self, slot: PolyPSlot, v: GenericValue) -> bool:
        kind = type(slot)
        if kind is PayloadSlot:
            return payload_slot_accepts(slot, v)
        if kind is EmptySlot:
            return False
        raise TypeError(f"not a polyp slot: {slot!r}")


def conform_p(code: PolyPCode, slots: SlotPair, v: GenericValue) -> bool:
    return Conformer(InterpSlot(code, slots))(v)


def conform_mu_p(code: PolyPCode, param: PolyPSlot, v: GenericValue) -> bool:
    """Fixed-point conformance with parameters at ``param``; a value that is
    not rolled builds no conformer."""
    return type(v) is Roll and Conformer(MuSlot(code, param))(v)


class Mapper(_Walk):
    """Map a value at the slot, read as a transformer family: a ``MuSlot``
    maps one more fixed-point layer, one ``Roll`` of the value, an
    ``InterpSlot`` maps one layer of its code, and any other entry is a
    transformer, which is applied. Transformers must be pure: the memo
    reuses one result for every position that holds the same subtree."""

    _spine = staticmethod(spine.map)

    def _point(self, slot: MuSlot | InterpSlot, v: GenericValue) -> GenericValue:
        if type(slot) is InterpSlot:
            return self._layer(slot.code, slot.slots, v)
        if type(v) is not Roll:
            # The root is ``pmap``'s own fixed point; the others are compositions'.
            if slot is self.slot:
                raise MalformedValue(f"pmap expects a rolled value: {print_value(v)}")
            raise MalformedValue(f"composition layer is not rolled: {print_value(v)}")
        return Roll(self._layer(slot.code, _layer_slots(self.tables, slot), v.inner))

    def _leaf(self, f: Transformer, v: GenericValue) -> GenericValue:
        return f(v)


def map_p(
    code: PolyPCode,
    f: Transformer,
    g: Transformer,
    v: GenericValue,
) -> GenericValue:
    """Apply ``f`` at parameter positions and ``g`` at recursive positions.

    Composition layers hide a fixed point, so mapping through them unrolls
    it, one ``Roll`` of the value per layer.
    """
    return Mapper(InterpSlot(code, SlotPair(f, g)))(v)


def pmap(
    code: PolyPCode,
    f: Transformer,
    v: GenericValue,
) -> GenericValue:
    """Map ``f`` over the parameters of a whole fixed-point value."""
    return Mapper(MuSlot(code, f))(v)
