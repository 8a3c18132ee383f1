"""Codes over a finite family of mutually recursive sorts.

Every code carries its index set. Identity positions name the sort they
recurse into, and tag codes pin down which sort a constructor belongs to:
a tag is inhabited by the equality witness exactly at its own index.
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
    payload_slot_accepts,
    print_label,
    print_value,
)
from .spine import Prod, Sum, Unit


@dataclass(frozen=True)
class Id:
    label: IndexLabel


@dataclass(frozen=True)
class Tag:
    label: IndexLabel


MultirecBody = Union[Unit, Id, Tag, Sum, Prod]


@dataclass(frozen=True)
class MultirecCode:
    indices: IndexSet
    body: MultirecBody


@dataclass(frozen=True)
class MuSlot:
    """Per-index slot holding fixed-point values of ``code`` at that index."""

    code: MultirecCode


MultirecSlot = Union[PayloadSlot, MuSlot, EmptySlot]

Assignment = Mapping[IndexLabel, MultirecSlot]

T = TypeVar("T")


def mu_assignment(code: MultirecCode) -> dict[IndexLabel, MultirecSlot]:
    """The total assignment that ties every index back to the fixed point."""
    return dict.fromkeys(code.indices, MuSlot(code))


def check_index(code: MultirecCode, lbl: IndexLabel) -> None:
    """Conformance, map and enumeration all reject a label outside the set."""
    if lbl not in code.indices:
        raise IndexNotInSet(f"index {print_label(lbl)} is not in the code's index set")


def at_index(code: MultirecCode, table: Mapping[IndexLabel, T], lbl: IndexLabel) -> T:
    """The entry of a per-index table (slots or transformers) for ``lbl``,
    which must be in the code's index set and in the table."""
    if lbl not in code.indices or lbl not in table:
        raise IndexNotInSet(f"index {print_label(lbl)} is not in the code's index set")
    return table[lbl]


class Conformer:
    """Conformance at index ``at`` of ``code`` under ``assign``, for as many
    values as it is asked about.

    ``conformer(v)`` tells whether ``v`` inhabits the slot ``assign`` gives
    ``at``, and ``conformer.layer(v)`` whether ``v`` is one layer of
    ``code`` at ``at`` under ``assign``. Its recursion points are the fixed
    points of each ``MuSlot(c)`` at each index of ``c`` that it meets below
    the top of a value, kept in ``tables`` once per object together with
    ``mu_assignment(c)``, which their layers read; the memo
    (``spine.memoized``) keeps the answer for each value a point was asked
    about, so each fixed-point layer is judged once for the life of the
    object.
    """

    def __init__(self, code: MultirecCode, assign: Assignment, at: IndexLabel):
        self.code, self.assign, self.at = code, assign, at
        self.tables: dict[int, dict[IndexLabel, tuple]] = {}
        self.memo: dict = {}

    def __call__(self, v: GenericValue) -> bool:
        at = self.at
        slot = at_index(self.code, self.assign, at)
        if type(slot) is MuSlot:
            return self._rolled(self._point(slot.code, at), v)
        return self._leaf(slot, v)

    def layer(self, v: GenericValue) -> bool:
        check_index(self.code, self.at)
        return self._layer(self.code, self.assign, self.at, v)

    def _leaf(self, slot: MultirecSlot, v: GenericValue) -> bool:
        kind = type(slot)
        if kind is PayloadSlot:
            return payload_slot_accepts(slot, v)
        if kind is EmptySlot:
            return False
        raise TypeError(f"not a multirec slot: {slot!r}")

    def _point(self, code: MultirecCode, lbl: IndexLabel) -> tuple:
        """The fixed point of ``code`` at ``lbl``, which must be in the
        code's index set whatever the value."""
        points = self.tables.get(id(code))
        if points is None:
            assign = mu_assignment(code)
            points = self.tables[id(code)] = {i: (code, assign, i) for i in code.indices}
        point = points.get(lbl)
        if point is None:
            check_index(code, lbl)
        return point

    def _rolled(self, point: tuple, v: GenericValue) -> bool:
        code, assign, lbl = point
        return type(v) is Roll and self._layer(code, assign, lbl, v.inner)

    def _layer(
        self, code: MultirecCode, assign: Assignment, at: IndexLabel, v: GenericValue
    ) -> bool:
        def atom(node: MultirecBody, w: GenericValue) -> bool:
            kind = type(node)
            if kind is Id:
                lbl = node.label
                slot = at_index(code, assign, lbl)
                if type(slot) is MuSlot:
                    return spine.memoized(self.memo, self._point(slot.code, lbl), w, self._rolled)
                return self._leaf(slot, w)
            if kind is Tag:
                check_index(code, node.label)
                return type(w) is Refl and at == node.label
            raise TypeError(f"not a multirec body: {node!r}")

        return spine.conform(code.body, v, atom)


def conform_m(
    code: MultirecCode,
    assign: Assignment,
    at: IndexLabel,
    v: GenericValue,
) -> bool:
    """Does ``v`` inhabit one layer of ``code`` at index ``at``?"""
    return Conformer(code, assign, at).layer(v)


def conform_mu_m(code: MultirecCode, at: IndexLabel, v: GenericValue) -> bool:
    """Fixed-point conformance at index ``at``, which must be in the code's
    index set whatever the value. A value that is not rolled builds no
    conformer."""
    check_index(code, at)
    return type(v) is Roll and Conformer(code, mu_assignment(code), at)(v)


def map_m(
    code: MultirecCode,
    fam: Mapping[IndexLabel, Transformer],
    at: IndexLabel,
    v: GenericValue,
) -> GenericValue:
    """Apply the per-index family at identity positions; tags pass through."""
    check_index(code, at)

    def atom(node: MultirecBody, w: GenericValue) -> GenericValue:
        match node:
            case Id(lbl):
                return at_index(code, fam, lbl)(w)
            case Tag(_):
                if type(w) is not Refl:
                    raise MalformedValue(f"tag position is not refl: {print_value(w)}")
                return w
        raise TypeError(f"not a multirec body: {node!r}")

    return spine.map(code.body, v, atom)
