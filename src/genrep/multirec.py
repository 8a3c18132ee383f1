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
    return {lbl: MuSlot(code) for lbl in code.indices}


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


def slot_accepts_m(slot: MultirecSlot, lbl: IndexLabel, v: GenericValue) -> bool:
    match slot:
        case PayloadSlot():
            return payload_slot_accepts(slot, v)
        case MuSlot(code):
            return conform_mu_m(code, lbl, v)
        case EmptySlot():
            return False
    raise TypeError(f"not a multirec slot: {slot!r}")


def conform_m(
    code: MultirecCode,
    assign: Assignment,
    at: IndexLabel,
    v: GenericValue,
) -> bool:
    """Does ``v`` inhabit one layer of ``code`` at index ``at``?"""
    check_index(code, at)

    def atom(node: MultirecBody, w: GenericValue) -> bool:
        match node:
            case Id(lbl):
                return slot_accepts_m(at_index(code, assign, lbl), lbl, w)
            case Tag(lbl):
                check_index(code, lbl)
                return w == Refl() and at == lbl
        raise TypeError(f"not a multirec body: {node!r}")

    return spine.conform(code.body, v, atom)


def conform_mu_m(code: MultirecCode, at: IndexLabel, v: GenericValue) -> bool:
    """Fixed-point conformance at index ``at``, which must be in the code's
    index set whatever the value."""
    check_index(code, at)
    match v:
        case Roll(w):
            return conform_m(code, mu_assignment(code), at, w)
    return False


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
                if w != Refl():
                    raise MalformedValue(f"tag position is not refl: {print_value(w)}")
                return w
        raise TypeError(f"not a multirec body: {node!r}")

    return spine.map(code.body, v, atom)
