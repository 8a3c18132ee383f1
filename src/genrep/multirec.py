"""Codes over a finite family of mutually recursive sorts.

Every code carries its index set. Identity positions name the sort they
recurse into, and tag codes pin down which sort a constructor belongs to:
a tag is inhabited by the equality witness exactly at its own index.
"""

from __future__ import annotations

from typing import Callable, Mapping, Union

from . import spine
from .gvalue import (
    EmptySlot,
    GenericValue,
    IndexLabel,
    IndexNotInSet,
    IndexSet,
    PayloadSlot,
    Roll,
    Transformer,
    print_label,
)
from .spine import Prod, Record, Sum, Unit


class Id(Record):
    label: IndexLabel


class Tag(Record):
    label: IndexLabel


MultirecBody = Union[Unit, Id, Tag, Sum, Prod]


class MultirecCode(Record):
    indices: IndexSet
    body: MultirecBody


class MuSlot(Record):
    """Per-index slot holding fixed-point values of ``code`` at that index."""

    code: MultirecCode


MultirecSlot = Union[PayloadSlot, MuSlot, EmptySlot]

Assignment = Mapping[IndexLabel, MultirecSlot]


def mu_assignment(code: MultirecCode) -> dict[IndexLabel, MultirecSlot]:
    """The total assignment that ties every index back to the fixed point."""
    return dict.fromkeys(code.indices, MuSlot(code))


def check_index(code: MultirecCode, lbl: IndexLabel) -> None:
    """Conformance, map and enumeration all reject a label outside the set."""
    if lbl not in code.indices:
        raise IndexNotInSet(_not_in_set(lbl))


def _not_in_set(lbl: IndexLabel) -> str:
    return f"index {print_label(lbl)} is not in the code's index set"


def conformer(code: MultirecCode, assign: Assignment, at: IndexLabel) -> spine.Walk:
    """Does a value inhabit one layer of ``code`` at index ``at`` under
    ``assign``? Compiled once for as many values as it is asked about; the
    index must be in the code's index set whatever the value."""
    check_index(code, at)
    return spine.Walk(lambda walk: _layer(walk, code, assign, at))


def mu_conformer(code: MultirecCode, at: IndexLabel) -> spine.Walk:
    """Does a value inhabit the fixed point of ``code`` at index ``at``,
    which must be in the code's index set whatever the value?"""
    check_index(code, at)
    return spine.Walk(lambda walk: _fixed_point(walk, code, at))


def _fixed_point(
    walk: spine.Walk, code: MultirecCode, lbl: IndexLabel
) -> Callable[[GenericValue], bool]:
    """The fixed point of ``code`` at ``lbl`` in ``walk``: one ``Walk.point``
    per code and index, whose layers read ``mu_assignment`` of the code. The
    code lives while the walk is built, so its ``id`` names it."""
    build = lambda: spine.rolled(_layer(walk, code, mu_assignment(code), lbl))
    return walk.point((id(code), lbl), build)


def _layer(walk: spine.Walk, code: MultirecCode, assign: Assignment, at: IndexLabel):
    """One layer of ``code`` at ``at`` under ``assign`` in ``walk``."""

    def atom(node: MultirecBody) -> Callable[[GenericValue], bool]:
        kind = type(node)
        if kind is not Id and kind is not Tag:
            return spine.raising(TypeError, f"not a multirec body: {node!r}")
        lbl = node.label
        if kind is Id:
            if lbl in code.indices and lbl in assign:
                slot = assign[lbl]
                if type(slot) is not MuSlot:
                    return spine.leaf(slot, "a multirec")
                if lbl in slot.code.indices:
                    return _fixed_point(walk, slot.code, lbl)
        elif lbl in code.indices:
            return spine.never if at != lbl else spine.is_refl
        return spine.raising(IndexNotInSet, _not_in_set(lbl))

    return spine.conformer(code.body, atom)


def conform_m(
    code: MultirecCode,
    assign: Assignment,
    at: IndexLabel,
    v: GenericValue,
) -> bool:
    """Does ``v`` inhabit one layer of ``code`` at index ``at`` under
    ``assign``? The call borrows a ``conformer`` (``spine.borrow``) keyed by
    the index and the slots ``assign`` holds now, and built on a copy of it."""
    build = lambda: conformer(code, dict(assign), at)
    return spine.borrow(code, ("conform_m", at, spine.Contents(assign)), build, v)


def conform_mu_m(code: MultirecCode, at: IndexLabel, v: GenericValue) -> bool:
    """Fixed-point conformance at index ``at``, which must be in the code's
    index set whatever the value, with a borrowed ``mu_conformer``
    (``spine.borrow``). A value that is not rolled borrows none."""
    check_index(code, at)
    build = lambda: mu_conformer(code, at)
    return type(v) is Roll and spine.borrow(code, ("conform_mu_m", at), build, v)


def mapper(
    code: MultirecCode, fam: Mapping[IndexLabel, Transformer], at: IndexLabel
) -> Callable[[GenericValue], GenericValue]:
    """Apply the per-index family at identity positions of one layer at
    ``at``; tags pass through. Compiled once for as many values as it is
    given."""
    check_index(code, at)

    def atom(node: MultirecBody) -> Callable[[GenericValue], GenericValue]:
        kind = type(node)
        if kind is Id:
            if node.label in code.indices and node.label in fam:
                return fam[node.label]
            return spine.raising(IndexNotInSet, _not_in_set(node.label))
        if kind is Tag:
            return spine.map_tag
        return spine.raising(TypeError, f"not a multirec body: {node!r}")

    return spine.mapper(code.body, atom)
