"""Codes built from unit, identity, sum and product, with one interpretation
slot and a fixed point.

The identity code has no intrinsic meaning: a slot says what trees may sit at
identity positions (payload tokens, fixed-point layers, or nothing at all).
"""

from __future__ import annotations

from typing import Callable, Union

from . import spine
from .gvalue import (
    EmptySlot,
    GenericValue,
    In1,
    In2,
    MalformedValue,
    NAT_SORT,
    Payload,
    PayloadSlot,
    PayloadToken,
    Roll,
    TT,
    Transformer,
    print_value,
)
from .spine import Prod, Record, Sum, Unit


class Id(Record):
    pass


RegularCode = Union[Unit, Id, Sum, Prod]


class MuSlot(Record):
    """Identity positions hold layers of the fixed point of ``code``."""

    code: RegularCode


RegularSlot = Union[PayloadSlot, MuSlot, EmptySlot]


def conformer(code: RegularCode, slot: RegularSlot) -> spine.Walk:
    """Does a value inhabit one layer of ``code`` whose identity positions
    hold ``slot``? A regular walk meets one slot only; a ``MuSlot`` is its
    one recursion point (``Walk.point``)."""
    return spine.Walk(lambda walk: spine.conformer(code, _identity(_slot(slot, walk))))


def mu_conformer(code: RegularCode) -> spine.Walk:
    """Does a value inhabit the fixed point of ``code``?"""
    return spine.Walk(lambda walk: _slot(MuSlot(code), walk))


def _slot(slot: RegularSlot, walk: spine.Walk) -> Callable[[GenericValue], bool]:
    if type(slot) is not MuSlot:
        return spine.leaf(slot, "a regular")
    build = lambda: spine.rolled(spine.conformer(slot.code, _identity(_slot(slot, walk))))
    return walk.point(id(slot), build)


def _identity(inner: Callable) -> Callable[[RegularCode], Callable]:
    """The atom function that gives every identity position ``inner``."""
    return lambda node: inner if type(node) is Id else spine.raising(
        TypeError, f"not a regular code: {node!r}"
    )


def conform_r(code: RegularCode, slot: RegularSlot, v: GenericValue) -> bool:
    """Does ``v`` inhabit the interpretation of ``code`` at ``slot``? The
    call borrows a ``conformer`` of the code and slot (``spine.borrow``)."""
    return spine.borrow(code, ("conform_r", slot), lambda: conformer(code, slot), v)


def conform_mu_r(code: RegularCode, v: GenericValue) -> bool:
    """Fixed-point conformance, with a borrowed ``mu_conformer``; a value
    that is not rolled borrows none."""
    return type(v) is Roll and spine.borrow(code, "conform_mu_r", lambda: mu_conformer(code), v)


def mapper(code: RegularCode, f: Transformer) -> Callable[[GenericValue], GenericValue]:
    """Apply ``f`` at every identity position of one layer, compiled once
    for as many values as it is given."""
    return spine.mapper(code, _identity(f))


RegularAlgebra = Callable[[GenericValue], GenericValue]


def cata_r(code: RegularCode, alg: RegularAlgebra, v: GenericValue) -> GenericValue:
    """Fold the fixed point of ``code`` with ``alg``, one layer per ``Roll``.

    The input must conform at the fixed point.
    """
    if not conform_mu_r(code, v):
        raise MalformedValue(f"not a fixed-point value of the code: {print_value(v)}")

    def fold(u: GenericValue) -> GenericValue:
        return alg(layer(u.inner))

    layer = mapper(code, fold)
    return fold(v)


def to_nat_alg(v: GenericValue) -> GenericValue:
    """Algebra for ``Sum(Unit, Id)``: count successors into a nat token."""
    match v:
        case In1(TT()):
            return Payload(PayloadToken(NAT_SORT, 0))
        case In2(Payload(token)) if token.sort == NAT_SORT:
            return Payload(PayloadToken(NAT_SORT, token.ident + 1))
    raise MalformedValue(f"to_nat_alg cannot consume {print_value(v)}")
