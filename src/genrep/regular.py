"""Codes built from unit, identity, sum and product, with one interpretation
slot and a fixed point.

The identity code has no intrinsic meaning: a slot says what trees may sit at
identity positions (payload tokens, fixed-point layers, or nothing at all).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    payload_slot_accepts,
    print_value,
)
from .spine import Prod, Sum, Unit


@dataclass(frozen=True)
class Id:
    pass


RegularCode = Union[Unit, Id, Sum, Prod]


@dataclass(frozen=True)
class MuSlot:
    """Identity positions hold layers of the fixed point of ``code``."""

    code: RegularCode


RegularSlot = Union[PayloadSlot, MuSlot, EmptySlot]


class Conformer:
    """Conformance at one slot, for as many values as it is asked about.

    ``conformer(v)`` tells whether ``v`` inhabits ``slot``, and
    ``conformer.layer(code, v)`` whether ``v`` is one layer of ``code`` whose
    identity positions hold ``slot``. A regular walk meets one slot only;
    when it is a ``MuSlot``, every identity position below the top of a
    value enters it, and the memo (``spine.memoized``) keeps the answer for
    each value it was given there, so each fixed-point layer is judged once
    for the life of the object, however many values share it.
    """

    def __init__(self, slot: RegularSlot):
        self.slot = slot
        self.memo: dict = {}

    def __call__(self, v: GenericValue) -> bool:
        slot = self.slot
        kind = type(slot)
        if kind is MuSlot:
            return self._rolled(slot, v)
        if kind is PayloadSlot:
            return payload_slot_accepts(slot, v)
        if kind is EmptySlot:
            return False
        raise TypeError(f"not a regular slot: {slot!r}")

    def layer(self, code: RegularCode, v: GenericValue) -> bool:
        return spine.conform(code, v, self._atom)

    def _rolled(self, slot: MuSlot, v: GenericValue) -> bool:
        return type(v) is Roll and spine.conform(slot.code, v.inner, self._atom)

    def _atom(self, node: RegularCode, w: GenericValue) -> bool:
        if type(node) is not Id:
            raise TypeError(f"not a regular code: {node!r}")
        if type(self.slot) is MuSlot:
            return spine.memoized(self.memo, self.slot, w, self._rolled)
        return self(w)


def conform_r(code: RegularCode, slot: RegularSlot, v: GenericValue) -> bool:
    """Does ``v`` inhabit the interpretation of ``code`` at ``slot``?"""
    return Conformer(slot).layer(code, v)


def conform_mu_r(code: RegularCode, v: GenericValue) -> bool:
    """Fixed-point conformance: one roll, then a layer at the mu slot. A
    value that is not rolled builds no conformer."""
    return type(v) is Roll and Conformer(MuSlot(code)).layer(code, v.inner)


def map_r(code: RegularCode, f: Transformer, v: GenericValue) -> GenericValue:
    """Apply ``f`` at every identity position of one layer."""

    def atom(node: RegularCode, w: GenericValue) -> GenericValue:
        match node:
            case Id():
                return f(w)
        raise TypeError(f"not a regular code: {node!r}")

    return spine.map(code, v, atom)


RegularAlgebra = Callable[[GenericValue], GenericValue]


def cata_r(code: RegularCode, alg: RegularAlgebra, v: GenericValue) -> GenericValue:
    """Fold the fixed point of ``code`` with ``alg``, one layer per ``Roll``.

    The input must conform at the fixed point.
    """
    if not conform_mu_r(code, v):
        raise MalformedValue(f"not a fixed-point value of the code: {print_value(v)}")
    return _cata_go(code, alg, v)


def _cata_go(code: RegularCode, alg: RegularAlgebra, v: GenericValue) -> GenericValue:
    match v:
        case Roll(w):
            return alg(map_r(code, lambda u: _cata_go(code, alg, u), w))
    raise MalformedValue(f"cata_r expects a rolled value: {print_value(v)}")


def to_nat_alg(v: GenericValue) -> GenericValue:
    """Algebra for ``Sum(Unit, Id)``: count successors into a nat token."""
    match v:
        case In1(TT()):
            return Payload(PayloadToken(NAT_SORT, 0))
        case In2(Payload(token)) if token.sort == NAT_SORT:
            return Payload(PayloadToken(NAT_SORT, token.ident + 1))
    raise MalformedValue(f"to_nat_alg cannot consume {print_value(v)}")


def re_roll_alg(v: GenericValue) -> GenericValue:
    """Algebra that rebuilds the value it folds; cata with it is the identity."""
    return Roll(v)
