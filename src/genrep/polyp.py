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
    FuelExhausted,
    GenericValue,
    MalformedValue,
    PayloadSlot,
    Roll,
    Transformer,
    payload_slot_accepts,
    print_value,
    value_size,
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


def slot_accepts_p(slot: PolyPSlot, v: GenericValue) -> bool:
    match slot:
        case PayloadSlot():
            return payload_slot_accepts(slot, v)
        case EmptySlot():
            return False
        case MuSlot(code, param):
            return conform_mu_p(code, param, v)
        case InterpSlot(code, slots):
            return conform_p(code, slots, v)
    raise TypeError(f"not a polyp slot: {slot!r}")


def conform_p(code: PolyPCode, slots: SlotPair, v: GenericValue) -> bool:
    def atom(node: PolyPCode, w: GenericValue) -> bool:
        match node:
            case Par():
                return slot_accepts_p(slots.param, w)
            case Id():
                return slot_accepts_p(slots.rec, w)
            case Comp(f, g):
                # The interpretation equation: values of Comp(F, G) at (A, R)
                # are fixed-point values of F whose parameters interpret G at
                # (A, R).
                return conform_mu_p(f, InterpSlot(g, slots), w)
        raise TypeError(f"not a polyp code: {node!r}")

    return spine.conform(code, v, atom)


def conform_mu_p(code: PolyPCode, param: PolyPSlot, v: GenericValue) -> bool:
    match v:
        case Roll(w):
            return conform_p(code, SlotPair(param, MuSlot(code, param)), w)
    return False


def map_p(
    code: PolyPCode,
    f: Transformer,
    g: Transformer,
    v: GenericValue,
    fuel: int | None = None,
) -> GenericValue:
    """Apply ``f`` at parameter positions and ``g`` at recursive positions.

    Composition layers hide a fixed point, so mapping through them unrolls
    and consumes fuel; the default fuel is the value size.
    """
    if fuel is None:
        fuel = value_size(v)

    def atom(node: PolyPCode, w: GenericValue) -> GenericValue:
        match node:
            case Par():
                return f(w)
            case Id():
                return g(w)
            case Comp(c, d):
                match w:
                    case Roll(x):
                        if fuel <= 0:
                            raise FuelExhausted("map_p ran out of fuel on a composition")
                        return Roll(
                            map_p(
                                c,
                                lambda u: map_p(d, f, g, u, fuel - 1),
                                lambda u: map_p(node, f, g, u, fuel - 1),
                                x,
                                fuel - 1,
                            )
                        )
                raise MalformedValue(f"composition layer is not rolled: {print_value(w)}")
        raise TypeError(f"not a polyp code: {node!r}")

    return spine.map(code, v, atom)


def pmap(
    code: PolyPCode,
    f: Transformer,
    v: GenericValue,
    fuel: int | None = None,
) -> GenericValue:
    """Map ``f`` over the parameters of a whole fixed-point value."""
    if fuel is None:
        fuel = value_size(v)
    match v:
        case Roll(w):
            if fuel <= 0:
                raise FuelExhausted("pmap ran out of fuel")
            return Roll(map_p(code, f, lambda u: pmap(code, f, u, fuel - 1), w, fuel - 1))
    raise MalformedValue(f"pmap expects a rolled value: {print_value(v)}")
