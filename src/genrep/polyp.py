"""Two-slot codes: a parameter position, a recursive position, and a
composition constructor whose interpretation takes a fixed point.

Composition is deliberately asymmetric: the interpretation of ``Comp(F, G)``
at (A, R) is the fixed point of F whose parameters are interpretations of G
at (A, R). Trees-of-lists and friends live here; the naive composition of two
container codes is usually not the container-of-containers code.
"""

from __future__ import annotations

from typing import Callable, Union

from . import spine
from .gvalue import (
    EmptySlot,
    GenericValue,
    MalformedValue,
    PayloadSlot,
    Roll,
    Transformer,
    print_value,
)
from .spine import Prod, Record, Sum, Unit


class Par(Record):
    pass


class Id(Record):
    pass


class Comp(Record):
    left: "PolyPCode"
    right: "PolyPCode"


PolyPCode = Union[Unit, Par, Id, Sum, Prod, Comp]


class MuSlot(Record):
    """Layers of the fixed point of ``code`` with parameter slot ``param``."""

    code: PolyPCode
    param: "PolyPSlot"


class InterpSlot(Record):
    """Inhabitants of the interpretation of ``code`` at ``slots``."""

    code: PolyPCode
    slots: "SlotPair"


PolyPSlot = Union[PayloadSlot, EmptySlot, MuSlot, InterpSlot]


class SlotPair(Record):
    param: PolyPSlot
    rec: PolyPSlot


class _Walk(spine.Walk):
    """A walk from one slot, compiled into closures when it is built.

    Its recursion points are the ``MuSlot`` entries (one fixed-point layer
    each, whose layer slots its body builds) and the ``InterpSlot`` entries
    (one layer of a composition's right code) that it meets, each one
    ``Walk.point`` (``enter``) whose body is ``_point(slot)``. Any other
    entry compiles to ``_leaf(slot)``. The interpretation equation: values
    of ``Comp(F, G)`` at ``slots`` are fixed-point values of F whose
    parameters interpret G at ``slots``, a ``MuSlot`` built once per node
    and slot pair (``spine.once`` in ``tables``).
    """

    def __init__(self, slot: PolyPSlot):
        super().__init__()
        self.slot = slot
        self.top = self._entry(slot)

    def _layer(self, code: PolyPCode, slots: SlotPair):
        def atom(node: PolyPCode):
            kind = type(node)
            if kind is Par:
                return self._entry(slots.param)
            if kind is Id:
                return self._entry(slots.rec)
            if kind is Comp:
                build = lambda: MuSlot(node.left, InterpSlot(node.right, slots))
                return self._entry(spine.once(self.tables, (id(node), id(slots)), build))
            return spine.raising(TypeError, f"not a polyp code: {node!r}")

        return self._spine(code, atom)

    def _entry(self, slot: PolyPSlot):
        kind = type(slot)
        return self.enter(slot) if kind is MuSlot or kind is InterpSlot else self._leaf(slot)


class Conformer(_Walk):
    """Does a value inhabit the slot? ``Conformer(MuSlot(code, param))``
    judges fixed-point values and ``Conformer(InterpSlot(code, slots))``
    one layer."""

    _spine = staticmethod(spine.conformer)

    def _point(self, slot: MuSlot | InterpSlot) -> Callable[[GenericValue], bool]:
        if type(slot) is InterpSlot:
            return self._layer(slot.code, slot.slots)
        return spine.rolled(self._layer(slot.code, SlotPair(slot.param, slot)))

    def _leaf(self, slot: PolyPSlot) -> Callable[[GenericValue], bool]:
        return spine.leaf(slot, "a polyp")


def conform_p(code: PolyPCode, slots: SlotPair, v: GenericValue) -> bool:
    """One layer at ``slots``, with a borrowed ``Conformer`` (``spine.borrow``)."""
    build = lambda: Conformer(InterpSlot(code, slots))
    return spine.borrow(code, ("conform_p", slots), build, v)


def conform_mu_p(code: PolyPCode, param: PolyPSlot, v: GenericValue) -> bool:
    """Fixed-point conformance with parameters at ``param``, with a borrowed
    ``Conformer``; a value that is not rolled borrows none."""
    build = lambda: Conformer(MuSlot(code, param))
    return type(v) is Roll and spine.borrow(code, ("conform_mu_p", param), build, v)


class Mapper(_Walk):
    """Map a value at the slot, read as a transformer family: a ``MuSlot``
    maps one more fixed-point layer, one ``Roll`` of the value, an
    ``InterpSlot`` maps one layer of its code, and any other entry is a
    transformer, which is applied: ``Mapper(InterpSlot(code, SlotPair(f,
    g)))`` applies ``f`` at parameter positions and ``g`` at recursive
    positions of one layer. Composition layers hide a fixed point, so
    mapping through them unrolls it, one ``Roll`` of the value per layer.
    Transformers must be pure: the memo reuses one result for every
    position that holds the same subtree."""

    _spine = staticmethod(spine.mapper)

    def _point(self, slot: MuSlot | InterpSlot) -> Callable[[GenericValue], GenericValue]:
        if type(slot) is InterpSlot:
            return self._layer(slot.code, slot.slots)
        layer = self._layer(slot.code, SlotPair(slot.param, slot))
        what = "composition layer is not rolled"
        if slot is self.slot:  # ``pmap``'s own fixed point; the others are compositions'
            what = "pmap expects a rolled value"

        def map_rolled(v: GenericValue) -> GenericValue:
            if type(v) is not Roll:
                raise MalformedValue(f"{what}: {print_value(v)}")
            return Roll(layer(v.inner))

        return map_rolled

    def _leaf(self, f: Transformer) -> Transformer:
        return f


def pmap(
    code: PolyPCode,
    f: Transformer,
    v: GenericValue,
) -> GenericValue:
    """Map ``f`` over the parameters of a whole fixed-point value."""
    return Mapper(MuSlot(code, f))(v)
