"""Flat codes with constants and named recursive references.

Recursion is not structural here: an R node carries a name that is resolved
against a code environment, so codes stay finite, printable and hashable.
Unfolding a reference consumes a ``rec`` node of the value and entering a
constant a ``k`` node, so every walk over a finite value ends.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, Mapping, Union

from . import spine
from .gvalue import (
    GenericValue,
    In1,
    In2,
    IndexLabel,
    Konst,
    MalformedValue,
    NAT_SORT,
    Pair,
    Payload,
    PayloadSlot,
    PayloadToken,
    RecV,
    payload,
    payload_slot_accepts,
    print_value,
    token_successor,
    valid_sort,
)
from .spine import Prod, Record, Sum, Unit


class Prim(Record):
    sort: str

    def __post_init__(self) -> None:
        if not valid_sort(self.sort):
            raise ValueError(f"bad constant sort: {self.sort!r}")


class EqWitness(Record):
    """Inhabited by refl exactly when the two labels coincide."""

    a: IndexLabel
    b: IndexLabel


class OfCode(Record):
    ref: str


KSet = Union[Prim, EqWitness, OfCode]


class K(Record):
    payload: KSet


class R(Record):
    ref: str


InstantCode = Union[Unit, K, R, Sum, Prod]

CodeEnv = Mapping[str, InstantCode]


def resolve(env: CodeEnv, ref: str) -> InstantCode:
    """The code named ``ref``; a dangling reference is a malformed input."""
    if ref not in env:
        raise MalformedValue(f"reference {ref} is not defined in the environment")
    return env[ref]


def _refs(code: InstantCode) -> Iterator[str]:
    for node in spine.atoms(code):
        match node:
            case K(OfCode(ref)) | R(ref):
                yield ref
            case K(_):
                pass
            case _:
                raise TypeError(f"not an instant code: {node!r}")


class _Walk(spine.Walk):
    """A walk of ``code`` in ``env``, compiled into closures when it is
    built. Its recursion points are the named codes, which an ``R``
    reference and a ``K`` constant of ``OfCode`` enter, one per name (a
    name ``env`` does not define raises ``MalformedValue`` when it is
    reached, in a generator when it is built). A subclass gives
    ``_spine``, the hooks ``_wrap(node, wrapper, inner)`` (a ``K`` or ``R``
    node) and ``_payload(slot)`` (a sort's slot), and what ``_refl`` and
    ``_none`` compile an equality witness of equal and of unequal labels
    to."""

    def __init__(self, env: CodeEnv, code: InstantCode):
        super().__init__()
        self.top = self._walk(env, code)

    def _walk(self, env: CodeEnv, code: InstantCode) -> Callable:
        def atom(node: InstantCode) -> Callable:
            kind = type(node)
            if kind is K:
                return self._wrap(node, Konst, self._kset(env, node.payload))
            if kind is R:
                return self._wrap(node, RecV, self._enter(env, node.ref))
            return self._raising(TypeError, f"not an instant code: {node!r}")

        return self._spine(code, atom)

    def _enter(self, env: CodeEnv, name: str) -> Callable:
        try:
            code = resolve(env, name)
        except MalformedValue as err:
            return self._raising(MalformedValue, str(err))
        return self.point(name, lambda: self._walk(env, code))

    def _kset(self, env: CodeEnv, payload: KSet) -> Callable:
        kind = type(payload)
        if kind is Prim:
            return self._payload(PayloadSlot(payload.sort))
        if kind is EqWitness:
            return self._refl if payload.a == payload.b else self._none
        if kind is OfCode:
            return self._enter(env, payload.ref)
        return self._raising(TypeError, f"not a constant set: {payload!r}")


class _Conformer(_Walk):
    _spine = staticmethod(spine.conformer)
    _refl, _none = staticmethod(spine.is_refl), staticmethod(spine.never)

    @staticmethod
    def _payload(slot: PayloadSlot) -> Callable[[GenericValue], bool]:
        return partial(payload_slot_accepts, slot)

    def _wrap(self, node: K | R, wrapper: type, inner: Callable) -> Callable[[GenericValue], bool]:
        return lambda w: type(w) is wrapper and inner(w.inner)


def conformer(env: CodeEnv, code: InstantCode) -> spine.Walk:
    """Does a value inhabit the interpretation of ``code`` in ``env``?
    Compiled once for as many values as it is asked about."""
    return _Conformer(env, code)


class _Generator(_Walk, spine.Generating):
    _payload = staticmethod(spine.token_node)
    _refl, _none = spine.REFL, spine.NOTHING

    def _spine(self, code: InstantCode, atom: Callable) -> tuple:
        return spine.generator(code, atom, self)

    def _wrap(self, node: K | R, wrapper: type, inner: tuple) -> tuple:
        return self.point(node, lambda: self.wrapped(wrapper, inner))


def generator(env: CodeEnv, code: InstantCode) -> spine.Generating:
    """Every value of ``code`` in ``env`` with exactly ``m`` nodes, each
    once: ``gen(m)``, for any ``m >= 1``. Each ``K`` and ``R`` node is a
    recursion point too, keyed by the node, so equal ones share one list
    per size, and its support is its operand's one node larger."""
    return _Generator(env, code)


def conform_ig(env: CodeEnv, code: InstantCode, v: GenericValue) -> bool:
    """Does ``v`` inhabit the interpretation of ``code`` in ``env``? The call
    borrows a ``conformer`` (``spine.borrow``) keyed by the entries ``env``
    holds now, and built on a copy of it."""
    build = lambda: conformer(dict(env), code)
    return spine.borrow(code, ("conform_ig", spine.Contents(env)), build, v)


class CrushSpec(Record):
    combine: Callable[[GenericValue, GenericValue], GenericValue]
    step: Callable[[GenericValue], GenericValue]
    unit: GenericValue


def crush(env: CodeEnv, code: InstantCode, spec: CrushSpec, v: GenericValue) -> GenericValue:
    """Fold a conforming value to a single result; others raise MalformedValue.

    Unit and constant positions yield the unit, products combine their two
    sides, sums descend, and each unfolded reference applies the step to the
    result from underneath.
    """
    if not conform_ig(env, code, v):
        raise MalformedValue(f"crush: value {print_value(v)} does not conform to the code")
    return _crush(spec, v)


def _crush(spec: CrushSpec, v: GenericValue) -> GenericValue:
    """Fold ``v`` by its own nodes; ``crush`` has matched it to the code."""
    match v:
        case RecV(w):
            return spec.step(_crush(spec, w))
        case In1(w) | In2(w):
            return _crush(spec, w)
        case Pair(a, b):
            return spec.combine(_crush(spec, a), _crush(spec, b))
    return spec.unit  # tt, or a constant


def nat_add(a: GenericValue, b: GenericValue) -> GenericValue:
    match a, b:
        case Payload(PayloadToken(s, m)), Payload(PayloadToken(t, n)) if (
            s == NAT_SORT and t == NAT_SORT
        ):
            return payload(NAT_SORT, m + n)
    raise MalformedValue("nat_add expects two naturals")


SIZE_SPEC = CrushSpec(combine=nat_add, step=token_successor, unit=payload(NAT_SORT, 0))


def size_ig(env: CodeEnv, code: InstantCode, v: GenericValue) -> int:
    """Count the recursive layers of ``v``: crush with (+, successor, 0).
    ``SIZE_SPEC`` gives a nat token however it crushes, so its ident is
    the count."""
    return crush(env, code, SIZE_SPEC, v).token.ident
