"""One shared tree of generic values, plus the tokens, labels and slots
that every code universe interprets into.

Values carry no type information of their own. Each universe contributes a
conformance judgment that decides which trees inhabit the interpretation of
which code; the same tree may conform in several universes at once, which is
what makes cross-universe conversion meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterator, Union


class MalformedValue(Exception):
    """A value does not have the shape an operation requires."""


class FuelExhausted(Exception):
    """Nothing raises this: every walk over a finite value ends without fuel."""


class IndexNotInSet(Exception):
    """An index label was used outside the declared index set."""


TOP_SORT = "⊤"
NAT_SORT = "nat"

# Characters that would collide with the concrete syntax; names exclude them
# so that printing followed by parsing is the identity.
_RESERVED_NAME_CHARS = frozenset('()<>,#@!*+=.;:"')


def valid_name(text: str) -> bool:
    """True for a nonempty name with no whitespace or reserved characters."""
    if not text:
        return False
    return not any(ch.isspace() or ch in _RESERVED_NAME_CHARS for ch in text)


# ---------------------------------------------------------------------------
# index labels and index sets


@dataclass(frozen=True)
class IndexLabel:
    """A named index; ``tags`` records Left/Right wrapping, outermost first.

    Labels key slot tables and memos, so the hash is computed once, here;
    equality and hashing stay by value."""

    name: str
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not valid_name(self.name):
            raise ValueError(f"bad index label name: {self.name!r}")
        if any(tag not in ("L", "R") for tag in self.tags):
            raise ValueError(f"bad index label tags: {self.tags!r}")
        object.__setattr__(self, "_hash", hash((self.name, self.tags)))

    def __hash__(self) -> int:
        return self._hash


def label(name: str) -> IndexLabel:
    return IndexLabel(name)


# Tagging is interned: each Left or Right label is built, and its name
# validated, once, however many fixed-point layers ask for it. Only the
# labels of codes' index sets are ever tagged, so the caches stay small.
@cache
def left(lbl: IndexLabel) -> IndexLabel:
    return IndexLabel(lbl.name, ("L",) + lbl.tags)


@cache
def right(lbl: IndexLabel) -> IndexLabel:
    return IndexLabel(lbl.name, ("R",) + lbl.tags)


def print_label(lbl: IndexLabel) -> str:
    return "".join(tag + "." for tag in lbl.tags) + lbl.name


@dataclass(frozen=True)
class IndexSet:
    """An ordered, duplicate-free collection of index labels."""

    labels: tuple[IndexLabel, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels in index set")

    def __contains__(self, lbl: object) -> bool:
        return lbl in self.labels

    def __iter__(self) -> Iterator[IndexLabel]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


EMPTY_INDEX_SET = IndexSet()


def index_set(*labels: IndexLabel) -> IndexSet:
    return IndexSet(tuple(labels))


def disjoint_union(first: IndexSet, second: IndexSet) -> IndexSet:
    """Tag every label of ``first`` Left and of ``second`` Right.

    The result always has len(first) + len(second) labels; tagging keeps the
    two sides apart even when the operands share names.
    """
    return IndexSet(
        tuple(left(lbl) for lbl in first) + tuple(right(lbl) for lbl in second)
    )


# ---------------------------------------------------------------------------
# payload tokens and the value tree


@dataclass(frozen=True)
class PayloadToken:
    """An opaque element of an abstract set, identified by sort and number."""

    sort: str
    ident: int

    def __post_init__(self) -> None:
        if not valid_name(self.sort):
            raise ValueError(f"bad token sort: {self.sort!r}")
        if self.ident < 0:
            raise ValueError(f"bad token ident: {self.ident!r}")


@dataclass(frozen=True)
class TT:
    """The unit value."""


@dataclass(frozen=True)
class In1:
    value: "GenericValue"


@dataclass(frozen=True)
class In2:
    value: "GenericValue"


@dataclass(frozen=True)
class Pair:
    first: "GenericValue"
    second: "GenericValue"


@dataclass(frozen=True)
class Roll:
    """One layer of a fixed point."""

    inner: "GenericValue"


@dataclass(frozen=True)
class Payload:
    token: PayloadToken


@dataclass(frozen=True)
class Refl:
    """The sole witness of an index equality."""


@dataclass(frozen=True)
class Konst:
    """A constant-set inhabitant in the named-code universe."""

    inner: "GenericValue"


@dataclass(frozen=True)
class RecV:
    """A recursive-reference inhabitant in the named-code universe."""

    inner: "GenericValue"


GenericValue = Union[TT, In1, In2, Pair, Roll, Payload, Refl, Konst, RecV]


def payload(sort: str, ident: int) -> Payload:
    return Payload(PayloadToken(sort, ident))


def value_size(v: GenericValue) -> int:
    """Number of nodes in the tree; every constructor counts one.

    A loop over an explicit stack, so depth is bounded by memory."""
    count = 0
    pending = [v]
    while pending:
        v = pending.pop()
        while True:  # down the leftmost path, putting second children aside
            count += 1
            t = type(v)
            if t is Roll or t is Konst or t is RecV:
                v = v.inner
            elif t is In1 or t is In2:
                v = v.value
            elif t is Pair:
                pending.append(v.second)
                v = v.first
            elif t is TT or t is Refl or t is Payload:
                break
            else:
                raise MalformedValue(f"not a generic value: {v!r}")
    return count


class _Closer(str):
    """Text that print_value emits once the subtree above it is printed;
    its own type keeps it apart from a value on the stack."""

    __slots__ = ()


_ROLL_END, _PAIR_SEP, _PAIR_END = _Closer(">"), _Closer(" , "), _Closer(")")


def print_value(v: GenericValue) -> str:
    """Canonical concrete syntax: single spaces, minimal brackets.

    A loop over an explicit stack of closers and second children, which
    appends fragments and joins them once: linear time, and depth bounded by
    memory."""
    out: list[str] = []
    emit = out.append
    pending: list = []
    while True:
        t = type(v)
        if t is Roll:
            emit("<")
            pending.append(_ROLL_END)
            v = v.inner
            continue
        if t is In2:
            emit("in2 ")
            v = v.value
            continue
        if t is In1:
            emit("in1 ")
            v = v.value
            continue
        if t is Pair:
            emit("(")
            pending += (_PAIR_END, v.second, _PAIR_SEP)
            v = v.first
            continue
        if t is Konst:
            emit("k ")
            v = v.inner
            continue
        if t is RecV:
            emit("rec ")
            v = v.inner
            continue
        if t is TT:
            emit("tt")
        elif t is Refl:
            emit("refl")
        elif t is Payload:
            emit(f"{v.token.sort}#{v.token.ident}")
        else:
            raise MalformedValue(f"not a generic value: {v!r}")
        # a leaf is out: emit the closers down to the next second child
        while pending:
            v = pending.pop()
            if type(v) is not _Closer:
                break
            emit(v)
        else:
            return "".join(out)


# ---------------------------------------------------------------------------
# slots shared by the universes


@dataclass(frozen=True)
class PayloadSlot:
    """Accepts the payload tokens of one sort.

    The sort "⊤" is the unit set: it accepts exactly ``tt`` and no token.
    """

    sort: str


TOP_SLOT = PayloadSlot(TOP_SORT)


@dataclass(frozen=True)
class EmptySlot:
    """Accepts nothing; realizes the empty parameter set."""


def payload_slot_accepts(slot: PayloadSlot, v: GenericValue) -> bool:
    if slot.sort == TOP_SORT:
        return type(v) is TT
    return isinstance(v, Payload) and v.token.sort == slot.sort


# ---------------------------------------------------------------------------
# value transformers


Transformer = Callable[[GenericValue], GenericValue]


def identity(v: GenericValue) -> GenericValue:
    return v


def token_successor(v: GenericValue) -> GenericValue:
    """Send each payload token to the next one of its sort."""
    if not isinstance(v, Payload):
        raise MalformedValue(f"token_successor needs a payload, got {print_value(v)}")
    return Payload(PayloadToken(v.token.sort, v.token.ident + 1))


def compose(outer: Transformer, inner: Transformer) -> Transformer:
    def composed(v: GenericValue) -> GenericValue:
        return outer(inner(v))

    return composed
