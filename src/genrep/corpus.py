"""Named codes and worked values shared by the tests, the oracle and the CLI.

Every code here passes its universe's well-formedness check, and every value
conforms to the code it is filed under; the test suite pins both facts.
"""

from __future__ import annotations

from . import embed, indexed, instant, multirec, polyp, regular
from .embed import LSTAR, RSTAR, STAR
from .gvalue import (
    GenericValue,
    In1,
    In2,
    Konst,
    Pair,
    RecV,
    Refl,
    Roll,
    TOP_SORT,
    TT,
    disjoint_union,
    index_set,
)

# regular ------------------------------------------------------------------

NAT_C = regular.Sum(regular.Unit(), regular.Id())

BIN_C = regular.Sum(regular.Unit(), regular.Prod(regular.Id(), regular.Id()))

REGULAR_CODES: dict[str, regular.RegularCode] = {
    "NatC": NAT_C,
    "BinC": BIN_C,
}


def numeral(n: int) -> GenericValue:
    """The value of μ NatC encoding ``n``: n successor layers over zero."""
    v: GenericValue = Roll(In1(TT()))
    for _ in range(n):
        v = Roll(In2(v))
    return v


A_NAT = numeral(2)

# polyp --------------------------------------------------------------------

LIST_C = polyp.Sum(polyp.Unit(), polyp.Prod(polyp.Par(), polyp.Id()))

ROSE_C = polyp.Prod(polyp.Par(), polyp.Comp(LIST_C, polyp.Id()))

TREE_C = polyp.Sum(polyp.Par(), polyp.Prod(polyp.Id(), polyp.Id()))

# Composing the tree code with the list code does NOT give trees of lists:
# composition closes the left code's recursion and feeds the right code into
# its parameter, so the "lists" would be single unrolled layers. The proper
# code closes lists over the parameter instead and keeps tree recursion open.
TREE_LIST_NAIVE = polyp.Comp(TREE_C, LIST_C)

TREE_LIST_PROPER = polyp.Sum(
    polyp.Comp(LIST_C, polyp.Par()), polyp.Prod(polyp.Id(), polyp.Id())
)

POLYP_CODES: dict[str, polyp.PolyPCode] = {
    "ListC": LIST_C,
    "RoseC": ROSE_C,
    "TreeC": TREE_C,
    "TreeListNaive": TREE_LIST_NAIVE,
    "TreeListProper": TREE_LIST_PROPER,
}

S_ROSE = Roll(Pair(TT(), Roll(In1(TT()))))

L_ROSE = Roll(
    Pair(
        TT(),
        Roll(In2(Pair(S_ROSE, Roll(In2(Pair(S_ROSE, Roll(In1(TT())))))))),
    )
)

TREE_OF_LISTS = Roll(In1(Roll(In2(Pair(TT(), Roll(In1(TT())))))))

# multirec -----------------------------------------------------------------

ZIG_ZAG_INDICES = disjoint_union(index_set(STAR), index_set(STAR))

ZIG_BODY = multirec.Sum(multirec.Id(RSTAR), multirec.Unit())
ZAG_BODY = multirec.Id(LSTAR)

ZIG_ZAG_C = multirec.MultirecCode(
    ZIG_ZAG_INDICES,
    multirec.Sum(
        multirec.Prod(multirec.Tag(LSTAR), ZIG_BODY),
        multirec.Prod(multirec.Tag(RSTAR), ZAG_BODY),
    ),
)

MULTIREC_CODES: dict[str, multirec.MultirecCode] = {
    "ZigZagC": ZIG_ZAG_C,
}

ZIG_ZAG_END = Roll(
    In1(
        Pair(
            Refl(),
            In1(
                Roll(
                    In2(
                        Pair(
                            Refl(),
                            Roll(In1(Pair(Refl(), In2(TT())))),
                        )
                    )
                )
            ),
        )
    )
)

# indexed (the lifted corpus) ------------------------------------------------

NAT_I = embed.fix_p_code(embed.lift_r_to_p(NAT_C))
BIN_I = embed.fix_p_code(embed.lift_r_to_p(BIN_C))
LIST_I = embed.fix_p_code(LIST_C)
ROSE_I = embed.fix_p_code(ROSE_C)
ZIG_ZAG_I = embed.fix_m_code(ZIG_ZAG_C)

INDEXED_CODES: dict[str, indexed.IndexedCode] = {
    "NatI": NAT_I,
    "BinI": BIN_I,
    "ListI": LIST_I,
    "RoseI": ROSE_I,
    "ZigZagI": ZIG_ZAG_I,
}

# instant ------------------------------------------------------------------

LIST_TOP_NAME = "List⊤"

LIST_TOP_BODY = instant.Sum(
    instant.Unit(),
    instant.Prod(instant.K(instant.Prim(TOP_SORT)), instant.R(LIST_TOP_NAME)),
)

LIST_TOP_ENV: dict[str, instant.InstantCode] = {LIST_TOP_NAME: LIST_TOP_BODY}

INSTANT_CODES: dict[str, instant.InstantCode] = {
    LIST_TOP_NAME: LIST_TOP_BODY,
}

INSTANT_ENVS: dict[str, dict[str, instant.InstantCode]] = {
    LIST_TOP_NAME: LIST_TOP_ENV,
}

A_LIST = In2(
    Pair(
        Konst(TT()),
        RecV(In2(Pair(Konst(TT()), RecV(In1(TT()))))),
    )
)

VALUES: dict[str, GenericValue] = {
    "aNat": A_NAT,
    "sRose": S_ROSE,
    "lRose": L_ROSE,
    "zigZagEnd": ZIG_ZAG_END,
    "aList": A_LIST,
    "treeOfLists": TREE_OF_LISTS,
}


# universe -> its named codes
CODES: dict[str, dict[str, object]] = {
    "regular": REGULAR_CODES,
    "polyp": POLYP_CODES,
    "multirec": MULTIREC_CODES,
    "indexed": INDEXED_CODES,
    "instant": INSTANT_CODES,
}
