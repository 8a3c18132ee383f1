"""One-value calls borrow compiled walks: what a code's cache keeps, that no
value outlives the call, and that threads sharing a pool answer as one
thread does."""

import copy
import gc
import pickle
import random
import re
import subprocess
import sys
import threading
import weakref
from functools import partial

import pytest

from genrep import In1, In2, Konst, MalformedValue, Pair, RecV, Refl, Roll, TT, payload, print_value
from genrep import value_size
from genrep import corpus, embed, indexed, instant, multirec, oracle, polyp, regular, spine
from genrep.gvalue import PayloadSlot, index_set
from genrep.oracle import EnumBudget
from genrep.spine import Sum, Unit

from helpers import all_trees_upto, child_env, corpus_contexts, indexed_list
from test_walks import OWN_SIZE, _nodes

STAR, LSTAR = embed.STAR, embed.LSTAR
TOP = PayloadSlot("⊤")
TOP_TABLE = {STAR: instant.Prim("⊤")}
X = index_set(STAR)


def _count_compiles(monkeypatch) -> list:
    """Record every walk that is built from now on."""
    built = []
    original = spine.Walk.__init__

    def init(walk, *args, **kwargs):
        built.append(type(walk))
        original(walk, *args, **kwargs)

    monkeypatch.setattr(spine.Walk, "__init__", init)
    return built


# ---------------------------------------------------------------------------
# the cache


LIFTS = [
    (embed.lift_r_to_p, corpus.BIN_C),
    (embed.lift_r_to_m, corpus.BIN_C),
    (embed.lift_p_to_i, corpus.ROSE_C),
    (embed.fix_p_code, corpus.ROSE_C),
    (embed.lift_m_to_i, corpus.ZIG_ZAG_C),
    (embed.fix_m_code, corpus.ZIG_ZAG_C),
]


@pytest.mark.parametrize("lift, code", LIFTS, ids=[lift.__name__ for lift, _ in LIFTS])
def test_a_lift_is_one_object_from_call_to_call(lift, code):
    assert lift(code) is lift(code)


def test_the_i_ig_lift_returns_dicts_of_its_own():
    outs, env = embed.lift_i_to_ig(corpus.ROSE_I, TOP_TABLE)
    expected = (dict(outs), dict(env))
    outs.clear()
    env["ig0"] = instant.Unit()
    assert embed.lift_i_to_ig(corpus.ROSE_I, TOP_TABLE) == expected
    assert embed.lift_i_to_ig(corpus.ROSE_I, dict(TOP_TABLE)) == expected


def test_the_i_ig_lift_follows_the_table():
    nat_table = {STAR: instant.Prim("nat")}
    top = embed.lift_i_to_ig(corpus.LIST_I, TOP_TABLE)
    nat = embed.lift_i_to_ig(corpus.LIST_I, nat_table)
    assert top != nat
    nat_table[STAR] = instant.Prim("⊤")
    assert embed.lift_i_to_ig(corpus.LIST_I, nat_table) == top


ONE_REF = instant.R("A")


def test_one_instant_code_in_two_environments_gives_each_answer():
    unit, nat = {"A": instant.Unit()}, {"A": instant.K(instant.Prim("nat"))}
    for _ in range(2):
        assert instant.conform_ig(unit, ONE_REF, RecV(TT()))
        assert not instant.conform_ig(nat, ONE_REF, RecV(TT()))
        assert instant.conform_ig(nat, ONE_REF, RecV(Konst(payload("nat", 0))))


def test_a_changed_environment_is_seen_by_the_next_call():
    env = {"A": instant.Unit()}
    assert instant.conform_ig(env, ONE_REF, RecV(TT()))
    env["A"] = instant.K(instant.Prim("nat"))
    assert not instant.conform_ig(env, ONE_REF, RecV(TT()))
    ctx = embed.PathContext("instant", ONE_REF, env=env)
    assert not embed.conforms(ctx, RecV(TT()))
    env["A"] = instant.Unit()
    assert embed.conforms(ctx, RecV(TT()))


def test_a_changed_table_is_seen_by_the_next_call():
    nats = indexed_list([payload("nat", 0)])
    assign = {STAR: PayloadSlot("nat")}
    assert indexed.conform_i(corpus.LIST_I, assign, STAR, nats)
    assign[STAR] = TOP
    assert not indexed.conform_i(corpus.LIST_I, assign, STAR, nats)
    table = {STAR: instant.Prim("nat")}
    ctx = embed.indexed_context(corpus.LIST_I, table, STAR)
    assert embed.conforms(ctx, nats)
    image = embed.compose_path(["i-ig"], ctx, nats)
    table[STAR] = instant.Prim("⊤")
    assert not embed.conforms(ctx, nats)
    for direction, v in [("forward", nats), ("backward", image)]:
        with pytest.raises(MalformedValue, match="does not inhabit K ⊤"):
            embed.compose_path(["i-ig"], ctx, v, direction)


def test_equal_tables_share_one_walk(monkeypatch):
    """A key is what a table holds, not which dict holds it: a fresh copy
    finds the walk compiled for the first."""
    ctx = embed.STEPS["i-ig"].context(embed.contexts("indexed", corpus.ROSE_I)[0])
    v = embed.convert_i_ig(corpus.ROSE_I, TOP_TABLE, STAR, corpus.S_ROSE, "forward")
    calls = [
        lambda: instant.conform_ig(dict(ctx.env), ctx.code, v),
        lambda: embed.conforms(embed.PathContext("instant", ctx.code, env=dict(ctx.env)), v),
        lambda: indexed.conform_i(corpus.ROSE_I, {STAR: PayloadSlot("⊤")}, STAR, corpus.S_ROSE),
        lambda: embed.convert_i_ig(corpus.ROSE_I, dict(TOP_TABLE), STAR, v, "backward"),
    ]
    for call in calls:
        call()
    built = _count_compiles(monkeypatch)
    for call in calls:
        call()
    assert built == []


def _used_codes():
    """Every corpus code and its lifts, after one-value calls on each."""
    for param in corpus_contexts():
        ctx = param.values[0]
        embed.conforms(ctx, Roll(In1(TT())))
        yield ctx.code
    for name, code in corpus.REGULAR_CODES.items():
        yield embed.lift_r_to_p(code)
        yield embed.lift_r_to_m(code)
    for name, code in corpus.POLYP_CODES.items():
        yield embed.lift_p_to_i(code)


@pytest.mark.parametrize("clone", [pickle.loads, copy.deepcopy], ids=["pickle", "deepcopy"])
def test_a_used_code_pickles_and_copies_to_an_equal_code(clone):
    for code in _used_codes():
        data = pickle.dumps(code) if clone is pickle.loads else code
        twin = clone(data)
        assert twin == code and twin is not code
        assert copy.copy(code) == code


def test_a_cloned_code_answers_as_the_original():
    v = indexed_list([TT()])
    for clone in (copy.deepcopy, lambda code: pickle.loads(pickle.dumps(code))):
        code = clone(corpus.LIST_I)
        assert indexed.conform_i(code, {STAR: TOP}, STAR, v)
        assert embed.lift_i_to_ig(code, TOP_TABLE) == embed.lift_i_to_ig(corpus.LIST_I, TOP_TABLE)
        assert embed.fix_p_code(clone(corpus.LIST_C)) == corpus.LIST_I


def _in_process(seed: str, script: str, data: bytes = b"") -> bytes:
    """What ``script`` writes to stdout, run by a fresh Python under ``seed``."""
    env = dict(child_env(), PYTHONHASHSEED=seed)
    run = subprocess.run([sys.executable, "-c", script], input=data, capture_output=True,
                         env=env, check=True)
    return run.stdout


def test_a_code_pickled_in_one_process_answers_in_another():
    """Labels hash by value, and a hash differs from process to process, so
    a loaded label must hash afresh: a code pickled under one hash seed
    finds its slots under another."""
    data = _in_process("1", "import pickle, sys; from genrep import corpus; "
                            "sys.stdout.buffer.write(pickle.dumps(corpus.LIST_I))")
    script = ("import pickle, sys; from genrep import embed, indexed, parse_value; "
              "from genrep.gvalue import TOP_SLOT; "
              "code = pickle.loads(sys.stdin.buffer.read()); "
              f"v = parse_value({print_value(indexed_list([TT()]))!r}); "
              "print(indexed.conform_i(code, {embed.STAR: TOP_SLOT}, embed.STAR, v))")
    assert _in_process("2", script, data) == b"True\n"


NOT_CODES = {
    "conform_mu_r": (lambda: regular.conform_mu_r(Refl(), Roll(TT())), "not a regular code: Refl()"),
    "conform_mu_p": (lambda: polyp.conform_mu_p(None, TOP, Roll(TT())), "not a polyp code: None"),
    "conform_ig": (lambda: instant.conform_ig({}, Refl(), TT()), "not an instant code: Refl()"),
    "conform_m": (lambda: multirec.conform_m(multirec.MultirecCode(X, Refl()), {}, STAR, TT()),
                  "not a multirec body: Refl()"),
    "conforms": (lambda: embed.conforms(embed.regular_context(Refl()), Roll(TT())),
                 "not a regular code: Refl()"),
}


@pytest.mark.parametrize("call, message", NOT_CODES.values(), ids=NOT_CODES)
def test_an_argument_that_is_no_code_gets_its_universes_error(call, message):
    """An object with no ``__dict__`` keeps no cache: its walk is built per
    call and names it, as the atom of a code that is no code does. A
    multirec code is read for its index set first, so its row is a family
    whose body is no code, whose borrowed walk names the body."""
    for _ in range(2):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call()


# ---------------------------------------------------------------------------
# no value outlives a call


def _comb(n):
    """A value of ``BinC`` whose ``n`` forks each hold a leaf on the left."""
    v = corpus.numeral(0)
    for _ in range(n):
        v = Roll(In2(Pair(corpus.numeral(0), v)))
    return v


def _zig_zag(n):
    """A value of ``ZigZagC`` at ``L.⋆``, ``n`` zig-zag rounds over an end."""
    v = Roll(In1(Pair(Refl(), In2(TT()))))
    for _ in range(n):
        v = Roll(In1(Pair(Refl(), In1(Roll(In2(Pair(Refl(), v)))))))
    return v


def _rose(depth):
    """A rose of the given depth whose every inner node has four children."""
    v = corpus.S_ROSE
    for _ in range(depth):
        v = Roll(Pair(TT(), indexed_list([v, v, v, v])))
    return v


def _image(v):
    return embed.convert_i_ig(corpus.ROSE_I, TOP_TABLE, STAR, v, "forward")


def _spoiled(image):
    """``image`` with its first child's rose layer a roll, not a rec node."""
    top = image.inner
    cons = top.second.inner.inner.value
    child = cons.first.inner
    spoiled = Pair(Konst(Roll(child.inner)), cons.second)
    return RecV(Pair(top.first, RecV(RecV(In2(spoiled)))))


ROSE_IG = embed.STEPS["i-ig"].context(embed.contexts("indexed", corpus.ROSE_I)[0])
ROSE_P = embed.polyp_context(corpus.ROSE_C)
ROSE_I = embed.contexts("indexed", corpus.ROSE_I)[0]

# entry point -> (a value of its own, the call)
ONE_VALUE = {
    "conform_mu_r": (partial(_comb, 21), partial(regular.conform_mu_r, corpus.BIN_C)),
    "conform_r": (lambda: _comb(22).inner,
                  partial(regular.conform_r, corpus.BIN_C, regular.MuSlot(corpus.BIN_C))),
    "conform_mu_p": (partial(_rose, 3), partial(polyp.conform_mu_p, corpus.ROSE_C, TOP)),
    "conform_p": (lambda: _rose(3).inner, partial(
        polyp.conform_p, corpus.ROSE_C, polyp.SlotPair(TOP, polyp.MuSlot(corpus.ROSE_C, TOP)))),
    "conform_mu_m": (partial(_zig_zag, 21), partial(multirec.conform_mu_m, corpus.ZIG_ZAG_C, LSTAR)),
    "conform_m": (lambda: _zig_zag(25).inner, partial(
        multirec.conform_m, corpus.ZIG_ZAG_C, multirec.mu_assignment(corpus.ZIG_ZAG_C), LSTAR)),
    "conform_i": (partial(_rose, 3), partial(indexed.conform_i, corpus.ROSE_I, {STAR: TOP}, STAR)),
    "conform_ig": (lambda: _image(_rose(3)), partial(instant.conform_ig, ROSE_IG.env, ROSE_IG.code)),
    "conforms": (partial(_rose, 3), partial(embed.conforms, ROSE_P)),
    "conforms-instant": (lambda: _image(_rose(3)), partial(embed.conforms, ROSE_IG)),
    "convert_r_p": (partial(_comb, 23), lambda v: embed.convert_r_p(corpus.BIN_C, v, "backward")),
    "convert_r_m": (partial(_comb, 24), lambda v: embed.convert_r_m(corpus.BIN_C, v, "forward")),
    "convert_p_i": (partial(_rose, 3), lambda v: embed.convert_p_i(corpus.ROSE_C, v, "forward")),
    "convert_m_i": (partial(_zig_zag, 22),
                    lambda v: embed.convert_m_i(corpus.ZIG_ZAG_C, LSTAR, v, "backward")),
    "convert_i_ig-forward": (partial(_rose, 3), _image),
    "convert_i_ig-backward": (lambda: _image(_rose(3)), lambda v: embed.convert_i_ig(
        corpus.ROSE_I, TOP_TABLE, STAR, v, "backward")),
    "compose_path-forward": (partial(_rose, 3),
                             partial(embed.compose_path, ["p-i", "i-ig"], ROSE_P)),
    "compose_path-backward": (lambda: _image(_rose(3)), lambda v: embed.compose_path(
        ["p-i", "i-ig"], ROSE_P, v, "backward")),
    "compose_path-raises": (lambda: _spoiled(_image(_rose(3))), lambda v: embed.compose_path(
        ["i-ig"], ROSE_I, v, "backward")),
}


@pytest.mark.parametrize("make, call", ONE_VALUE.values(), ids=ONE_VALUE)
def test_no_value_outlives_a_one_value_call(monkeypatch, make, call):
    """With the collector off, every large node of the value is freed once
    the caller drops it, also when the call raises partway; the walk the
    call borrowed goes back to its pool, so the next call compiles none."""
    v = make()
    alive = [weakref.ref(node) for node in _nodes(v) if value_size(node) > OWN_SIZE]
    assert alive
    gc.disable()
    try:
        try:
            result = call(v)
        except MalformedValue as err:
            result = str(err)
        assert result is not False
        del v
        result = None
        assert all(ref() is None for ref in alive)
        built = _count_compiles(monkeypatch)
        again = make()
        try:
            call(again)
        except MalformedValue:
            pass
        assert built == []
    finally:
        gc.enable()


def test_a_call_that_raises_partway_still_names_the_layer():
    with pytest.raises(MalformedValue, match="^fixed-point layer is not a rec node: <"):
        embed.compose_path(["i-ig"], ROSE_I, _spoiled(_image(_rose(2))), "backward")


# ---------------------------------------------------------------------------
# threads


def _jobs():
    """(name, call) pairs over the corpus contexts: conformance of
    enumerated and of random small trees, and paths to instant and back."""
    trees = list(all_trees_upto(4))[::97]
    paths = {"regular": ["r-p", "p-i", "i-ig"], "polyp": ["p-i", "i-ig"],
             "multirec": ["m-i", "i-ig"], "indexed": ["i-ig"]}
    jobs = []
    for param in corpus_contexts():
        ctx = param.values[0]
        values = oracle.enum_context(ctx, EnumBudget(max_size=10))[:12]
        for v in values + trees:
            jobs.append((param.id, partial(embed.conforms, ctx, v)))
            steps = paths.get(ctx.universe)
            if steps:
                jobs.append((param.id, partial(embed.compose_path, steps, ctx, v)))
                jobs.append((param.id, partial(embed.compose_path, steps, ctx, v, "backward")))
    return jobs


def _answer(call):
    try:
        return call()
    except MalformedValue as err:
        return str(err)


def test_a_walk_borrowed_while_another_is_out_is_a_second_one():
    """A borrow that finds its pool empty, because the pool's one walk is
    out, compiles a walk of its own; both go back to the pool."""
    code, built = Sum(Unit(), Unit()), []

    def build():
        built.append(spine.Walk(lambda walk: lambda v: v() if callable(v) else v))
        return built[-1]

    nested = lambda: spine.borrow(code, "key", build, TT())
    for _ in range(2):
        assert spine.borrow(code, "key", build, nested) is TT()
        assert len(built) == 2


def test_threads_sharing_the_pools_answer_as_one_thread():
    """Four threads run every job in an order of their own while the
    interpreter switches threads often, so walks are borrowed while others
    are out and some calls compile a walk of their own."""
    jobs = _jobs()
    expected = [_answer(call) for _, call in jobs]
    results: dict[int, list] = {}

    start = threading.Barrier(4, timeout=60)

    def run(seed):
        order = list(range(len(jobs)))
        random.Random(seed).shuffle(order)
        answers = [None] * len(jobs)
        start.wait()
        for i in order:
            answers[i] = _answer(jobs[i][1])
        results[seed] = answers

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(jobs) > 500
    for seed in range(4):
        mismatched = [jobs[i][0] for i, (a, b) in enumerate(zip(results[seed], expected)) if a != b]
        assert mismatched == []
