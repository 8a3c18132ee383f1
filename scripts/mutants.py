#!/usr/bin/env python3
"""Run the mutation table: small deliberate faults in ``src/genrep``, each
with the tests that are expected to catch it.

    python3 scripts/mutants.py

A row names a file of ``src/genrep``, an exact source anchor that occurs
once in the package, its replacement, and the test ids expected to kill
it. For each row, the script copies ``src/`` to a temporary directory,
puts the replacement there, and runs ``pytest -x -q`` over the row's tests
with ``PYTHONPATH`` pointing at the copy; the checkout is never edited.
It prints ``killed <name> by <test>`` or ``SURVIVED <name>`` per row, and
exits 1 when a mutant survives or an anchor does not occur exactly once.
No row survives today.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "genrep"


class Mutant(NamedTuple):
    name: str
    file: str
    anchor: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "i-ig-forward-writes-k-tt",
        "embed.py",
        "return lambda v: Konst(_check_parameter(slot, v))",
        "return lambda v: Konst((_check_parameter(slot, v), spine.TT())[1])",
        ("tests/test_embed.py::test_i_ig_keeps_the_contents_of_a_nat_parameter",),
    ),
    Mutant(
        "i-ig-backward-returns-tt",
        "embed.py",
        "return lambda v: _check_parameter(slot, _unwrap(v, Konst, what))",
        "return lambda v: (_check_parameter(slot, _unwrap(v, Konst, what)), spine.TT())[1]",
        ("tests/test_embed.py::test_i_ig_keeps_the_contents_of_a_nat_parameter",),
    ),
    Mutant(
        "point-never-memoizes",
        "spine.py",
        "hit = memo.get(x)",
        "hit = None",
        ("tests/test_oracle.py::test_each_fixed_point_value_is_built_once",),
    ),
    Mutant(
        "point-keyed-by-id-keeps-nothing",
        "spine.py",
        """            try:
                hit = memo.get(x)
            except TypeError:  # an unhashable argument is no value
                return body(x)
            if hit is None:
                hit = memo[x] = body(x)""",
        """            hit = memo.get(id(x))
            if hit is None:
                hit = memo[id(x)] = body(x)""",
        (
            "tests/test_memo.py::test_ids_reused_after_a_value_dies_do_not_hit_the_memo",
            "tests/test_walks.py::test_a_dropped_walk_frees_its_values_without_the_collector",
        ),
    ),
    Mutant(
        "fix-entered-at-the-first-output",
        "indexed.py",
        "slot = inner_assign(self.tables, node, assign).get(right(at))",
        "slot = inner_assign(self.tables, node, assign).get(right(node.inner.outs.labels[0]))",
        ("tests/test_oracle.py::test_brute_force_agrees_on_every_corpus_code",),
    ),
    Mutant(
        "generator-comp-reads-the-outer-assignment",
        "indexed.py",
        "inner = inner_assign(self.tables, node, assign)",
        "inner = assign if type(self) is Generator else inner_assign(self.tables, node, assign)",
        ("tests/test_oracle.py::test_brute_force_agrees_on_every_corpus_code",),
    ),
    Mutant(
        "sum-and-product-values-kept-outside-memos",
        "spine.py",
        "walk.memos.append(memo)",
        "(walk.memos, memo)",
        ("tests/test_walks.py::test_a_dropped_generator_frees_its_values_without_the_collector",),
    ),
    Mutant(
        "support-of-a-sum-drops-its-right-operand",
        "spine.py",
        "s = (bits[a] | bits[b]) << 1 & mask",
        "s = bits[a] << 1 & mask",
        ("tests/test_supports.py::test_a_support_holds_the_sizes_the_tree_oracle_accepts",),
    ),
    Mutant(
        "support-of-a-product-shifted-by-k",
        "spine.py",
        "s |= rights * (low << 1)",
        "s |= rights * low",
        ("tests/test_supports.py::test_a_support_holds_the_sizes_enumeration_yields",),
    ),
    Mutant(
        "generator-postpones-a-raising-node",
        "spine.py",
        "def _raising(error: type[Exception], message: str) -> NoReturn:",
        "def _raising(error: type[Exception], message: str) -> NoReturn:\n        return NOTHING",
        ("tests/test_supports.py::test_a_node_that_raises_fails_its_generator_when_it_is_built",),
    ),
    Mutant(
        "composition-reads-the-first-middle-label",
        "indexed.py",
        "return {lbl: InterpSlot(g, assign, lbl) for lbl in f.ins}",
        "return {lbl: InterpSlot(g, assign, f.ins.labels[0]) for lbl in f.ins}",
        ("tests/test_indexed.py::test_a_composition_reads_its_right_code_at_each_middle_label",),
    ),
    Mutant(
        "multirec-enumerates-without-its-label-check",
        "embed.py",
        'to_indexed=("m-i",), check=_labels_in_set)',
        'to_indexed=("m-i",))',
        ("tests/test_oracle.py::test_multirec_labels_outside_the_index_set_raise",),
    ),
    Mutant(
        "choices-swap-in1-and-in2",
        "oracle.py",
        "keys[node] = (kind is In2, *keys[node.value])",
        "keys[node] = (kind is In1, *keys[node.value])",
        ("tests/test_oracle.py::test_enumeration_is_sorted_and_duplicate_free",),
    ),
    Mutant(
        "laws-count-once-per-context",
        "oracle.py",
        """            for lhs, rhs in law(partial(fmap, ctx)):
                report.checked_count += len(values)""",
        """            report.checked_count += len(values)
            for lhs, rhs in law(partial(fmap, ctx)):""",
        ("tests/test_oracle.py::test_checked_counts_are_pinned_at_size_ten[par-comp]",),
    ),
    Mutant(
        "pitfall-drops-a-failure",
        "oracle.py",
        'report.failures.append((witness, "proper", "proper code rejected the witness"))',
        "pass",
        ("tests/test_oracle.py::test_pitfall_comp_reports_each_failure",),
    ),
    Mutant(
        "cli-imports-dsl-at-load",
        "cli.py",
        "from . import corpus, embed, instant",
        "from . import corpus, dsl, embed, instant",
        ("tests/test_package.py::test_a_readme_command_loads_only_the_modules_it_runs[convert]",),
    ),
    Mutant(
        "fold-builds-the-right-operand-first",
        "spine.py",
        """    left = fold(code.left, atom, unit, join)
    return join(kind, left, fold(code.right, atom, unit, join))""",
        """    right = fold(code.right, atom, unit, join)
    return join(kind, fold(code.left, atom, unit, join), right)""",
        ("tests/test_embed.py::test_the_lift_of_generated_codes_is_pinned",),
    ),
    Mutant(
        "fixed-point-read-as-a-composition",
        "indexed.py",
        "return self._rolled(self._walk(slot.inner, slot.under, slot.at))",
        "return self._interp(self._walk(slot.inner, slot.under, slot.at))",
        ("tests/test_indexed.py::test_nat_values_conform",),
    ),
    Mutant(
        "dsl-defines-its-own-parse-error",
        "dsl.py",
        '__all__ = [\n    "ParseError",',
        "class ParseError(Exception):\n"
        "    def __init__(self, message, line, col, expected=frozenset()):\n"
        '        super().__init__(f"{line}:{col}: {message}")\n'
        "        self.message, self.line, self.col = message, line, col\n"
        "        self.expected = expected\n\n\n"
        '__all__ = [\n    "ParseError",',
        ("tests/test_cli.py::test_parse_errors_exit_two",),
    ),
)


def anchor_counts(mutant: Mutant) -> dict[str, int]:
    """The files of ``src/genrep`` that hold the mutant's anchor, with how
    many times each holds it."""
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        n = path.read_text(encoding="utf-8").count(mutant.anchor)
        if n:
            counts[path.name] = n
    return counts


def run(mutant: Mutant) -> str | None:
    """The test that kills ``mutant``, or None when it survives."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "genrep" / mutant.file
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(mutant.anchor, mutant.replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        argv += mutant.tests
        out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    if out.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out.stdout, re.MULTILINE)
    return failed.group(1) if failed else f"pytest exit {out.returncode}"


def main() -> int:
    status = 0
    for mutant in MUTANTS:
        if anchor_counts(mutant) != {mutant.file: 1}:
            print(f"ANCHOR {mutant.name}: not exactly once in {mutant.file}")
            status = 1
            continue
        killer = run(mutant)
        if killer is None:
            print(f"SURVIVED {mutant.name}")
            status = 1
        else:
            print(f"killed {mutant.name} by {killer}")
    return status


if __name__ == "__main__":
    sys.exit(main())
