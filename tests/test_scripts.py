"""The demo scripts run end to end."""

import hashlib
import runpy
import subprocess
import sys

import pytest

from helpers import ROOT, child_env


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )


def test_enum_corpus_lists_every_code_at_every_index():
    out = run_script("enum_corpus.py", "--max-size", "6")
    assert out.returncode == 0
    assert out.stderr == ""
    assert [line for line in out.stdout.splitlines() if line.startswith("-- ")] == [
        "-- regular NatC: 2 values",
        "-- regular BinC: 1 values",
        "-- polyp ListC: 1 values",
        "-- polyp RoseC: 1 values",
        "-- polyp TreeC: 1 values",
        "-- polyp TreeListNaive: 1 values",
        "-- polyp TreeListProper: 1 values",
        "-- multirec ZigZagC at L.⋆: 1 values",
        "-- multirec ZigZagC at R.⋆: 0 values",
        "-- indexed NatI at ⋆: 2 values",
        "-- indexed BinI at ⋆: 1 values",
        "-- indexed ListI at ⋆: 1 values",
        "-- indexed RoseI at ⋆: 1 values",
        "-- indexed ZigZagI at L.⋆: 1 values",
        "-- indexed ZigZagI at R.⋆: 0 values",
        "-- instant List⊤: 1 values",
    ]


# SHA-256 of the whole listing at max-size 12: the values and their order
# are fixed, however the enumerators build them.
ENUM_CORPUS_12_SHA256 = "a8dfbcc81c15a6c25a1d2a12144b8b8299a3bbf51551b29cd6f84d811bede05c"


def test_enum_corpus_listing_is_pinned():
    out = run_script("enum_corpus.py", "--max-size", "12")
    assert (out.returncode, out.stderr) == (0, "")
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == ENUM_CORPUS_12_SHA256


@pytest.mark.parametrize(
    "name, args, message",
    [("enum_corpus.py", ("--max-size", "0"), "max_size must be at least 1")],
    ids=["enum_corpus-max-size"],
)
def test_bad_arguments_are_one_error_line(name, args, message):
    out = run_script(name, *args)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.endswith(f"{name}: error: {message}\n")
    assert out.stderr.count("error:") == 1 and "Traceback" not in out.stderr


def test_every_mutant_anchor_occurs_once():
    """Each row of the mutation table names source that is there, once, so a
    refactor that moves the code must move the row with it. Running the
    mutants is left to the script."""
    mutants = runpy.run_path(str(ROOT / "scripts" / "mutants.py"))
    for mutant in mutants["MUTANTS"]:
        assert mutants["anchor_counts"](mutant) == {mutant.file: 1}, mutant.name
