"""The demo scripts run end to end."""

import hashlib
import os
import runpy
import shutil
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
    [
        ("enum_corpus.py", ("--max-size", "0"), "max_size must be at least 1"),
        ("ab_sweep.py", (str(ROOT), str(ROOT), "0"), "PASSES must be at least 1"),
        ("ab_sweep.py", (str(ROOT), str(ROOT / "src"), "1"),
         f"no perfbench/sweep.py under {ROOT / 'src'}"),
        ("coverage.py", (str(ROOT / "src"),), f"no src/genrep and tests under {ROOT / 'src'}"),
    ],
    ids=["enum_corpus-max-size", "ab_sweep-passes", "ab_sweep-checkout", "coverage-checkout"],
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


def test_a_pythonpath_copy_of_the_package_is_the_one_tested(tmp_path):
    """``scripts/mutants.py`` tests a copy of ``src`` by naming it in
    ``PYTHONPATH``. A pytest run so started imports the copy, both in its
    own process and in the script process a test starts: the copy's
    ``__init__`` logs each import, and the checkout's logs none."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    init, log = src / "genrep" / "__init__.py", tmp_path / "imports.log"
    init.write_text(
        init.read_text(encoding="utf-8")
        + f"\nwith open({str(log)!r}, 'a') as _log:\n    _log.write('imported\\n')\n",
        encoding="utf-8",
    )
    test = "tests/test_scripts.py::test_enum_corpus_lists_every_code_at_every_index"
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout
    imports = log.read_text(encoding="utf-8") if log.exists() else ""
    assert imports == "imported\n" * 2  # pytest, then the script it starts


def test_ab_sweep_compares_the_checkout_with_itself():
    """One pass of the checkout against itself: each suite's paced times,
    the pass metrics, and where the gen-1 and gen-2 collections start."""
    out = run_script("ab_sweep.py", str(ROOT), str(ROOT), "1")
    assert (out.returncode, out.stderr) == (0, "")
    lines = out.stdout.splitlines()
    pinned = runpy.run_path(str(ROOT / "perfbench" / "sweep.py"))["PINNED"]
    assert lines[0].split() == ["suite", "parent", "ms", "change", "ms", "ratio"]
    assert [line.split()[0] for line in lines[1:]] == [
        *pinned, "checks_per_s", "op_ms.p50", "op_ms.p90", "gen-1/2", "gen-1/2"
    ]
    assert all(float(word) > 0 for line in lines[1:-2] for word in line.split()[1:])
    assert lines[-2].startswith("gen-1/2 collections, parent: ")
    assert lines[-1].startswith("gen-1/2 collections, change: ")
