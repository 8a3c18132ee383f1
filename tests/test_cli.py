import resource
import subprocess
import sys

import pytest

from genrep import TT, cli, embed, oracle
from helpers import child_env, fuzz_argvs, fuzz_corpus_argvs, fuzz_i_ig_argvs, fuzz_size_argvs
from test_oracle import CHECKED_AT_10, broken_r_p


def run_cli(*args, flags=()):
    return subprocess.run(
        [sys.executable, *flags, "-m", "genrep", *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )


def test_check_conforming_value():
    out = run_cli("check", "--universe", "regular", "--code", "NatC", "--value", "aNat")
    assert out.returncode == 0
    assert out.stdout == "conforms\n"
    assert out.stderr == ""


def test_check_wrong_index_fails():
    out = run_cli(
        "check",
        "--universe",
        "multirec",
        "--code",
        "ZigZagC",
        "--index",
        "R.⋆",
        "--value",
        "zigZagEnd",
    )
    assert out.returncode == 1
    assert out.stdout == "does not conform\n"


def test_check_defaults_to_the_first_index():
    out = run_cli(
        "check", "--universe", "multirec", "--code", "ZigZagC", "--value", "zigZagEnd"
    )
    assert out.returncode == 0


def test_size_counts_recursive_layers():
    out = run_cli("size", "--env", "List⊤", "--code", "List⊤", "--value", "aList")
    assert out.returncode == 0
    assert out.stdout == "2\n"


def test_roundtrip_reports_zero_failures():
    out = run_cli(
        "roundtrip", "--from", "regular", "--to", "polyp", "--code", "NatC",
        "--max-size", "12",
    )
    assert out.returncode == 0
    assert "0 failures" in out.stdout
    assert out.stdout.endswith("checked 10\n0 failures\n")


def test_roundtrip_prints_each_failure_and_exits_one(monkeypatch, capsys):
    broken_r_p(monkeypatch)
    argv = ["roundtrip", "--from", "regular", "--to", "polyp", "--code", "NatC", "--max-size", "5"]
    assert cli.run_cli(argv) == 1
    assert capsys.readouterr() == (
        "failure: forward <in1 tt>: MalformedValue: no zero\n"
        "failure: forward <in2 <in1 tt>>: round trip produced tt\n"
        "failure: backward <in1 tt>: MalformedValue: no zero\n"
        "failure: backward <in2 <in1 tt>>: round trip produced tt\n"
        "checked 4\n4 failures\n",
        "",
    )


def test_enum_lists_values_in_order():
    out = run_cli("enum", "--universe", "regular", "--code", "NatC", "--max-size", "9")
    assert out.returncode == 0
    assert out.stdout == (
        "<in1 tt>\n"
        "<in2 <in1 tt>>\n"
        "<in2 <in2 <in1 tt>>>\n"
        "<in2 <in2 <in2 <in1 tt>>>>\n"
    )


def test_lift_prints_codes_and_environments():
    out = run_cli("lift", "--from", "regular", "--to", "multirec", "--code", "NatC")
    assert out.returncode == 0
    assert out.stdout == "indices: ⋆\nU + I@⋆\n"

    out = run_cli("lift", "--from", "indexed", "--to", "instant", "--code", "ListI")
    assert out.returncode == 0
    assert out.stdout == "out ⋆ = R ig0\nig0 = U + K ⊤ * R ig0\n"


def test_convert_is_inverted_by_the_other_direction():
    fwd = run_cli(
        "convert", "--from", "polyp", "--to", "indexed", "--code", "RoseC",
        "--value", "sRose", "--dir", "fwd",
    )
    assert fwd.returncode == 0
    back = run_cli(
        "convert", "--from", "polyp", "--to", "indexed", "--code", "RoseC",
        "--value", fwd.stdout.strip(), "--dir", "bwd",
    )
    assert back.stdout == "<(tt , <in1 tt>)>\n"


def test_laws_run_per_universe():
    out = run_cli("laws", "--universe", "regular", "--code", "NatC", "--max-size", "8")
    assert out.returncode == 0
    assert "0 failures" in out.stdout


def test_inline_code_and_value_text_are_accepted():
    out = run_cli(
        "check", "--universe", "regular", "--code", "U + I * I",
        "--value", "<in2 (<in1 tt> , <in1 tt>)>",
    )
    assert out.returncode == 0


def test_parse_errors_exit_two():
    out = run_cli("check", "--universe", "regular", "--code", "U +", "--value", "aNat")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: 1:4:")


def test_a_digit_that_int_does_not_read_is_a_parse_error():
    out = run_cli("check", "--universe", "polyp", "--code", "ListC", "--value", "a#²")
    assert (out.returncode, out.stdout, out.stderr) == (
        2, "", "error: 1:3: expected nat, got '²'\n"
    )


def test_a_nat_longer_than_int_reads_is_one_error_line():
    digits = sys.get_int_max_str_digits()
    out = run_cli("check", "--universe", "polyp", "--code", "ListC", "--value", "a#" + "1" * 5000)
    assert (out.returncode, out.stdout, out.stderr) == (
        2, "", f"error: 1:3: nat has more than {digits} digits\n"
    )


def test_a_sort_spelled_like_a_value_keyword_is_one_error_line():
    """Its tokens would print as ``k tt#0``, which ``check`` cannot read."""
    out = run_cli(
        "enum", "--universe", "instant", "--env", "A = K tt", "--code", "R A", "--max-size", "4"
    )
    assert (out.returncode, out.stdout, out.stderr) == (
        2, "", "error: 1:7: sort 'tt' is a value keyword\n"
    )


def test_unknown_property_name_exits_two():
    out = run_cli("laws", "--universe", "instant", "--code", "List⊤", "--max-size", "6")
    assert out.returncode == 2
    assert out.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("laws", "--universe", "instant", "--code", "List⊤", "--max-size", "6"),
         "laws supports regular, polyp, multirec, and indexed"),
        (("enum", "--universe", "instant", "--code", "List⊤", "--max-size", "6"),
         "enum in the instant universe needs --env"),
        (("check", "--universe", "instant", "--code", "List⊤", "--value", "aList"),
         "check in the instant universe needs --env"),
        (("lift", "--from", "polyp", "--to", "regular", "--code", "ListC"),
         "no embedding from polyp to regular; pairs are indexed:instant, multirec:indexed, "
         "polyp:indexed, regular:multirec, regular:polyp"),
    ],
    ids=["laws", "enum-env", "check-env", "no-embedding"],
)
def test_universe_messages_are_pinned(argv, message):
    """What the CLI says about a universe that lacks laws, an environment
    or an embedding, byte for byte, as one stderr line with exit 2."""
    out = run_cli(*argv)
    assert (out.returncode, out.stdout, out.stderr) == (2, "", f"error: {message}\n")


def test_check_has_no_fuel_flag():
    out = run_cli(
        "check", "--universe", "instant", "--env", "List⊤", "--code", "List⊤",
        "--value", "aList", "--fuel", "1",
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.endswith("error: unrecognized arguments: --fuel 1\n")


@pytest.mark.parametrize("value", ["in2 (k nat#5 , rec in1 tt)", "in2 tt"])
def test_size_rejects_a_value_that_does_not_conform(value):
    out = run_cli("size", "--env", "List⊤", "--code", "List⊤", "--value", value)
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == f"error: crush: value {value} does not conform to the code\n"


DEEP_CODE = "(" * 1500 + "U" + ")" * 1500


@pytest.mark.parametrize(
    "args",
    [
        ("--universe", "regular", "--code", DEEP_CODE),
        ("--universe", "instant", "--env", f"A = {DEEP_CODE}", "--code", "A"),
    ],
    ids=["code", "env"],
)
def test_a_deep_code_is_a_parse_error(args):
    out = run_cli("enum", *args, "--max-size", "3")
    assert (out.returncode, out.stdout, out.stderr) == (
        2, "", "error: code nests too deeply for the recursion limit\n"
    )


DEEP_NUMERAL = "<in2 " * 1500 + "<in1 tt>" + ">" * 1500


@pytest.mark.parametrize(
    "args",
    [
        ("check", "--universe", "regular", "--code", "NatC"),
        ("check", "--universe", "indexed", "--code", "NatI"),
        ("convert", "--from", "regular", "--to", "polyp", "--code", "NatC", "--dir", "fwd"),
        ("convert", "--from", "indexed", "--to", "instant", "--code", "NatI", "--dir", "fwd"),
    ],
    ids=["check-regular", "check-indexed", "convert-r-p", "convert-i-ig"],
)
def test_a_deep_value_writes_no_traceback(args):
    """Whether or not the value fits under the recursion limit, the command
    ends with at most one error line and no traceback."""
    out = run_cli(*args, "--value", DEEP_NUMERAL)
    assert "Traceback" not in out.stderr
    assert out.stderr.count("error:") <= 1
    if out.returncode != 0:
        assert out.stderr.startswith("error: ") and out.stderr.endswith("\n")


NESTED_COMP = "in: x\nout: x\n(U @ I@x) @ I@x"


def test_nested_compositions_convert_to_instant():
    """A composition layer consumes no node of the indexed value, so the
    conversion is not bounded by the value's size."""
    out = run_cli(
        "convert", "--from", "indexed", "--to", "instant", "--code", NESTED_COMP,
        "--value", "tt", "--dir", "fwd",
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "rec rec tt\n", "")
    out = run_cli(
        "roundtrip", "--from", "indexed", "--to", "instant", "--code", NESTED_COMP,
        "--max-size", "4",
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "checked 2\n0 failures\n", "")


def test_usage_errors_exit_two():
    out = run_cli("nosuch")
    assert out.returncode == 2
    assert out.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("check", "--universe", "regular", "--code", "NatC", "--value", "aNat"),
        ("enum", "--universe", "polyp", "--code", "ListC", "--max-size", "12"),
        ("lift", "--from", "indexed", "--to", "instant", "--code", "RoseI"),
        ("roundtrip", "--from", "multirec", "--to", "indexed", "--code", "ZigZagC",
         "--max-size", "10"),
        ("laws", "--universe", "indexed", "--code", "NatI", "--max-size", "8"),
        ("size", "--env", "List⊤", "--code", "List⊤", "--value", "aList"),
        ("props", "--max-size", "10"),
    ],
)
def test_transcripts_are_byte_stable(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr


MAX_SIZE_COMMANDS = [
    ("enum", "--universe", "regular", "--code", "NatC"),
    ("roundtrip", "--from", "regular", "--to", "polyp", "--code", "NatC"),
    ("laws", "--universe", "regular", "--code", "NatC"),
    ("props",),
]


@pytest.mark.parametrize("args", MAX_SIZE_COMMANDS)
def test_max_size_below_one_is_a_usage_error(args):
    out = run_cli(*args, "--max-size", "0")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "error: max_size must be at least 1\n"


def _small_address_space():
    limit = 512 << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("args", MAX_SIZE_COMMANDS)
@pytest.mark.parametrize(
    "max_size, exit_code, message",
    [
        (str(10**20), 2, f"max_size must be at most {sys.maxsize}"),
        (str(9 * 10**18), 1, "out of memory"),
        (str(sys.maxsize), 1, "out of memory"),
    ],
    ids=["above-maxsize", "out-of-memory", "maxsize"],
)
def test_a_huge_max_size_is_one_error_line(args, max_size, exit_code, message):
    """A size no list can hold is refused; a size whose supports do not fit
    in memory ends in one error line. The child can allocate little."""
    out = subprocess.run(
        [sys.executable, "-m", "genrep", *args, "--max-size", max_size],
        capture_output=True,
        text=True,
        env=child_env(),
        preexec_fn=_small_address_space,
        timeout=60,
    )
    assert (out.returncode, out.stdout, out.stderr) == (exit_code, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "args",
    [
        ("--from", "polyp", "--to", "indexed", "--code", "ListC",
         "--value", "<in2 (nat#0 , <in1 tt>)>"),
        ("--from", "multirec", "--to", "indexed", "--code", "ZigZagC", "--index", "L.⋆",
         "--value", "<in2 (refl , <in1 (refl , in2 tt)>)>"),
    ],
    ids=["token-at-parameter", "refl-under-wrong-tag"],
)
@pytest.mark.parametrize("direction", ["fwd", "bwd"])
def test_convert_rejects_non_conforming_values(args, direction):
    out = run_cli("convert", *args, "--dir", direction)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error: ")
    assert out.stderr.count("\n") == 1


@pytest.mark.parametrize("value", ["tt", "zigZagEnd"])
@pytest.mark.parametrize(
    "command",
    [
        ("check", "--universe", "multirec"),
        ("convert", "--from", "multirec", "--to", "indexed", "--dir", "fwd"),
    ],
    ids=["check", "convert"],
)
def test_unknown_multirec_index_exits_two_whatever_the_value(command, value):
    out = run_cli(*command, "--code", "ZigZagC", "--index", "nosuch", "--value", value)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "error: index nosuch is not in the code's index set\n"


@pytest.mark.parametrize(
    "universe, code, message",
    [
        ("multirec", "ZigZagC", "index nosuch is not in the code's index set"),
        ("indexed", "ZigZagI", "index nosuch is not an output of the code"),
    ],
)
def test_enum_at_an_unknown_index_exits_two(universe, code, message):
    out = run_cli(
        "enum", "--universe", universe, "--code", code, "--index", "nosuch", "--max-size", "8"
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == f"error: {message}\n"


# universe -> (the arrow's target, a code of an empty family, the family's name)
EMPTY_FAMILIES = {
    "multirec": ("indexed", "indices:\nU", "index set"),
    "indexed": ("instant", "in:\nout:\nU", "output set"),
}
EMPTY_FAMILY_COMMANDS = [
    *(((name, *rest), universe) for universe in EMPTY_FAMILIES
      for name, *rest in [("check", "--value", "tt"), ("enum", "--max-size", "3"),
                          ("laws", "--max-size", "3"), ("roundtrip", "--max-size", "3")]),
    # lifting an empty multirec family prints a valid empty code
    (("lift",), "indexed"),
]


@pytest.mark.parametrize(
    "command, universe", EMPTY_FAMILY_COMMANDS,
    ids=[f"{universe}-{command[0]}" for command, universe in EMPTY_FAMILY_COMMANDS],
)
def test_an_empty_family_is_named_in_one_error_line(command, universe):
    name, *rest = command
    target, code, family = EMPTY_FAMILIES[universe]
    arrow = name in ("roundtrip", "lift")
    where = ("--from", universe, "--to", target) if arrow else ("--universe", universe)
    out = run_cli(name, *where, "--code", code, *rest)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == f"error: the code's {family} is empty\n"


@pytest.mark.parametrize("command", ["check", "size"])
def test_dangling_reference_is_one_error_line(command):
    universe = ("--universe", "instant") if command == "check" else ()
    out = run_cli(
        command, *universe, "--env", "List⊤", "--code", "R B", "--value", "rec tt"
    )
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == "error: reference B is not defined in the environment\n"


@pytest.mark.parametrize("max_size", ["1", "2"])
def test_enum_of_a_dangling_reference_fails_at_every_size(max_size):
    """The generator fails when it is built, before any size is asked, even
    one that no value of the code reaches the reference at."""
    out = run_cli("enum", "--universe", "instant", "--env", "A = U", "--code", "R B",
                  "--max-size", max_size)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == "error: reference B is not defined in the environment\n"


@pytest.mark.parametrize(
    "src, dst, code, expected",
    [
        ("regular", "polyp", "NatC", "U + I\n"),
        ("polyp", "indexed", "RoseC",
         "in: L.⋆, R.⋆\nout: ⋆\nI@L.⋆ * fix (U + I@L.⋆ * I@R.⋆) @ I@R.⋆\n"),
        ("multirec", "indexed", "ZigZagC",
         "in: R.L.⋆, R.R.⋆\nout: L.⋆, R.⋆\n!L.⋆ * (I@R.R.⋆ + U) + !R.⋆ * I@R.L.⋆\n"),
        ("indexed", "instant", "in: a\nout: b\nI@a", "out b = K ⊤\n"),
    ],
    ids=["r-p", "p-i", "m-i", "i-ig-without-entries"],
)
def test_lift_prints_the_open_lifted_code(src, dst, code, expected):
    out = run_cli("lift", "--from", src, "--to", dst, "--code", code)
    assert out.returncode == 0
    assert out.stdout == expected
    assert out.stderr == ""


@pytest.mark.parametrize(
    "args, exit_code, message",
    [
        (("--code", "NatI", "--index", "nosuch", "--value", "<in1 tt>", "--dir", "fwd"),
         2, "index nosuch is not an output of the code"),
        (("--code", "NatI", "--index", "nosuch", "--value", "rec in1 tt", "--dir", "bwd"),
         2, "index nosuch is not an output of the code"),
        (("--code", "ZigZagI", "--value", "<in2 (refl , <in1 (refl , in2 tt)>)>",
          "--dir", "fwd"),
         1, "refl under tag R.⋆ at index L.⋆"),
        (("--code", "ZigZagI", "--value", "rec in2 (k refl , rec in1 (k refl , in2 tt))",
          "--dir", "bwd"),
         1, "refl under tag R.⋆ at index L.⋆"),
        (("--code", "ListI", "--value", "<in2 (nat#0 , <in1 tt>)>", "--dir", "fwd"),
         1, "parameter position does not inhabit K ⊤: nat#0"),
        (("--code", "ListI", "--value", "rec in2 (k nat#0 , rec in1 tt)", "--dir", "bwd"),
         1, "parameter position does not inhabit K ⊤: nat#0"),
    ],
    ids=["index-fwd", "index-bwd", "tag-fwd", "tag-bwd", "parameter-fwd", "parameter-bwd"],
)
def test_convert_to_instant_checks_the_index_and_the_tags(args, exit_code, message):
    out = run_cli("convert", "--from", "indexed", "--to", "instant", *args)
    assert out.returncode == exit_code
    assert out.stdout == ""
    assert out.stderr == f"error: {message}\n"


def test_an_env_too_long_to_name_a_file_is_env_text():
    env = "".join(f"Entry{i} = U + K ⊤ * R Entry{i}\n" for i in range(12))
    assert len(env.encode()) > 255
    out = run_cli(
        "check", "--universe", "instant", "--env", env, "--code", "Entry11",
        "--value", "in1 tt",
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "conforms\n", "")


@pytest.mark.parametrize("env", ["", " "], ids=["empty", "blank"])
@pytest.mark.parametrize(
    "argv, out",
    [(["size"], "0\n"), (["check", "--universe", "instant"], "conforms\n")],
    ids=["size", "check"],
)
def test_an_empty_env_is_env_text_not_a_path(capsys, env, argv, out):
    """``--env ""`` is the empty environment, as ``--env " "`` is, and not
    the current directory, which ``Path("")`` names."""
    assert cli.run_cli([*argv, "--env", env, "--code", "U", "--value", "tt"]) == 0
    assert capsys.readouterr() == (out, "")


def test_an_env_directory_is_one_error_line(tmp_path):
    out = run_cli(
        "enum", "--universe", "instant", "--env", str(tmp_path), "--code", "A",
        "--max-size", "3",
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == f"error: cannot read env file {tmp_path}: Is a directory\n"


def test_an_env_file_that_is_not_utf8_is_one_error_line(tmp_path):
    path = tmp_path / "utf16.env"
    path.write_bytes("A = K ⊤".encode("utf-16"))
    out = run_cli(
        "check", "--universe", "instant", "--env", str(path), "--code", "A",
        "--value", "k tt",
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == f"error: env file {path} is not UTF-8 text\n"


def test_props_passes_every_suite():
    out = run_cli("props", "--max-size", "6")
    assert (out.returncode, out.stderr) == (0, "")
    lines = out.stdout.splitlines()
    assert len(lines) == 24
    assert all(line.startswith("ok ") for line in lines)


def test_props_prints_the_pinned_counts_at_size_ten():
    out = run_cli("props", "--max-size", "10")
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == "".join(
        f"ok {name}: checked {count}\n" for name, count in sorted(CHECKED_AT_10.items())
    )


def test_props_runs_the_named_suites_in_the_order_given():
    out = run_cli("props", "transport-r-p", "iso-r-p", "--max-size", "10")
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == "ok transport-r-p: checked 6\nok iso-r-p: checked 12\n"


@pytest.mark.parametrize("names", [("nosuch",), ("iso-r-p", "nosuch")], ids=["alone", "second"])
def test_props_checks_every_name_before_running_any(names):
    out = run_cli("props", *names, "--max-size", "3")
    assert (out.returncode, out.stdout, out.stderr) == (2, "", "error: unknown property: nosuch\n")


def test_props_prints_each_failure_and_exits_one(monkeypatch, capsys):
    report = embed.ConversionReport(checked_count=3, failures=[(TT(), "forward", "broken")])
    monkeypatch.setattr(oracle, "run_property", lambda name, budget: report)
    assert cli.run_cli(["props", "iso-r-p", "map-id-r", "--max-size", "3"]) == 1
    assert capsys.readouterr().out == (
        "FAIL iso-r-p: checked 3\n  failure: forward tt: broken\n"
        "FAIL map-id-r: checked 3\n  failure: forward tt: broken\n"
    )


def test_props_prints_the_same_bytes_under_optimized_mode():
    plain = run_cli("props", "--max-size", "6")
    optimized = run_cli("props", "--max-size", "6", flags=("-O",))
    assert (optimized.returncode, optimized.stderr) == (0, "")
    assert optimized.stdout == plain.stdout


# A pinned seed and count: under two seconds in-process.
FUZZ_SEED, FUZZ_COUNT = 2021, 800


def test_random_argument_vectors_end_in_an_exit_code(capsys):
    """Every command on random codes, values, environments, indices and sizes
    returns 0, 1 or 2, raises nothing, and writes at most one stderr line,
    an ``error:`` line."""
    for argv in fuzz_argvs(FUZZ_SEED, FUZZ_COUNT):
        try:
            status = cli.run_cli(argv)
        except Exception as err:
            pytest.fail(f"{argv!r} raised {err!r}")
        err = capsys.readouterr().err
        assert status in (0, 1, 2), argv
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), (argv, err)


# A second pinned run over corpus codes and enumerated value texts, which
# reaches the success paths that the first run's random values miss.
CORPUS_FUZZ_SEED, CORPUS_FUZZ_COUNT = 2022, 400
CORPUS_FUZZ_EXITS = {("check", 0): 155, ("check", 1): 55, ("convert", 0): 141, ("convert", 1): 49}


def test_corpus_argument_vectors_reach_the_success_paths(capsys):
    """``check`` and ``convert`` on corpus codes with values drawn from
    their contexts: each call prints one line, or one ``error:`` line, and
    the number of calls per command and exit code is pinned."""
    exits = {}
    for argv in fuzz_corpus_argvs(CORPUS_FUZZ_SEED, CORPUS_FUZZ_COUNT):
        status = cli.run_cli(argv)
        out, err = capsys.readouterr()
        key = (argv[0], status)
        exits[key] = exits.get(key, 0) + 1
        if argv[0] == "check" or status == 0:
            assert (out.count("\n"), err) == (1, ""), (argv, out, err)
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert exits == CORPUS_FUZZ_EXITS


# A third pinned run: ``size`` on instant codes and environments given as
# text, with enumerated value texts, which reaches its success path.
SIZE_FUZZ_SEED, SIZE_FUZZ_COUNT = 2023, 200
SIZE_FUZZ_EXITS = {0: 168, 1: 32}


def test_size_argument_vectors_reach_the_success_path(capsys):
    """``size`` on the instant corpus context and the i→ig images, with
    values drawn from the contexts: a call that exits 0 prints one natural
    number, any other one ``error:`` line, and the number of calls per exit
    code is pinned."""
    exits = {}
    for argv in fuzz_size_argvs(SIZE_FUZZ_SEED, SIZE_FUZZ_COUNT):
        status = cli.run_cli(argv)
        out, err = capsys.readouterr()
        exits[status] = exits.get(status, 0) + 1
        if status == 0:
            assert out.rstrip("\n").isdigit() and out.count("\n") == 1 and err == "", (argv, out)
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert exits == SIZE_FUZZ_EXITS


# A fourth pinned run, of i→ig alone, with values of up to 24 nodes, which
# reaches the backward success path of a code with a composition or two
# outputs.
I_IG_FUZZ_SEED, I_IG_FUZZ_COUNT = 2024, 300
I_IG_FUZZ_EXITS = {("fwd", 0): 129, ("fwd", 1): 26, ("bwd", 0): 123, ("bwd", 1): 22}


def test_i_ig_argument_vectors_reach_the_success_paths(capsys):
    """``convert --from indexed --to instant`` both ways on every indexed
    corpus code at each output: each call prints one line, or one
    ``error:`` line, the number of calls per direction and exit code is
    pinned, and backward calls succeed on ``RoseI`` and on both
    ``ZigZagI`` indices."""
    exits, backward = {}, set()
    for argv in fuzz_i_ig_argvs(I_IG_FUZZ_SEED, I_IG_FUZZ_COUNT):
        status = cli.run_cli(argv)
        out, err = capsys.readouterr()
        direction = argv[5].removeprefix("--dir=")
        exits[direction, status] = exits.get((direction, status), 0) + 1
        if status == 0:
            assert (out.count("\n"), err) == (1, ""), (argv, out, err)
            if direction == "bwd":
                backward.add((argv[3], argv[6]))
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert exits == I_IG_FUZZ_EXITS
    assert {("--code=RoseI", "--index=⋆"), ("--code=ZigZagI", "--index=L.⋆"),
            ("--code=ZigZagI", "--index=R.⋆")} <= backward
