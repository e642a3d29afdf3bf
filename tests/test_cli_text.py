"""The CLI's help text, usage lines and parse errors, pinned byte for byte.

main builds only the named command's subparser when argv starts with a
command, and every command's subparser otherwise.  The differential
test runs each argv through both parsers and needs the same stdout,
stderr and exit code from each, on any Python.  The literals below are
what the parser with every subparser printed under Python 3.11; other
versions of argparse wrap, quote and colour differently, so they are
checked on 3.11 only.  argparse wraps to the terminal width, so COLUMNS
is 80.
"""

import sys

import pytest

from subspace_forge.cli import COMMANDS, build_parser
from test_cli import exit_of

USAGE = """\
usage: subspace-forge [-h] [--version]
                      {construct,verify,bounds,search,batch} ...
"""

TOP_HELP = """\
usage: subspace-forge [-h] [--version]
                      {construct,verify,bounds,search,batch} ...

Construct, verify, bound and search AAD/AS subspace families.

positional arguments:
  {construct,verify,bounds,search,batch}
    construct           build a family and emit its JSON
    verify              verify a family file and emit the report
    bounds              closed-form bounds for (n, k, L, q)
    search              search for a maximal family at tiny parameters
    batch               build a batch code from a family and verify it

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""

CONSTRUCT_HELP = """\
usage: subspace-forge construct [-h] {rs,random,code-based} ...

positional arguments:
  {rs,random,code-based}
    rs                  the Reed-Solomon based family
    random              a seeded random AS family
    code-based          the column groups of a parity-check matrix

options:
  -h, --help            show this help message and exit
"""

RS_HELP = """\
usage: subspace-forge construct rs [-h] --n N --k K --q Q [--out OUT]
                                   [--pretty]

options:
  -h, --help  show this help message and exit
  --n N
  --k K
  --q Q       field order (prime power)
  --out OUT   write the JSON envelope to this file instead of stdout
  --pretty    indent the JSON output
"""

RANDOM_HELP = """\
usage: subspace-forge construct random [-h] --n N --k K --q Q [--out OUT]
                                       [--pretty] --L L [--seed SEED]

options:
  -h, --help   show this help message and exit
  --n N
  --k K
  --q Q        field order (prime power)
  --out OUT    write the JSON envelope to this file instead of stdout
  --pretty     indent the JSON output
  --L L        AS target
  --seed SEED  64-bit seed
"""

CODE_BASED_HELP = """\
usage: subspace-forge construct code-based [-h] --n N --k K --q Q [--out OUT]
                                           [--pretty] [--matrix MATRIX]

options:
  -h, --help       show this help message and exit
  --n N
  --k K
  --q Q            field order (prime power)
  --out OUT        write the JSON envelope to this file instead of stdout
  --pretty         indent the JSON output
  --matrix MATRIX  parity-check JSON file {"rows", "cols", "entries"}
                   (default: the n x q Vandermonde over GF(q))
"""

VERIFY_HELP = """\
usage: subspace-forge verify [-h] [--out OUT] [--pretty] --family FAMILY
                             [--properties PROPERTIES]

options:
  -h, --help            show this help message and exit
  --out OUT             write the JSON envelope to this file instead of stdout
  --pretty              indent the JSON output
  --family FAMILY       family JSON file
  --properties PROPERTIES
                        comma-separated subset of
                        spread,aad,as,bound,relations
"""

BOUNDS_HELP = """\
usage: subspace-forge bounds [-h] --n N --k K --L L --q Q [--out OUT]
                             [--pretty]

options:
  -h, --help  show this help message and exit
  --n N
  --k K
  --L L
  --q Q       field order (prime power)
  --out OUT   write the JSON envelope to this file instead of stdout
  --pretty    indent the JSON output
"""

SEARCH_HELP = """\
usage: subspace-forge search [-h] --n N --k K --L L --q Q [--out OUT]
                             [--pretty] [--mode {exhaustive,greedy}]
                             [--seed SEED] [--node-budget NODE_BUDGET]
                             [--no-symmetry-break]

options:
  -h, --help            show this help message and exit
  --n N
  --k K
  --L L
  --q Q                 field order (prime power)
  --out OUT             write the JSON envelope to this file instead of stdout
  --pretty              indent the JSON output
  --mode {exhaustive,greedy}
  --seed SEED           greedy mode only (default 0)
  --node-budget NODE_BUDGET
                        exhaustive mode only
  --no-symmetry-break   exhaustive mode only
"""

BATCH_HELP = """\
usage: subspace-forge batch [-h] [--out OUT] [--pretty] --family FAMILY
                            [--s S] [--mode {exhaustive,sampled}]
                            [--trials TRIALS] [--seed SEED] [--layout]

options:
  -h, --help            show this help message and exit
  --out OUT             write the JSON envelope to this file instead of stdout
  --pretty              indent the JSON output
  --family FAMILY       family JSON file
  --s S                 request count (default floor(|F|/L_aad))
  --mode {exhaustive,sampled}
  --trials TRIALS       sampled mode only (default 1000)
  --seed SEED           sampled mode only (default 0)
  --layout              include the parity position layout
"""


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


captured_on_3_11 = pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse text captured on Python 3.11")


@captured_on_3_11
@pytest.mark.parametrize(
    "argv, text",
    [
        (["--help"], TOP_HELP),
        (["-h"], TOP_HELP),
        (["construct", "--help"], CONSTRUCT_HELP),
        (["construct", "rs", "--help"], RS_HELP),
        (["construct", "random", "--help"], RANDOM_HELP),
        (["construct", "code-based", "--help"], CODE_BASED_HELP),
        (["verify", "--help"], VERIFY_HELP),
        (["bounds", "--help"], BOUNDS_HELP),
        (["search", "--help"], SEARCH_HELP),
        (["batch", "-h"], BATCH_HELP),
    ],
)
def test_help_text_is_pinned(capsys, argv, text):
    assert exit_of(capsys, *argv) == (0, text, "")


def test_version_is_pinned(capsys):
    assert exit_of(capsys, "--version") == (0, "subspace-forge 0.1.0\n", "")


CHOICES = "(choose from 'construct', 'verify', 'bounds', 'search', 'batch')"


@captured_on_3_11
@pytest.mark.parametrize(
    "argv, error",
    [
        ([], USAGE + "subspace-forge: error: the following arguments are required: command\n"),
        (["zebra"], USAGE + f"subspace-forge: error: argument command: invalid choice: 'zebra' {CHOICES}\n"),
        # an abbreviated command is an unknown word
        (["bou"], USAGE + f"subspace-forge: error: argument command: invalid choice: 'bou' {CHOICES}\n"),
        # the top-level parser reads no --n, so 3 is taken as the command
        (["--n", "3", "bounds"], USAGE + f"subspace-forge: error: argument command: invalid choice: '3' {CHOICES}\n"),
        (
            ["construct"],
            "usage: subspace-forge construct [-h] {rs,random,code-based} ...\n"
            "subspace-forge construct: error: the following arguments are required: kind\n",
        ),
        (
            ["construct", "zebra"],
            "usage: subspace-forge construct [-h] {rs,random,code-based} ...\n"
            "subspace-forge construct: error: argument kind: invalid choice: 'zebra' "
            "(choose from 'rs', 'random', 'code-based')\n",
        ),
        # a valid command builds one subparser, yet the usage lists all five
        (
            ["bounds", "--n", "5", "--k", "1", "--L", "2", "--q", "3", "--zebra"],
            USAGE + "subspace-forge: error: unrecognized arguments: --zebra\n",
        ),
        (
            ["construct", "rs", "--n", "3", "--k", "1", "--q", "3", "--version"],
            USAGE + "subspace-forge: error: unrecognized arguments: --version\n",
        ),
        (
            ["bounds", "--n", "5"],
            "usage: subspace-forge bounds [-h] --n N --k K --L L --q Q [--out OUT]\n"
            "                             [--pretty]\n"
            "subspace-forge bounds: error: the following arguments are required: --k, --L, --q\n",
        ),
    ],
)
def test_parse_errors_are_pinned(capsys, argv, error):
    assert exit_of(capsys, *argv) == (2, "", error)


def _commands(parser):
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    return list(sub.choices)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_command_builds_only_its_subparser(command):
    assert _commands(build_parser(command)) == [command]


@pytest.mark.parametrize("first", [None, "-h", "--version", "--n", "zebra", "bou", "--"])
def test_anything_else_builds_every_subparser(first):
    assert _commands(build_parser(first)) == ["construct", "verify", "bounds", "search", "batch"]


def _parse(capsys, parser, argv):
    try:
        args, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        args, code = None, exc.code
    out = capsys.readouterr()
    return code, out.out, out.err, args


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--help"],
        ["construct", "rs", "--help"],
        ["construct", "random", "-h"],
        ["construct", "code-based", "--help"],
        ["verify", "--help"],
        ["bounds", "--help"],
        ["search", "--help"],
        ["batch", "-h"],
        ["construct"],
        ["construct", "zebra"],
        ["construct", "rs", "--n", "3", "--k", "1", "--q", "3", "--version"],
        ["construct", "random", "--n", "x"],
        ["verify", "--family", "f.json", "--mode", "zebra"],
        ["bounds", "--n", "5"],
        ["bounds", "--n", "5", "--k", "1", "--L", "2", "--q", "3", "--zebra"],
        ["bounds", "--n", "5", "--k", "1", "--L", "2", "--q", "3", "extra"],
        ["search", "--n", "4", "--k", "1", "--L", "2", "--q", "5", "--mode", "greedy", "--seed", "3"],
        ["search", "--n", "4", "--k", "1", "--L", "2", "--q", "5", "--se", "3"],
        ["batch", "--family", "f.json", "--s", "2", "--layout", "--out", "x.json", "--pretty"],
        ["batch"],
    ],
)
def test_one_command_parser_matches_the_full_parser(capsys, argv):
    # the same help, error or parsed namespace, byte for byte
    assert _parse(capsys, build_parser(argv[0]), argv) == _parse(capsys, build_parser(None), argv)
