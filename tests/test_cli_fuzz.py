"""Fuzz the CLI in process: every input yields a report or exits 2, 3 or 4
with a message, and a report records only the options its run read.

Argv is drawn for every command, construct kind and mode, with options
taken from the pool of all commands, so that options foreign to the
command appear; fixed examples add help, version, an option before the
command word and an --out in a missing directory.  Family and matrix
files are FOUR_LINES and its parity-check matrix with a few values
spoiled.  Sizes stay small (n <= 6, q <= 5, exhaustive node budgets
<= 2000) and the enumeration guard low (500, which also bounds an
exhaustive search given no budget), so each call is quick; each still
runs under a 5 s alarm.
"""

import contextlib
import hashlib
import io
import json
import signal

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from subspace_forge.cli import main
from test_cli import FOUR_LINES_H, READS
from test_golden import FOUR_LINES

JUNK = st.sampled_from(["", "x", "2.5", "-", "1e3", "0x3", "--", "nan", "[1]"])
PROPERTIES = st.lists(st.sampled_from(["spread", "aad", "as", "bound", "relations", "zebra"]), max_size=3)

# The values of every option of every command, small and some negative;
# None marks a flag.
OPTIONS = {
    "--n": st.sampled_from(["3", "4", "3", "5", "6", "2", "0", "-1"]),
    "--k": st.sampled_from(["1", "1", "2", "0", "-1"]),
    "--q": st.sampled_from(["5", "4", "3", "2"]),
    "--L": st.sampled_from(["1", "2", "0", "3", "4", "-1"]),
    "--seed": st.sampled_from(["0", "1", "7", "-3"]),
    "--matrix": st.sampled_from(["@H", "@H", "@missing"]),
    "--family": st.sampled_from(["@family", "@family", "@missing"]),
    "--properties": PROPERTIES.map(",".join),
    "--node-budget": st.one_of(st.sampled_from(["100", "2000", "1", "0", "-2"]), st.integers(-2, 2000).map(str)),
    "--no-symmetry-break": st.none(),
    "--s": st.sampled_from(["2", "1", "3", "4", "0", "-1", "6"]),
    "--trials": st.sampled_from(["5", "1", "40", "0", "-2"]),
    "--layout": st.none(),
    "--pretty": st.none(),
}

# argv prefixes, each with the options its command and mode require and
# those it may take
COMMANDS = [
    (["construct", "rs"], "--n --k --q", "--pretty"),
    (["construct", "random"], "--n --k --q --L", "--seed"),
    (["construct", "code-based"], "--n --k --q", "--matrix"),
    (["verify"], "--family", "--properties"),
    (["bounds"], "--n --k --L --q", ""),
    (["search"], "--n --k --L --q", "--node-budget --no-symmetry-break"),
    (["search", "--mode", "greedy"], "--n --k --L --q", "--seed"),
    (["batch"], "--family", "--s --layout"),
    (["batch", "--mode", "sampled"], "--family", "--s --trials --seed --layout"),
]


@st.composite
def argvs(draw):
    """A run of one command and mode, with up to two of: an option from
    the whole pool (often foreign), an option dropped, a value spoiled."""
    prefix, required, optional = draw(st.sampled_from(COMMANDS))
    chosen = required.split() + [o for o in optional.split() if draw(st.booleans())]
    changes = draw(st.lists(st.sampled_from(["add", "drop", "junk"]), max_size=2))
    chosen += [draw(st.sampled_from(sorted(OPTIONS))) for c in changes if c == "add"]
    if "drop" in changes:
        chosen.remove(draw(st.sampled_from(chosen)))
    pairs = [(o, draw(OPTIONS[o])) for o in draw(st.permutations(chosen))]
    if "junk" in changes and pairs:
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = (pairs[i][0], draw(JUNK))
    return prefix + [t for o, v in pairs for t in ([o] if v is None else [o, v])]


def spoil(draw, obj):
    """obj with up to two values replaced or deleted, or list entries
    duplicated."""
    obj = json.loads(json.dumps(obj))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        parent, key = None, None
        node = obj
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(keys))
            node = node[key]
        if parent is None:
            break
        action = draw(st.sampled_from(["set", "delete", "duplicate"]))
        if action == "set":
            parent[key] = draw(st.one_of(st.integers(-2, 8), st.sampled_from([2.5, True, None, "3", [], {}])))
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.append(parent[key])
    return obj


@st.composite
def inputs(draw):
    return draw(argvs()), spoil(draw, FOUR_LINES), spoil(draw, FOUR_LINES_H)


class Overran(Exception):
    pass


def _overran(signum, frame):
    raise Overran("the call ran past its 5 s deadline")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.alarm(5)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses its arguments
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module", autouse=True)
def low_guard():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SUBSPACE_FORGE_GUARD", "500")
        yield


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(inputs())
# each exited 0 and recorded options that the run did not read
@example(case=(["construct", "rs", "--n", "3", "--k", "1", "--q", "3", "--L", "9", "--matrix", "@missing"],
               FOUR_LINES, FOUR_LINES_H))
@example(case=(["construct", "code-based", "--n", "3", "--k", "1", "--q", "2", "--matrix", "@H",
                "--vandermonde-rows", "3"], FOUR_LINES, FOUR_LINES_H))
@example(case=(["search", "--n", "3", "--k", "1", "--L", "1", "--q", "2", "--node-budget", "100", "--seed", "9"],
               FOUR_LINES, FOUR_LINES_H))
@example(case=(["batch", "--family", "@family", "--trials", "0", "--seed", "9"], FOUR_LINES, FOUR_LINES_H))
@example(case=(["search", "--mode", "greedy", "--n", "3", "--k", "1", "--L", "1", "--q", "3", "--s", "2"],
               FOUR_LINES, FOUR_LINES_H))
# the Vandermonde parity check: over the guard of 500 entries, and within it
@example(case=(["construct", "code-based", "--n", "200", "--k", "1", "--q", "3"], FOUR_LINES, FOUR_LINES_H))
@example(case=(["construct", "code-based", "--n", "3", "--k", "1", "--q", "5"], FOUR_LINES, FOUR_LINES_H))
# main builds every subparser for these, and only the command's otherwise
@example(case=(["-h"], FOUR_LINES, FOUR_LINES_H))
@example(case=(["--version"], FOUR_LINES, FOUR_LINES_H))
@example(case=(["--n", "3", "bounds", "--k", "1", "--L", "1", "--q", "2"], FOUR_LINES, FOUR_LINES_H))
@example(case=(["bounds", "--n", "3", "--k", "1", "--L", "1", "--q", "2", "--out", "@missing/out"],
               FOUR_LINES, FOUR_LINES_H))
def test_cli_exits_0_2_3_or_4_and_records_what_it_read(workdir, case):
    argv, family, matrix = case
    (workdir / "family.json").write_text(json.dumps(family))
    (workdir / "H.json").write_text(json.dumps(matrix))
    argv = [str(workdir / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
    code, out, err = run(argv)
    assert code in (0, 2, 3, 4), (code, err)
    if code:
        assert out == "" and err.strip()
        return
    if argv[0] in ("-h", "--version"):
        assert out.startswith(("usage: subspace-forge ", "subspace-forge ")) and err == ""
        return
    envelope = json.loads(out)
    manifest, result = envelope["manifest"], envelope["result"]
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    assert manifest["digest"] == "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()
    params = manifest["parameters"]
    command = manifest["command"].split()
    key = (command[0], command[1] if len(command) > 1 else params.get("mode"))
    assert set(params) <= READS[key], (key, sorted(params))
