import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from subspace_forge.batch import BatchCode
from subspace_forge.cli import main
from subspace_forge.family import Family
from subspace_forge.gf import Field
from test_golden import FOUR_LINES, NON_SPREAD


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def result_of(stdout):
    return json.loads(stdout)["result"]


def run_cli_process(*argv, timeout=30, guard=None):
    """The CLI in a subprocess under the default guards, or under
    SUBSPACE_FORGE_GUARD=guard, so that a run that would go on for
    minutes fails its test at the timeout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("SUBSPACE_FORGE_GUARD", None)
    if guard is not None:
        env["SUBSPACE_FORGE_GUARD"] = str(guard)
    return subprocess.run(
        [sys.executable, "-m", "subspace_forge.cli", *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


def exit_of(capsys, *argv):
    """main's exit code, or argparse's, with stdout and stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# The options that each command, construct kind and mode reads, by dest;
# --out and --pretty go to every command and are not parameters.
READS = {
    ("construct", "rs"): {"kind", "n", "k", "q"},
    ("construct", "random"): {"kind", "n", "k", "q", "L", "seed"},
    ("construct", "code-based"): {"kind", "n", "k", "q", "matrix"},
    ("verify", None): {"family", "properties"},
    ("bounds", None): {"n", "k", "L", "q"},
    ("search", "exhaustive"): {"n", "k", "L", "q", "mode", "node_budget", "no_symmetry_break"},
    ("search", "greedy"): {"n", "k", "L", "q", "mode", "seed"},
    ("batch", "exhaustive"): {"family", "s", "mode", "layout"},
    ("batch", "sampled"): {"family", "s", "mode", "layout", "trials", "seed"},
}

# One value for every option of every command, and for the removed
# --vandermonde-rows and --max-rounds, which no command reads; None marks
# a flag.
OPTION_VALUES = {
    "--n": "3", "--k": "1", "--q": "5", "--L": "1", "--seed": "1", "--max-rounds": "1",
    "--matrix": "@H", "--vandermonde-rows": "3", "--family": "@family", "--properties": "spread",
    "--node-budget": "100", "--no-symmetry-break": None, "--s": "2", "--trials": "5", "--layout": None,
}

# A run that exits 0 for each command, construct kind and mode.
BASE_ARGV = {
    ("construct", "rs"): ["construct", "rs", "--n", "3", "--k", "1", "--q", "5"],
    ("construct", "random"): ["construct", "random", "--n", "4", "--k", "1", "--L", "3", "--q", "3", "--seed", "1"],
    ("construct", "code-based"): ["construct", "code-based", "--n", "3", "--k", "1", "--q", "2", "--matrix", "@H"],
    ("verify", None): ["verify", "--family", "@family", "--properties", "spread,aad"],
    ("bounds", None): ["bounds", "--n", "3", "--k", "1", "--L", "1", "--q", "2"],
    ("search", "exhaustive"): ["search", "--n", "3", "--k", "1", "--L", "1", "--q", "2"],
    ("search", "greedy"): ["search", "--mode", "greedy", "--n", "3", "--k", "1", "--L", "1", "--q", "3"],
    ("batch", "exhaustive"): ["batch", "--family", "@family", "--s", "2"],
    ("batch", "sampled"): ["batch", "--mode", "sampled", "--family", "@family"],
}

# The manifest command of each run in BASE_ARGV.
COMMAND = {
    ("construct", "rs"): "construct rs",
    ("construct", "random"): "construct random",
    ("construct", "code-based"): "construct code-based",
    ("verify", None): "verify",
    ("bounds", None): "bounds",
    ("search", "exhaustive"): "search",
    ("search", "greedy"): "search",
    ("batch", "exhaustive"): "batch",
    ("batch", "sampled"): "batch",
}

# H's columns are the four lines of FOUR_LINES.
FOUR_LINES_H = {"rows": 3, "cols": 4, "entries": [1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1]}


@pytest.fixture
def inputs(tmp_path):
    """Replace "@family" and "@H" by files that hold FOUR_LINES and H."""
    (tmp_path / "family.json").write_text(json.dumps(FOUR_LINES))
    (tmp_path / "H.json").write_text(json.dumps(FOUR_LINES_H))
    return lambda argv: [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]


def _foreign_options():
    for (command, mode), argv in BASE_ARGV.items():
        for option, value in OPTION_VALUES.items():
            dest = option[2:].replace("-", "_")
            if dest not in READS[(command, mode)]:
                yield pytest.param(argv, option, value, id=f"{command}-{mode}-{option[2:]}")


@pytest.mark.parametrize("argv, option, value", list(_foreign_options()))
def test_option_that_the_mode_does_not_read_exits_2(capsys, inputs, argv, option, value):
    # each used to run, or to be recorded and ignored
    code, out, _ = exit_of(capsys, *inputs(argv))
    assert code == 0 and out
    code, out, err = exit_of(capsys, *inputs(argv + [option] + ([value] if value else [])))
    assert code == 2 and out == ""
    assert option in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "random", "--n", "5", "--k", "1", "--q", "5"], "the following arguments are required: --L"),
        (["construct", "code-based", "--n", "3", "--k", "1", "--q", "2", "--matrix", "@H", "--vandermonde-rows", "3"],
         "unrecognized arguments: --vandermonde-rows 3"),
        (["construct", "random", "--n", "5", "--k", "1", "--L", "7", "--q", "5", "--max-rounds", "1"],
         "unrecognized arguments: --max-rounds 1"),
        (["search", "--n", "3", "--k", "1", "--L", "1", "--q", "2", "--seed", "99"],
         "--seed applies only to greedy search, not exhaustive"),
        (["batch", "--family", "@family", "--trials", "0", "--seed", "9"],
         "--trials applies only to sampled batch, not exhaustive"),
        # an abbreviation used to read batch's --s as search's --seed
        (["search", "--mode", "greedy", "--n", "3", "--k", "1", "--L", "1", "--q", "3", "--s", "2"],
         "unrecognized arguments: --s 2"),
    ],
    ids=[
        "random-without-L",
        "code-based-two-sources",
        "random-max-rounds",
        "exhaustive-search-seed",
        "exhaustive-batch-trials",
        "abbrev",
    ],
)
def test_construct_and_mode_option_errors_exit_2(capsys, inputs, argv, message):
    code, out, err = exit_of(capsys, *inputs(argv))
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "key, extra, parameters",
    [
        (("construct", "rs"), [], {"kind": "rs", "n": 3, "k": 1, "q": 5}),
        (("construct", "random"), [], {"kind": "random", "n": 4, "k": 1, "L": 3, "q": 3, "seed": 1}),
        (("construct", "random"), ["--seed", "7"], {"kind": "random", "n": 4, "k": 1, "L": 3, "q": 3, "seed": 7}),
        (("construct", "code-based"), [], {"kind": "code-based", "n": 3, "k": 1, "q": 2, "matrix": "@H"}),
        (("verify", None), [], {"family": "@family", "properties": "spread,aad"}),
        (("bounds", None), [], {"n": 3, "k": 1, "L": 1, "q": 2}),
        (("search", "exhaustive"), [],
         {"n": 3, "k": 1, "L": 1, "q": 2, "mode": "exhaustive", "no_symmetry_break": False}),
        (("search", "exhaustive"), ["--node-budget", "50", "--no-symmetry-break"],
         {"n": 3, "k": 1, "L": 1, "q": 2, "mode": "exhaustive", "node_budget": 50, "no_symmetry_break": True}),
        (("search", "greedy"), [], {"n": 3, "k": 1, "L": 1, "q": 3, "mode": "greedy", "seed": 0}),
        (("batch", "exhaustive"), [], {"family": "@family", "s": 2, "mode": "exhaustive", "layout": False}),
        (("batch", "sampled"), [],
         {"family": "@family", "mode": "sampled", "layout": False, "trials": 1000, "seed": 0}),
        (("batch", "sampled"), ["--trials", "5", "--seed", "4", "--layout"],
         {"family": "@family", "mode": "sampled", "layout": True, "trials": 5, "seed": 4}),
    ],
)
def test_manifest_parameters_are_the_options_the_run_read(capsys, inputs, key, extra, parameters):
    # exhaustive search and batch used to record a seed (and batch 1000
    # trials), construct rs and code-based a seed of 0
    code, out, _ = exit_of(capsys, *inputs(BASE_ARGV[key] + extra))
    assert code == 0
    manifest = json.loads(out)["manifest"]
    files = dict(zip(["@family", "@H"], inputs(["@family", "@H"])))
    assert manifest["parameters"] == {k: files.get(v, v) for k, v in parameters.items()}
    assert set(parameters) <= READS[key]
    assert manifest["command"] == COMMAND[key]
    assert manifest["seed"] == parameters.get("seed")


def test_readme_option_table_matches_reads():
    # each row of README's `| command | options |` table names the options
    # that READS gives for its command, kind or mode, less the kind and mode
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    table = {}
    for line in lines[lines.index("| command | options |") + 2 :]:  # past the header and its rule
        if not line.startswith("|"):
            break
        name, options = line.strip("|").split("|")
        words = re.search(r"`([^`]*)`", name).group(1).split()
        mode = re.search(r"--mode ([\w-]+)", name)
        key = (words[0], words[1] if words[0] == "construct" else mode.group(1) if mode else None)
        table[key] = {o[2:].replace("-", "_") for o in re.findall(r"--[A-Za-z][\w-]*", options)}
    assert table == {key: dests - {"kind", "mode"} for key, dests in READS.items()}


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_rs(capsys):
    code, out, _ = run_cli(capsys, "construct", "rs", "--n", "3", "--k", "1", "--q", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["manifest"]["command"] == "construct rs"
    assert payload["manifest"]["digest"].startswith("sha256:")
    fam = Family.from_json(payload["result"]["family"])
    assert len(fam) == 5


def test_construct_rs_small_q_exits_2(capsys):
    code, out, err = run_cli(capsys, "construct", "rs", "--n", "3", "--k", "1", "--q", "2")
    assert code == 2
    assert "q < nk" in err


def test_construct_rs_over_member_guard_exits_4_promptly(capsys):
    # 13^10 members: it used to run on, building every one
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "construct", "rs", "--n", "12", "--k", "1", "--q", "13")
    assert time.perf_counter() - t0 < 2.0
    assert code == 4 and out == ""
    assert "137858491849 members" in err and "guard 200000" in err


def test_guard_env_limits_rs_members(capsys, monkeypatch):
    monkeypatch.setenv("SUBSPACE_FORGE_GUARD", "50")
    code, out, err = run_cli(capsys, "construct", "rs", "--n", "5", "--k", "1", "--q", "7")
    assert code == 4 and out == ""
    assert "343" in err and "guard 50" in err
    code, out, _ = run_cli(capsys, "construct", "rs", "--n", "4", "--k", "1", "--q", "7")
    assert code == 0
    assert result_of(out)["diagnostics"]["members"] == 49


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "4", "--k", "2", "--q", "7"], "need 2k < n"),
        (["--n", "12", "--k", "1", "--q", "7"], "q < nk"),
        # k = 0 used to exit 1 on an AssertionError
        (["--n", "3", "--k", "0", "--q", "5"], "need k >= 1, got k=0"),
    ],
)
def test_construct_rs_parameter_errors_beat_the_member_guard(capsys, monkeypatch, argv, message):
    monkeypatch.setenv("SUBSPACE_FORGE_GUARD", "50")
    code, _, err = run_cli(capsys, "construct", "rs", *argv)
    assert code == 2
    assert message in err


def test_construct_random_with_huge_L_exits_2_promptly(capsys):
    # the sample size used to form 5^(3 (L + 1) - 8) exactly
    t0 = time.perf_counter()
    code, out, err = run_cli(
        capsys, "construct", "random", "--n", "5", "--k", "1", "--L", "100000000", "--q", "5", "--seed", "1"
    )
    assert time.perf_counter() - t0 < 2.0
    assert code == 2 and out == ""
    assert "over Python's limit of" in err


def test_construct_random_reproducible(capsys):
    args = ["construct", "random", "--n", "5", "--k", "1", "--L", "7", "--q", "5", "--seed", "1"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    # byte-identical after manifest exclusion
    assert json.dumps(a["result"], sort_keys=True) == json.dumps(b["result"], sort_keys=True)
    assert a["manifest"]["digest"] == b["manifest"]["digest"]
    assert a["result"]["diagnostics"]["sampled"] == 25


def test_construct_without_q_exits_2():
    # argparse refuses it before any handler runs
    proc = run_cli_process("construct", "rs", "--n", "3", "--k", "1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "the following arguments are required: --q" in proc.stderr


def test_construct_code_based_vandermonde(capsys):
    # with no --matrix the parity check is the n x q Vandermonde; it used
    # to exit 2 without --vandermonde-rows n
    code, out, _ = run_cli(capsys, "construct", "code-based", "--n", "3", "--k", "1", "--q", "5")
    assert code == 0
    fam = Family.from_json(result_of(out)["family"])
    assert len(fam) == 5
    assert json.loads(out)["manifest"]["parameters"] == {"kind": "code-based", "n": 3, "k": 1, "q": 5}


def test_construct_code_based_matrix_file(capsys, tmp_path):
    H = {"rows": 3, "cols": 4, "entries": [1, 1, 1, 1, 0, 1, 2, 3, 0, 1, 4, 4]}
    path = tmp_path / "H.json"
    path.write_text(json.dumps(H))
    code, out, _ = run_cli(
        capsys, "construct", "code-based", "--n", "3", "--k", "1", "--q", "5",
        "--matrix", str(path),
    )
    assert code == 0
    assert len(result_of(out)["family"]["members"]) == 4


def test_construct_code_based_n_must_match_matrix_rows(capsys, tmp_path):
    # the family lives in GF(q)^rows; --n 99 used to be recorded and ignored
    path = tmp_path / "H.json"
    path.write_text(json.dumps({"rows": 3, "cols": 4, "entries": [1, 1, 1, 1, 0, 1, 2, 3, 0, 1, 4, 4]}))
    code, out, err = run_cli(
        capsys, "construct", "code-based", "--n", "99", "--k", "1", "--q", "5", "--matrix", str(path)
    )
    assert code == 2 and out == ""
    assert "--n 99 differs from the parity-check matrix's 3 rows" in err


def test_construct_code_based_checks_rows_before_building_the_matrix():
    # the 99,999 x 257 Vandermonde matrix took 93 s to build, with no guard
    t0 = time.perf_counter()
    proc = run_cli_process("construct", "code-based", "--n", "99999", "--k", "1", "--q", "257")
    assert time.perf_counter() - t0 < 2
    assert proc.returncode == 4 and proc.stdout == ""
    assert "25699743 parity-check entries" in proc.stderr and "guard 200000" in proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "2", "--k", "1"], "need 2k < n, got k=1, n=2"),
        (["--n", "99999", "--k", "0"], "need k >= 1, got k=0"),
    ],
)
def test_construct_code_based_parameter_errors_beat_the_guard(capsys, argv, message):
    code, out, err = run_cli(capsys, "construct", "code-based", *argv, "--q", "257")
    assert code == 2 and out == ""
    assert message in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_construct_verify_round_trip(capsys, tmp_path):
    fam_path = tmp_path / "fam.json"
    code, _, _ = run_cli(
        capsys, "construct", "rs", "--n", "3", "--k", "1", "--q", "5", "--out", str(fam_path)
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--family", str(fam_path))
    assert code == 0
    res = result_of(out)
    assert res["growth_log_q"] == 1.0  # five lines at q = 5
    report = res["report"]
    assert report["is_partial_spread"] is True
    assert report["L_aad"] == 1
    assert report["L_as"] == 2
    assert report["bound_satisfied"] is True
    assert report["relations_ok"] is True


@pytest.mark.parametrize(
    "n, k, digest",
    [
        (33, 16, "678fa5c40273f37ef4d296cd1a2dbc6ac55f60a2b15d38c32e230648e13ab7c0"),
        (41, 20, "09bd8f4519404aa53e67f9b073355d1eb973caeceb4e4f4c2486b410510814ed"),
    ],
)
def test_verify_one_member_family_is_prompt(tmp_path, n, k, digest):
    # the AAD witness u was found by walking GF(2)^n from 0 past the q^k
    # vectors of the member span(e_(n-k), ..., e_(n-1)): 2.1 s at n = 33
    # and 40 s at n = 41; the digests are those of that walk
    member = {"n": n, "k": k, "basis": [[int(c == n - k + r) for c in range(n)] for r in range(k)]}
    field = {"p": 2, "m": 1, "modulus": [0, 1], "gamma": 1}
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"field": field, "n": n, "k": k, "members": [member]}))
    t0 = time.perf_counter()
    proc = run_cli_process("verify", "--family", str(path), "--properties", "aad")
    assert time.perf_counter() - t0 < 2
    assert proc.returncode == 0
    envelope = json.loads(proc.stdout)
    assert envelope["manifest"]["digest"] == f"sha256:{digest}"
    assert envelope["result"]["report"]["aad_witness"]["u"] == [int(c == n - k - 1) for c in range(n)]


def test_verify_accepts_bare_family_json(capsys, tmp_path, four_line_family):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(four_line_family.to_json()))
    code, out, _ = run_cli(capsys, "verify", "--family", str(path), "--properties", "spread,aad")
    assert code == 0
    report = result_of(out)["report"]
    assert report["L_aad"] == 1
    assert report["L_as"] is None


def test_verify_non_spread_still_exits_0(capsys, tmp_path, f2):
    from subspace_forge.subspace import Subspace

    e = [tuple(1 if i == j else 0 for i in range(5)) for j in range(5)]
    fam = Family(
        f2, 5, 2,
        (
            Subspace.from_generators(f2, 5, [e[0], e[1]]),
            Subspace.from_generators(f2, 5, [e[1], e[2]]),
        ),
    )
    path = tmp_path / "nonspread.json"
    path.write_text(json.dumps(fam.to_json()))
    code, out, _ = run_cli(capsys, "verify", "--family", str(path))
    assert code == 0
    report = result_of(out)["report"]
    assert report["is_partial_spread"] is False
    assert report["spread_witness"] == [0, 1]
    assert report["L_aad"] is None
    assert report["diagnostics"]


def test_verify_missing_file_exits_3(capsys):
    code, _, err = run_cli(capsys, "verify", "--family", "/does/not/exist.json")
    assert code == 3


def test_verify_garbage_json_exits_3(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, _ = run_cli(capsys, "verify", "--family", str(path))
    assert code == 3
    path2 = tmp_path / "wrong.json"
    path2.write_text(json.dumps({"hello": 1}))
    code, _, _ = run_cli(capsys, "verify", "--family", str(path2))
    assert code == 3


def test_verify_invariant_breaking_family_exits_3(capsys, tmp_path, f2):
    # parses as JSON but duplicates a member
    fam = {
        "field": {"p": 2, "m": 1, "modulus": [0, 1], "gamma": 1},
        "n": 3,
        "k": 1,
        "members": [
            {"n": 3, "k": 1, "basis": [[1, 0, 0]]},
            {"n": 3, "k": 1, "basis": [[1, 0, 0]]},
        ],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(fam))
    code, _, _ = run_cli(capsys, "verify", "--family", str(path))
    assert code == 3


@pytest.mark.parametrize(
    "family, member, fault, message",
    [
        (NON_SPREAD, 2, {"basis": [[0, 0, 0, 1, 0], [0, 0, 0, 0, 2]]}, "entry out of field range"),
        (FOUR_LINES, 3, {"basis": [[1, 1]]}, "basis shape does not match (k, n)"),
        (NON_SPREAD, 0, {"basis": [[1, 0, 0, 0, 0]]}, "basis shape does not match (k, n)"),
        (NON_SPREAD, 1, {"basis": [[0, 1, 0, 0, 0], [0, 0, 1, 0]]}, "ragged rows"),
        (NON_SPREAD, 0, {"basis": [[1, 1, 0, 0, 0], [0, 1, 0, 0, 0]]}, "basis is not a canonical rank-k RREF matrix"),
        (FOUR_LINES, 3, {"n": 4, "basis": [[1, 1, 1, 0]]}, "member 3 has mismatched parameters"),
        (FOUR_LINES, 3, {"basis": [[1, 0, 0]]}, "member 3 duplicates an earlier member"),
    ],
    ids=["out-of-range", "short-row", "too-few-rows", "ragged", "non-canonical", "member-n", "duplicate"],
)
def test_verify_malformed_member_exits_3(capsys, tmp_path, family, member, fault, message):
    fam = json.loads(json.dumps(family))
    fam["members"][member].update(fault)
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam))
    code, out, err = run_cli(capsys, "verify", "--family", str(path))
    assert (code, out) == (3, "")
    assert f"malformed family in {path}: {message}" in err


# paths of FOUR_LINES that hold an int
FOUR_LINES_INTS = [
    ("field", "p"), ("field", "m"), ("field", "gamma"), ("field", "modulus", 1), ("n",), ("k",),
    ("members", 0, "n"), ("members", 0, "k"), ("members", 3, "basis", 0, 2),
]


@pytest.mark.parametrize(
    "spoil", [lambda x: x + 0.5, lambda x: True, str], ids=["float", "bool", "string"]
)
def test_verify_non_integer_family_value_exits_3(capsys, tmp_path, spoil):
    # each spoiled value is one that int() reads back as the old value
    # (2.5 as 2, true as 1, "3" as 3), so coercion would verify FOUR_LINES
    path = tmp_path / "fam.json"
    for *where, last in FOUR_LINES_INTS:
        fam = json.loads(json.dumps(FOUR_LINES))
        parent = fam
        for key in where:
            parent = parent[key]
        if int(spoil(parent[last])) != parent[last]:
            continue
        parent[last] = spoil(parent[last])
        path.write_text(json.dumps(fam))
        code, out, err = run_cli(capsys, "verify", "--family", str(path))
        assert (code, out) == (3, ""), (where, last)
        assert "expected an integer" in err


def test_construct_code_based_non_integer_matrix_exits_3(capsys, tmp_path):
    path = tmp_path / "H.json"
    for spoiled in ({"entries": [1.0] * 12}, {"rows": "3"}, {"cols": True}):
        H = {"rows": 3, "cols": 4, "entries": [1] * 12, **spoiled}
        path.write_text(json.dumps(H))
        code, out, err = run_cli(
            capsys, "construct", "code-based", "--n", "3", "--k", "1", "--q", "5", "--matrix", str(path)
        )
        assert (code, out) == (3, ""), spoiled
        assert "expected an integer" in err


@pytest.mark.parametrize(
    "spoiled, message",
    [
        ({"entries": [1] * 11}, "entry count does not match dimensions"),
        ({"rows": -3, "cols": -4}, "entry count does not match dimensions"),
        ({"entries": [1] * 11 + [5]}, "entry out of field range"),
        ({"entries": [1] * 11 + [-1]}, "entry out of field range"),
    ],
    ids=["short", "negative-dimensions", "code-q", "negative-code"],
)
def test_construct_code_based_malformed_matrix_exits_3(capsys, tmp_path, spoiled, message):
    # both used to exit 2 with a bare message that named no file
    path = tmp_path / "H.json"
    path.write_text(json.dumps({"rows": 3, "cols": 4, "entries": [1] * 12, **spoiled}))
    code, out, err = run_cli(
        capsys, "construct", "code-based", "--n", "3", "--k", "1", "--q", "5", "--matrix", str(path)
    )
    assert (code, out) == (3, "")
    assert f"malformed matrix in {path}: {message}" in err


def test_verify_modulus_outside_the_field_exits_3(capsys, tmp_path):
    # reduced mod 2, [2, 3] would read as [0, 1], the modulus of FOUR_LINES
    fam = json.loads(json.dumps(FOUR_LINES))
    fam["field"]["modulus"] = [2, 3]
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam))
    code, out, err = run_cli(capsys, "verify", "--family", str(path), "--properties", "aad")
    assert (code, out) == (3, "")
    assert "modulus coefficients must lie in [0, 2)" in err


def test_verify_unknown_property_exits_2(capsys, tmp_path, four_line_family):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(four_line_family.to_json()))
    code, _, _ = run_cli(capsys, "verify", "--family", str(path), "--properties", "spread,zebra")
    assert code == 2


def test_guard_env_limits_field_order(capsys, monkeypatch):
    monkeypatch.setenv("SUBSPACE_FORGE_GUARD", "10")
    code, _, err = run_cli(capsys, "construct", "rs", "--n", "3", "--k", "1", "--q", "25")
    assert code == 4
    assert "guard" in err


def test_guard_env_limits_as_enumeration(capsys, monkeypatch, tmp_path):
    fam_path = tmp_path / "fam.json"
    code, _, _ = run_cli(
        capsys, "construct", "rs", "--n", "4", "--k", "1", "--q", "5", "--out", str(fam_path)
    )
    assert code == 0
    monkeypatch.setenv("SUBSPACE_FORGE_GUARD", "100")
    # 806 planes of GF(5)^4 exceed the guard of 100
    code, _, err = run_cli(capsys, "verify", "--family", str(fam_path), "--properties", "as")
    assert code == 4


@pytest.mark.parametrize("argv", [["verify", "--properties", "spread"], ["batch"]])
def test_family_field_over_guard_exits_4_promptly(capsys, tmp_path, argv):
    # GF(2^31) would take minutes to set up; the guard must stop it first
    fam = {
        "field": {"p": 2, "m": 31, "modulus": [1, 0, 0, 1] + [0] * 27 + [1], "gamma": 2},
        "n": 3,
        "k": 1,
        "members": [{"n": 3, "k": 1, "basis": [[1, 0, 0]]}],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(fam))
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, *argv, "--family", str(path))
    assert time.perf_counter() - t0 < 2
    assert code == 4
    assert "q = 2^31" in err and str(1 << 20) in err


def test_large_field_family_over_guard_exits_4_promptly(capsys, tmp_path):
    # GF(2^16) would build 2^32-entry tables; the guard counts them first
    fam = {
        "field": {"p": 2, "m": 16, "modulus": [1, 0, 1, 1, 0, 1] + [0] * 10 + [1], "gamma": 2},
        "n": 2,
        "k": 1,
        "members": [{"n": 2, "k": 1, "basis": v} for v in ([[1, 0]], [[0, 1]])],
    }
    path = tmp_path / "gf65536.json"
    path.write_text(json.dumps(fam))
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "verify", "--family", str(path), "--properties", "aad")
    assert time.perf_counter() - t0 < 2
    assert code == 4
    assert "q = 2^16" in err and "1048576" in err


def test_search_prime_order_over_guard_exits_4_promptly(capsys):
    # 2^31 - 1 is prime: factoring it by trial division would take minutes
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "search", "--n", "3", "--k", "1", "--L", "1", "--q", "2147483647")
    assert time.perf_counter() - t0 < 2
    assert code == 4
    assert "q = 2147483647^1" in err and "size guard 1048576" in err


def test_exhaustive_search_over_space_limit_exits_4(capsys):
    # GF(5)^6 has 508431 planes, over the enumeration guard
    code, out, err = run_cli(capsys, "search", "--n", "6", "--k", "2", "--L", "1", "--q", "5")
    assert code == 4 and out == ""
    assert "exhaustive search needs 508431 k-subspaces, over the guard 200000" in err


def test_exhaustive_search_limit_names_a_count_too_long_to_print(capsys):
    # 2^20000 - 1 lines: formatting the count used to exit 2 on Python's digit limit
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "search", "--n", "20000", "--k", "1", "--L", "1", "--q", "2")
    assert time.perf_counter() - t0 < 2.0
    assert code == 4 and out == ""
    assert "exhaustive search needs about 10^6021 k-subspaces, over the guard 200000" in err


@pytest.mark.parametrize(
    "argv, needs",
    [
        (["--mode", "greedy", "--n", "20000", "--k", "64", "--L", "1"],
         "greedy search needs about 10^3074843 k-subspaces, over the guard 200000"),
        (["--n", "99999", "--k", "128", "--L", "4"],
         "exhaustive search needs about 10^30807351 k-subspaces, over the guard 200000"),
    ],
    ids=["greedy", "exhaustive"],
)
def test_search_refuses_large_k_before_counting_subspaces(argv, needs):
    # the exact counts took 18 s and over a minute to form
    t0 = time.perf_counter()
    proc = run_cli_process("search", *argv, "--q", "257")
    assert time.perf_counter() - t0 < 2
    assert proc.returncode == 4 and proc.stdout == ""
    assert needs in proc.stderr


def test_as_guard_refuses_large_k_before_counting_subspaces(capsys, tmp_path):
    # [3000, 129]_257 took 4.7 s to form before the guard refused it
    n, k = 3000, 128
    member = {"n": n, "k": k, "basis": [[int(c == r) for c in range(n)] for r in range(k)]}
    field = {"p": 257, "m": 1, "modulus": [0, 1], "gamma": 3}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"field": field, "n": n, "k": k, "members": [member]}))
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--family", str(path), "--properties", "as")
    assert time.perf_counter() - t0 < 2
    assert code == 4 and out == ""
    assert "AS verification needs about 10^892540 (k+1)-subspaces, over the guard 200000" in err


WIDE = 15000  # one line of GF(2)^15000: its guarded counts run to thousands of digits


@pytest.mark.parametrize(
    "argv, needs",
    [
        (["verify", "--family", WIDE, "--properties", "as"], "AS verification needs about 10^9030 (k+1)-subspaces"),
        (["batch", "--family", WIDE], "batch code needs about 10^4515 coset table entries"),
        (["search", "--mode", "greedy", "--n", "20000", "--k", "1", "--L", "1", "--q", "2"],
         "greedy search needs about 10^6021 k-subspaces"),
    ],
    ids=["verify-as", "batch", "search-greedy"],
)
def test_guard_names_a_count_too_long_to_print(capsys, tmp_path, argv, needs):
    # formatting these counts used to exit 2 on Python's digit limit
    path = tmp_path / "wide.json"
    line = {"n": WIDE, "k": 1, "basis": [[1] + [0] * (WIDE - 1)]}
    path.write_text(json.dumps({**FOUR_LINES, "n": WIDE, "members": [line]}))
    argv = [str(path) if a == WIDE else a for a in argv]
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 2.0
    assert code == 4 and out == ""
    assert f"{needs}, over the guard 200000" in err


def test_guard_env_limits_family_field(capsys, monkeypatch, tmp_path, four_line_family):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(four_line_family.to_json()))
    monkeypatch.setenv("SUBSPACE_FORGE_GUARD", "1")
    code, _, err = run_cli(capsys, "verify", "--family", str(path), "--properties", "spread")
    assert code == 4
    assert "q = 2^1" in err


def test_guard_env_limits_search_field(capsys, monkeypatch):
    monkeypatch.setenv("SUBSPACE_FORGE_GUARD", "1")
    code, _, err = run_cli(capsys, "search", "--n", "3", "--k", "1", "--L", "1", "--q", "2")
    assert code == 4
    assert "q = 2^1" in err and "size guard 1" in err


def test_exhaustive_batch_over_guard_exits_4_promptly(capsys, tmp_path):
    path = tmp_path / "rs.json"
    code, _, _ = run_cli(capsys, "construct", "rs", "--n", "3", "--k", "1", "--q", "7", "--out", str(path))
    assert code == 0
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "batch", "--family", str(path))
    assert time.perf_counter() - t0 < 2
    assert code == 4
    # C(348, 6) multisets: 0 plus s - 1 = 6 requests over K = 343 information bits
    assert "2362239780292 request multisets" in err and "guard 200000" in err


def test_exhaustive_batch_checks_one_multiset_per_translation_class(capsys, tmp_path):
    # C(66, 3) = 45760 multisets are under the guard; all C(67, 4) = 766480 were not
    path = tmp_path / "rs.json"
    code, _, _ = run_cli(capsys, "construct", "rs", "--n", "3", "--k", "1", "--q", "4", "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "batch", "--family", str(path))
    assert code == 0
    res = result_of(out)
    assert (res["K"], res["s"]) == (64, 4)
    assert res["verified"] is True and res["counterexample"] is None


def test_guard_env_limits_batch_multisets(capsys, monkeypatch, tmp_path, four_line_family):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(four_line_family.to_json()))
    monkeypatch.setenv("SUBSPACE_FORGE_GUARD", "100")
    # C(10, 3) = 120 multisets: 0 plus s - 1 = 3 requests over K = 8 bits
    code, _, err = run_cli(capsys, "batch", "--family", str(path))
    assert code == 4
    assert "120" in err and "guard 100" in err
    code, _, _ = run_cli(capsys, "batch", "--family", str(path), "--mode", "sampled", "--trials", "100")
    assert code == 0


def test_guard_env_limits_batch_tables(capsys, monkeypatch, tmp_path, four_line_family):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(four_line_family.to_json()))
    # K = 8 information bits times 4 members: 32 coset table entries
    monkeypatch.setenv("SUBSPACE_FORGE_GUARD", "31")
    code, _, err = run_cli(capsys, "batch", "--family", str(path), "--mode", "sampled", "--trials", "20")
    assert code == 4
    assert "32 coset table entries" in err and "guard 31" in err
    monkeypatch.setenv("SUBSPACE_FORGE_GUARD", "32")
    code, _, _ = run_cli(capsys, "batch", "--family", str(path), "--mode", "sampled", "--trials", "20")
    assert code == 0


def test_guard_env_limits_greedy_search(capsys, monkeypatch):
    monkeypatch.setenv("SUBSPACE_FORGE_GUARD", "100")
    # GF(3)^5 has 121 lines
    code, _, err = run_cli(
        capsys, "search", "--mode", "greedy", "--n", "5", "--k", "1", "--L", "2", "--q", "3"
    )
    assert code == 4
    assert "121" in err and "guard 100" in err


def test_batch_non_spread_exits_2(capsys, tmp_path):
    path = tmp_path / "non-spread.json"
    path.write_text(json.dumps(NON_SPREAD))
    code, _, err = run_cli(capsys, "batch", "--family", str(path))
    assert code == 2
    assert "not a partial spread (members (0, 1))" in err


# ---------------------------------------------------------------------------
# bounds / search / batch
# ---------------------------------------------------------------------------


def test_bounds_command(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "3", "--k", "1", "--L", "1", "--q", "2")
    assert code == 0
    res = result_of(out)
    assert res["size_bound"] == 4
    assert res["size_bound_no_spread"] == 5
    assert res["rs_guaranteed_L"] == 2


def test_bounds_bad_params_exit_2(capsys):
    code, _, _ = run_cli(capsys, "bounds", "--n", "4", "--k", "2", "--L", "1", "--q", "3")
    assert code == 2


def test_bounds_k_below_1_exits_2(capsys):
    # it used to print a table of float bounds
    code, out, err = run_cli(capsys, "bounds", "--n", "3", "--k", "-1", "--L", "1", "--q", "2")
    assert code == 2 and out == ""
    assert "need k >= 1, got k=-1" in err


def test_bounds_builds_no_field(capsys, monkeypatch):
    # GF(1021) took 0.13 s and 17 MB of tables that bounds never read
    def refuse(*args, **kwargs):
        raise AssertionError("bounds built a Field")

    monkeypatch.setattr(Field, "__init__", refuse)
    code, out, _ = run_cli(capsys, "bounds", "--n", "4", "--k", "1", "--L", "2", "--q", "1021")
    assert code == 0
    assert result_of(out)["size_bound"] == 1 + 2 * (1021**3 - 1) // 1020
    assert run_cli(capsys, "bounds", "--n", "4", "--k", "1", "--L", "2", "--q", "6")[0] == 2
    assert run_cli(capsys, "bounds", "--n", "4", "--k", "1", "--L", "2", "--q", "2147483647")[0] == 4


def test_bounds_q_not_a_prime_power_exits_2(capsys):
    # it used to print a table for GF(6), which does not exist
    code, out, err = run_cli(capsys, "bounds", "--n", "3", "--k", "1", "--L", "1", "--q", "6")
    assert code == 2 and out == ""
    assert "6 is not a prime power" in err


@pytest.mark.parametrize(
    "n, L",
    [
        # 2^19999 has 6,021 digits: printing it used to raise past main
        (20000, 1),
        # the random sample size took the 400th root of 2^1195 in floats
        (5, 400),
        # and formed 2^(3 (L + 1) - 8) exactly before that
        (5, 10**4000),
    ],
)
def test_bounds_that_outgrow_python_ints_exit_promptly(capsys, n, L):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "bounds", "--n", str(n), "--k", "1", "--L", str(L), "--q", "2")
    assert time.perf_counter() - t0 < 2.0
    if L == 400:
        assert code == 0
        assert result_of(out)["random_sample_size"] == 7
    else:
        assert code == 2 and out == ""
        assert "over Python's limit of" in err


@pytest.mark.parametrize("guard, code", [(154, 4), (155, 0)])
@pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
def test_both_searches_refuse_at_the_same_count(capsys, monkeypatch, mode, guard, code):
    # GF(2)^5 has 155 planes: one guard bounds the candidates of both modes
    monkeypatch.setenv("SUBSPACE_FORGE_GUARD", str(guard))
    got, out, err = run_cli(capsys, "search", "--mode", mode, "--n", "5", "--k", "2", "--L", "1", "--q", "2")
    assert got == code
    if code:
        assert out == "" and f"{mode} search needs 155 k-subspaces, over the guard 154" in err


def test_exhaustive_search_without_budget_stops_at_the_guard():
    # 156 lines of GF(5)^4: the default 10M-node budget ran past 300 s
    proc = run_cli_process("search", "--n", "4", "--k", "1", "--L", "2", "--q", "5", guard=2000)
    assert proc.returncode == 0, proc.stderr
    res = result_of(proc.stdout)
    assert res["proven"] is False
    assert res["nodes"] == 2001


def test_search_command(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "3", "--k", "1", "--L", "1", "--q", "2")
    assert code == 0
    res = result_of(out)
    assert res["optimum"] == 4
    assert res["proven"] is True
    assert res["bound"] == 4


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_search_node_budget_below_1_exits_2(capsys, budget):
    # a budget below 1 used to run and emit an unproven one-member family
    code, out, err = run_cli(
        capsys, "search", "--n", "3", "--k", "1", "--L", "1", "--q", "2", "--node-budget", budget
    )
    assert code == 2 and out == ""
    assert f"node budget must be >= 1, got {budget}" in err


def test_search_greedy_command(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--n", "3", "--k", "1", "--L", "1", "--q", "3",
        "--mode", "greedy", "--seed", "3",
    )
    assert code == 0
    res = result_of(out)
    assert res["mode"] == "greedy"
    assert res["size"] >= 1


@pytest.mark.parametrize("option", [["--node-budget", "1"], ["--no-symmetry-break"]])
def test_search_greedy_rejects_exhaustive_options(capsys, option):
    # greedy search used to ignore both options and emit its usual family
    code, out, err = run_cli(
        capsys, "search", "--n", "5", "--k", "1", "--L", "2", "--q", "3",
        "--mode", "greedy", "--seed", "1", *option,
    )
    assert code == 2 and out == ""
    assert f"{option[0]} applies only to exhaustive search, not greedy" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "4", "--k", "2", "--L", "1", "--q", "1024"], "need 2k < n, got k=2, n=4"),
        (["--n", "5", "--k", "1", "--L", "-1", "--q", "32"], "L must be >= 0"),
    ],
)
def test_search_greedy_parameter_errors_beat_the_greedy_guard(capsys, argv, message):
    # both spaces hold more k-subspaces than the greedy guard admits
    code, out, err = run_cli(capsys, "search", "--mode", "greedy", *argv)
    assert code == 2 and out == ""
    assert message in err


def test_batch_command_from_search_family(capsys, tmp_path):
    fam_path = tmp_path / "searched.json"
    code, _, _ = run_cli(
        capsys, "search", "--n", "3", "--k", "1", "--L", "1", "--q", "2", "--out", str(fam_path)
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "batch", "--family", str(fam_path))
    assert code == 0
    res = result_of(out)
    assert res["N"] == 24
    assert res["K"] == 8
    assert res["s"] == 4
    assert res["verified"] is True
    assert res["counterexample"] is None


def test_batch_default_s_needs_L_aad_at_least_1(capsys, tmp_path):
    # one line has L_aad = 0; the message used to be only "L must be >= 1"
    path = tmp_path / "one-line.json"
    path.write_text(json.dumps({**FOUR_LINES, "members": FOUR_LINES["members"][:1]}))
    code, out, err = run_cli(capsys, "batch", "--family", str(path))
    assert code == 2 and out == ""
    assert "the default s = floor(|F| / L_aad) needs L_aad >= 1, but L_aad = 0; --s sets s" in err
    code, out, _ = run_cli(capsys, "batch", "--family", str(path), "--s", "1")
    assert code == 0
    res = result_of(out)
    assert (res["L_aad"], res["s"], res["verified"]) == (0, 1, True)


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_sampled_batch_needs_a_trial(capsys, tmp_path, four_line_family, trials):
    # no trial certifies nothing; it used to report "verified": true
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(four_line_family.to_json()))
    code, out, err = run_cli(capsys, "batch", "--family", str(path), "--mode", "sampled", "--trials", trials)
    assert code == 2 and out == ""
    assert "trials must be >= 1" in err


def test_sampled_batch_trials_over_guard_exits_4_promptly(capsys, monkeypatch, tmp_path):
    # a subprocess with a timeout, so that unbounded trials fail the test
    # instead of hanging the suite
    path = tmp_path / "rs.json"
    assert main(["construct", "rs", "--n", "3", "--k", "1", "--q", "7", "--out", str(path)]) == 0
    argv = ["batch", "--family", str(path), "--mode", "sampled", "--s", "2"]
    t0 = time.perf_counter()
    proc = run_cli_process(*argv, "--trials", "1000000000")
    assert time.perf_counter() - t0 < 1
    assert proc.returncode == 4 and proc.stdout == ""
    assert "sampled batch needs 1000000000 request multisets, over the guard 200000" in proc.stderr
    # the guard is the enumeration guard, which the environment sets
    # (the code's coset tables hold 343 x 49 = 16807 entries)
    monkeypatch.setenv("SUBSPACE_FORGE_GUARD", "20000")
    code, _, err = run_cli(capsys, *argv, "--trials", "20001")
    assert code == 4 and "sampled batch needs 20001 request multisets, over the guard 20000" in err
    code, out, _ = run_cli(capsys, *argv, "--trials", "20000")
    assert code == 0 and result_of(out)["verified"] is True
    # and lifts it past the default
    monkeypatch.setenv("SUBSPACE_FORGE_GUARD", "250000")
    code, out, _ = run_cli(capsys, *argv[:-1], "1", "--trials", "250000")
    assert code == 0 and result_of(out)["verified"] is True


def test_sampled_batch_s_over_guard_exits_4_promptly(capsys, monkeypatch, tmp_path):
    # a subprocess with a timeout: each drawn multiset, and a failing one
    # echoed as the counterexample, holds s requests
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(FOUR_LINES))
    argv = ["batch", "--family", str(path), "--mode", "sampled", "--trials", "1"]
    t0 = time.perf_counter()
    proc = run_cli_process(*argv, "--s", "200001")
    assert time.perf_counter() - t0 < 2
    assert proc.returncode == 4 and proc.stdout == ""
    assert "sampled batch needs 200001 requests per multiset, over the guard 200000" in proc.stderr
    # the guard is the enumeration guard, which the environment sets
    monkeypatch.setenv("SUBSPACE_FORGE_GUARD", "5000")
    code, out, err = run_cli(capsys, *argv, "--s", "5001")
    assert (code, out) == (4, "") and "sampled batch needs 5001 requests per multiset, over the guard 5000" in err
    code, out, _ = run_cli(capsys, *argv, "--s", "5000")
    assert code == 0 and result_of(out)["s"] == 5000


def test_batch_recovery_search_over_guard_exits_4_promptly(tmp_path):
    # 80 requests over RS(3,1,7) backtrack for ever; --s 60 takes 0.2 s.
    # A subprocess with a timeout, so that an unbounded search fails the
    # test instead of hanging the suite.
    path = tmp_path / "rs.json"
    assert main(["construct", "rs", "--n", "3", "--k", "1", "--q", "7", "--out", str(path)]) == 0
    argv = ["batch", "--family", str(path), "--s", "80", "--mode", "sampled", "--trials", "3"]
    t0 = time.perf_counter()
    proc = run_cli_process(*argv)
    assert time.perf_counter() - t0 < 2
    assert proc.returncode == 4 and proc.stdout == ""
    assert "batch recovery search needs 200001 candidate tests, over the guard 200000" in proc.stderr


def test_batch_command_builds_no_encode_words(capsys, monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("batch built the encode words")

    monkeypatch.setattr(BatchCode, "_parity_words", refuse)
    path = tmp_path / "rs.json"
    code, _, _ = run_cli(capsys, "construct", "rs", "--n", "3", "--k", "1", "--q", "7", "--out", str(path))
    assert code == 0
    for mode in ("exhaustive", "sampled"):
        code, out, _ = run_cli(capsys, "batch", "--family", str(path), "--s", "2", "--mode", mode)
        assert code == 0
        assert result_of(out)["verified"] is True


def test_batch_layout_flag(capsys, tmp_path, four_line_family):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(four_line_family.to_json()))
    code, out, _ = run_cli(capsys, "batch", "--family", str(path), "--layout", "--s", "2")
    assert code == 0
    res = result_of(out)
    assert len(res["layout"]["parities"]) == 16


def test_pretty_and_out_file(capsys, tmp_path):
    out_path = tmp_path / "bounds.json"
    code, out, _ = run_cli(
        capsys, "bounds", "--n", "3", "--k", "1", "--L", "1", "--q", "5",
        "--pretty", "--out", str(out_path),
    )
    assert code == 0
    assert out == ""  # written to file instead
    text = out_path.read_text()
    assert "\n  " in text  # indented
    assert json.loads(text)["result"]["size_bound"] == 7


BOUNDS_ARGV = ("bounds", "--n", "5", "--k", "1", "--L", "2", "--q", "3")


@pytest.mark.parametrize(
    "target, reason",
    [
        ("missing/x.json", "no directory {tmp}/missing"),
        ("file.txt/x.json", "no directory {tmp}/file.txt"),
        ("", "it is a directory"),
        ("locked/x.json", "directory {tmp}/locked is not writable"),
    ],
)
def test_unwritable_out_exits_2_before_the_command_runs(capsys, monkeypatch, tmp_path, target, reason):
    (tmp_path / "file.txt").write_text("")
    (tmp_path / "locked").mkdir()
    _lock(monkeypatch, "locked")
    monkeypatch.setattr("subspace_forge.cli.bounds_table", lambda *a: pytest.fail("the command ran"))
    out = os.path.join(tmp_path, target)
    code, stdout, err = run_cli(capsys, *BOUNDS_ARGV, "--out", out)
    assert (code, stdout) == (2, "")
    assert err == f"error: cannot write --out {out}: {reason.format(tmp=tmp_path)}\n"


def _lock(monkeypatch, *names):
    real_access = os.access
    # os.access would grant root any path, whatever its mode
    monkeypatch.setattr(os, "access", lambda p, mode: not str(p).endswith(names) and real_access(p, mode))


def test_existing_writable_out_needs_no_writable_directory(capsys, monkeypatch, tmp_path):
    (tmp_path / "locked").mkdir()
    out = tmp_path / "locked" / "x.json"
    out.write_text("old")
    _lock(monkeypatch, "locked")
    code, stdout, err = run_cli(capsys, *BOUNDS_ARGV, "--out", str(out))
    assert (code, stdout, err) == (0, "", "")
    assert json.loads(out.read_text())["result"]["size_bound"] == 81


def test_existing_unwritable_out_exits_2(capsys, monkeypatch, tmp_path):
    out = tmp_path / "x.json"
    out.write_text("old")
    _lock(monkeypatch, "x.json")
    monkeypatch.setattr("subspace_forge.cli.bounds_table", lambda *a: pytest.fail("the command ran"))
    code, stdout, err = run_cli(capsys, *BOUNDS_ARGV, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == f"error: cannot write --out {out}: it is not writable\n"
    assert out.read_text() == "old"


def test_out_to_dev_null(capsys):
    assert run_cli(capsys, *BOUNDS_ARGV, "--out", os.devnull) == (0, "", "")


def test_unwritable_out_refuses_a_long_search_promptly(capsys, tmp_path):
    # the search alone runs for seconds
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "search", "--n", "4", "--k", "1", "--L", "2", "--q", "5",
                           "--out", str(tmp_path / "nonexistent" / "x.json"))
    assert time.perf_counter() - t0 < 2.0
    assert code == 2 and err.startswith("error: cannot write --out ")


def test_out_write_failure_exits_2(capsys, monkeypatch, tmp_path):
    from subspace_forge import cli

    directory = tmp_path / "gone"
    directory.mkdir()
    real_bounds_table = cli.bounds_table

    def bounds_table_then_remove_directory(*args):
        directory.rmdir()
        return real_bounds_table(*args)

    monkeypatch.setattr(cli, "bounds_table", bounds_table_then_remove_directory)
    out = str(directory / "x.json")
    code, stdout, err = run_cli(capsys, *BOUNDS_ARGV, "--out", out)
    assert (code, stdout) == (2, "")
    assert err == f"error: cannot write --out {out}: No such file or directory\n"


def test_threads_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "3", "--k", "1", "--L", "1", "--q", "2", "--threads", "4"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_round_trip_all_builders(capsys, tmp_path):
    # output of every construct kind (and search) feeds verify cleanly
    commands = {
        "rs": ["construct", "rs", "--n", "3", "--k", "1", "--q", "5"],
        "random": ["construct", "random", "--n", "5", "--k", "1", "--L", "7", "--q", "5", "--seed", "2"],
        "code-based": ["construct", "code-based", "--n", "3", "--k", "1", "--q", "5"],
        "search": ["search", "--n", "3", "--k", "1", "--L", "1", "--q", "2"],
    }
    for name, argv in commands.items():
        path = tmp_path / f"{name}.json"
        code, _, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0, name
        code, out, _ = run_cli(capsys, "verify", "--family", str(path), "--properties", "spread,aad,bound")
        assert code == 0, name
        report = result_of(out)["report"]
        assert report["is_partial_spread"] is True, name
        assert report["bound_satisfied"] is True, name


def test_search_greedy_seed_determinism(capsys):
    argv = ["search", "--n", "3", "--k", "1", "--L", "1", "--q", "3", "--mode", "greedy", "--seed", "8"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    a, b = json.loads(out1), json.loads(out2)
    assert json.dumps(a["result"], sort_keys=True) == json.dumps(b["result"], sort_keys=True)


def test_console_script_runs():
    # the subprocess does not see pytest's pythonpath, so put src on its path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "subspace_forge.cli", "bounds", "--n", "3", "--k", "1", "--L", "1", "--q", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["size_bound"] == 4
