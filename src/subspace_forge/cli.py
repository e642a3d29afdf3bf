"""Command-line surface: construct / verify / bounds / search / batch.

Machine-readable JSON goes to stdout (or --out); every payload is
wrapped in an envelope {"manifest": ..., "result": ...} whose manifest
records the command, the options the run read, seed, version, wall time
and a sha256 digest of the canonical result JSON.  Identical command +
seed gives a byte-identical result (only the manifest wall time varies).

Each command, construct kind and mode accepts only the options it reads;
any other exits 2 (abbreviations are refused):
  construct rs          --n --k --q
  construct random      --n --k --q --L [--seed 0]
  construct code-based  --n --k --q [--matrix]; --matrix is a JSON file
                        {"rows", "cols", "entries"} with rows = n and
                        row-major codes of GF(q); with no --matrix the
                        parity check is the n x q Vandermonde over GF(q)
  verify                --family [--properties]
  bounds                --n --k --L --q
  search                --n --k --L --q [--mode exhaustive]; exhaustive
                        mode reads [--node-budget] [--no-symmetry-break],
                        greedy mode [--seed 0]
  batch                 --family [--s] [--mode exhaustive] [--layout];
                        sampled mode also reads [--trials 1000] [--seed 0]
Every command takes --out and --pretty.  An --out that is a directory,
an existing file that is not writable, or a new file whose directory is
missing or not writable, exits 2 before the command runs, as does a
write that fails after it.  Each subparser sets `run` to its handler,
which takes (args, field_guard, enum_guard) and returns the result.
main builds the subparser of the command that argv starts with, or all
of them if argv starts with anything else; it sets the chosen mode's
options from MODE_OPTIONS, names the manifest's command and seed from
the parsed options, and maps errors to exit codes in one place.

Exit codes: 0 report produced, 2 parameter violation, 3 malformed
input, 4 computation aborted by a size guard.  SUBSPACE_FORGE_GUARD (an
integer) overrides both guards.  The field guard bounds the q^2 table
entries of GF(q): a family file's (p, m) and --q are checked before the
field is built.  The enumeration guard bounds AS verification's
(k+1)-subspaces, a batch code's coset table entries, batch's request
multisets and recovery-search candidate tests per multiset, the
k-subspace candidates of both searches, exhaustive search's nodes when
no --node-budget is given, construct rs's members and construct
code-based's Vandermonde entries; each refuses through gf.check_guard,
which names a count of 100 or more digits as about 10^N.  Exhaustive
search stops at its node budget with proven: false rather than refusing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

from . import __version__
from .gf import (
    DEFAULT_SIZE_GUARD,
    SizeGuardError,
    _json_int,
    check_guard,
    check_order_guard,
    factor_order,
    field_from_order,
)
from .family import DEFAULT_AS_ENUM_GUARD, Family, build_report
from .subspace import checked_gaussian_binomial
from .constructions import (
    bounds_table,
    build_code_based_family,
    build_random_family,
    build_rs_family,
    check_parameters,
    check_rs_parameters,
    growth_diagnostic,
    vandermonde_matrix,
)
from .batch import BatchCode, batch_s, verify_batch
from .search import exhaustive_max_family, greedy_max_family

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_PARSE = 3
EXIT_GUARD = 4


class InputParseError(Exception):
    """Raised when an input file cannot be read or decoded."""


def _guards() -> tuple[int, int]:
    raw = os.environ.get("SUBSPACE_FORGE_GUARD")
    if raw is None:
        return DEFAULT_SIZE_GUARD, DEFAULT_AS_ENUM_GUARD
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputParseError(f"SUBSPACE_FORGE_GUARD must be an integer, got {raw!r}") from exc
    return value, value


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputParseError(f"cannot read JSON from {path}: {exc}") from exc


def _load_family(path: str, field_guard: int) -> Family:
    obj = _load_json_file(path)
    # accept a bare family, a construct envelope, or a {"family": ...} result
    if isinstance(obj, dict) and "result" in obj:
        obj = obj["result"]
    if isinstance(obj, dict) and "family" in obj:
        obj = obj["family"]
    if not isinstance(obj, dict) or "members" not in obj:
        raise InputParseError(f"{path} does not contain a family object")
    try:
        # before Field.from_json, which builds q x q tables
        check_order_guard(_json_int(obj["field"]["p"]), _json_int(obj["field"]["m"]), field_guard)
        return Family.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputParseError(f"malformed family in {path}: {exc}") from exc


def _load_matrix(path: str, q: int) -> list[list[int]]:
    """The rows of the {"rows", "cols", "entries"} matrix file at path,
    whose row-major entries are codes of GF(q)."""
    obj = _load_json_file(path)
    try:
        rows, cols, entries = _json_int(obj["rows"]), _json_int(obj["cols"]), list(map(_json_int, obj["entries"]))
        if min(rows, cols) < 0 or len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        if any(not 0 <= e < q for e in entries):
            raise ValueError("entry out of field range")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputParseError(f"malformed matrix in {path}: {exc}") from exc
    return [entries[r * cols : (r + 1) * cols] for r in range(rows)]


def _emit(result: dict, command: str, params: dict, seed, out, pretty: bool, t0: float) -> None:
    digest = hashlib.sha256(canonical_json(result).encode()).hexdigest()
    envelope = {
        "manifest": {
            "command": command,
            "parameters": params,
            "seed": seed,
            "version": __version__,
            "wall_time_s": round(time.time() - t0, 6),
            "digest": f"sha256:{digest}",
        },
        "result": result,
    }
    text = json.dumps(envelope, indent=2, sort_keys=True) if pretty else canonical_json(envelope)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text + "\n")


def _check_out(out: str) -> None:
    """Refuse, before any work, an --out path that is a directory, an
    existing file that is not writable, or a new file whose directory is
    missing or not writable."""
    parent = os.path.dirname(out) or "."
    if os.path.isdir(out):
        reason = "it is a directory"
    elif os.path.exists(out):
        # writing an existing file (/dev/null, say) needs no right on its directory
        if os.access(out, os.W_OK):
            return
        reason = "it is not writable"
    elif not os.path.isdir(parent):
        reason = f"no directory {parent}"
    elif not os.access(parent, os.W_OK):
        reason = f"directory {parent} is not writable"
    else:
        return
    raise ValueError(f"cannot write --out {out}: {reason}")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--out", help="write the JSON envelope to this file instead of stdout")
    p.add_argument("--pretty", action="store_true", help="indent the JSON output")


def _add_command(sub, name: str, run, help: str, ints=()) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help, allow_abbrev=False)  # --s is not --seed
    for opt in ints:
        p.add_argument(f"--{opt}", type=int, required=True, help="field order (prime power)" if opt == "q" else None)
    p.set_defaults(run=run)
    _add_common(p)
    return p


# The options that each mode of search and batch reads, with their
# defaults; the parser leaves them unset, and main refuses one that the
# chosen mode does not read.
MODE_OPTIONS = {
    "search": {"exhaustive": {"node_budget": None, "no_symmetry_break": False}, "greedy": {"seed": 0}},
    "batch": {"exhaustive": {}, "sampled": {"trials": 1000, "seed": 0}},
}


def _apply_mode_options(args) -> None:
    for mode, options in MODE_OPTIONS.get(args.command, {}).items():
        for dest, default in options.items():
            if mode == args.mode:
                vars(args).setdefault(dest, default)
            elif dest in vars(args):
                raise ValueError(f"--{dest.replace('_', '-')} applies only to {mode} {args.command}, not {args.mode}")


def _add_construct(sub) -> None:
    kinds = sub.add_parser("construct", help="build a family and emit its JSON").add_subparsers(
        dest="kind", required=True
    )
    nkq = ("n", "k", "q")
    _add_command(kinds, "rs", _cmd_rs, "the Reed-Solomon based family", nkq)
    pr = _add_command(kinds, "random", _cmd_random, "a seeded random AS family", nkq)
    pr.add_argument("--L", type=int, required=True, help="AS target")
    pr.add_argument("--seed", type=int, default=0, help="64-bit seed")
    pcb = _add_command(kinds, "code-based", _cmd_code_based, "the column groups of a parity-check matrix", nkq)
    pcb.add_argument(
        "--matrix", help='parity-check JSON file {"rows", "cols", "entries"} (default: the n x q Vandermonde over GF(q))'
    )


def _add_verify(sub) -> None:
    pv = _add_command(sub, "verify", _cmd_verify, "verify a family file and emit the report")
    pv.add_argument("--family", required=True, help="family JSON file")
    pv.add_argument(
        "--properties",
        default="spread,aad,as,bound,relations",
        help="comma-separated subset of spread,aad,as,bound,relations",
    )


def _add_bounds(sub) -> None:
    _add_command(sub, "bounds", _cmd_bounds, "closed-form bounds for (n, k, L, q)", ("n", "k", "L", "q"))


def _add_search(sub) -> None:
    unset = argparse.SUPPRESS
    nklq = ("n", "k", "L", "q")
    ps = _add_command(sub, "search", _cmd_search, "search for a maximal family at tiny parameters", nklq)
    ps.add_argument("--mode", choices=["exhaustive", "greedy"], default="exhaustive")
    ps.add_argument("--seed", type=int, default=unset, help="greedy mode only (default 0)")
    ps.add_argument("--node-budget", type=int, default=unset, help="exhaustive mode only")
    ps.add_argument("--no-symmetry-break", action="store_true", default=unset, help="exhaustive mode only")


def _add_batch(sub) -> None:
    unset = argparse.SUPPRESS
    pba = _add_command(sub, "batch", _cmd_batch, "build a batch code from a family and verify it")
    pba.add_argument("--family", required=True, help="family JSON file")
    pba.add_argument("--s", type=int, default=None, help="request count (default floor(|F|/L_aad))")
    pba.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    pba.add_argument("--trials", type=int, default=unset, help="sampled mode only (default 1000)")
    pba.add_argument("--seed", type=int, default=unset, help="sampled mode only (default 0)")
    pba.add_argument("--layout", action="store_true", help="include the parity position layout")


# Each command's subparser builder, in the order that --help lists them.
COMMANDS = {
    "construct": _add_construct,
    "verify": _add_verify,
    "bounds": _add_bounds,
    "search": _add_search,
    "batch": _add_batch,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser.  When `command` names a command, only that
    command's subparser is built, since a run parses no other; otherwise
    (None, an option or an unknown word) every command's is, so help,
    usage and choice errors list them all.  Either way the usage line
    that an error prints names every command."""
    parser = argparse.ArgumentParser(
        prog="subspace-forge",
        description="Construct, verify, bound and search AAD/AS subspace families.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    if command in COMMANDS:
        # the metavar keeps all five commands in the usage line; argparse
        # would also name it in place of `command` in the missing and
        # invalid choice errors, which a valid command never raises
        sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}")
        COMMANDS[command](sub)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        for add in COMMANDS.values():
            add(sub)
    return parser


def _construct_result(fam: Family) -> dict:
    return {"family": fam.to_json(), "diagnostics": {"members": len(fam)}}


def _cmd_rs(args, field_guard: int, enum_guard: int):
    field = field_from_order(args.q, field_guard)
    check_rs_parameters(args.n, args.k, field.q)  # parameter errors exit 2 before the guard
    check_guard("construct rs", field.q ** (args.n - 2 * args.k), "members", enum_guard)
    return _construct_result(build_rs_family(args.n, args.k, field))


def _cmd_random(args, field_guard: int, enum_guard: int):
    field = field_from_order(args.q, field_guard)
    _check_powers(args.n, args.k, args.L, args.q)
    return build_random_family(args.n, args.k, args.L, field, args.seed, as_enum_guard=enum_guard).to_json()


def _cmd_code_based(args, field_guard: int, enum_guard: int):
    field = field_from_order(args.q, field_guard)
    if args.matrix is None:
        check_parameters(args.n, args.k)  # parameter errors exit 2 before the guard
        check_guard("construct code-based", args.n * field.q, "parity-check entries", enum_guard)
        H = vandermonde_matrix(field, args.n)
    else:
        H = _load_matrix(args.matrix, field.q)
        # the family lives in GF(q)^rows, so --n must name that space
        if len(H) != args.n:
            raise ValueError(f"--n {args.n} differs from the parity-check matrix's {len(H)} rows")
    return _construct_result(build_code_based_family(field, H, args.k))


def _cmd_verify(args, field_guard: int, enum_guard: int):
    fam = _load_family(args.family, field_guard)
    props = [p.strip() for p in args.properties.split(",") if p.strip()]
    report = build_report(fam, props, as_enum_guard=enum_guard)
    return {
        "family_size": len(fam),
        "growth_log_q": float(growth_diagnostic(fam)),
        "report": report.to_json(),
    }


def _check_powers(n: int, k: int, L: int, q: int) -> None:
    """Refuse bad parameters, and, before any power is formed, parameters
    whose powers of q outgrow what Python prints: the bounds table forms
    about L q^(n-k), and the random sample size q^((n-2k)(L+1))."""
    check_parameters(n, k, L)
    # 0 is no limit; Python < 3.10.7 has none
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    top = limit / math.log10(q)  # q^top has `limit` digits
    # compare ints with floats, which is exact, and add none to a float
    if n - k >= top - math.log(max(L, 1), q) or (n - 2 * k) * (L + 1) >= top:
        raise ValueError(f"these parameters need powers of q over Python's limit of {limit} digits")


def _cmd_bounds(args, field_guard: int, enum_guard: int):
    factor_order(args.q, field_guard)  # exits 2 on a q that is no prime power; builds no GF(q)
    _check_powers(args.n, args.k, args.L, args.q)
    return bounds_table(args.n, args.k, args.L, args.q)


def _cmd_search(args, field_guard: int, enum_guard: int):
    field = field_from_order(args.q, field_guard)
    check_parameters(args.n, args.k, args.L)  # parameter errors exit 2 before the guard
    # both searches hold every k-subspace in memory
    checked_gaussian_binomial(f"{args.mode} search", args.n, args.k, field.q, enum_guard)
    if args.mode == "exhaustive":
        budget = enum_guard if args.node_budget is None else args.node_budget
        res = exhaustive_max_family(field, args.n, args.k, args.L, budget, symmetry_break=not args.no_symmetry_break)
        return res.to_json()
    fam = greedy_max_family(field, args.n, args.k, args.L, args.seed)
    return {"mode": "greedy", "size": len(fam), "family": fam.to_json()}


def _cmd_batch(args, field_guard: int, enum_guard: int):
    fam = _load_family(args.family, field_guard)
    if args.mode == "sampled":
        check_guard("sampled batch", args.trials, "request multisets", enum_guard)
    # the code's coset tables hold K entries per member
    check_guard("batch code", fam.field.q**fam.n * len(fam), "coset table entries", enum_guard)
    code = BatchCode(fam)
    if args.s is None and code.L_aad < 1:
        raise ValueError(f"the default s = floor(|F| / L_aad) needs L_aad >= 1, but L_aad = {code.L_aad}; --s sets s")
    s = args.s if args.s is not None else batch_s(len(fam), code.L_aad)
    if args.mode == "sampled":
        # each drawn multiset, and a counterexample, holds s requests
        check_guard("sampled batch", s, "requests per multiset", enum_guard)
        ok, counterexample = verify_batch(code, s, "sampled", trials=args.trials, seed=args.seed, guard=enum_guard)
    else:
        if s >= 1:
            # one multiset per translation class: 0 plus s - 1 requests
            check_guard("exhaustive batch", math.comb(code.K + s - 2, s - 1), "request multisets", enum_guard)
        ok, counterexample = verify_batch(code, s, guard=enum_guard)
    result = {
        "N": code.N,
        "K": code.K,
        "s": s,
        "L_aad": code.L_aad,
        "mode": args.mode,
        "verified": ok,
        "counterexample": list(counterexample) if counterexample else None,
    }
    if args.layout:
        result["layout"] = code.layout_json()
    return result


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    t0 = time.time()
    try:
        _apply_mode_options(args)
        if args.out:
            _check_out(args.out)
        result = args.run(args, *_guards())
        params = {
            k: v
            for k, v in vars(args).items()
            if k not in {"command", "run", "out", "pretty"} and v is not None
        }
        command = f"construct {args.kind}" if args.command == "construct" else args.command
        _emit(result, command, params, params.get("seed"), args.out, args.pretty, t0)
    except (InputParseError, SizeGuardError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InputParseError):
            return EXIT_PARSE
        if isinstance(exc, SizeGuardError):
            return EXIT_GUARD
        return EXIT_PARAMS
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
