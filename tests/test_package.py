import ast
from pathlib import Path

import subspace_forge


def test_every_exported_name_exists():
    missing = [name for name in subspace_forge.__all__ if not hasattr(subspace_forge, name)]
    assert not missing


PUBLIC_API = [
    "BatchCode",
    "Family",
    "Field",
    "NotAPartialSpread",
    "RecoveryPlan",
    "SearchResult",
    "SizeGuardError",
    "Subspace",
    "VerificationReport",
    "batch_s",
    "bounds_table",
    "build_code_based_family",
    "build_random_family",
    "build_report",
    "build_rs_family",
    "check_partial_spread",
    "check_relations",
    "compute_L_aad",
    "compute_L_as",
    "coset_hits",
    "coset_hits_bruteforce",
    "enumerate_subspaces",
    "exhaustive_max_family",
    "field_from_order",
    "gaussian_binomial",
    "greedy_max_family",
    "growth_diagnostic",
    "kernel_basis",
    "make_field",
    "max_family_size_bound",
    "max_family_size_bound_no_spread",
    "rank_of_stack",
    "rref",
    "rs_guaranteed_L",
    "verify_batch",
]


def test_public_api_is_pinned():
    # a change to the public names must show in this list's diff
    assert sorted(subspace_forge.__all__) == PUBLIC_API
    assert len(set(subspace_forge.__all__)) == len(subspace_forge.__all__)


def test_only_gf_constructs_size_guard_errors():
    # every guard refuses through gf.check_guard or gf.check_order_guard,
    # so each message states the work it refused and the limit one way
    root = Path(subspace_forge.__file__).parent
    built = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "SizeGuardError":
                    built.append(f"{path.relative_to(root)}:{node.lineno}")
    assert built and all(site.startswith("gf.py:") for site in built), built


def test_every_public_definition_is_exported_or_used():
    # a top-level function or class that nothing in the package reads, and
    # that is not a public name in __all__, is dead code: a private helper
    # read only by the tests counts too
    root = Path(subspace_forge.__file__).parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(root.rglob("*.py"))}
    used = {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    unused = [
        f"{path.relative_to(root)}:{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in subspace_forge.__all__
        and node.name not in used
    ]
    assert not unused
