import ast
from pathlib import Path

import subspace_forge


def test_every_exported_name_exists():
    missing = [name for name in subspace_forge.__all__ if not hasattr(subspace_forge, name)]
    assert not missing


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
