"""The benchmark's tracer finds every traced name and puts every one back.

`perfbench/layers.py` looks up each callable in its TRACED list by name,
and rebinds `search._feasible`, so renaming or deleting one of them
crashes every traced benchmark run.  This test installs the tracer on
the library as the benchmark does, without changing the tracer.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import subspace_forge
import subspace_forge.cli  # noqa: F401  (the benchmark imports the CLI before tracing)

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every library module and of the classes they define."""
    owners = [m for n, m in sys.modules.items() if n == "subspace_forge" or n.startswith("subspace_forge.")]
    owners += [
        cls
        for m in list(owners)
        for cls in vars(m).values()
        if inspect.isclass(cls) and cls.__module__ == m.__name__
    ]
    return {(owner, key): value for owner in owners for key, value in list(vars(owner).items())}


def test_tracer_installs_on_every_traced_name_and_restores_each():
    layers = _load_layers()
    before = _bindings()
    tracer = layers.Tracer()
    try:
        tracer.install(subspace_forge)
        rebound = [slot for slot, value in _bindings().items() if slot in before and value is not before[slot]]
        # each traced callable at least once, plus search._feasible
        assert len(rebound) >= len(layers.TRACED) + 1
        assert subspace_forge.search._feasible is not before[(subspace_forge.search, "_feasible")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [slot for slot, value in before.items() if after[slot] is not value] == []
