import subspace_forge


def test_every_exported_name_exists():
    missing = [name for name in subspace_forge.__all__ if not hasattr(subspace_forge, name)]
    assert not missing
