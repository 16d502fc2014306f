"""The package's public name list matches what it actually exports."""

import types

import detcode


def test_all_names_resolve():
    for name in detcode.__all__:
        assert hasattr(detcode, name), name


def test_all_lists_exactly_the_imported_public_names():
    imported = {
        name
        for name, value in vars(detcode).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(detcode.__all__) == sorted(imported)
    assert len(set(detcode.__all__)) == len(detcode.__all__)
