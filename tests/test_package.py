"""The package's public surface: every export resolves, and only once."""

import importlib

import stabilab


def test_every_export_resolves_once():
    names = stabilab.__all__
    assert sorted(name for name in set(names) if names.count(name) > 1) == []
    assert [name for name in names if not hasattr(stabilab, name)] == []


def test_the_cli_module_imports():
    cli = importlib.import_module("stabilab.cli")
    assert callable(cli.main)
