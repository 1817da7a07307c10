"""The package's public surface: every export resolves, and only once."""

import importlib
import inspect
import pkgutil
import re

import stabilab


def test_every_export_resolves_once():
    names = stabilab.__all__
    assert sorted(name for name in set(names) if names.count(name) > 1) == []
    assert [name for name in names if not hasattr(stabilab, name)] == []


def test_the_cli_module_imports():
    cli = importlib.import_module("stabilab.cli")
    assert callable(cli.main)



# A Sphinx cross-reference in a docstring: :func:`name`, :class:`name`, ...
ROLE = re.compile(r":(?:func|class|meth|data):`~?([\w.]+)`")


def _modules():
    names = [info.name for info in pkgutil.iter_modules(stabilab.__path__)]
    return [stabilab] + [importlib.import_module(f"stabilab.{name}") for name in names]


def _docstrings(module):
    """(docstring, enclosing class or None) of the module, its classes and functions."""
    yield module.__doc__, None
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            yield obj.__doc__, obj
            for attr in vars(obj).values():
                fn = getattr(attr, "__func__", getattr(attr, "fget", attr))
                if inspect.isfunction(fn):
                    yield fn.__doc__, obj
        elif inspect.isfunction(obj):
            yield obj.__doc__, None


def _resolves(name: str, scopes) -> bool:
    """Whether the dotted name is an attribute path from one of the scopes."""
    for scope in scopes:
        target = scope
        for part in name.split("."):
            target = getattr(target, part, None)
        if target is not None:
            return True
    return False


def test_docstring_references_resolve():
    references, stale = 0, []
    for module in _modules():
        for doc, owner in _docstrings(module):
            scopes = [scope for scope in (owner, module, stabilab) if scope is not None]
            for name in ROLE.findall(doc or ""):
                references += 1
                if not _resolves(name, scopes):
                    stale.append(f"{module.__name__}: {name}")
    assert stale == []
    assert references >= 30
