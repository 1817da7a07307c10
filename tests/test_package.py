"""The package's public surface: every export resolves, and only once."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np

import stabilab
import stabilab.cli
import stabilab.datagen


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


def _calls(func, name: str, module: str | None) -> bool:
    """Whether a call's ``func`` names ``name``; with ``module``, as ``module.name``."""
    if module is None:
        return getattr(func, "id", getattr(func, "attr", None)) == name
    owner = getattr(func, "value", None)
    return getattr(func, "attr", None) == name and getattr(owner, "id", None) == module


def _callers(path: Path, name: str, module: str | None = None) -> list:
    """The enclosing function (None at module level) of each call to ``name``,
    or with ``module`` to ``module.name``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _calls(child.func, name, module):
                found.append(owner)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)

    visit(ast.parse(path.read_text()), None)
    return found


def test_the_cli_imports_no_private_name_from_lab():
    # lab owns the report format; the CLI reaches it through public names only.
    tree = ast.parse(Path(stabilab.cli.__file__).read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("lab", "stabilab.lab")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _stray_loss_arithmetic(paths) -> list:
    """Loss arithmetic outside ``losses.py``: a call to a margin helper (bar
    the SGD kernel's slopes), or to NumPy's ``exp`` or ``log1p``, the parts
    of a softplus; and any ``logaddexp`` at all."""
    stray = []
    for path in paths:
        stray += [f"{path.name}: {owner} calls logaddexp" for owner in _callers(path, "logaddexp")]
        if path.name == "losses.py":
            continue
        for name, allowed in (("margin_values", ()), ("margin_slopes", ("_sgd_kernel",))):
            stray += [
                f"{path.name}: {owner} calls {name}"
                for owner in _callers(path, name)
                if owner not in allowed
            ]
        for name in ("exp", "log1p"):
            stray += [f"{path.name}: {owner} calls np.{name}" for owner in _callers(path, name, "np")]
    return stray


def test_loss_arithmetic_goes_through_loss_model():
    # LossModel's batch helpers are the one loss evaluator; the SGD kernel's
    # inline row gradient is the one other caller of the margin slopes. The
    # logistic values and bound are the one softplus: no np.logaddexp at all,
    # and no np.exp or np.log1p to build a second one from.
    assert _stray_loss_arithmetic(sorted(Path(stabilab.__file__).parent.glob("*.py"))) == []


def test_an_inline_softplus_is_stray_loss_arithmetic(tmp_path):
    path = tmp_path / "risk.py"
    path.write_text("import numpy as np\n\n\ndef even_part(m):\n    return 0.5 * m + np.log1p(np.exp(-m))\n")
    assert _stray_loss_arithmetic([path]) == [
        "risk.py: even_part calls np.exp",
        "risk.py: even_part calls np.log1p",
    ]
    # math.exp, as the Pinelis rate calls it, is not a softplus part.
    path.write_text("import math\n\n\ndef rate(t):\n    return 2.0 * math.exp(-t)\n")
    assert _stray_loss_arithmetic([path]) == []


def test_sampling_draws_only_in_the_one_sampler():
    # Every sample's stream is read by the sampler's per-key step (``read``
    # inside ``_sample_stack``) and by the mechanisms' ``draw_raw`` methods.
    path = Path(stabilab.datagen.__file__)
    draws = [
        (owner, name)
        for name in [*dir(np.random.Generator), "random_raw"]
        if not name.startswith("_") and name not in ("bit_generator", "spawn")
        for owner in _callers(path, name)
    ]
    stray = [f"{owner} calls {name}" for owner, name in draws if owner not in ("read", "draw_raw")]
    assert stray == []
    assert {owner for owner, _ in draws} == {"read", "draw_raw"}
