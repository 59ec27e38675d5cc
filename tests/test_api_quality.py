"""API quality gates: docstrings on every public item, importable __all__."""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [name for _, name, _ in pkgutil.walk_packages(
    repro.__path__, prefix="repro.")
    if "__main__" not in name]  # importing __main__ runs the CLI
SUBPACKAGES = [name for name in MODULES if name.count(".") == 1]


def _public_members(module):
    for name in dir(module):
        if name.startswith("_"):
            continue
        member = getattr(module, name)
        if not (inspect.isclass(member) or inspect.isfunction(member)):
            continue
        # Only require docs for items defined inside this package.
        if getattr(member, "__module__", "").startswith("repro"):
            yield name, member


@pytest.mark.parametrize("module_name", MODULES)
def test_module_importable_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_items_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    undocumented = [name for name, member in _public_members(module)
                    if not inspect.getdoc(member)]
    assert not undocumented, (f"{module_name} has undocumented public items: "
                              f"{undocumented}")


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_all_exports_only_what_the_subpackage_defines(module_name):
    """No re-export shims: a name in ``__all__`` lives in the package."""
    module = importlib.import_module(module_name)
    borrowed = []
    for name in getattr(module, "__all__", []):
        member = getattr(module, name)
        if not (inspect.isclass(member) or inspect.isfunction(member)):
            continue
        owner = getattr(member, "__module__", "")
        if owner != module_name and not owner.startswith(module_name + "."):
            borrowed.append(f"{name} (from {owner})")
    assert not borrowed, f"{module_name} re-exports {borrowed}"


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name)


def test_version_is_semver():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)
