"""Each submodule's ``__all__`` names exactly the public functions and classes it defines.

Every exception class a submodule or ``_text`` defines is a ``ValueError``:
a failure an input causes has one base, which the CLI catches as it is.
"""

import importlib
import inspect

import pytest

import maniflow

SUBMODULES = [name for name in maniflow.__all__ if not name.startswith("_")]


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_lists_public_definitions(name):
    module = importlib.import_module(f"maniflow.{name}")
    defined = {
        key
        for key, value in vars(module).items()
        if not key.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    listed = set(module.__all__)
    assert len(module.__all__) == len(listed), "__all__ repeats a name"
    assert not listed - set(vars(module)), "__all__ names something the module does not define"
    # constants may be listed too; every listed function or class must be defined here
    listed_defs = {key for key in listed if inspect.isfunction(vars(module)[key]) or inspect.isclass(vars(module)[key])}
    assert listed_defs == defined


@pytest.mark.parametrize("name", [*SUBMODULES, "_text"])
def test_exceptions_are_value_errors(name):
    module = importlib.import_module(f"maniflow.{name}")
    errors = {
        key: value
        for key, value in vars(module).items()
        if inspect.isclass(value) and issubclass(value, BaseException) and value.__module__ == module.__name__
    }
    assert {key for key, value in errors.items() if not issubclass(value, ValueError)} == set()
