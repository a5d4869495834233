"""The package's public namespace and its __all__ agree."""

import inspect

import harnack_forge


def test_every_exported_name_resolves():
    missing = [name for name in harnack_forge.__all__ if not hasattr(harnack_forge, name)]
    assert not missing
    assert len(set(harnack_forge.__all__)) == len(harnack_forge.__all__)


def test_every_public_class_and_function_is_exported():
    bound = {
        name for name, obj in vars(harnack_forge).items()
        if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
    }
    assert bound - set(harnack_forge.__all__) == set()
