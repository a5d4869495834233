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


def test_all_holds_no_module_and_is_what_a_star_import_binds():
    exported = {name: getattr(harnack_forge, name) for name in harnack_forge.__all__}
    assert [name for name, obj in exported.items() if inspect.ismodule(obj)] == []
    # each exported object is one that a submodule binds under the same name,
    # so nothing the derivation itself binds is exported
    modules = [obj for obj in vars(harnack_forge).values() if inspect.ismodule(obj)]
    assert [
        name for name, obj in exported.items()
        if not any(vars(module).get(name) is obj for module in modules)
    ] == []
    namespace = {}
    exec("from harnack_forge import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == exported.keys()
