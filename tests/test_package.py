"""The package namespace: every module's public names, each stated once."""

import inspect

import walkfluct
from walkfluct import contour, errors, fluct, model, oracle, roots

MODULES = (contour, errors, fluct, model, oracle, roots)


def test_package_all_is_the_modules_all():
    names = [n for mod in MODULES for n in mod.__all__]
    assert walkfluct.__all__ == names
    assert len(set(names)) == len(names)


def test_package_names_are_the_modules_objects():
    for mod in MODULES:
        for n in mod.__all__:
            assert getattr(walkfluct, n) is getattr(mod, n), (mod.__name__, n)


def test_errors_all_names_its_classes():
    defined = {n for n, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    assert set(errors.__all__) == defined
    assert len(errors.__all__) == len(defined)


def test_star_import_binds_no_private_name():
    ns: dict = {}
    exec("from walkfluct import *", ns)
    assert not [n for n in ns if n.startswith("_") and n != "__builtins__"]
    assert set(ns) - {"__builtins__"} == set(walkfluct.__all__)
