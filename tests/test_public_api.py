"""One owner per public name.

Each module's ``__all__`` is the only list of its public names; the
packages ``varsearch`` and ``varsearch.search`` export the union of their
modules' lists and spell out none of them.
"""

import importlib
import inspect
import pkgutil

import varsearch
import varsearch.search


def _leaf_modules():
    names = pkgutil.walk_packages(varsearch.__path__, "varsearch.")
    return [importlib.import_module(name) for _, name, is_package in names if not is_package]


def test_each_public_function_or_class_is_defined_where_it_is_listed():
    for module in _leaf_modules():
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == module.__name__, (module.__name__, name)


def test_no_name_is_listed_by_two_modules():
    owners = {}
    for module in _leaf_modules():
        for name in module.__all__:
            assert owners.setdefault(name, module.__name__) == module.__name__, name


def test_packages_export_their_modules_lists_and_nothing_else():
    owners = {name: module for module in _leaf_modules() for name in module.__all__}
    for package, count in ((varsearch, 81), (varsearch.search, 19)):
        assert len(package.__all__) == len(set(package.__all__)) == count
        for name in package.__all__:
            assert getattr(package, name) is getattr(owners[name], name), name
    namespace = {}
    exec("from varsearch import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(varsearch.__all__)
