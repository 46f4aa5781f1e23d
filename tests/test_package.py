import inspect

import pytest

import doubleslit as ds
from doubleslit import analysis, cli, errors, physics, propagation, qubit, reporting

EXPORTING = (analysis, errors, physics, propagation, qubit, reporting)


def test_package_all_is_the_modules_lists():
    expected = [name for module in EXPORTING for name in module.__all__]
    assert ds.__all__ == expected
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_package_names_are_the_modules_objects(module):
    for name in module.__all__:
        assert getattr(ds, name) is getattr(module, name)


@pytest.mark.parametrize("module", (*EXPORTING, cli), ids=lambda m: m.__name__)
def test_module_all_lists_every_public_function_and_class(module):
    def is_code(value):
        return inspect.isfunction(value) or inspect.isclass(value)

    defined = {name for name, value in vars(module).items()
               if not name.startswith("_") and is_code(value)
               and value.__module__ == module.__name__}
    listed = {name for name in module.__all__ if is_code(getattr(module, name))}
    assert listed == defined
