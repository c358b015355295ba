import importlib

import pytest

import accordion
from conftest import run_fresh


@pytest.mark.parametrize("name", accordion.__all__)
def test_each_public_name_is_its_submodules_object(name):
    value = getattr(accordion, name)
    assert value.__module__.startswith("accordion.")
    assert getattr(importlib.import_module(value.__module__), name) is value
    assert name in dir(accordion)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from accordion import *", namespace)
    assert {name: namespace[name] for name in accordion.__all__} == \
        {name: getattr(accordion, name) for name in accordion.__all__}


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        accordion.no_such_name
    assert not hasattr(accordion, "__path_difference__")
    with pytest.raises(ImportError):
        exec("from accordion import no_such_name", {})


def test_import_loads_no_submodule_until_a_name_is_used():
    code = """if True:
        import sys
        import accordion
        print(*sorted(m for m in sys.modules if m.startswith(("accordion.", "numpy"))))
        accordion.spacing_fourier
        print(*sorted(m for m in sys.modules if m.startswith(("accordion.", "numpy"))))
        accordion.measure_frame
        print("numpy" in sys.modules, "accordion.analysis" in sys.modules)
    """
    assert run_fresh(code).splitlines() == ["", "accordion.geometry", "True True"]
