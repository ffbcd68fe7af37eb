"""Size of the public surface: the knobs of floatlab's functions and methods.

A knob is a parameter with a default in a public function of a floatlab
module or in a public method of one of its classes (``__init__`` and the
other underscored names are not public).
"""

import importlib
import inspect
import pkgutil

import floatlab

#: The knob count that ROADMAP.md's "Quality of design" pillar records;
#: a change that lowers the count lowers both.
KNOB_BUDGET = 23


def public_callables():
    """(qualified name, function) of every public function and method in floatlab."""
    for info in pkgutil.iter_modules(floatlab.__path__):
        module = importlib.import_module(f"floatlab.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # class and static methods
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


def knobs():
    """Qualified name -> names of its defaulted parameters, for those that have any."""
    found = {}
    for name, func in public_callables():
        defaulted = [p.name for p in inspect.signature(func).parameters.values()
                     if p.default is not inspect.Parameter.empty]
        if defaulted:
            found[name] = defaulted
    return found


def test_knob_count_within_budget():
    found = knobs()
    assert sum(map(len, found.values())) <= KNOB_BUDGET, found


def test_count_sees_functions_and_methods():
    names = dict(public_callables())
    # a method, a classmethod, and no private name or imported function
    assert {"dynamics.Stepper.advance", "discretization.State.unflatten"} <= names.keys()
    assert not any(name.split(".")[-1].startswith("_") for name in names)
    assert "lqr.feedback_costs" not in names
    found = knobs()
    assert found["cli.main"] == ["argv"]
    assert found["lqr.care_solve"] == ["method", "tol", "alpha0", "keep_iterates"]
    assert "discretization.default_grid" not in found
