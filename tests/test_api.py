"""The public names and settable values: a new one shows up here as a test diff.

A public name is one listed in a module's ``__all__``; the ``weaktype``
namespace is the union of those lists over the library modules (all but
``cli``).  A settable value is a defaulted parameter of a public function, a
defaulted field of a public dataclass, or an option of a ``weaktype``
subcommand.
"""

import argparse
import dataclasses
import importlib
import inspect
import pkgutil

import weaktype
from weaktype import cli

PUBLIC = [
    "cli.main",
    "families.ConstraintViolation",
    "families.GeneralFamilyParams",
    "families.GeneralStarFamilyParams",
    "families.FSpecParams",
    "families.FStarSpecParams",
    "families.B_SP",
    "families.B_STAR_SP",
    "families.b_min",
    "families.b_max",
    "families.d_min",
    "families.d_max",
    "families.b_star_min",
    "families.b_star_max",
    "families.d_star_min",
    "families.d_star_max",
    "families.build_general",
    "families.build_general_star",
    "families.build_spec",
    "families.build_star_spec",
    "functionals.DenominatorError",
    "functionals.RatioReport",
    "functionals.W",
    "functionals.W_star",
    "functionals.gill_bound",
    "functionals.general_ratio",
    "functionals.general_ratio_star",
    "functionals.oracle_ratio",
    "functionals.asymptotic_restricted",
    "functionals.LOG_32",
    "functionals.LOG_2",
    "operators.Kind",
    "operators.OperatorKind",
    "operators.QuadratureError",
    "operators.SuperlevelResult",
    "operators.lambda_op",
    "operators.lambda_star_op",
    "operators.apply_closed_form",
    "operators.apply_quadrature_oracle",
    "operators.superlevel_measure",
    "operators.eigen_check",
    "operators.eigenvalue",
    "optimize.ConvergenceError",
    "optimize.OptimumRecord",
    "optimize.DualityRecord",
    "optimize.UniformBoundConstants",
    "optimize.UniformBoundRecord",
    "optimize.AuxSupremumRecord",
    "optimize.PushCheckRecord",
    "optimize.UNIFORM_BOUND_CONSTANTS",
    "optimize.maximize_W",
    "optimize.d_opt",
    "optimize.d_star_opt",
    "optimize.duality_map",
    "optimize.maximize_on_curve",
    "optimize.x_infinity",
    "optimize.curve_supremum",
    "optimize.u0",
    "optimize.bound_poly",
    "optimize.bound_134",
    "optimize.push_check",
    "optimize.aux_suprema",
    "piecewise.PowerPiece",
    "piecewise.PiecewisePowerFunction",
    "piecewise.evaluate",
    "piecewise.moment_integral",
    "piecewise.l1_norm",
    "piecewise.dilate",
    "verify.Status",
    "verify.CheckReport",
    "verify.SUITE_NAMES",
    "verify.run_suite",
    "verify.reports_to_json",
]

SETTABLE = [
    "cli.main(argv)",
    "operators.apply_quadrature_oracle(tol)",
    "operators.superlevel_measure(threshold)",
    "operators.superlevel_measure(certify)",
    "verify.reports_to_json(precision)",
    "weaktype table1 --m",
    "weaktype table1 --format",
    "weaktype table1 --out",
    "weaktype table1 --precision",
    "weaktype curves --m",
    "weaktype curves --samples",
    "weaktype curves --format",
    "weaktype curves --out",
    "weaktype curves --precision",
    "weaktype asymptotic --format",
    "weaktype asymptotic --out",
    "weaktype asymptotic --precision",
    "weaktype verify --suites",
    "weaktype verify --seed",
    "weaktype verify --format",
    "weaktype verify --out",
    "weaktype verify --precision",
]


def _public_objects():
    """(module, name, object) for every name in a module's ``__all__``."""
    for info in sorted(pkgutil.iter_modules(weaktype.__path__), key=lambda i: i.name):
        module = importlib.import_module(f"weaktype.{info.name}")
        for name in getattr(module, "__all__", ()):
            yield info.name, name, getattr(module, name)


def _public_defaults():
    found = []
    for module, name, obj in _public_objects():
        if isinstance(obj, type) and dataclasses.is_dataclass(obj):
            found += [
                f"{module}.{name}.{field.name}"
                for field in dataclasses.fields(obj)
                if field.default is not dataclasses.MISSING
                or field.default_factory is not dataclasses.MISSING
            ]
        elif inspect.isfunction(obj):
            found += [
                f"{module}.{name}({param.name})"
                for param in inspect.signature(obj).parameters.values()
                if param.default is not inspect.Parameter.empty
            ]
    return found


def _cli_options():
    parser = cli.build_parser()
    (sub,) = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    return [
        f"weaktype {command} {action.option_strings[0]}"
        for command, subparser in sub.choices.items()
        for action in subparser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    ]


def test_settable_values_are_pinned():
    assert _public_defaults() + _cli_options() == SETTABLE


def test_public_names_are_pinned():
    assert [f"{module}.{name}" for module, name, _ in _public_objects()] == PUBLIC


def test_package_namespace_is_the_library_modules_all():
    library = {name for module, name, _ in _public_objects() if module != "cli"}
    exposed = {
        name for name, obj in vars(weaktype).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert exposed == library
