"""The public settable values: a new option shows up here as a test diff.

A settable value is a defaulted parameter of a public function, a defaulted
field of a public dataclass (public meaning listed in a module's
``__all__``), or an option of a ``weaktype`` subcommand.
"""

import argparse
import dataclasses
import importlib
import inspect
import pkgutil

import weaktype
from weaktype import cli

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


def _public_defaults():
    found = []
    for info in sorted(pkgutil.iter_modules(weaktype.__path__), key=lambda i: i.name):
        module = importlib.import_module(f"weaktype.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if isinstance(obj, type) and dataclasses.is_dataclass(obj):
                found += [
                    f"{info.name}.{name}.{field.name}"
                    for field in dataclasses.fields(obj)
                    if field.default is not dataclasses.MISSING
                    or field.default_factory is not dataclasses.MISSING
                ]
            elif inspect.isfunction(obj):
                found += [
                    f"{info.name}.{name}({param.name})"
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
