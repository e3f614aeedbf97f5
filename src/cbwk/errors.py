"""Shared exception types, and the type and range checks every config states its rules with."""

import math
import numbers
from dataclasses import fields
from typing import get_args, get_origin


class ConfigurationError(ValueError):
    """Invalid configuration: bad dimensions, parameter ranges, or config files.

    ``violations`` carries every detected problem, not just the first.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class InfeasibleError(RuntimeError):
    """A linear program (or budget-feasibility question) has no feasible point."""


def raise_if_any(problems: list) -> None:
    """Raise one ConfigurationError listing ``problems``, if there are any."""
    if problems:
        raise ConfigurationError(problems)


def type_violations(config) -> list:
    """``<name> must be an integer`` (``a number``, ``True or False``) for each field of
    the dataclass ``config`` annotated int (float, bool) that holds another type, None
    (unset) aside; a ``tuple[int, ...]`` field is checked item by item.  An int is a
    number; a bool is neither, and nothing else is a bool."""
    problems = []
    for f in fields(config):
        kinds, value = get_args(f.type) or (f.type,), getattr(config, f.name)
        items = value if get_origin(f.type) is tuple else (value,)
        for kind, want, what in ((int, numbers.Integral, "an integer"),
                                 (float, numbers.Real, "a number"), (bool, bool, "True or False")):
            problems += [f"{f.name} must be {what} (got {item!r})" for item in items
                         if kind in kinds and item is not None
                         and (isinstance(item, bool) and kind is not bool
                              or not isinstance(item, want))]
    return problems


def range_violations(values: dict, rules) -> list:
    """``<name> <op> <bound> violated (got <value>)`` for each broken (name, op, bound) rule.

    ``op`` is ">" or ">=".  None (unset) is skipped, NaN breaks every bound,
    and a value that meets its bound must also be finite.
    """
    problems = []
    for name, op, bound in rules:
        value = values[name]
        if value is None:
            continue
        if not (value > bound if op == ">" else value >= bound):
            problems.append(f"{name} {op} {bound} violated (got {value})")
        elif not math.isfinite(value):
            problems.append(f"{name} must be finite (got {value})")
    return problems
