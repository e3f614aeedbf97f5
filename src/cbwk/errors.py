"""Shared exception types, and the range check every config states its rules with."""

import math


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
