"""Exception types shared across the package, and the parameter domain rules.

Two families only: bad parameters (caller mistakes, CLI exit code 2) and bad
data (unreadable or inconsistent inputs discovered at run time, exit code 1).

Public constructors and entry points check each parameter where they take
it, with one of nine rules; each raises ParameterError naming the parameter.
Six check a scalar and return it (numbers as a plain int or float, numpy
scalars included; a bool is not a number, though Python counts True as 1):
`integer(name, value, low=None)` (at least low when given), `finite` (a
real number, neither NaN nor infinite), `positive`,
`non_negative`, `unit_interval` (finite and in (0, 1]) and
`one_of(name, value, allowed)` (a member of the tuple allowed).
`read_only_by(name, value, rule_name, rule, reader)` checks an optional value
that only one rule choice reads: it is given (not None) exactly when
`rule == reader`. `distinct(name, values)` checks that a grid lists each value
once. `vector(name, values, size_name, length)` returns a float64 copy of a
data vector, which must have shape (length,). Input data must be finite:
`finite_array` raises DataError when an entry is NaN or infinite, and `vector`
applies it to its copy.  The witness and the solver also apply
`finite_array` to what they compute from finite data, so a product that
overflows is a DataError naming that product.
"""

import math
import numbers
import operator

import numpy as np


class ParameterError(ValueError):
    """A parameter is outside its documented domain, or a config key is unknown."""


class CapacityError(ParameterError):
    """Requested problem size exceeds what the index arithmetic supports."""


class DataError(RuntimeError):
    """Input data is unreadable, inconsistent, or violates a stated precondition."""


def integer(name: str, value, low=None) -> int:
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name}: expected an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ParameterError(f"{name} must be at least {low}, got {value}")
    return value


def finite(name: str, value) -> float:
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ParameterError(f"{name}: expected a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


def positive(name: str, value) -> float:
    value = finite(name, value)
    if not value > 0:
        raise ParameterError(f"{name} must be positive, got {value!r}")
    return value


def non_negative(name: str, value) -> float:
    value = finite(name, value)
    if value < 0:
        raise ParameterError(f"{name} must be non-negative, got {value!r}")
    return value


def unit_interval(name: str, value) -> float:
    value = finite(name, value)
    if not 0.0 < value <= 1.0:
        raise ParameterError(f"{name} must lie in (0, 1], got {value!r}")
    return value


def one_of(name: str, value, allowed: tuple):
    if value not in allowed:
        raise ParameterError(f"{name} must be one of {allowed}, got {value!r}")
    return value


def read_only_by(name: str, value, rule_name: str, rule, reader):
    if rule == reader and value is None:
        raise ParameterError(f"{rule_name}={reader!r} requires {name}")
    if rule != reader and value is not None:
        raise ParameterError(f"{name} is read only by {rule_name}={reader!r}, not {rule!r}")
    return value


def distinct(name: str, values) -> None:
    if len(set(values)) != len(values):
        raise ParameterError(f"{name} must not repeat a value, got {values!r}")


def finite_array(name: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise DataError(f"{name} contains non-finite values")


def vector(name: str, values, size_name: str, length: int) -> np.ndarray:
    values = np.array(values, dtype=np.float64)
    if values.shape != (length,):
        raise ParameterError(f"{name} must have length {size_name}={length}")
    finite_array(name, values)
    return values
