"""Exception taxonomy for the graphdict package.

Every error raised by this package derives from :class:`GraphDictError`,
so callers can catch one base type at the CLI boundary.  A range check is
a (holds, message) rule: :func:`integer_at_least`, :func:`real_where`,
:func:`positive` and :func:`nonnegative` word one, and :func:`check_ranges`
raises the first that does not hold.  A bool is neither an integer nor a
real number to these rules.  :func:`real_array` reads an array of real
numbers from outside the program.
"""

import numbers
import reprlib
from functools import partial
from math import inf

import numpy as np


class GraphDictError(Exception):
    """Base class for all graphdict errors."""


class FormatError(GraphDictError):
    """A dataset directory or checkpoint file is structurally invalid
    (missing files or arrays, node referenced outside any graph,
    inconsistent record counts)."""


class ParseError(GraphDictError):
    """A dataset file contains a token that cannot be parsed."""


class SchemeError(GraphDictError):
    """A featurization scheme is incompatible with the dataset
    (e.g. node-label one-hots requested for an unlabeled dataset)."""


class ConfigError(GraphDictError):
    """A configuration value is out of range or inconsistent
    (e.g. more folds than samples, more dictionary keys than graphs)."""


class ShapeError(GraphDictError):
    """Operands passed to a tensor primitive have incompatible shapes."""


class NumericsError(GraphDictError):
    """A numerical operation produced NaN/Inf or overflowed."""


class OracleError(GraphDictError):
    """A verification oracle could not run soundly
    (e.g. the closure under test is non-deterministic)."""


class SizeError(GraphDictError):
    """A brute-force oracle was asked for a problem size it cannot
    enumerate (e.g. exact OT beyond 6 nodes)."""


class IoError(GraphDictError):
    """A file or directory could not be read or written."""


def check_ranges(rules, error=ConfigError):
    """Raise ``error`` (ConfigError by default) with the message of the
    first (holds, message) rule in ``rules`` that does not hold."""
    for holds, message in rules:
        if not holds:
            raise error(message)


def integer_at_least(low, name, value):
    """The (holds, message) rule that ``value``, called ``name``, is an
    integer >= ``low``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return value >= low, f"{name} must be >= {low}, got {value}"
    return False, f"{name} must be an integer, got {value!r}"


def real_where(holds, must, name, value):
    """The (holds, message) rule that ``value``, called ``name``, is a real
    number for which ``holds`` is true; ``must`` words that range."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return holds(value), f"{name} must {must}, got {value}"
    return False, f"{name} must be a real number, got {value!r}"


# the rules that a value is a finite real number > 0, and >= 0
positive = partial(real_where, lambda v: 0.0 < v < inf, "be finite and > 0")
nonnegative = partial(real_where, lambda v: 0.0 <= v < inf,
                      "be finite and >= 0")


def real_array(values, error, requirement):
    """``values`` as a float64 array, or ``error`` with ``requirement``, the
    caller's wording of what they must be, unless they are real numbers.
    Strings, bytes, objects and complex numbers are refused, not parsed or
    cut to their real part; bools read as 0 and 1."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):     # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "biuf":
        raise error(f"{requirement}, got {reprlib.repr(values)}")
    return arr.astype(np.float64, copy=False)
