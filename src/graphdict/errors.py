"""Exception taxonomy for the graphdict package.

Every error raised by this package derives from :class:`GraphDictError`,
so callers can catch one base type at the CLI boundary.
"""


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
