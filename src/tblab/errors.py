"""Exception hierarchy and term budget shared across the library.

Every error raised on purpose derives from TblabError so callers (and the
CLI) can distinguish usage/hypothesis problems from genuine bugs.

An environment variable TBL_MAX_TERMS caps the term budget of every
series operation and Euler-Maclaurin head; term_cap() is its one reader.
within_budget() is the one check of a sum's length against it, made
before the sum allocates; only the sums that clip their length to the cap
(the Bessel and Voronoi kernel series) read term_cap() themselves.
"""

import os

DEFAULT_MAX_TERMS = 10 ** 6


class TblabError(Exception):
    """Base class for all library errors."""


class InvalidModulus(TblabError):
    """Modulus is not a positive integer."""


class PoleError(TblabError):
    """Evaluation requested at a pole of the function."""


class DomainError(TblabError):
    """Argument outside the mathematical domain of the operation."""


class DivergenceError(TblabError):
    """The requested series does not converge for these parameters."""


class ConvergenceError(TblabError):
    """Could not certify the requested tolerance within the term budget."""


class ExcludedParameter(TblabError):
    """Parameter lands on (or too close to) an excluded value, e.g. a
    positive integer where an identity has a removable pole."""


class HypothesisError(TblabError):
    """A structural hypothesis of the selected identity is violated.

    The message names the violated clause verbatim.
    """


class QuadratureError(TblabError):
    """Adaptive quadrature exceeded its subdivision budget."""


def term_cap() -> int:
    """The term budget of every series operation: TBL_MAX_TERMS when set,
    else DEFAULT_MAX_TERMS.  Anything but a positive integer raises
    DomainError."""
    text = os.environ.get("TBL_MAX_TERMS")
    if text is None:
        return DEFAULT_MAX_TERMS
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise DomainError(f"TBL_MAX_TERMS must be a positive integer, got {text!r}")
    return cap


def within_budget(count: float, what: str) -> int:
    """The length count of the sum what as an int, for the caller to allocate;
    past term_cap(), inf and NaN included, ConvergenceError instead."""
    cap = term_cap()
    if not count <= cap:
        raise ConvergenceError(f"{what} needs {count:.3g} terms, over the term budget of {cap}")
    return int(count)
