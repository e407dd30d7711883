"""Exception types shared across the package, one per exit code.

``exit_code`` is what the command line interface returns when the error
escapes to the top level: 2 for invalid input (:class:`InvalidParameterError`),
3 for requests beyond a size cap (:class:`ResourceLimitError`; see :data:`LIMITS`),
4 for conditioning on an outcome of probability zero
(:class:`ImpossibleOutcomeError`).
"""

from __future__ import annotations


class PhaseAmpError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class InvalidParameterError(PhaseAmpError, ValueError):
    """Any invalid input: a parameter, a size, a graph or a file."""


class ResourceLimitError(PhaseAmpError):
    """The request exceeds the enumeration or simulation limits."""

    exit_code = 3


# Every size cap, by budget: (cap, unit). Histogram counts are int64, so all
# 2^n assignments of a histogram must fit; its frontier DP keeps a table
# of 8-byte counts (sampling keeps all of them, within the same cap),
# enumeration costs 2^n time, a class table 4 bytes per assignment, a drawn
# sample up to about 200 bytes of arrays, JSON and Python ints, the dense
# oracle 2N amplitudes per record. A measurement record or trajectory keeps
# one entry per outcome. Exact two-peak results stop at Python's default
# limit on the digits of an int printed as a string. A builder graph (line,
# grid, star-ring) keeps about 300 bytes per vertex, counted as R*C for a
# grid, and a uniform histogram about 80 bytes per level (its `hist` report
# about 1 KB); both are checked before anything is built.
LIMITS = {
    "histogram": (62, "vertices"),
    "frontier": (1 << 22, "table entries"),
    "enumeration": (28, "vertices"),
    "class_table": (20, "vertices"),
    "samples": (1_000_000, "draws"),
    "record": (1_000_000, "outcomes"),
    "builder": (1_000_000, "vertices"),
    "uniform": (1_000_000, "levels"),
    "dense_support": (1024, "assignments"),
    "dense_sequence": (8, "outcomes"),
    "exact_digits": (4300, "digits"),
}


def check_limit(budget: str, value: int, task: str) -> None:
    """Refuse ``value`` past the cap of ``budget``; ``task`` names the caller."""
    cap, unit = LIMITS[budget]
    if value > cap:
        raise ResourceLimitError(f"{task} capped at {cap} {unit}, got {value}")


class ImpossibleOutcomeError(PhaseAmpError):
    """A measurement outcome with probability zero was requested."""

    exit_code = 4
