"""Exception hierarchy shared across the toolkit.

The CLI maps these onto process exit codes: bad or inconsistent input data
exits 2, requests that cannot be satisfied (e.g. an unreachable power target)
exit 3, and anything else exits 4. Code that reads or parses a user file
converts the built-in exceptions a faulty file raises (``PARSE_ERRORS``)
into :class:`InputError` on the spot, so the same types raised anywhere else
still exit 4.
"""

import csv

# What reading and parsing a user file can raise when the file is at fault.
PARSE_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError, OverflowError, csv.Error)


class EvaluationError(Exception):
    """Base class for all rareval errors."""


class InputError(EvaluationError):
    """Invalid or inconsistent input: files, rows, flags, or arguments."""


class IngestError(InputError):
    """File ingestion failed; ``problems`` lists per-row messages."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        shown = self.problems[:20]
        suffix = "" if len(self.problems) <= 20 else f" (+{len(self.problems) - 20} more)"
        super().__init__("; ".join(shown) + suffix)


class InfeasibleError(EvaluationError):
    """The request is valid but cannot be satisfied with the given inputs."""
