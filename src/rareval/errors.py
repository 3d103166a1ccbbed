"""Exception hierarchy shared across the toolkit.

The CLI maps these onto process exit codes: bad or inconsistent input data
exits 2, requests that cannot be satisfied (e.g. an unreachable power target)
exit 3, and anything else exits 4. ``provenance.read_file`` turns what a
faulty user file raises into :class:`InputError`; the same built-in types
raised anywhere else still exit 4.
"""


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
