"""Exception types shared across the package.

A caller acts on two outcomes, and the command line maps them to its
exit codes: MalformedInput, an input refused (exit 2), and Exhausted,
nothing found within the given limits (exit 3).  MalformedInput covers
every refusal: a malformed file, parameters that do not fit the
construction, and an ingredient or certificate that fails verification.
Exhausted is ordinary control flow for callers that retry with a larger
field, budget or interval.  An internal inconsistency is a bug and is
raised as AssertionError, never as one of these; no caller relabels it.
"""


class HmolsError(Exception):
    """Base class for all package-specific errors."""


class MalformedInput(HmolsError):
    """An input is refused: wrong shape or range, parameters the
    construction does not support, or a failed verification."""


class Exhausted(HmolsError):
    """Nothing found within the limits.

    For randomized searches this is advisory (retry with a larger budget or
    field); for the complete column-matching backtrack it is a disproof.
    """


class NoPlan(Exhausted):
    """No plan found within the configured depth and width limits."""
