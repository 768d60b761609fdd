"""Exception types shared across the package, and the one artifact decoder."""

import json


class DomainError(ValueError):
    """Input violates a documented precondition or domain constraint."""


class FormatError(ValueError):
    """Malformed textual or JSON input."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; indicates a bug or corrupted data."""


class PatternContainment(DomainError):
    """A filling contains the forbidden descending pattern.

    ``cell`` is the (column, row) address of the nonzero entry at which the
    violation was detected, when known.
    """

    def __init__(self, message: str, cell=None):
        super().__init__(message)
        self.cell = cell


class ChainBoundExceeded(DomainError):
    """A NE-chain is longer than the permitted bound.

    ``chain`` lists the (column, row, entry) triples of a witnessing chain.
    """

    def __init__(self, message: str, chain=None):
        super().__init__(message)
        self.chain = chain


def decode(source, from_text, from_json, what: str):
    """Read an artifact from its text form or its JSON mirror.

    ``source`` is text, or a JSON object already decoded from text; any
    other value is a FormatError naming ``what``.  Stripped text that starts
    with ``{`` is the JSON mirror and goes to ``from_json``; other text goes
    to ``from_text``.  A KeyError, TypeError or ValueError on
    the way (JSONDecodeError and DomainError among them) becomes a FormatError
    naming ``what``, as does JSON nested too deeply for the decoder; a
    FormatError passes through unchanged.
    """
    try:
        if isinstance(source, dict):
            return from_json(source)
        if not isinstance(source, str):
            kind = type(source).__name__
            raise FormatError(f"bad {what}: expected text or a JSON object, got {kind}")
        text = source.strip()
        if not text.startswith("{"):
            return from_text(text)
        try:
            obj = json.loads(text)
        except RecursionError as exc:  # only the decoder's: a reader's is a bug
            raise FormatError(f"bad {what}: {exc}") from exc
        return from_json(obj)
    except FormatError:
        raise
    except KeyError as exc:
        raise FormatError(f"bad {what}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad {what}: {exc}") from exc
