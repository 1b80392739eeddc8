"""Exception types shared across the workbench."""


class CorpusError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgumentError(CorpusError, ValueError):
    """A caller passed an argument outside the documented domain."""


class NotFoundError(CorpusError, KeyError):
    """An entity id, property key, or artifact is unknown."""

    def __str__(self) -> str:  # KeyError quotes its payload; keep messages readable
        return self.args[0] if self.args else ""


class EmptyProjectError(CorpusError):
    """A corpus, or a project added to one, yielded no cataloged class."""


class LexError(CorpusError):
    """Illegal character or unterminated literal/comment."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at {line}:{col}")
        self.line = line
        self.col = col


class ParseError(CorpusError):
    """Source is outside the supported language subset or malformed."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        pos = f" at {line}:{col}" if line else ""
        super().__init__(f"{message}{pos}")
        self.line = line
        self.col = col


class InputError(CorpusError):
    """Bad input at the pipeline boundary: missing artifacts, malformed CSVs,
    duplicate projects. CLI maps this to exit code 2."""


class MissingArtifactError(InputError):
    """A table to read is not there; `path` names it."""

    def __init__(self, path):
        super().__init__(f"missing artifact: {path}")
        self.path = path
