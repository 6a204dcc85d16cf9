"""Exception types shared across the package."""

from pathlib import Path


class LipSyncError(Exception):
    """Base class for every error this package raises deliberately."""


class LocatedError(LipSyncError):
    """An error at a place in a file: ``path`` plus a byte ``offset`` or a ``line``."""

    def __init__(self, message, path=None, offset=None, line=None):
        self.path = path
        self.offset = offset
        self.line = line
        if path is not None:
            message = f"{path}: {message}"
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)

    @classmethod
    def read_lines(cls, path) -> list[str]:
        """Lines of a UTF-8 text file; bytes that do not decode raise ``cls`` at their line."""
        raw = Path(path).read_bytes()
        try:
            return raw.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise cls(f"not UTF-8 text: {exc.reason}", path=str(path), line=raw.count(b"\n", 0, exc.start) + 1)


class FileFormatError(LocatedError):
    """An input file (WAV, OBJ, landmarks, manifest, LSF1/LSA1/LSN1) breaks its format; exit 2 in the CLI."""


class DataError(LipSyncError):
    """An input parses but cannot be used (a shape, size, codec, count or call order); exit 2 in the CLI."""


class ConfigError(LipSyncError, ValueError):
    """A configuration value is outside its valid range; exit 1 in the CLI."""


class UsageError(LocatedError):
    """Bad command-line invocation, or a --config file that does not parse; exit 1 in the CLI."""
