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


class AudioFormatError(LocatedError):
    """Malformed RIFF/WAVE container."""


class UnsupportedAudioError(LipSyncError):
    """Valid container but a codec or sample layout we do not decode."""


class EmptyInputError(LipSyncError):
    """Input carries no usable samples or frames."""


class InsufficientFramesError(LipSyncError):
    """An operation needs more time steps than the input provides."""


class FileFormatError(LocatedError):
    """Binary feature/animation/checkpoint file violates its format."""


class MeshParseError(LocatedError):
    """Wavefront OBJ or landmark sidecar could not be parsed."""


class TopologyError(LipSyncError):
    """Vertex counts of mesh and animation data disagree."""


class ShapeError(LipSyncError):
    """Array dimensions do not match the operation's contract."""


class StateError(LipSyncError):
    """Operation called out of order, e.g. backward without a forward cache."""


class DataError(LipSyncError):
    """Training corpus is empty or internally inconsistent."""


class ConfigError(LipSyncError, ValueError):
    """A configuration value is outside its valid range."""


class UsageError(LocatedError):
    """Bad command-line invocation, or a --config file that does not parse."""
