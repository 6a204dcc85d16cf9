"""The binary container shared by LSF1, LSA1 and LSN1.

Each file is a 4-byte magic, a little-endian ``struct`` header, then the
payload. ``Format`` owns the header and size checks; the format modules
decide what the header fields mean.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FileFormatError


def check_finite(values: np.ndarray, path, start: int) -> None:
    """Reject a payload holding NaN or inf; ``start`` is its byte offset in the file."""
    finite = np.isfinite(values)
    if not finite.all():
        offset = start + values.itemsize * int(np.flatnonzero(~finite)[0])
        raise FileFormatError("non-finite value in payload", path=str(path), offset=offset)


@dataclass(frozen=True)
class Format:
    magic: bytes
    header: str  # struct format of the fields after the magic

    @property
    def header_size(self) -> int:
        return len(self.magic) + struct.calcsize(self.header)

    def write(self, path, fields, *payload) -> None:
        """Write the magic and header, then each payload buffer in turn."""
        with open(path, "wb") as fh:
            fh.write(self.magic + struct.pack(self.header, *fields))
            for chunk in payload:
                fh.write(chunk)

    def fields(self, head: bytes, path) -> tuple:
        """The header fields of a file that starts with ``head``, after the length and magic checks."""
        if len(head) < self.header_size:
            raise FileFormatError("file too short for header", path=str(path), offset=0)
        if head[: len(self.magic)] != self.magic:
            raise FileFormatError(f"bad magic, expected {self.magic.decode()}", path=str(path), offset=0)
        return struct.unpack_from(self.header, head, len(self.magic))

    def read(self, path) -> tuple[bytes, tuple]:
        """The file's bytes and its header fields, after the length and magic checks."""
        raw = Path(path).read_bytes()
        return raw, self.fields(raw, path)

    def array(self, raw: bytes, path, dtype: str, shape: tuple) -> np.ndarray:
        """The payload after the header as a non-empty, finite array of ``shape``.

        The array is a read-only view of ``raw``, not a copy.
        """
        start = self.header_size
        expected = start + np.dtype(dtype).itemsize * math.prod(shape)
        if len(raw) != expected:
            raise FileFormatError(
                f"payload size mismatch: expected {expected} bytes, found {len(raw)}",
                path=str(path),
                offset=min(len(raw), expected),
            )
        if expected == start:
            raise FileFormatError(f"empty payload, header shape {shape}", path=str(path), offset=start)
        values = np.frombuffer(raw, dtype=dtype, offset=start).reshape(shape)
        check_finite(values, path, start)
        return values
