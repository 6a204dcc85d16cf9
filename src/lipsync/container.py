"""The binary container shared by LSF1, LSA1 and LSN1.

Each file is a 4-byte magic, a little-endian ``struct`` header, then the
payload. ``Format`` owns the header and size checks, refuses NaN and inf on
both sides, and reads each payload from the file straight into its array;
the format modules decide what the header fields mean.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FileFormatError


def read_into(fh, out: np.ndarray, path, offset: int) -> np.ndarray:
    """``out`` filled from ``fh`` at ``offset``; reads return at most 2 GiB on Linux, so it loops."""
    fh.seek(offset)
    rest = memoryview(out).cast("B")
    while rest:
        n = fh.readinto(rest)
        if not n:  # the file was cut after its size was taken
            raise FileFormatError("truncated tensor payload", path=str(path), offset=offset)
        rest = rest[n:]
    return out


def check_finite(path, regions) -> None:
    """Raise for the NaN or inf that comes first in the file among (byte offset, array) ``regions``."""
    firsts = [start + values.itemsize * int(np.argmin(np.isfinite(values))) for start, values in regions
              if not np.isfinite(values).all()]
    if firsts:
        raise FileFormatError("non-finite value in payload", path=str(path), offset=min(firsts))


@dataclass(frozen=True)
class Format:
    magic: bytes
    header: str  # struct format of the fields after the magic

    @property
    def header_size(self) -> int:
        return len(self.magic) + struct.calcsize(self.header)

    def write(self, path, fields, *payload) -> None:
        """Write the magic and header, then each payload buffer in turn; an array
        chunk holding NaN or inf, which the loader refuses, is refused before the path is touched."""
        if not all(np.isfinite(chunk).all() for chunk in payload if isinstance(chunk, np.ndarray)):
            raise DataError(f"{path}: NaN or inf in the {self.magic.decode()} payload; not written")
        # A regular file is replaced, not truncated: file systems that flush a
        # truncated file on close make rewriting one several times slower.
        # Links, devices and FIFOs are opened as they are.
        with contextlib.suppress(FileNotFoundError):
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.unlink(path)
        with open(path, "wb") as fh:
            fh.write(self.magic + struct.pack(self.header, *fields))
            for chunk in payload:
                fh.write(chunk)

    @contextlib.contextmanager
    def open(self, path):
        """Yield the unbuffered file, its size and its header fields, after the length and magic checks."""
        with open(path, "rb", buffering=0) as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(self.header_size)
            if len(head) < self.header_size:
                raise FileFormatError("file too short for header", path=str(path), offset=0)
            if head[: len(self.magic)] != self.magic:
                raise FileFormatError(f"bad magic, expected {self.magic.decode()}", path=str(path), offset=0)
            yield fh, size, struct.unpack_from(self.header, head, len(self.magic))

    def array(self, fh, size: int, path, shape: tuple) -> np.ndarray:
        """The float32 payload after the header, read into a new non-empty, finite array of ``shape``."""
        start = self.header_size
        expected = start + 4 * math.prod(shape)
        if size != expected:
            message = f"payload size mismatch: expected {expected} bytes, found {size}"
            raise FileFormatError(message, path=str(path), offset=min(size, expected))
        if expected == start:
            raise FileFormatError(f"empty payload, header shape {shape}", path=str(path), offset=start)
        values = read_into(fh, np.empty(shape, dtype="<f4"), path, start)
        check_finite(path, [(start, values)])
        return values
