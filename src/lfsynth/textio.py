"""Text-file I/O for the config, controller, state-space and CSV files.

Number rows are written at 17 significant digits, so floats read back bit
for bit.  A file is written to a temporary file that is renamed into place,
or removed when the write fails, so a failed run never leaves a partial
output.  Readers skip blank lines and lines starting with '#'; controller
and state-space files then hold a header line of nonnegative integer counts
and rows of whitespace-separated numbers.  Every ParseError names the file
and, where there is one, the offending line; a file that cannot be opened or
decoded is a ParseError too.
"""

import contextlib
import os

import numpy as np

from .errors import ParseError


def format_row(values, sep=" "):
    """``values`` at 17 significant digits joined by ``sep``; None is empty."""
    return sep.join("" if v is None else f"{v:.17g}" for v in values)


def write_lines(path, lines):
    """Write ``lines`` with Unix newlines via temp-and-rename; on failure the
    temporary file is removed and the error raised."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # absent when the open failed
            os.remove(tmp)
        raise


class DataReader:
    """The data lines of one text file, (line number, stripped text) each."""

    def __init__(self, path):
        self.path = path
        self.lines = []
        try:
            with open(path) as fh:
                for lineno, raw in enumerate(fh, start=1):
                    stripped = raw.strip()
                    if stripped and not stripped.startswith("#"):
                        self.lines.append((lineno, stripped))
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        self._cursor = 0

    def header(self, names, kind):
        """Counts on the first data line, one nonnegative integer per name."""
        if not self.lines:
            raise ParseError(f"{self.path}: empty {kind} file")
        lineno, header = self.lines[0]
        parts = header.split()
        if len(parts) != len(names):
            raise ParseError(
                f"{self.path}:{lineno}: header must be '{' '.join(names)}', "
                f"got {header!r}"
            )
        try:
            counts = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"{self.path}:{lineno}: non-integer header entry") from None
        if min(counts) < 0:
            raise ParseError(f"{self.path}:{lineno}: negative dimension in header")
        self._cursor = 1
        return counts

    def block(self, name, rows, cols, parse=float, dtype=float):
        """The next ``rows`` lines as a (rows, cols) array; an empty block
        occupies no lines."""
        out = np.zeros((rows, cols), dtype=dtype)
        if rows == 0 or cols == 0:
            return out
        for i in range(rows):
            if self._cursor >= len(self.lines):
                raise ParseError(
                    f"{self.path}: truncated file: missing row {i + 1} of the "
                    f"{name} block"
                )
            lineno, line = self.lines[self._cursor]
            self._cursor += 1
            vals = line.split()
            if len(vals) != cols:
                raise ParseError(
                    f"{self.path}:{lineno}: expected {cols} {name} entries, "
                    f"got {len(vals)}"
                )
            try:
                out[i] = [parse(v) for v in vals]
            except ValueError:
                raise ParseError(
                    f"{self.path}:{lineno}: non-numeric {name} entry"
                ) from None
            except OverflowError:
                raise ParseError(
                    f"{self.path}:{lineno}: {name} entry out of range"
                ) from None
        return out

    def finish(self):
        """Reject data lines left over after the last block."""
        if self._cursor < len(self.lines):
            lineno = self.lines[self._cursor][0]
            raise ParseError(f"{self.path}:{lineno}: unexpected trailing data")
