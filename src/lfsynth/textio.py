"""Text-file I/O shared by the controller, state-space and CLI outputs.

Writers go through a temporary file that is renamed into place, so a failed
run never leaves a partial output.  Readers take a header line of
nonnegative integer counts followed by rows of whitespace-separated numbers;
blank lines and lines starting with '#' are skipped, and every ParseError
names the file and, where there is one, the offending line; a file that
cannot be opened or decoded is a ParseError too.
"""

import os

import numpy as np

from .errors import ParseError


def write_lines(path, lines):
    """Write ``lines`` with Unix newlines via temp-and-rename."""
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


class DataReader:
    """The data lines of one text file, consumed in order."""

    def __init__(self, path):
        self.path = path
        self._lines = []
        try:
            with open(path) as fh:
                for lineno, raw in enumerate(fh, start=1):
                    stripped = raw.strip()
                    if stripped and not stripped.startswith("#"):
                        self._lines.append((lineno, stripped))
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        self._cursor = 0

    def header(self, names, kind):
        """Counts on the first data line, one nonnegative integer per name."""
        if not self._lines:
            raise ParseError(f"{self.path}: empty {kind} file")
        lineno, header = self._lines[0]
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
            if self._cursor >= len(self._lines):
                raise ParseError(
                    f"{self.path}: truncated file: missing row {i + 1} of the "
                    f"{name} block"
                )
            lineno, line = self._lines[self._cursor]
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
        if self._cursor < len(self._lines):
            lineno = self._lines[self._cursor][0]
            raise ParseError(f"{self.path}:{lineno}: unexpected trailing data")
