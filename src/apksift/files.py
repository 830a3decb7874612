"""The file boundary: every file apksift reads or writes, sample trees aside.

Files are UTF-8; a leading BOM is dropped on input. CSV is what ``csv`` writes
with LF line ends and every cell holding a CR or an LF quoted, read back by
``csv`` over the raw line ends. CSV keeps undecodable bytes as surrogate
escapes (ids compare as written); JSON decodes strictly. An input must be a
regular file of at most ``MAX_INPUT_BYTES``; an output must be a regular file
or absent. A file that cannot be read, decoded or written raises the caller's
``ApkSiftError`` subclass, naming the file.
"""

import csv
import errno
import io
import itertools
import os
import stat
from types import SimpleNamespace

#: The largest input file read (a model, catalog, labels or table file).
MAX_INPUT_BYTES = 64 * 1024 * 1024

# Without O_NONBLOCK a FIFO would block the open until the other end came.
_NONBLOCK = getattr(os, "O_NONBLOCK", 0)


def _read(path, what: str, error: type, errors: str) -> str:
    try:
        with open(os.open(path, os.O_RDONLY | _NONBLOCK), "rb") as fh:
            info = os.fstat(fh.fileno())
            if not stat.S_ISREG(info.st_mode):
                raise OSError("not a regular file")
            over_cap = OSError(f"exceeds {MAX_INPUT_BYTES} byte cap")
            if info.st_size > MAX_INPUT_BYTES:
                raise over_cap
            # read(n) allocates n bytes up front: ask for the file's own size + 1,
            # and read on, up to the cap + 1, only if the file grew since fstat.
            data = fh.read(info.st_size + 1)
            if len(data) > info.st_size:
                data += fh.read(MAX_INPUT_BYTES + 1 - len(data))
            if len(data) > MAX_INPUT_BYTES:
                raise over_cap
            return data.decode("utf-8-sig", errors)
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def read_text(path, what: str, error: type) -> str:
    """Text of a JSON input, decoded strictly."""
    return _read(path, what, error, "strict")


def read_rows(path, header: tuple[str, ...], what: str, error: type) -> list[tuple[int, list]]:
    """(line number, cells) of each CSV row after the first, which must begin
    with ``header`` (blanks aside). Rows of no cells or one blank cell are skipped."""
    reader = csv.reader(io.StringIO(_read(path, what, error, "surrogateescape"), newline=""))
    try:
        first = next(reader, None)
        rows = [(reader.line_num, row) for row in reader if len(row) > 1 or row and row[0].strip()]
    except csv.Error as exc:
        raise error(f"cannot read {what} {path}: line {reader.line_num}: {exc}") from exc
    if first is not None and [h.strip() for h in first[:len(header)]] != list(header):
        raise error(f"{what} {path} must start with header {','.join(header)!r}, got {first!r}")
    return rows


def write_text(path, text: str, error: type) -> None:
    """Write ``text`` as UTF-8, line ends as given, over a regular file or a new one."""
    try:  # truncated only once known to be a regular file
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | _NONBLOCK, 0o666)
        with open(fd, "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
            if not stat.S_ISREG(os.fstat(fd).st_mode):
                raise OSError("not a regular file")
            os.ftruncate(fd, 0)
            fh.write(text)
    except OSError as exc:  # ENXIO: a FIFO with no reader, or a socket
        why = "not a regular file" if exc.errno == errno.ENXIO else exc.strerror or exc
        raise error(f"cannot write {path}: {why}") from exc


def write_csv(path, header: list, rows, error: type, tails=None) -> None:
    """Write the ``header`` row, then ``rows``, as CSV with LF line ends.

    ``tails``, if given, holds one string per row, written as is between the
    row's last cell and its line end: further cells that need no quoting,
    each led by its comma.
    """
    # A CRLF terminator makes csv quote every cell holding a CR or an LF. Each
    # row is one write call, whose CRLF becomes an LF.
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    if tails is None:
        text = "\n".join(line[:-2] for line in lines) + "\n"
    else:
        tails = itertools.chain([""], tails)
        text = "".join(f"{line[:-2]}{tail}\n" for line, tail in zip(lines, tails))
    write_text(path, text, error)
