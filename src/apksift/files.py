"""The file boundary: every file apksift reads or writes, sample trees aside.

Files are UTF-8; a leading BOM is dropped on input. CSV is what ``csv`` writes
with LF line ends, read back by ``csv`` over the raw line ends. CSV keeps
undecodable bytes as surrogate escapes (ids compare as written); JSON decodes
strictly. An input must be a regular file. A file that cannot be read, decoded
or written raises the caller's ``ApkSiftError`` subclass, naming the file.
"""

import csv
import io
import os
import stat


def _read(path, what: str, error: type, errors: str) -> str:
    try:  # without O_NONBLOCK a FIFO would block the open until a writer came
        with open(os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0)), "rb") as fh:
            if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                raise OSError("not a regular file")
            return fh.read().decode("utf-8-sig", errors)
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
    """Write ``text`` as UTF-8, line ends as given."""
    try:
        with open(path, "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise error(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_csv(path, header: list, rows, error: type) -> None:
    """Write the ``header`` row, then ``rows``, as CSV with LF line ends."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, out.getvalue(), error)
