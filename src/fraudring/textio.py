"""The text-file toolkit every format shares: new-file writes, line reads, column parsing, first-error reports.

Loaders collect (row, precedence, message) errors while they parse whole
columns, then raise_first reports the earliest as path:line.
"""

from __future__ import annotations

import os
from contextlib import suppress
from itertools import compress, count, islice, repeat
from typing import TextIO

import numpy as np


def open_new(path: str) -> TextIO:
    """path opened for UTF-8 writing as a new file: ext4 flushes a truncated old one on close, a wait per save."""
    with suppress(FileNotFoundError):
        os.unlink(path)
    return open(path, "w", encoding="utf-8")


def read_bytes(path: str, error: type = ValueError) -> bytes:
    """A UTF-8 file's bytes with its line breaks as text mode reads them: "\r\n" and "\r" become "\n".

    A byte that is not UTF-8 raises error naming path:line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as e:
            head = data[:e.start]
            line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            raise error(f"{path}:{line}: byte 0x{data[e.start]:02x} is not UTF-8 ({e.reason})") from None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def read_lines(path: str, error: type = ValueError) -> list[str]:
    """A UTF-8 file's lines, as str.splitlines gives them but split at "\n" only.

    Line breaks are read as text mode reads them; splitlines would also split
    at characters the savers do not escape, such as U+2028. A byte that is
    not UTF-8 raises error naming path:line.
    """
    lines = read_bytes(path, error).decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def check_tsv_id(value: str, what: str) -> str:
    if "\t" in value or "\n" in value or "\r" in value or not value:
        raise ValueError(f"{what} {value!r} must be nonempty and free of tabs/newlines")
    return value


def split_rows(rows: list[str], width: int, what: str) -> tuple[list[list[str]], list[tuple[int, int, str]]]:
    """The rows in width columns, up to the first row with another field count, and that row's error.

    Errors are (row, precedence, message). The rows list is emptied once
    joined, so that the lines and their fields are not held at once.
    """
    counts = list(map(str.count, rows, repeat("\t")))
    errors = []
    if counts.count(width - 1) != len(counts):
        bad = next(i for i, c in enumerate(counts) if c != width - 1)
        errors.append((bad, 0, f"expected {width} {what}, got {counts[bad] + 1}"))
        del rows[bad:]
    joined = "\t".join(rows)
    rows.clear()
    del counts
    fields = joined.split("\t") if joined else []
    del joined
    return [fields[j::width] for j in range(width)], errors


def numbers(texts: list[str], parse: type = int) -> tuple[np.ndarray, int]:
    """The texts as parse (int or float) reads them, up to the first it rejects, and that row (len(texts) if none).

    Floats are float64. Ints are int64 if every text parses within int64, else
    Python ints in an object array.
    """
    dtype = np.int64 if parse is int else np.float64
    try:
        return np.fromiter(map(parse, texts), dtype, len(texts)), len(texts)
    except (ValueError, OverflowError):
        values: list = []
        with suppress(ValueError):
            values.extend(map(parse, texts))
        return np.array(values, dtype=object if parse is int else dtype), len(values)


def real_values(texts: list[str], rows: np.ndarray, what: str, errors: list) -> np.ndarray:
    """The texts as float() reads them; text i lies on row rows[i].

    Adds the first non-numeric text to errors at precedence 3, and the first non-finite one at 4.
    """
    values, bad = numbers(texts, float)
    if bad < len(texts):
        errors.append((int(rows[bad]), 3, f"non-numeric {what} value"))
    if not (finite := np.isfinite(values)).all():
        errors.append((int(rows[np.argmin(finite)]), 4, f"non-finite {what} value"))
    return values


def first_outside(texts: list[str], allowed: tuple[str, ...]) -> int | None:
    """The row of the first text that is none of allowed, or None."""
    if sum(map(texts.count, allowed)) == len(texts):
        return None
    return next(i for i, text in enumerate(texts) if text not in allowed)


def raise_first(path: str, errors: list, error: type, first: int = 0) -> None:
    """Raise the earliest (row, precedence, message) error as error naming path:line.

    Rows count the file's lines that are not blank or whitespace-only, from
    0-based line first on; the file is read again to find the line.
    """
    if errors:
        row, _, message = min(errors)
        line_numbers = compress(count(first + 1), map(str.strip, read_lines(path)[first:]))
        raise error(f"{path}:{next(islice(line_numbers, row, None))}: {message}")
