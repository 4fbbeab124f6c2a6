"""Text files named by path or passed in open, and the one CSV table writer."""

from __future__ import annotations

import contextlib


@contextlib.contextmanager
def text_buffer(path_or_buf):
    """Open a ``str``/``bytes`` path to write UTF-8 text, closed on exit; pass a buffer through."""
    if isinstance(path_or_buf, (str, bytes)):
        with open(path_or_buf, "w", encoding="utf-8") as buf:
            yield buf
    else:
        yield path_or_buf


def write_table(path_or_buf, header: dict, columns, lines) -> None:
    """Write a CSV table: ``# key=value`` header, column row, then the row lines.

    Header values are written as given when they are strings and by ``repr``
    otherwise; an empty header writes no header line.  ``lines`` are the
    formatted rows, each ending in a newline.  The first of them is formed
    before the target is opened, so a table whose first row fails writes
    nothing.
    """
    lines = iter(lines)
    first = next(lines, "")
    with text_buffer(path_or_buf) as buf:
        if header:
            buf.write("# " + " ".join(f"{key}={value if isinstance(value, str) else repr(value)}"
                                      for key, value in header.items()) + "\n")
        buf.write(",".join(columns) + "\n" + first)
        buf.writelines(lines)
