"""Text files named by path or passed in open, behind one context manager."""

from __future__ import annotations

import contextlib


@contextlib.contextmanager
def text_buffer(path_or_buf, mode: str = "w"):
    """Open a ``str``/``bytes`` path as UTF-8 text and close it on exit; pass a buffer through."""
    if isinstance(path_or_buf, (str, bytes)):
        with open(path_or_buf, mode, encoding="utf-8") as buf:
            yield buf
    else:
        yield path_or_buf
