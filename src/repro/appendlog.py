"""Newline-guarded appends to JSON-lines files (stdlib only).

Every JSONL store here — the explorer's result cache, the pin-oracle
store, the fuzz and campaign corpora, the trace export — appends one
record per line, and every loader skips lines that do not parse.  A
crash mid-append leaves a torn last line with no newline; appending
straight after it would weld the next record onto the fragment and
lose both on reload.  :func:`append_line` starts on a fresh line
instead, so only the fragment is sacrificed.
"""

from __future__ import annotations

import os


def ends_mid_line(path: str) -> bool:
    """Whether the file exists, is non-empty, and its last byte is
    not a newline — i.e. the tail is a torn (crash-truncated) line."""
    try:
        with open(path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            if handle.tell() == 0:
                return False
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) != b"\n"
    except OSError:
        return False


def append_line(path: str, line: str, sync: bool = False) -> None:
    """Append ``line`` (no trailing newline) as one ``O_APPEND`` write,
    after a torn tail if there is one; ``sync`` fsyncs it."""
    if ends_mid_line(path):
        line = "\n" + line
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        if sync:
            handle.flush()
            os.fsync(handle.fileno())
