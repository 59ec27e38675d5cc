"""Durable file IO: atomic artifacts, JSON-lines journals, one event schema.

The files the repo keeps for later runs follow two disciplines.

*Atomic replace.*  An artifact kept for later reloading (checkpoints,
vocab files, snapshot metadata) goes through :func:`atomic_writer` or
:func:`atomic_write_bytes` / :func:`atomic_write_text`: write to a temp
file in the destination directory, fsync, rename over the target, fsync
the directory.  Readers then always see either the previous complete
file or the new complete file — never a torn write.  The ``RL004`` lint
rule enforces this discipline.

*Append-only JSON lines.*  A journal (the training run journal, the
promotion journal) and the embedding store's log hold one JSON object
per line.  :func:`open_append` is the only code that opens such a log
for appending, and it first ends a torn last line (a write cut short by
a killed process) with ``\\n``, so a torn fragment costs only itself,
never the record appended after it.  :func:`append_record` writes one
record durably; :func:`read_records` reads the records back and skips
blank, torn and non-object lines.  Every event the repo records — a
training journal entry or a serving metrics event — is built by
:func:`make_event`: ``{"kind", "time", **fields}``.

This module is dependency-free on purpose: low-level packages
(``repro.tokenization``) and the training runtime import it without
dragging in the model or serving stack.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import BinaryIO, Iterator


def find_repo_root(start: Path | None = None) -> Path:
    """Walk up from ``start`` to the directory containing ``pyproject.toml``.

    ``start`` defaults to the working directory, which is also the
    fallback, so ``repro bench`` still runs on a bare source tree.
    """
    cursor = (start or Path.cwd()).resolve()
    for candidate in (cursor, *cursor.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return cursor


# ----------------------------------------------------------------------
# Atomic replace
# ----------------------------------------------------------------------
@contextlib.contextmanager
def atomic_writer(path: str | Path) -> Iterator[BinaryIO]:
    """Yield a binary handle whose bytes replace ``path`` atomically.

    The handle writes a temp file in the destination directory; on clean
    exit the data is fsynced and renamed over ``path`` (a same-filesystem
    :func:`os.replace`), then the directory is fsynced so the rename
    itself survives a power loss.  On any exception the temp file is
    unlinked and the previous complete file survives untouched.  The
    payload streams, so rewriting a multi-gigabyte log costs one record
    of memory.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=f".{path.name}.tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Durably write ``data`` to ``path`` through :func:`atomic_writer`."""
    with atomic_writer(path) as handle:
        handle.write(data)
    return Path(path)


def atomic_write_text(path: str | Path, text: str,
                      encoding: str = "utf-8") -> Path:
    """Text-mode convenience wrapper over :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode(encoding))


# ----------------------------------------------------------------------
# Append-only JSON lines
# ----------------------------------------------------------------------
def open_append(path: str | Path) -> BinaryIO:
    """Open the log at ``path`` for binary appending, torn tail ended.

    A last line with no ``\\n`` is a write cut short by a killed process;
    it is ended first, so the caller's bytes start a line of their own.
    The repair and the caller's writes share this one open, and the
    handle's ``tell()`` is the offset of the caller's first byte.  The
    file is created if missing; its directory must exist.
    """
    handle = open(path, "a+b")
    try:
        if handle.seek(0, os.SEEK_END):
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
    except BaseException:
        handle.close()
        raise
    return handle


def append_record(path: str | Path, record: dict) -> None:
    """Durably append ``record`` as one JSON line to the log at ``path``.

    The line is ``json.dumps(record, ensure_ascii=False, sort_keys=True)``
    and is flushed and fsynced before this returns, through one
    :func:`open_append`, so it survives a crash that follows.  The
    directory is created if missing.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"
    with open_append(path) as handle:
        handle.write(line.encode("utf-8"))
        handle.flush()
        os.fsync(handle.fileno())


def read_records(path: str | Path) -> list[dict]:
    """The JSON objects of the log at ``path``, oldest first.

    A missing file gives ``[]``.  Blank lines, lines that do not decode
    (a torn write) and lines that hold something other than a JSON
    object are skipped.
    """
    try:
        text = Path(path).read_text(encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return []
    records = []
    for line in text.split("\n"):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def make_event(kind: str, **fields) -> dict:
    """One event of the repo's schema: ``{"kind", "time", **fields}``.

    ``time`` is wall-clock seconds (:func:`time.time`).  The training run
    journal and the serving metrics registry both build their events
    here, so a reader of either sees the same keys.
    """
    return {"kind": kind, "time": time.time(), **fields}


__all__ = [
    "append_record",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_writer",
    "find_repo_root",
    "make_event",
    "open_append",
    "read_records",
]
