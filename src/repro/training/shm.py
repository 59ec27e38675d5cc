"""Shared-memory transport for the persistent gradient worker pool.

The data-parallel runtime moves two large arrays per step — the
optimizer's ``flat`` parameters (parent → workers) and one ``grad`` buffer
per worker (workers → parent).  Serialising those over pipes is what made
the original pool *slower* than serial training; this module gives both
sides zero-copy access instead:

* :class:`SharedArray` — a numpy array backed by a named POSIX
  ``multiprocessing.shared_memory`` segment.  The parent creates it before
  forking; children inherit the mapping, so reads and writes on either side
  are immediately visible to the other without any pickling.

* :class:`PoolSharedState` — the pool's fixed layout: one parameter block,
  one gradient block per worker, and a small ``int64`` index block holding
  the step's batch indices (workers materialise rows from their
  fork-inherited dataset, so pipes only ever carry shard *bounds*).

Lifecycle: the creating process owns the segments and must call
:meth:`PoolSharedState.close` (idempotent), which drops the numpy views,
closes the mappings, and **unlinks** the segments so nothing is left behind
in ``/dev/shm`` — even when a worker crashed mid-step.  Forked children
call :meth:`PoolSharedState.release` on exit, which closes their inherited
mappings without unlinking.
"""

from __future__ import annotations

import os
import secrets
from multiprocessing import shared_memory

import numpy as np

#: Prefix of every segment this module creates; recognisable in /dev/shm.
SHM_PREFIX = "repro-grad"


class SharedArray:
    """A numpy array stored in a named shared-memory segment.

    Created (never attached) by the parent process; forked workers inherit
    the open mapping and see ``array`` at the same address semantics.  The
    creator calls :meth:`close` with ``unlink=True``; inheritors call it
    with ``unlink=False``.
    """

    def __init__(self, shape: tuple[int, ...], dtype=np.float64):
        dtype = np.dtype(dtype)
        nbytes = max(int(np.prod(shape)) * dtype.itemsize, 1)
        name = f"{SHM_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
        self._shm = shared_memory.SharedMemory(name=name, create=True,
                                               size=nbytes)
        self.array: np.ndarray | None = np.ndarray(shape, dtype=dtype,
                                                   buffer=self._shm.buf)
        self.array[...] = 0
        self._closed = False

    @property
    def name(self) -> str:
        """The segment name (usable with ``SharedMemory(name=...)``)."""
        return self._shm.name

    def close(self, unlink: bool = True) -> None:
        """Drop the view and mapping; ``unlink`` also removes the segment.

        Idempotent.  The numpy view must be dropped first or the mmap
        refuses to close while buffers are exported.
        """
        if self._closed:
            return
        self._closed = True
        self.array = None
        try:
            self._shm.close()
        except BufferError:  # a caller still holds a view; segment leaks
            pass             # its mapping but unlink below still removes it
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PoolSharedState:
    """Fixed shared-memory layout for one :class:`GradientWorkerPool`.

    ``params`` — the parent's ``optimizer.flat``, copied in once per step.
    ``grads[i]`` — worker *i*'s ``optimizer.grad``, copied in by that
    worker, folded into the parent's ``optimizer.grad``.  ``indices``
    — the step's drawn batch indices: row indices first, triple indices
    after them; control messages carry half-open bounds into this block.
    """

    def __init__(self, param_size: int, num_workers: int,
                 index_capacity: int):
        if param_size < 1:
            raise ValueError("param_size must be >= 1")
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.index_capacity = max(int(index_capacity), 1)
        created: list[SharedArray] = []
        try:
            self.params = SharedArray((param_size,))
            created.append(self.params)
            self.grads: list[SharedArray] = []
            for _ in range(num_workers):
                block = SharedArray((param_size,))
                created.append(block)
                self.grads.append(block)
            self.indices = SharedArray((self.index_capacity,),
                                       dtype=np.int64)
            created.append(self.indices)
        except Exception:
            for block in created:
                block.close(unlink=True)
            raise

    @property
    def segment_names(self) -> list[str]:
        """Names of every live segment (for leak checks in tests)."""
        return [block.name for block in self._blocks()]

    def _blocks(self) -> list[SharedArray]:
        return [self.params, *self.grads, self.indices]

    def close(self) -> None:
        """Creator-side teardown: close and unlink every segment."""
        for block in self._blocks():
            block.close(unlink=True)

    def release(self) -> None:
        """Inheritor-side teardown: close mappings, keep the segments."""
        for block in self._blocks():
            block.close(unlink=False)
