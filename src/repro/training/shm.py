"""Shared memory for the persistent gradient worker pool.

The data-parallel runtime moves two large arrays per step — the
optimizer's ``flat`` parameters (parent → workers) and one ``grad`` buffer
per worker (workers → parent).  Serialising those over pipes is what made
the original pool *slower* than serial training; here both sides read and
write one shared mapping instead.

:class:`PoolSharedState` lays the pool's blocks out in one anonymous
``mmap.mmap(-1, n)``: the parameter block, one gradient block per worker,
then a small ``int64`` index block holding the step's batch indices
(workers materialise rows from their fork-inherited dataset, so pipes
only ever carry shard *bounds*).  The parent creates it before forking and
the children inherit it, so a write on either side is seen by the other
without any pickling.  The mapping has no name: nothing appears in
``/dev/shm``, nothing needs unlinking, and the memory goes when the last
process mapping it exits, whichever process is killed first.
"""

from __future__ import annotations

import mmap

import numpy as np


class PoolSharedState:
    """The shared layout of one :class:`GradientWorkerPool`.

    ``params`` — the parent's ``optimizer.flat``, copied in once per step.
    ``grads[i]`` — worker *i*'s ``optimizer.grad``, copied in by that
    worker, folded into the parent's ``optimizer.grad``.  ``indices``
    — the step's drawn batch indices: row indices first, triple indices
    after them; control messages carry half-open bounds into this block.
    All three are numpy views of one anonymous mapping, laid out as
    params | grads | indices, and start zeroed.
    """

    def __init__(self, param_size: int, num_workers: int,
                 index_capacity: int):
        if param_size < 1:
            raise ValueError("param_size must be >= 1")
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.index_capacity = max(int(index_capacity), 1)
        floats = param_size * (num_workers + 1)
        # float64 and int64 entries are both 8 bytes wide.
        self._map = mmap.mmap(-1, 8 * (floats + self.index_capacity))
        blocks = np.frombuffer(self._map, dtype=np.float64, count=floats)
        blocks = blocks.reshape(num_workers + 1, param_size)
        self.params = blocks[0]
        self.grads = list(blocks[1:])
        self.indices = np.frombuffer(self._map, dtype=np.int64,
                                     offset=8 * floats)

    def close(self) -> None:
        """Drop the views and the mapping.  Idempotent; never raises.

        A view a caller still holds keeps the mapping alive until that
        view goes; a forked child's mapping goes when the child exits.
        """
        self.params = self.indices = None
        self.grads = []
        if self._map is not None:
            try:
                self._map.close()
            except BufferError:  # a caller still holds a view
                pass
            self._map = None
