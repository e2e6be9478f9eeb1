"""Clean discipline fixture: the idioms the models use, and control flow
that keeps the lock held on every path to the write."""

from repro.sanitizer.annotations import atomic_cell, guarded_by, shared_state
from repro.sim.syscalls import Acquire, GuardedWrite, Release, TryAcquire, Write


@shared_state(
    cells={
        "_cells": guarded_by("_locks"),
        "_tops": guarded_by("_locks", lease_guarded=True),
        "_regions": atomic_cell(),
    }
)
class Clean:
    def try_lock_idiom(self, q):
        while True:
            ok = yield TryAcquire(self._locks[q])
            if ok:
                break
        yield GuardedWrite(self._tops[q], 1, self._locks[q])
        yield Release(self._locks[q])

    def sorted_loop(self, queues):
        indices = sorted(set(queues))
        for q in indices:
            yield Acquire(self._locks[q])
        for q in reversed(indices):
            yield Release(self._locks[q])

    def min_max_ordering(self, i, j):
        first, second = min(i, j), max(i, j)
        yield Acquire(self._locks[first])
        yield Acquire(self._locks[second])
        yield Release(self._locks[second])
        yield Release(self._locks[first])

    def atomic_cell_write(self):
        yield Write(self._regions[0], 1)

    def handler_returns(self, v):
        try:
            yield Acquire(self._locks[0])
        except RuntimeError:
            return
        yield Write(self._cells[0], v)
        yield Release(self._locks[0])

    def write_in_every_block_under_lock(self, items, ctx, v):
        yield Acquire(self._locks[0])
        try:
            yield Write(self._cells[0], v)
        except ValueError:
            yield Write(self._cells[0], v)
        else:
            yield Write(self._cells[0], v)
        finally:
            yield Write(self._cells[0], v)
        for item in items:
            if item:
                break
        else:
            yield Write(self._cells[0], v)
        with ctx:
            yield Write(self._cells[0], v)
        yield Release(self._locks[0])
