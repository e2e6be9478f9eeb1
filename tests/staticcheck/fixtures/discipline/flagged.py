"""Must-flag discipline fixture: every line marked ``# flag: RULE`` must
be reported with exactly that rule, and no other line may be.

The second half covers control flow the path scan must follow into:
``except`` handlers, ``try``/``for``/``while`` ``else`` blocks, ``with``
bodies and annotated assignments.
"""

from repro.sanitizer.annotations import guarded_by, shared_state
from repro.sim.syscalls import Acquire, GuardedWrite, Release, Write


@shared_state(
    cells={
        "_cells": guarded_by("_locks"),
        "_tops": guarded_by("_locks", lease_guarded=True),
    }
)
class Flagged:
    def unguarded_write(self):
        yield Write(self._cells[0], 1)  # flag: SAN101

    def wrong_guard_named(self):
        yield Acquire(self._other[0])
        yield GuardedWrite(self._cells[0], 1, self._other[0])  # flag: SAN101
        yield Release(self._other[0])

    def plain_write_to_lease_guarded(self):
        yield Acquire(self._locks[0])
        yield Write(self._tops[0], 1)  # flag: SAN102
        yield Release(self._locks[0])

    def unordered_acquires(self, i, j):  # flag: SAN103
        yield Acquire(self._locks[i])
        yield Acquire(self._locks[j])

    def unsorted_loop(self, queues):
        for q in queues:
            yield Acquire(self._locks[q])  # flag: SAN103

    def raw_mutation(self):
        self._tops[0].value = 1  # flag: SAN104

    # -- control flow ------------------------------------------------------

    def in_except_handler(self, v):
        try:
            v = int(v)
        except ValueError:
            yield Write(self._cells[0], v)  # flag: SAN101

    def in_try_else(self, v):
        try:
            v = int(v)
        except ValueError:
            return
        else:
            yield Write(self._cells[0], v)  # flag: SAN101

    def handler_falls_through(self, v):
        try:
            yield Acquire(self._locks[0])
        except RuntimeError:
            pass
        yield Write(self._cells[0], v)  # flag: SAN101
        yield Release(self._locks[0])

    def in_for_else(self, items, v):
        for item in items:
            if item:
                break
        else:
            yield Write(self._cells[0], v)  # flag: SAN101

    def in_while_else(self, n, v):
        while n:
            n -= 1
        else:
            yield Write(self._cells[0], v)  # flag: SAN101

    def in_with_branch(self, ctx, flag, v):
        with ctx:
            if flag:
                yield Acquire(self._locks[0])
            else:
                yield Write(self._cells[0], v)  # flag: SAN101

    def raw_mutation_in_with(self, ctx):
        with ctx:
            self._cells[0].value = 1  # flag: SAN104

    def annotated_raw_mutation(self):
        self._cells[0].value: int = 5  # flag: SAN104
