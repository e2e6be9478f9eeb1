"""Call spans around layer functions, installed from outside the program.

The traced benchmark run replaces a layer's public function (a module
attribute or a class attribute) by a wrapper that times each call.  Spans
are not kept one by one: each process keeps, per name, the call count,
the total time, the self time (the span minus the time of wrapped calls
made inside it, because e.g. ``SlotRing.try_push`` calls
``slot_checksum``) and the number of calls that returned ``None`` or
``False`` (an empty ring or a full one).  Shard owners and the loadgen
are forked from the benchmark process; their process targets are
replaced by entry wrappers that start a fresh tracer in the child, install
that role's wrappers, and write the aggregates to a JSON file when the
target returns.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: The real ``time.sleep``; wrappers of ``sleep`` must never wrap a wrapper.
REAL_SLEEP = time.sleep


class Tracer:
    """Per-process span aggregates, one stack per thread."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self._patches: List[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Start over in a fresh process (a fork inherits the parent's numbers)."""
        self.pid = os.getpid()
        self.born_ns = time.perf_counter_ns()
        self._local = threading.local()
        self._threads: List[dict] = []
        self.samples: Dict[str, List[int]] = {}
        self.extra: Dict[str, float] = {}

    def _stats(self) -> tuple:
        local = self._local
        try:
            return local.stack, local.stats
        except AttributeError:
            local.stack, local.stats = [], {}
            self._threads.append(local.stats)
            return local.stack, local.stats

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed under ``name``; ``after(args, kwargs, out)`` sees each result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, stats = self._stats()
            stack.append(0)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner
            if out is None or out is False:
                rec[3] += 1
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def patch(self, owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by its traced wrapper (undone by :meth:`restore`)."""
        original = getattr(owner, attr)
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    def replace(self, owner, attr: str, value) -> None:
        """Replace ``owner.attr`` by ``value`` (undone by :meth:`restore`)."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def sample(self, key: str, value: int) -> None:
        self.samples.setdefault(key, []).append(value)

    def snapshot(self, role: str) -> dict:
        """This process's aggregates, merged over its threads."""
        merged: Dict[str, List[int]] = {}
        for stats in list(self._threads):
            for name, rec in list(stats.items()):
                acc = merged.setdefault(name, [0, 0, 0, 0])
                for i in range(4):
                    acc[i] += rec[i]
        return {
            "role": role,
            "pid": os.getpid(),
            "lifetime_ns": time.perf_counter_ns() - self.born_ns,
            "stats": merged,
            "samples": {k: sorted(v) for k, v in self.samples.items()},
            "extra": dict(self.extra),
        }

    def dump(self, role: str) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"{role}-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot(role)))
        tmp.replace(path)

    def collect(self) -> List[dict]:
        """Every dump written so far, then forget them."""
        out = []
        for path in sorted(self.out_dir.glob("*.json")):
            out.append(json.loads(path.read_text()))
            path.unlink()
        return out


# -- per-role installation ----------------------------------------------------


def _sleep_counter(tracer: Tracer, key: str, thread_name: Optional[str] = None):
    """A ``time.sleep`` that adds its duration to ``tracer.extra[key + '_ns']``."""

    def sleep(seconds):
        if thread_name is not None and threading.current_thread().name != thread_name:
            return REAL_SLEEP(seconds)
        t0 = time.perf_counter_ns()
        try:
            return REAL_SLEEP(seconds)
        finally:
            tracer.extra[key + "_ns"] = tracer.extra.get(key + "_ns", 0) + (
                time.perf_counter_ns() - t0
            )
            tracer.extra[key + "_calls"] = tracer.extra.get(key + "_calls", 0) + 1

    return sleep


def install_owner(tracer: Tracer) -> None:
    """Wrap the shard owner's request path: peek, journal, publish, emit, snapshot."""
    from repro.service import server, shm

    def snapshot_size(args, kwargs, out):
        tracer.extra["snapshot_labels"] = tracer.extra.get("snapshot_labels", 0) + len(
            kwargs["labels"]
        )

    tracer.patch(shm.SlotRing, "try_peek", "SlotRing.try_peek")
    tracer.patch(shm.SlotRing, "advance", "SlotRing.advance")
    tracer.patch(shm.SlotRing, "try_push", "emit.try_push")
    tracer.patch(shm, "slot_checksum", "slot_checksum")
    tracer.patch(shm.JournalRing, "try_append", "JournalRing.try_append")
    tracer.patch(shm, "journal_checksum", "journal_checksum")
    tracer.patch(shm.ShardHeader, "publish", "ShardHeader.publish")
    tracer.patch(shm.ShardSnapshot, "write", "ShardSnapshot.write", after=snapshot_size)
    tracer.patch(server, "recover_shard_state", "recover_shard_state")
    tracer.replace(time, "sleep", _sleep_counter(tracer, "idle"))


def install_loadgen(tracer: Tracer) -> None:
    """Wrap the generator's routing and request push; sample its lateness."""
    from repro.service import server, shm

    def lateness(args, kwargs, out):
        # try_push(self, op, label, clock, t0_ns, t1_ns): t0_ns is the
        # intended send time, so a successful push measures how late it went.
        if out and len(args) > 4 and args[4] > 0:
            tracer.sample("lateness_ns", time.monotonic_ns() - args[4])

    tracer.patch(server.Router, "delete_shard", "Router.delete_shard")
    tracer.patch(server.Router, "insert_shard", "Router.insert_shard")
    tracer.patch(shm.SlotRing, "try_push", "loadgen.try_push", after=lateness)


def install_parent(tracer: Tracer) -> None:
    """Wrap the parent's prefill, collector and post-run audit, and the
    two child process targets."""
    from repro.service import metrics, server, shm

    tracer.patch(server, "_prefill", "prefill")
    tracer.patch(shm.SlotRing, "try_pop", "collector.pop")
    tracer.patch(metrics, "merge_events", "merge_events")
    tracer.patch(metrics, "replay_ranks", "replay_ranks")
    tracer.patch(metrics, "conservation_audit", "conservation_audit")
    tracer.patch(shm.ServiceSegment, "audit", "ServiceSegment.audit")
    tracer.replace(time, "sleep", _sleep_counter(tracer, "collector_sleep", "service-collector"))

    owner_main = server.shard_owner_main
    loadgen_main = server.loadgen_main

    def traced_owner_main(*args, **kwargs):
        child_entry(tracer, "owner", install_owner, owner_main, args, kwargs)

    def traced_loadgen_main(*args, **kwargs):
        child_entry(tracer, "loadgen", install_loadgen, loadgen_main, args, kwargs)

    tracer.replace(server, "shard_owner_main", traced_owner_main)
    tracer.replace(server, "loadgen_main", traced_loadgen_main)


def install_sweep(tracer: Tracer) -> None:
    """Wrap the simulator backends and the exact-law oracle used by a sweep cell."""
    from repro.analysis import exact
    from repro.vector import sweep

    def work(args, kwargs, out):
        # run_*_backend(n, beta, prefill, steps, replicas, ...)
        key = "steps_" + out.backend
        tracer.extra[key] = tracer.extra.get(key, 0) + out.steps * out.replicas

    tracer.patch(sweep, "run_vector_backend", "run_vector_backend", after=work)
    tracer.patch(sweep, "run_reference_backend", "run_reference_backend", after=work)
    tracer.patch(exact, "oracle_row", "oracle_row")


def child_entry(tracer: Tracer, role: str, install, target, args, kwargs) -> None:
    """Run a forked process target under a fresh tracer; dump on the way out."""
    tracer.reset()
    time.sleep = REAL_SLEEP
    install(tracer)
    try:
        target(*args, **kwargs)
    finally:
        tracer.dump(role)
