#!/usr/bin/env python3
"""The repository benchmark: served MultiQueue and simulator sweep.

Run from the repository root::

    python3 perfbench/run.py --workload serve-paced --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``serve-paced``    -- 2 shard owners, one loadgen process, beta=0.5, a
  small heap; each round runs a Poisson open loop at every rate of a
  fixed ladder.
* ``serve-bigheap``  -- the same service over a large prefilled heap; each
  round runs the open loop at the reference rate.
* ``sweep``          -- ``sweep_cells(sweep_cell_compare, ...)`` grids over
  two betas on two worker processes: vector engine, reference process,
  exact-law oracle and orchestrator pool, and no service code.
* ``serve-saturate`` -- closed-throttle runs on both heaps (saturation
  ops/s); not in ``BENCHMARK.json``, see its docstring.
* ``selftest``       -- the must-fail test: serve-paced's rank check, run on
  a single-choice (beta=0) service, must fail.
* ``all``            -- the five above, in one command.

Gated end-to-end metrics (tracing off), the same names on every workload:
``setup_s`` and ``cpu_us_per_op``; :data:`METRIC_MEANING` says what each
is per workload.  Wall-clock figures -- the latency-vs-load ladder, the
highest rate meeting the p99 limit, saturation ops/s, teardown -- swing
by 20-150% between runs on a shared 2-core host, so they are printed and
kept in the ledger but not gated.  ``--trace 1`` makes one traced pass
over all three stacks instead and reports the per-layer metrics (call
counts, self time, share of process lifetime) and the tracing overhead
against untraced twins run in the same process.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when a
correctness check failed and 2 when the tree has no ``src/repro``.
Every run appends a row to ``perfbench/history/ledger.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LEDGER = HERE / "history" / "ledger.jsonl"
SCRATCH = ROOT / ".bench_tmp"

_NS = 1_000_000_000

# -- workload constants --------------------------------------------------------
#
# Rates are absolute, not scaled to the host, so two commits measured on
# one host are compared at the same offered load.  They were chosen on a
# 2-core host whose closed-throttle capacity is 55-75k ops/s with the
# small heap: 10k-30k sits below the knee and 40k near it.  A shared
# 2-core host runs at a speed that swings from one second to the next, so
# each workload repeats short rounds for the run's whole budget and
# reports medians over rounds.

SHARDS = 2
LOADGENS = 1
BETA = 0.5
LADDER = (10_000, 20_000, 30_000, 40_000)
REFERENCE_RATE = 20_000
RUNG_S = 1.0
PACED_PREFILL = 4_096
BIGHEAP_PREFILL = 65_536
BIGHEAP_PACED_S = 2.0
CLOSED_OPS = 90_000
SLO_P99_MS = 5.0
#: Backlog test: last-quarter median latency over the first quarter's,
#: per round; a rung whose median ratio exceeds 1 + this is growing.
BACKLOG_GROWTH = 0.25
#: Achieved rate may fall short of offered by this share before a rung
#: counts as not keeping up.
RATE_SHORTFALL = 0.05
#: The mean rank of the reference rung's deletes, pooled over rounds, may
#: exceed the exact (1+beta) law's mean (2.875 at 2 shards) by this
#: factor.  The served rank is 4.4-8.6 per round (tops read while earlier
#: deletes are still in flight; host stalls add bursts); a single-choice
#: service (beta=0) reads 7.8-43 per round on the same schedule.
RANK_FACTOR = 4.0
MIN_ROUNDS = 3
#: Runs per side of the traced run's overhead comparison.
TWINS = 2

SWEEP_BETAS = (0.5, 1.0)
#: One seed per grid: the two cells start together on the two workers and
#: overlap fully, so every grid sees the same contention.
SWEEP_SEEDS_PER_RUN = 1
SWEEP_FIXED = dict(
    n=256, prefill=16_384, steps=12_000, replicas=64, ref_replicas=2, oracle=True,
    # Bonferroni over ~10^3 cells a benchmark campaign runs, at a
    # family-wise 1e-3: a real parity break gives p-values far below it.
    ks_alpha=1e-6,
)
SWEEP_WORKERS = 2
#: KS distance of the vector ranks from the exact law; measured 0.05-0.06.
ORACLE_KS_MAX = 0.1

#: A run of the benchmark must end well inside three minutes.
BUDGET_S = 165.0

END_TO_END_UNITS = {"setup_s": "s", "cpu_us_per_op": "us"}

METRIC_MEANING = {
    "serve": {
        "setup_s": "call to first intended send: segment, owner spawn, prefill (median over starts)",
        "cpu_us_per_op": "CPU time of every process (parent, owners, loadgen) per completed request "
        "over a round's open-loop runs, set-up and audits included (median over rounds)",
    },
    "sweep": {
        "setup_s": "sweep_cells call to the first cell's start (median over grids)",
        "cpu_us_per_op": "CPU time of parent and pool workers per simulated insert+remove step "
        "(median over grids)",
    },
}


def cpu_seconds() -> float:
    """User+system CPU of this process and of every child it has reaped."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


class RunTimeout(Exception):
    """A measured run overran its hard limit."""


@contextlib.contextmanager
def hard_timeout(seconds: float):
    """Raise :class:`RunTimeout` in the main thread after ``seconds``."""

    def on_alarm(signum, frame):
        raise RunTimeout(f"run exceeded {seconds:.1f}s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(0.01, seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def reap_children() -> None:
    """Kill and wait for every child process still running."""
    for proc in multiprocessing.active_children():
        proc.kill()
    for proc in multiprocessing.active_children():
        proc.join(timeout=10)


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker and wait for it to end.

    The service's segments start ``multiprocessing``'s tracker process,
    which otherwise outlives this process and is left unreaped.  Call only
    after :func:`reap_children`: the tracker ends when every holder of its
    pipe has exited; one still holding it gets the tracker killed after
    ten seconds instead of a hang.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is None or pid is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    deadline = time.monotonic() + 10.0
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)


class Budget:
    """Wall-clock budget of one benchmark process."""

    def __init__(self, total_s: float) -> None:
        self.t0 = time.monotonic()
        self.total_s = total_s

    def left(self) -> float:
        return self.total_s - (time.monotonic() - self.t0)


class Outcome:
    """Checks, attempt and failure counts, and report lines of a workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, float] = {}
        self.units: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: List[tuple] = []
        self.info: Dict[str, dict] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += 1
        return bool(ok)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = float(value)
        self.units[name] = unit

    def say(self, line: str) -> None:
        print(f"[{self.workload}] {line}", flush=True)

    def note(self, name: str, value: float, unit: str, meaning: str = "") -> None:
        """A reported figure that is not gated: printed and kept in the ledger."""
        self.info[name] = {"value": float(value), "unit": unit}
        self.say(f"{name} {value:.6g} {unit}" + (f"  -- {meaning}" if meaning else ""))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks) and self.failed == 0


def median(values) -> float:
    values = [v for v in values if v is not None and math.isfinite(v)]
    return statistics.median(values) if values else float("nan")


# -- the served MultiQueue ---------------------------------------------------


def serve_once(np, spec, beta: float, seed: int, budget: Budget, limit_s: float) -> dict:
    """One ``run_service`` call, timed from outside from its own events.

    ``summarize`` is wrapped only to keep a reference to the collected
    events; nothing is copied inside the timed region.
    """
    from repro.service import metrics as service_metrics
    from repro.service.server import run_service
    from repro.service.shm import EV_DELETE

    captured = {}
    summarize = service_metrics.summarize

    def keep_events(events_by_shard, schedule, *args, **kwargs):
        captured["events"] = events_by_shard
        return summarize(events_by_shard, schedule, *args, **kwargs)

    service_metrics.summarize = keep_events
    limit = min(limit_s, budget.left())
    cpu0 = cpu_seconds()
    t_call = time.monotonic_ns()
    try:
        with hard_timeout(limit):
            res = run_service(
                SHARDS, LOADGENS, spec, beta=beta, gamma=0.0, policy="mq", seed=seed
            )
    except RunTimeout as exc:
        reap_children()
        return {"error": str(exc), "ops_offered": spec.ops}
    finally:
        service_metrics.summarize = summarize
    t_ret = time.monotonic_ns()
    cpu_s = cpu_seconds() - cpu0

    blocks = [
        np.asarray(ev, dtype=np.int64).reshape(len(ev), 5)
        for ev in captured["events"]
        if len(ev)
    ]
    events = np.concatenate(blocks)
    measured = events[events[:, 3] > 0]  # prefill carries t0 == 0
    t0, t1 = measured[:, 3], measured[:, 4]
    first_ns, last_ns = int(t0.min()), int(t1.max())
    deletes = measured[measured[:, 0] == EV_DELETE]
    lat_ms = (deletes[:, 4] - deletes[:, 3]) / 1e6
    rel_s = (deletes[:, 3] - first_ns) / _NS
    active_s = (last_ns - first_ns) / _NS

    span = rel_s.max() if rel_s.size else 0.0
    q1 = lat_ms[rel_s < span / 4]
    q4 = lat_ms[rel_s >= 3 * span / 4]

    torn = res["audit"]["torn"]
    conservation = res["conservation"]
    # The collector thread polls the owners while the main thread joins
    # them, and two threads polling one Process can lose its exit status
    # (exitcode None).  An owner that sent its BYE finished cleanly, so a
    # lost status is counted but not failed.
    lost = [
        s for s, code in enumerate(res["owner_exitcodes"])
        if code is None and res["residual_sizes"][s] is not None
    ]
    bad_exits = sum(
        1 for s, code in enumerate(res["owner_exitcodes"]) if code != 0 and s not in lost
    ) + sum(1 for code in res["loadgen_exitcodes"] if code != 0)
    rank = res["rank"]
    return {
        "setup_s": (first_ns - t_call) / _NS,
        "teardown_s": (t_ret - last_ns) / _NS,
        "cpu_s": cpu_s,
        "active_s": active_s,
        "ops_offered": res["ops_offered"],
        "ops_done": int(measured.shape[0]),
        "offered_ops_s": res["ops_offered"] / res["span_s"] if res["span_s"] > 0 else float("nan"),
        "achieved_ops_s": measured.shape[0] / active_s,
        "delete_p50_ms": float(np.quantile(lat_ms, 0.5)),
        "delete_p99_ms": float(np.quantile(lat_ms, 0.99)),
        "q1_p50_ms": float(np.median(q1)) if q1.size else float("nan"),
        "q4_p50_ms": float(np.median(q4)) if q4.size else float("nan"),
        "growth": float(np.median(q4) / np.median(q1)) if q1.size and q4.size else float("nan"),
        "n_deletes": int(deletes.shape[0]),
        "mean_rank": rank["mean_rank"] if rank else float("nan"),
        "ranks": res["rank_values"],
        "unserved": res["ops_offered"] - res["ops_processed"],
        "empties": res["empties"],
        "torn": torn,
        "conservation_ok": bool(conservation["ok"] and conservation["events_match"]),
        "bad_exits": bad_exits,
        "lost_exit_status": len(lost),
        "exit_codes": res["owner_exitcodes"] + res["loadgen_exitcodes"],
    }


def record_service_run(out: Outcome, run: dict, label: str) -> bool:
    """Count one service run's failures and run its integrity checks."""
    out.attempted += run["ops_offered"]
    if "error" in run:
        out.failed += run["ops_offered"]
        out.check(f"{label}: finished", False, run["error"])
        return False
    out.failed += run["unserved"] + run["empties"] + run["torn"] + run["bad_exits"]
    if run["lost_exit_status"]:
        lost = out.info.setdefault("lost_exit_status", {"value": 0, "unit": "count"})
        lost["value"] += run["lost_exit_status"]
        out.say(f"{label}: exit codes {run['exit_codes']}: owner exit status lost after its BYE")
    ok = out.check(f"{label}: conservation audit exact", run["conservation_ok"])
    ok &= out.check(f"{label}: zero torn slots", run["torn"] == 0, f"torn={run['torn']}")
    ok &= out.check(
        f"{label}: every op served, none empty, clean exits",
        run["unserved"] == 0 and run["empties"] == 0 and run["bad_exits"] == 0,
        f"unserved={run['unserved']} empties={run['empties']} exit codes={run['exit_codes']}",
    )
    return ok


def rank_check(out: Outcome, runs: List[dict], label: str) -> bool:
    """Pooled mean rank of ``runs`` within :data:`RANK_FACTOR` of the exact law."""
    from repro.analysis.exact import ExactRankDistribution

    ranks = [r for run in runs for r in run["ranks"]]
    mean = sum(ranks) / len(ranks) if ranks else float("inf")
    exact = ExactRankDistribution(SHARDS, BETA).mean()
    return out.check(
        f"{label}: mean rank {mean:.2f} <= {RANK_FACTOR:g} x exact {exact:.3f} "
        f"({len(ranks)} sampled deletes)",
        mean <= RANK_FACTOR * exact,
    )


def paced_spec(rate: float, seconds: float, prefill: int, seed: int):
    from repro.service.loadgen import ScheduleSpec

    return ScheduleSpec(
        mode="poisson", ops=max(2, int(rate * seconds)), prefill=prefill, rate=rate,
        seed=seed,
    )


def closed_spec(ops: int, prefill: int, seed: int):
    from repro.service.loadgen import ScheduleSpec

    return ScheduleSpec(mode="poisson", ops=ops, prefill=prefill, rate=0.0, seed=seed)


def limit_for(traffic_s: float, prefill: int) -> float:
    """Hard limit of one service run: traffic, prefill at a slow 20k/s, slack."""
    return traffic_s * 3 + prefill / 20_000 + 30.0


def warm_up(np, seed: int, budget: Budget) -> None:
    """One short discarded run: the first service start in a process is slower."""
    serve_once(np, paced_spec(10_000, 0.5, 1024, seed), BETA, seed, budget, 30.0)


def rounds(seconds: float, budget: Budget, round_fn) -> int:
    """Call ``round_fn(k)`` until the run's seconds are spent (at least
    :data:`MIN_ROUNDS` times) or the budget would not fit another round."""
    t0 = time.monotonic()
    k = 0
    while True:
        t_round = time.monotonic()
        if not round_fn(k):
            return k + 1
        k += 1
        took = time.monotonic() - t_round
        if k >= MIN_ROUNDS and time.monotonic() - t0 + took > seconds:
            return k
        if budget.left() < 2 * took + 10:
            return k


def rate_tag(rate: float) -> str:
    return f"{int(rate) // 1000}k"


def cpu_per_op_us(runs: List[dict]) -> float:
    """CPU microseconds per completed op over ``runs`` (NaN if any failed)."""
    if not runs or any("error" in r for r in runs):
        return float("nan")
    return 1e6 * sum(r["cpu_s"] for r in runs) / sum(r["ops_done"] for r in runs)


def serve_summary(runs: List[dict]) -> Optional[dict]:
    """Medians over the rounds of one rate (or of the closed throttle)."""
    good = [r for r in runs if "error" not in r]
    if not good:
        return None
    keys = ("setup_s", "teardown_s", "offered_ops_s", "achieved_ops_s",
            "delete_p50_ms", "delete_p99_ms", "q1_p50_ms", "q4_p50_ms", "growth", "mean_rank")
    return {k: median(r[k] for r in good) for k in keys} | {"n": len(good)}


def workload_serve_paced(np, seed: int, seconds: float, budget: Budget) -> Outcome:
    out = Outcome("serve-paced")
    warm_up(np, seed, budget)
    by_rate: Dict[float, List[dict]] = {r: [] for r in LADDER}

    def one_round(k: int) -> bool:
        ok = True
        for i, rate in enumerate(LADDER):
            rs = seed * 1000 + 10 * k + i
            run = serve_once(
                np, paced_spec(rate, RUNG_S, PACED_PREFILL, rs), BETA, rs, budget,
                limit_for(RUNG_S, PACED_PREFILL),
            )
            ok &= record_service_run(out, run, f"round {k} {rate_tag(rate)}")
            by_rate[rate].append(run)
        return ok

    n = rounds(seconds, budget, one_round)
    meeting = []
    for rate in LADDER:
        m = serve_summary(by_rate[rate])
        if m is None:
            continue
        keeps_up = m["achieved_ops_s"] >= (1 - RATE_SHORTFALL) * m["offered_ops_s"]
        steady = m["growth"] <= 1 + BACKLOG_GROWTH
        if keeps_up and steady and m["delete_p99_ms"] <= SLO_P99_MS:
            meeting.append(rate)
        t = rate_tag(rate)
        out.say(
            f"rung {t}: offered {m['offered_ops_s']:.0f} achieved {m['achieved_ops_s']:.0f} ops/s | "
            f"first/last-quarter p50 {m['q1_p50_ms']:.3f}/{m['q4_p50_ms']:.3f} ms | "
            f"mean rank {m['mean_rank']:.2f} | {'sustainable' if keeps_up and steady else 'UNSUSTAINABLE'} "
            f"(median of {m['n']} rounds)"
        )
        out.note(f"delete_p50_ms.{t}", m["delete_p50_ms"], "ms")
        out.note(f"delete_p99_ms.{t}", m["delete_p99_ms"], "ms")
        out.note(f"achieved_ops_s.{t}", m["achieved_ops_s"], "ops/s")
    out.note(
        "max_rate_ops_s", max(meeting) if meeting else 0, "ops/s",
        f"highest rung with median p99 <= {SLO_P99_MS:g} ms that keeps up without backlog growth",
    )
    ref_runs = [r for r in by_rate[REFERENCE_RATE] if "error" not in r]
    if ref_runs:
        rank_check(out, ref_runs, rate_tag(REFERENCE_RATE))
    per_round = [cpu_per_op_us([by_rate[rate][k] for rate in LADDER]) for k in range(n)]
    serve_metrics(out, [r for rs in by_rate.values() for r in rs], per_round)
    return out


def serve_metrics(out: Outcome, runs: List[dict], per_round: List[float]) -> None:
    """The gated serve metrics plus shutdown figures, from one run's rounds."""
    starts = [r for r in runs if "error" not in r]
    if not starts:
        return
    out.put("setup_s", median(r["setup_s"] for r in starts), "s")
    out.put("cpu_us_per_op", median(per_round), "us")
    out.note("teardown_s", median(r["teardown_s"] for r in starts), "s",
             "last completion to run_service return (median over starts)")
    out.note("teardown_max_s", max(r["teardown_s"] for r in starts), "s",
             "slowest shutdown of the run")


def workload_serve_bigheap(np, seed: int, seconds: float, budget: Budget) -> Outcome:
    out = Outcome("serve-bigheap")
    warm_up(np, seed, budget)
    runs: List[dict] = []

    def one_round(k: int) -> bool:
        rs = seed * 1000 + 10 * k
        run = serve_once(
            np, paced_spec(REFERENCE_RATE, BIGHEAP_PACED_S, BIGHEAP_PREFILL, rs), BETA,
            rs, budget, limit_for(BIGHEAP_PACED_S, BIGHEAP_PREFILL),
        )
        runs.append(run)
        return record_service_run(out, run, f"round {k} {rate_tag(REFERENCE_RATE)}")

    rounds(seconds, budget, one_round)
    p = serve_summary(runs)
    if p is not None:
        out.say(
            f"open loop {rate_tag(REFERENCE_RATE)}: achieved {p['achieved_ops_s']:.0f} ops/s | "
            f"mean rank {p['mean_rank']:.2f} (not gated: snapshot stalls herd deletes) | "
            f"median of {p['n']} rounds"
        )
        out.note(f"delete_p50_ms.{rate_tag(REFERENCE_RATE)}", p["delete_p50_ms"], "ms")
        out.note(f"delete_p99_ms.{rate_tag(REFERENCE_RATE)}", p["delete_p99_ms"], "ms")
    serve_metrics(out, runs, [cpu_per_op_us([r]) for r in runs])
    return out


def workload_serve_saturate(np, seed: int, seconds: float, budget: Budget) -> Outcome:
    """Closed-throttle runs on both heaps: saturation ops/s, not gated.

    Left out of ``BENCHMARK.json``: on a shared 2-core host some of these
    runs end with a shard owner SIGKILLed by ``ServiceCluster.join`` after
    a 30 s shutdown stall (every op served, audit exact), which fails the
    run, and closed-loop CPU per op spreads 12% between runs.
    """
    out = Outcome("serve-saturate")
    warm_up(np, seed, budget)
    by_heap: Dict[int, List[dict]] = {PACED_PREFILL: [], BIGHEAP_PREFILL: []}

    def one_round(k: int) -> bool:
        ok = True
        for i, prefill in enumerate(by_heap):
            rs = seed * 1000 + 10 * k + i
            run = serve_once(
                np, closed_spec(CLOSED_OPS, prefill, rs), BETA, rs, budget,
                limit_for(CLOSED_OPS / 10_000, prefill),
            )
            by_heap[prefill].append(run)
            ok &= record_service_run(out, run, f"round {k} closed prefill {prefill}")
        return ok

    rounds(seconds, budget, one_round)
    for prefill, runs in by_heap.items():
        m = serve_summary(runs)
        if m is not None:
            out.note(f"ops_s.prefill{prefill}", m["achieved_ops_s"], "ops/s",
                     f"closed throttle, {CLOSED_OPS} ops, median of {m['n']} rounds")
            out.note(f"teardown_max_s.prefill{prefill}",
                     max(r["teardown_s"] for r in runs if "error" not in r), "s")
    return out


# -- the simulator sweep -------------------------------------------------------

#: Set in the traced run; a sweep cell dumps its process's spans through it.
CELL_TRACER = None


def timed_cell(**kwargs) -> dict:
    """``sweep_cell_compare`` with its start, end and CPU time attached.

    The orchestrator pickles this by name into its forked workers.
    """
    from repro.vector import sweep

    tracer = CELL_TRACER
    if tracer is not None and tracer.pid != os.getpid():
        tracer.reset()
    cpu0 = time.process_time()
    start = time.monotonic_ns()
    payload = sweep.sweep_cell_compare(**kwargs)
    end = time.monotonic_ns()
    payload["bench_cpu_s"] = time.process_time() - cpu0
    if tracer is not None:
        tracer.extra["cell_fn_ns"] = tracer.extra.get("cell_fn_ns", 0) + end - start
        tracer.dump("cell")
    payload["bench_start_ns"] = start
    payload["bench_end_ns"] = end
    return payload


def sweep_once(seed: int, budget: Budget, fixed: Optional[dict] = None) -> dict:
    from repro.bench.harness import sweep_cells

    fixed = dict(SWEEP_FIXED if fixed is None else fixed)
    seeds = [SWEEP_SEEDS_PER_RUN * seed + i for i in range(SWEEP_SEEDS_PER_RUN)]
    limit = min(120.0, budget.left())
    cpu0 = time.process_time()
    t_call = time.monotonic_ns()
    try:
        with hard_timeout(limit):
            run = sweep_cells(
                timed_cell, "beta", list(SWEEP_BETAS), seeds, workers=SWEEP_WORKERS,
                on_error="quarantine", cell_timeout=60.0, **fixed,
            )
    except RunTimeout as exc:
        reap_children()
        return {"error": str(exc), "cells": len(SWEEP_BETAS) * len(seeds)}
    t_ret = time.monotonic_ns()
    parent_cpu_s = time.process_time() - cpu0
    payloads = run.payloads()
    ops = 2 * fixed["steps"] * (fixed["replicas"] + fixed["ref_replicas"]) * len(payloads)
    walls = [c["wall_s"] for c in run.manifest.cells]
    return {
        "cells": len(SWEEP_BETAS) * len(seeds),
        "quarantined": len(run.failures),
        "payloads": payloads,
        "sweep_s": (t_ret - t_call) / _NS,
        "setup_s": (min(p["bench_start_ns"] for p in payloads) - t_call) / _NS
        if payloads else float("nan"),
        "teardown_s": (t_ret - max(p["bench_end_ns"] for p in payloads)) / _NS
        if payloads else float("nan"),
        "ops_per_s": ops / ((t_ret - t_call) / _NS),
        "cpu_us_per_op": 1e6 * (parent_cpu_s + sum(p["bench_cpu_s"] for p in payloads)) / ops
        if payloads else float("nan"),
        "cell_walls_s": walls,
        "manifest_cells": run.manifest.cells,
    }


def record_sweep_run(out: Outcome, run: dict, label: str) -> bool:
    out.attempted += run["cells"]
    if "error" in run:
        out.failed += run["cells"]
        return out.check(f"{label}: finished", False, run["error"])
    bad_parity = [p for p in run["payloads"] if not p["parity_ok"]]
    bad_oracle = [
        p for p in run["payloads"]
        if p["oracle_ks"] is None or p["oracle_ks"] > ORACLE_KS_MAX
    ]
    out.failed += run["quarantined"] + len(bad_parity) + len(bad_oracle)
    ok = out.check(f"{label}: no quarantined cell", run["quarantined"] == 0)
    ok &= out.check(
        f"{label}: parity_ok on every cell (KS alpha {SWEEP_FIXED['ks_alpha']:g})",
        not bad_parity,
        f"min p={min(p['ks_p_value'] for p in run['payloads']):.3g}",
    )
    worst = max((p["oracle_ks"] or 0.0) for p in run["payloads"])
    ok &= out.check(
        f"{label}: oracle_ks <= {ORACLE_KS_MAX:g} on every cell", not bad_oracle,
        f"max oracle_ks={worst:.4f}",
    )
    return ok


def workload_sweep(np, seed: int, seconds: float, budget: Budget) -> Outcome:
    out = Outcome("sweep")
    # Discarded warm-up grid: forks the pool once and touches every code path.
    sweep_once(seed, budget, dict(SWEEP_FIXED, prefill=256, steps=200, replicas=4))
    runs = []
    t_start = time.monotonic()
    while True:
        run = sweep_once(seed, budget)
        record_sweep_run(out, run, f"grid {len(runs) + 1}")
        if "error" in run:
            break
        runs.append(run)
        out.say(
            f"grid {len(runs)}: sweep_s {run['sweep_s']:.3f} s | setup {run['setup_s']:.3f} s "
            f"teardown {run['teardown_s']:.3f} s | cells {[round(w, 3) for w in run['cell_walls_s']]}"
        )
        elapsed = time.monotonic() - t_start
        if elapsed + run["sweep_s"] > seconds and len(runs) >= 2:
            break
        if budget.left() < 3 * run["sweep_s"]:
            break
    if runs:
        walls_ms = [1000 * w for r in runs for w in r["cell_walls_s"]]
        out.put("setup_s", median(r["setup_s"] for r in runs), "s")
        out.put("cpu_us_per_op", median(r["cpu_us_per_op"] for r in runs), "us")
        out.note("sweep_s", median(r["sweep_s"] for r in runs), "s", f"median of {len(runs)} grids")
        out.note("ops_s", median(r["ops_per_s"] for r in runs), "ops/s",
                 "simulated inserts+removes per wall second")
        out.note("teardown_s", median(r["teardown_s"] for r in runs), "s",
                 "last cell's end to sweep_cells return")
        out.note("cell_p50_ms", float(np.median(walls_ms)), "ms", "cell wall time")
    return out


# -- must-fail self-test -------------------------------------------------------


def workload_selftest(np, seed: int, seconds: float, budget: Budget) -> Outcome:
    """The serve-paced rank check must trip on a single-choice (beta=0) service.

    Runs the reference rung of every round serve-paced would run with the
    same seed, with beta=0, and applies the same pooled check.
    """
    out = Outcome("selftest")
    runs = []
    for k in range(MIN_ROUNDS + 2):
        rs = seed * 1000 + 10 * k + LADDER.index(REFERENCE_RATE)
        run = serve_once(
            np, paced_spec(REFERENCE_RATE, RUNG_S, PACED_PREFILL, rs), 0.0, rs, budget,
            limit_for(RUNG_S, PACED_PREFILL),
        )
        if record_service_run(out, run, f"beta=0 round {k}"):
            runs.append(run)
    if runs:
        tripped = not rank_check(Outcome("probe"), runs, "beta=0")
        mean = statistics.fmean(r for run in runs for r in run["ranks"])
        out.check(f"rank check trips on beta=0 (pooled mean rank {mean:.2f})", tripped)
        out.say(
            f"beta=0 pooled mean rank {mean:.2f} over {len(runs)} rounds: rank check "
            + ("FAILED, as it must" if tripped else "passed: the gate cannot catch single choice")
        )
    return out


# -- traced run ----------------------------------------------------------------


def _role(dumps: List[dict], role: str) -> tuple:
    """Summed stats and lifetime over every process of ``role``."""
    stats: Dict[str, List[int]] = {}
    extra: Dict[str, float] = {}
    samples: Dict[str, List[int]] = {}
    life = 0
    for d in dumps:
        if d["role"] != role:
            continue
        life += d["lifetime_ns"]
        for name, rec in d["stats"].items():
            acc = stats.setdefault(name, [0, 0, 0, 0])
            for i in range(4):
                acc[i] += rec[i]
        for k, v in d["extra"].items():
            extra[k] = extra.get(k, 0) + v
        for k, v in d["samples"].items():
            samples.setdefault(k, []).extend(v)
    return stats, extra, samples, life


#: Per-op functions: each reports calls, self time per call and share of
#: its process role's lifetime.  (role, traced name)
PER_OP = (
    ("loadgen", "Router.delete_shard"),
    ("loadgen", "Router.insert_shard"),
    ("loadgen", "loadgen.try_push"),
    ("owner", "SlotRing.try_peek"),
    ("owner", "SlotRing.advance"),
    ("owner", "slot_checksum"),
    ("owner", "JournalRing.try_append"),
    ("owner", "journal_checksum"),
    ("owner", "ShardHeader.publish"),
    ("owner", "emit.try_push"),
    ("owner", "ShardSnapshot.write"),
    ("parent", "collector.pop"),
    ("cell", "run_vector_backend"),
    ("cell", "run_reference_backend"),
    ("cell", "oracle_row"),
)


def layer_metrics(out: Outcome, service: List[dict], paced: List[dict], cells: List[dict]) -> None:
    """Per-layer metrics from the traced children's and parent's dumps."""
    roles = {r: _role(service, r) for r in ("loadgen", "owner", "parent")}
    roles["cell"] = _role(cells, "cell")
    for role, name in PER_OP:
        stats, _, _, life = roles[role]
        calls, _total, self_ns, _misses = stats.get(name, [0, 0, 0, 0])
        out.put(f"{name}.calls", calls, "count")
        out.put(f"{name}.self_us", self_ns / calls / 1e3 if calls else 0.0, "us")
        out.put(f"{name}.share", 100.0 * self_ns / life if life else 0.0, "%")

    lstats, _, _, _ = roles["loadgen"]
    out.put("loadgen.push_retries", lstats.get("loadgen.try_push", [0, 0, 0, 0])[3], "count")
    _, _, psamples, _ = _role(paced, "loadgen")
    late = sorted(psamples.get("lateness_ns", [])) or [0]
    out.put("loadgen.lateness_p50_ms", late[len(late) // 2] / 1e6, "ms")
    out.put("loadgen.lateness_p99_ms", late[min(len(late) - 1, int(0.99 * len(late)))] / 1e6, "ms")

    ostats, oextra, _, olife = roles["owner"]
    appended = ostats.get("JournalRing.try_append", [0, 0, 0, 0])
    ops = max(1, appended[0] - appended[3])
    out.put("slot_checksum.per_op", ostats.get("slot_checksum", [0])[0] / ops, "count")
    out.put("publish.per_op", ostats.get("ShardHeader.publish", [0])[0] / ops, "count")
    out.put("emit_retries", ostats.get("emit.try_push", [0, 0, 0, 0])[3], "count")
    writes = ostats.get("ShardSnapshot.write", [0])[0]
    out.put("snapshot.labels", oextra.get("snapshot_labels", 0) / writes if writes else 0.0, "count")
    out.put("owner.busy_share", 100.0 * (1 - oextra.get("idle_ns", 0) / olife) if olife else 0.0, "%")
    _, pextra, _, plife = _role(paced, "owner")
    out.put("paced.owner.busy_share", 100.0 * (1 - pextra.get("idle_ns", 0) / plife) if plife else 0.0, "%")
    boot = ostats.get("recover_shard_state", [0, 0])
    out.put("owner.boot_recover_ms", boot[1] / boot[0] / 1e6 if boot[0] else 0.0, "ms")

    pstats, pextra, _, _ = roles["parent"]
    pre = pstats.get("prefill", [0, 0])
    out.put("prefill_s", pre[1] / pre[0] / 1e9 if pre[0] else 0.0, "s")
    pops = pstats.get("collector.pop", [0, 0, 0, 0])
    wakeups = pextra.get("collector_sleep_calls", 0)
    out.put("collector.events_per_wakeup", (pops[0] - pops[3]) / max(1, wakeups), "count")
    for name in ("merge_events", "replay_ranks", "conservation_audit", "ServiceSegment.audit"):
        rec = pstats.get(name, [0, 0])
        out.put(f"{name}.ms", rec[1] / rec[0] / 1e6 if rec[0] else 0.0, "ms")

    cstats, cextra, _, _ = roles["cell"]
    for backend, name in (("vector", "run_vector_backend"), ("reference", "run_reference_backend")):
        rec = cstats.get(name, [0, 0])
        out.put(f"{name}.steps_per_s", cextra.get(f"steps_{backend}", 0) / (rec[1] / 1e9) if rec[1] else 0.0, "1/s")


def workload_traced(np, seed: int, seconds: float, budget: Budget) -> Outcome:
    """One traced pass over the three stacks, plus untraced twins for overhead."""
    import tracer as tr

    global CELL_TRACER
    out = Outcome("traced")
    trace_dir = SCRATCH / f"trace-{os.getpid()}"
    tracer = tr.Tracer(trace_dir)
    warm_up(np, seed, budget)
    big_s = 0.1 * seconds

    def bigheap_run(label: str, limit_scale: float) -> Optional[dict]:
        run = serve_once(
            np, paced_spec(REFERENCE_RATE, big_s, BIGHEAP_PREFILL, seed * 100 + 1), BETA,
            seed * 100 + 1, budget, limit_for(big_s, BIGHEAP_PREFILL) * limit_scale,
        )
        return run if record_service_run(out, run, label) else None

    # Untraced twins of the traced bigheap and sweep passes; twice each,
    # because one run of either swings by 10% on a shared host.
    untraced_big = []
    untraced_sweep = []
    for k in range(TWINS):
        untraced_big.append(bigheap_run(f"untraced bigheap {k}", 1))
        run = sweep_once(seed, budget)
        if record_sweep_run(out, run, f"untraced grid {k}"):
            untraced_sweep.append(run)

    try:
        tr.install_parent(tracer)
        paced_s = 0.2 * seconds
        paced = serve_once(
            np, paced_spec(REFERENCE_RATE, paced_s, PACED_PREFILL, seed * 100), BETA,
            seed * 100, budget, limit_for(paced_s, PACED_PREFILL) * 2,
        )
        record_service_run(out, paced, "traced paced")
        tracer.dump("parent")
        paced_dumps = tracer.collect()
        tracer.reset()
        traced_big = [bigheap_run(f"traced bigheap {k}", 2) for k in range(TWINS)]
        tracer.dump("parent")
        service_dumps = tracer.collect()
        tracer.restore()

        tr.install_sweep(tracer)
        tracer.reset()
        CELL_TRACER = tracer
        traced_sweep = []
        for k in range(TWINS):
            run = sweep_once(seed, budget)
            if record_sweep_run(out, run, f"traced grid {k}"):
                traced_sweep.append(run)
        cell_dumps = tracer.collect()
    finally:
        CELL_TRACER = None
        tracer.restore()
        shutil.rmtree(trace_dir, ignore_errors=True)

    layer_metrics(out, service_dumps, paced_dumps, cell_dumps)
    if traced_sweep:
        fn_ns = sum(d["extra"].get("cell_fn_ns", 0) for d in cell_dumps)
        cells = [c for run in traced_sweep for c in run["manifest_cells"]]
        out.put(
            "run_cells.overhead_ms_per_cell",
            (sum(c["wall_s"] for c in cells) - fn_ns / 1e9) * 1e3 / len(cells), "ms",
        )
    traced_cpu = median(cpu_per_op_us([r]) for r in traced_big if r)
    untraced_cpu = median(cpu_per_op_us([r]) for r in untraced_big if r)
    if math.isfinite(traced_cpu) and math.isfinite(untraced_cpu):
        out.put("traced.bigheap_cpu_us_per_op", traced_cpu, "us")
        out.put("trace.overhead.bigheap_cpu_pct", 100.0 * (traced_cpu / untraced_cpu - 1), "%")
    if traced_sweep and untraced_sweep:
        out.put(
            "trace.overhead.sweep_pct",
            100.0 * (median(r["sweep_s"] for r in traced_sweep)
                     / median(r["sweep_s"] for r in untraced_sweep) - 1),
            "%",
        )
    for name in sorted(out.metrics):
        out.say(f"{name} {out.metrics[name]:.6g} {out.units[name]}")
    return out


# -- ledger ------------------------------------------------------------------


def host_fingerprint(np) -> dict:
    cpu = platform.processor() or ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
    }


def src_lines() -> int:
    return sum(
        sum(1 for _ in path.open(encoding="utf-8", errors="replace"))
        for path in sorted(SRC.rglob("*.py"))
    )


def append_ledger(np, args, out: Outcome) -> None:
    row = {
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(np),
        "src_lines": src_lines(),
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": out.units[k]} for k, v in out.metrics.items()},
        "reported": out.info,
    }
    LEDGER.parent.mkdir(parents=True, exist_ok=True)
    with LEDGER.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")


# -- main --------------------------------------------------------------------

WORKLOADS = {
    "serve-paced": workload_serve_paced,
    "serve-bigheap": workload_serve_bigheap,
    "sweep": workload_sweep,
    "serve-saturate": workload_serve_saturate,
    "selftest": workload_selftest,
}


#: The workloads ``BENCHMARK.json`` lists: each reports every end-to-end metric.
GATED = ("serve-paced", "serve-bigheap", "sweep")


def report_end_to_end(out: Outcome) -> None:
    """Print the gated metrics by name and unit; a missing one fails the run."""
    missing = [m for m in END_TO_END_UNITS if m not in out.metrics]
    out.check("every end-to-end metric measured", not missing, f"missing={missing}")
    kind = "sweep" if out.workload == "sweep" else "serve"
    for name, unit in END_TO_END_UNITS.items():
        if name in out.metrics:
            out.say(f"{name} {out.metrics[name]:.6g} {unit}  -- {METRIC_MEANING[kind][name]}")


def combine(outcomes: List[Outcome], name: str) -> Outcome:
    total = Outcome(name)
    for o in outcomes:
        total.attempted += o.attempted
        total.failed += o.failed
        total.checks.extend((f"{o.workload}: {c}", ok, d) for c, ok, d in o.checks)
        for k, v in o.metrics.items():
            total.put(f"{o.workload}.{k}", v, o.units[k])
        for k, v in o.info.items():
            total.info[f"{o.workload}.{k}"] = v
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    budget = Budget(BUDGET_S if args.workload != "all" else 10 * BUDGET_S)
    SCRATCH.mkdir(exist_ok=True)
    try:
        if args.trace:
            out = workload_traced(np, args.seed, args.seconds, budget)
        else:
            names = list(WORKLOADS) if args.workload == "all" else [args.workload]
            outs = []
            for name in names:
                outs.append(WORKLOADS[name](np, args.seed, args.seconds, budget))
                if name in GATED:
                    report_end_to_end(outs[-1])
            out = outs[0] if len(outs) == 1 else combine(outs, "all")
    finally:
        reap_children()
        stop_resource_tracker()
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()

    for name, ok, detail in out.checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    append_ledger(np, args, out)
    result = {
        "correct": out.correct,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {
            k: {"value": v, "unit": out.units[k]}
            for k, v in out.metrics.items()
            if math.isfinite(v)
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
