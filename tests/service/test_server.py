"""Router policies, shard-owner loop, and small end-to-end service runs."""

import os
import threading
import time

import pytest

from repro.service import metrics as service_metrics
from repro.service.loadgen import ScheduleSpec
from repro.service.metrics import merge_events, replay_ranks, summarize
from repro.service.server import (
    ROUTE_BLOCK,
    Router,
    ServiceCluster,
    _prefill,
    _stop_owners,
    recover_shard_state,
    run_service,
    run_shard_owner,
)
from repro.service.shm import (
    EV_BYE,
    EV_DELETE,
    EV_EMPTY,
    EV_INSERT,
    OP_DELETE,
    OP_INSERT,
    OP_STOP,
    ServiceSegment,
    TOP_EMPTY,
)


@pytest.fixture
def segment():
    seg = ServiceSegment.create(shards=3, lanes=2, req_capacity=64, ev_capacity=256)
    yield seg
    seg.close()
    seg.unlink()


class TestRouter:
    def test_single_policy_pins_first_alive(self, segment):
        router = Router(segment, beta=1.0, policy="single", rng=0)
        assert {router.insert_shard() for _ in range(10)} == {0}
        router.mark_dead(0)
        assert {router.delete_shard() for _ in range(10)} == {1}

    def test_rr_policy_cycles(self, segment):
        router = Router(segment, beta=0.0, policy="rr", rng=0)
        assert [router.insert_shard() for _ in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_mq_two_choice_prefers_smaller_top(self, segment):
        segment.header(0).publish(top=100, size=5, heartbeat_ns=1)
        segment.header(1).publish(top=5, size=5, heartbeat_ns=1)
        segment.header(2).publish(top=50, size=5, heartbeat_ns=1)
        router = Router(segment, beta=1.0, policy="mq", rng=0)
        picks = [router.delete_shard() for _ in range(200)]
        # Shard 1 holds the smallest top: it wins every probe pair it
        # appears in, i.e. 1 - (2/3)^2 = 5/9 of deletes in expectation.
        assert picks.count(1) > picks.count(0)
        assert picks.count(1) > picks.count(2)

    def test_mq_beta_zero_is_uniform_single_choice(self, segment):
        segment.header(0).publish(top=1, size=5, heartbeat_ns=1)  # best top
        router = Router(segment, beta=0.0, policy="mq", rng=1)
        picks = [router.delete_shard() for _ in range(300)]
        # One-choice never compares tops, so the best shard gets ~1/3.
        assert 50 < picks.count(0) < 150

    def test_empty_top_loses_two_choice(self, segment):
        segment.header(0).publish(top=TOP_EMPTY, size=0, heartbeat_ns=1)
        segment.header(1).publish(top=7, size=1, heartbeat_ns=1)
        segment.header(2).publish(top=TOP_EMPTY, size=0, heartbeat_ns=1)
        router = Router(segment, beta=1.0, policy="mq", rng=2)
        picks = [router.delete_shard() for _ in range(100)]
        assert picks.count(1) > 50

    def test_gamma_biases_inserts(self, segment):
        router = Router(segment, beta=0.5, gamma=0.8, policy="mq", rng=3)
        picks = [router.insert_shard() for _ in range(600)]
        # two-point bias: shard 0 cold, shard 2 hot.
        assert picks.count(2) > picks.count(0)

    def test_all_dead_raises(self, segment):
        router = Router(segment, beta=0.5, rng=0)
        router.mark_dead(0)
        router.mark_dead(1)
        with pytest.raises(RuntimeError, match="every shard is dead"):
            router.mark_dead(2)

    @pytest.mark.parametrize(
        "policy,gamma", [("mq", 0.0), ("mq", 0.6), ("single", 0.0), ("rr", 0.0)]
    )
    @pytest.mark.parametrize("dead", [None, 1])
    def test_insert_shards_equals_scalar_draws(self, segment, policy, gamma, dead):
        block = Router(segment, beta=0.5, gamma=gamma, policy=policy, rng=7)
        scalar = Router(segment, beta=0.5, gamma=gamma, policy=policy, rng=7)
        for router in (block, scalar):
            router.insert_shard()  # start mid-stream: rr cursor off zero
            if dead is not None:
                router.mark_dead(dead)
        picks = block.insert_shards(500)
        assert picks.tolist() == [scalar.insert_shard() for _ in range(500)]
        assert dead not in set(picks.tolist())
        # Same generator state and cursor afterwards: the next draws agree.
        assert block._rng.bit_generator.state == scalar._rng.bit_generator.state
        assert [block.delete_shard() for _ in range(50)] == [
            scalar.delete_shard() for _ in range(50)
        ]
        assert [block.insert_shard() for _ in range(50)] == [
            scalar.insert_shard() for _ in range(50)
        ]

    @pytest.mark.parametrize("gamma", [0.0, 0.6])
    def test_insert_shards_across_block_boundaries(self, segment, gamma):
        block = Router(segment, beta=0.5, gamma=gamma, rng=9)
        scalar = Router(segment, beta=0.5, gamma=gamma, rng=9)
        # 1 + 255 ends a block exactly; the next counts start on a boundary.
        for count in (1, 255, ROUTE_BLOCK, 257, 3 * ROUTE_BLOCK + 5, 1000):
            picks = block.insert_shards(count)
            assert picks.tolist() == [scalar.insert_shard() for _ in range(count)]
            assert block._rng.bit_generator.state == scalar._rng.bit_generator.state
        assert [block.delete_shard() for _ in range(300)] == [
            scalar.delete_shard() for _ in range(300)
        ]

    def test_insert_shards_of_nothing_draws_nothing(self, segment):
        block = Router(segment, beta=0.5, rng=3)
        assert block.insert_shards(0).tolist() == []
        assert block._rng.bit_generator.state == Router(
            segment, beta=0.5, rng=3
        )._rng.bit_generator.state

    def test_unknown_policy_rejected(self, segment):
        with pytest.raises(ValueError, match="unknown policy"):
            Router(segment, beta=0.5, policy="lifo", rng=0)

    def test_beta_mixes_one_and_two_choices_in_the_paper_proportion(self, segment):
        """The best of 3 shards wins a delete with probability
        (1 - beta) / 3 + beta * 5/9: one probe hits it 1/3 of the time, a
        pair contains it 5/9 of the time.  At beta = 0.5 that is 0.444; a
        router that ignores beta reads 0.556 (always two) or 0.333 (never
        two), both outside the +-0.02 band (5.7 standard errors here)."""
        segment.header(0).publish(top=100, size=5, heartbeat_ns=1)
        segment.header(1).publish(top=5, size=5, heartbeat_ns=1)
        segment.header(2).publish(top=50, size=5, heartbeat_ns=1)
        router = Router(segment, beta=0.5, policy="mq", rng=11)
        picks = [router.delete_shard() for _ in range(20_000)]
        want = (1 - 0.5) / 3 + 0.5 * 5 / 9
        assert abs(picks.count(1) / len(picks) - want) <= 0.02

    @pytest.mark.parametrize("gamma", [0.0, 0.6])
    def test_mark_dead_and_alive_apply_to_the_next_pick(self, segment, gamma):
        """Liveness changes take effect at once, though uniforms are drawn
        ahead in blocks: they are mapped onto the alive shards when used."""
        router = Router(segment, beta=0.5, gamma=gamma, policy="mq", rng=4)
        router.delete_shard()  # a block is buffered from here on
        assert router._next < ROUTE_BLOCK
        router.mark_dead(2)
        picks = [router.delete_shard() for _ in range(500)]
        picks += [router.insert_shard() for _ in range(500)]
        assert 2 not in picks and {0, 1} <= set(picks)
        router.mark_alive(2)
        picks = [router.insert_shard() for _ in range(100)]
        assert 2 in picks


class TestShardOwner:
    def _run_owner(self, segment, shard):
        thread = threading.Thread(
            target=run_shard_owner, args=(segment.name, shard, 0.0002), daemon=True
        )
        thread.start()
        return thread

    def test_owner_serves_heap_order_and_stops(self, segment):
        thread = self._run_owner(segment, 0)
        lane0 = segment.request_ring(0, 0)
        lane1 = segment.request_ring(0, 1)
        for label in (30, 10, 20):
            assert lane0.try_push(OP_INSERT, label, 1, 0, 0)
        for _ in range(3):
            assert lane1.try_push(OP_DELETE, -1, 2, 0, 0)
        assert lane1.try_push(OP_DELETE, -1, 3, 0, 0)  # heap now empty
        lane0.try_push(OP_STOP, 0, 4, 0, 0)
        lane1.try_push(OP_STOP, 0, 4, 0, 0)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        events = []
        ring = segment.event_ring(0)
        while (ev := ring.try_pop()) is not None:
            events.append(ev)
        kinds = [e[0] for e in events]
        assert kinds == [EV_INSERT] * 3 + [EV_DELETE] * 3 + [EV_EMPTY, EV_BYE]
        assert [e[1] for e in events[3:6]] == [10, 20, 30]  # min-heap order
        clocks = [e[2] for e in events]
        assert clocks == sorted(clocks) and len(set(clocks)) == len(clocks)

    def test_owner_publishes_header(self, segment):
        thread = self._run_owner(segment, 1)
        # One producer view per lane: a second view of the same lane would
        # restart at position 0 and find its slot already recycled.
        lanes = [segment.request_ring(1, lane) for lane in range(segment.lanes)]
        lanes[0].try_push(OP_INSERT, 77, 1, 0, 0)
        deadline = threading.Event()
        for _ in range(5000):
            epoch, top, size, heartbeat = segment.header(1).read()
            if size == 1 and top == 77:
                break
            deadline.wait(0.001)
        assert (top, size) == (77, 1)
        assert epoch == 1  # first owner generation
        assert heartbeat > 0
        for lane in lanes:
            assert lane.try_push(OP_STOP, 0, 9, 0, 0)
        thread.join(timeout=10.0)
        assert not thread.is_alive()


class TestServiceCluster:
    def test_alive_never_reaps_so_join_keeps_the_exit_status(
        self, segment, monkeypatch
    ):
        """``alive()`` runs on the collector thread while the main thread
        joins the owners: it must not wait on them (``is_alive()`` calls
        ``waitpid``), or a join can lose an owner's exit status."""
        cluster = ServiceCluster(segment)
        cluster.start()
        try:
            for lane in range(segment.lanes - 1):  # _stop_owners sends the last
                for s in range(segment.shards):
                    assert segment.request_ring(s, lane).try_push(OP_STOP, 0, 1, 0, 0)
            _stop_owners(segment)

            def no_reaping(*args):
                raise AssertionError("alive() waited on a child")

            with monkeypatch.context() as patched:
                patched.setattr(os, "waitpid", no_reaping)
                deadline = time.monotonic() + 30.0
                while any(cluster.alive()) and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert cluster.alive() == [False] * segment.shards
            assert cluster.join(timeout_s=30.0) == [0] * segment.shards
        finally:
            for proc in cluster.processes:
                if proc.is_alive():
                    proc.kill()
                    proc.join()


class TestMetricsPieces:
    def test_merge_orders_by_clock_then_shard(self):
        by_shard = [
            [(EV_INSERT, 1, 5, 0, 0), (EV_DELETE, 1, 9, 0, 0)],
            [(EV_INSERT, 2, 5, 0, 0), (EV_INSERT, 3, 7, 0, 0)],
        ]
        merged = merge_events(by_shard)
        assert [(r[3], r[0]) for r in merged] == [(5, 0), (5, 1), (7, 1), (9, 0)]

    def test_replay_ranks_scores_global_rank(self):
        # Shard 0 holds {10}, shard 1 holds {5}; deleting 10 while 5 is
        # present costs rank 2, then deleting 5 costs rank 1.
        by_shard = [
            [(EV_INSERT, 10, 1, 0, 0), (EV_DELETE, 10, 4, 0, 0)],
            [(EV_INSERT, 5, 2, 0, 0), (EV_DELETE, 5, 6, 0, 0)],
        ]
        ranks = replay_ranks(merge_events(by_shard), label_universe=11, sample_every=1)
        assert ranks.tolist() == [2, 1]

    def test_summarize_counts_and_filters_prefill_latency(self):
        spec = ScheduleSpec(mode="poisson", ops=2, prefill=1, rate=0.0, seed=0)
        schedule = spec.build()
        pre = int(schedule.prefill_labels[0])
        ins = int(schedule.insert_labels[0])
        by_shard = [[
            (EV_INSERT, pre, 1, 0, 500),  # prefill: t0 == 0, excluded
            (EV_INSERT, ins, 2, 1000, 3000),
            (EV_DELETE, min(pre, ins), 3, 2000, 7000),
        ]]
        out = summarize(by_shard, schedule, wall_s=2.0, rank_sample_every=1)
        assert out["inserts"] == 2 and out["deletes"] == 1
        assert out["ops_processed"] == 2
        # Only the two scheduled ops count: prefill is not traffic.
        assert out["throughput_ops_s"] == pytest.approx(1.0)
        assert out["per_shard_ops_s"] == [pytest.approx(1.0)]
        assert out["insert_p50_ms"] == pytest.approx(0.002)
        assert out["delete_p50_ms"] == pytest.approx(0.005)
        assert out["rank"]["removals"] == 1
        assert out["rank_values"] == [1]


class TestEndToEnd:
    def test_small_run_is_clean_and_conserves_labels(self):
        spec = ScheduleSpec(mode="poisson", ops=1200, prefill=128, rate=0.0, seed=11)
        res = run_service(shards=2, workers=2, spec=spec, beta=0.5, seed=5)
        assert res["audit"]["torn"] == 0
        assert res["owner_exitcodes"] == [0, 0]
        assert res["loadgen_exitcodes"] == [0, 0]
        assert res["ops_processed"] == spec.ops
        assert res["throughput_ops_s"] > 0
        # Conservation: every insert (prefill included) either got deleted
        # or is still in a heap at shutdown.
        assert sum(res["residual_sizes"]) == res["inserts"] - res["deletes"]
        assert res["rank"] is not None and res["rank"]["mean_rank"] >= 1.0

    def test_single_policy_serves_exact_heap_order(self):
        spec = ScheduleSpec(mode="poisson", ops=400, prefill=64, rate=0.0, seed=13)
        res = run_service(
            shards=2, workers=1, spec=spec, beta=0.0, policy="single", seed=2,
            rank_sample_every=1,
        )
        assert res["audit"]["torn"] == 0
        # Everything funnels through shard 0: one global heap, so with a
        # single client every delete removes the true minimum (rank 1).
        assert res["per_shard"][1]["inserts"] == 0
        assert res["rank"]["max_rank"] == 1


def _reference_prefill_rows(shards, spec, beta, gamma, policy, seed):
    """Prefill rows the way a request lane produced them: one scalar
    ``insert_shard`` per label, owner clock ``k + 2`` for label ``k``."""
    seg = ServiceSegment.create(shards=shards, lanes=1, req_capacity=8, ev_capacity=8)
    try:
        router = Router(seg, beta=beta, gamma=gamma, policy=policy, rng=seed)
        rows = [[] for _ in range(shards)]
        for k, label in enumerate(spec.build().prefill_labels.tolist()):
            rows[router.insert_shard()].append((EV_INSERT, label, k + 2, 0))
        return rows
    finally:
        seg.close()
        seg.unlink()


class TestPrefillSnapshot:
    def test_seeded_shard_recovers_before_any_owner_ran(self, segment):
        """A crash before the first boot: recovery alone yields exactly the
        seeded population, clock and counters, with nothing replayed."""
        spec = ScheduleSpec(mode="poisson", ops=10, prefill=300, rate=0.0, seed=4)
        events = _prefill(segment, spec.build(), Router(segment, beta=0.5, rng=9))
        expected = _reference_prefill_rows(3, spec, 0.5, 0.0, "mq", 9)
        assert [[ev[:4] for ev in rows] for rows in events] == expected
        for shard, rows in enumerate(expected):
            state = recover_shard_state(segment, shard)
            assert sorted(state.heap) == sorted(row[1] for row in rows)
            assert state.clock == (rows[-1][2] if rows else 0)
            assert state.cum_inserts == len(rows)
            assert (state.cum_deletes, state.cum_empties) == (0, 0)
            assert state.replayed == 0 and state.reemit == []
            assert state.watermarks == [0] * segment.lanes
            assert state.stopped == [False] * segment.lanes

    @pytest.mark.parametrize(
        "policy,gamma", [("mq", 0.0), ("mq", 0.6), ("single", 0.0), ("rr", 0.0)]
    )
    def test_run_records_the_request_lane_prefill(self, monkeypatch, policy, gamma):
        spec = ScheduleSpec(mode="poisson", ops=400, prefill=4096, rate=0.0, seed=17)
        captured = {}
        real_summarize = service_metrics.summarize

        def keep_events(events_by_shard, *args, **kwargs):
            captured["events"] = events_by_shard
            return real_summarize(events_by_shard, *args, **kwargs)

        monkeypatch.setattr(service_metrics, "summarize", keep_events)
        res = run_service(
            shards=2, workers=1, spec=spec, beta=0.5, gamma=gamma, policy=policy,
            seed=3,
        )
        prefill_rows = [
            [ev[:4] for ev in rows if ev[3] == 0] for rows in captured["events"]
        ]
        assert prefill_rows == _reference_prefill_rows(2, spec, 0.5, gamma, policy, 3)
        cons = res["conservation"]
        assert cons["ok"] and cons["events_match"]
        assert cons["residual_total"] == res["inserts"] - res["deletes"]
        assert res["inserts"] == spec.prefill + (spec.ops + 1) // 2
        assert res["ops_processed"] == spec.ops
        assert res["audit"]["torn"] == 0
