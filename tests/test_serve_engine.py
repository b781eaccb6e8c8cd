"""MiningService: concurrency, determinism, admission control, tenancy."""

import sys
import threading
import time
from dataclasses import replace

import pytest

from repro import SAPConfig, load_dataset, run_sap_session
from repro.serve import (
    AdmissionError,
    MiningService,
    SessionSpec,
    TenantPolicy,
    execute_spec,
)
from repro.streaming import run_stream_session


def mixed_workload():
    """8 mixed batch/stream specs across three tenants."""
    specs = []
    for index, tenant in enumerate(["default", "acme", "globex", "acme"]):
        specs.append(
            SessionSpec(
                kind="batch", dataset="iris", k=3, seed=7 + index, tenant=tenant
            )
        )
        specs.append(
            SessionSpec(
                kind="stream",
                dataset="iris",
                stream="abrupt" if index % 2 else "stationary",
                windows=3,
                window_size=32,
                k=3,
                seed=3 + index,
                tenant=tenant,
                compute_privacy=False,
            )
        )
    return specs


def run_legacy(spec):
    """The same spec through the legacy one-shot entry points."""
    if spec.kind == "batch":
        return run_sap_session(
            load_dataset(spec.dataset),
            spec.to_sap_config(),
            scheme=spec.scheme,
            compute_privacy=spec.effective_privacy,
        )
    return run_stream_session(spec.make_source(), spec.to_stream_config())


def assert_same_result(spec, served, legacy):
    """Bit-equality of everything deterministic in a result."""
    if spec.kind == "batch":
        assert served.accuracy_perturbed == legacy.accuracy_perturbed
        assert served.accuracy_standard == legacy.accuracy_standard
        assert served.messages_sent == legacy.messages_sent
        assert served.bytes_sent == legacy.bytes_sent
        assert served.forwarder_source_pairs == legacy.forwarder_source_pairs
    else:
        assert served.accuracy_perturbed == legacy.accuracy_perturbed
        assert served.accuracy_baseline == legacy.accuracy_baseline
        assert served.deviation_series() == legacy.deviation_series()
        assert served.messages_sent == legacy.messages_sent
        assert served.data_bytes_sent == legacy.data_bytes_sent
        assert [(e.reason, e.window) for e in served.events] == [
            (e.reason, e.window) for e in legacy.events
        ]


class GatedSource:
    """A stream source that blocks until the test releases its gate."""

    def __init__(self, inner):
        self._inner = inner
        self.gate = threading.Event()
        self.name = inner.name
        self.kind = inner.kind
        self.dimension = inner.dimension

    def __iter__(self):
        """Wait for the gate, then yield the inner stream's records."""
        self.gate.wait(timeout=30)
        return iter(self._inner)


def gated_spec_and_source(seed=0, tenant="default", compute_privacy=False):
    spec = SessionSpec(
        kind="stream",
        dataset="iris",
        windows=2,
        window_size=32,
        k=3,
        seed=seed,
        tenant=tenant,
        compute_privacy=compute_privacy,
    )
    return spec, GatedSource(spec.make_source())


# ----------------------------------------------------------------------
# the acceptance criterion: 8 concurrent mixed sessions, one shared
# process pool, every result bit-identical to the legacy entry point
# ----------------------------------------------------------------------
def test_eight_concurrent_mixed_sessions_match_legacy_over_process_pool():
    specs = mixed_workload()
    assert len(specs) == 8
    with MiningService(
        max_inflight=8, shard_backend="process", shard_workers=2
    ) as service:
        served = service.run(specs)
        stats = service.stats()
    assert stats.completed == 8 and stats.failed == 0
    assert {t.tenant for t in stats.tenants} == {"default", "acme", "globex"}
    for spec, result in zip(specs, served):
        assert_same_result(spec, result, run_legacy(spec))


def test_concurrent_equals_sequential_submission():
    specs = mixed_workload()[:4]
    with MiningService(max_inflight=4, shard_backend="thread") as service:
        concurrent = service.run(specs)
    with MiningService(max_inflight=1, shard_backend="serial") as service:
        sequential = service.run(specs)
    for spec, a, b in zip(specs, concurrent, sequential):
        assert_same_result(spec, a, b)


# ----------------------------------------------------------------------
# tenant isolation
# ----------------------------------------------------------------------
def test_tenants_submitting_identical_specs_get_independent_seed_streams():
    base = SessionSpec(kind="batch", dataset="iris", k=3, seed=7)
    a, b = base.for_tenant("acme"), base.for_tenant("globex")
    assert a.resolved_seed() != b.resolved_seed()
    with MiningService(max_inflight=2, shard_backend="serial") as service:
        result_a, result_b = service.run([a, b])
    # Each tenant's run is exactly the legacy run at its namespaced seed —
    # isolated from the other tenant and from the raw-seed default run.
    for spec, served in ((a, result_a), (b, result_b)):
        legacy = run_sap_session(
            load_dataset("iris"), SAPConfig(k=3, seed=spec.resolved_seed())
        )
        assert_same_result(spec, served, legacy)
    assert result_a.forwarder_source_pairs != result_b.forwarder_source_pairs or (
        result_a.bytes_sent != result_b.bytes_sent
        or result_a.virtual_duration != result_b.virtual_duration
    )


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
def test_capacity_rejection_is_friendly():
    spec, source = gated_spec_and_source()
    with MiningService(
        max_inflight=1, queue_limit=0, shard_backend="serial"
    ) as service:
        handle = service.submit(spec, source=source)
        with pytest.raises(AdmissionError, match="at capacity"):
            service.submit(spec)
        source.gate.set()
        handle.result(timeout=30)
        stats = service.stats()
    assert stats.rejected == 1
    assert stats.completed == 1


def test_tenant_session_budget():
    policy = TenantPolicy(max_sessions=1)
    spec = SessionSpec(kind="batch", dataset="iris", k=3, tenant="acme")
    with MiningService(
        max_inflight=2, shard_backend="serial", tenants={"acme": policy}
    ) as service:
        service.submit(spec).result(timeout=30)
        with pytest.raises(AdmissionError, match="session budget"):
            service.submit(spec)
        # Other tenants are unaffected.
        service.submit(spec.for_tenant("globex")).result(timeout=30)


def test_tenant_privacy_budget():
    policy = TenantPolicy(privacy_budget=0)
    plain = SessionSpec(kind="batch", dataset="iris", k=3, tenant="acme")
    private = SessionSpec(
        kind="batch", dataset="iris", k=3, tenant="acme", compute_privacy=True
    )
    with MiningService(
        max_inflight=1, shard_backend="serial", tenants={"acme": policy}
    ) as service:
        with pytest.raises(AdmissionError, match="privacy-evaluation"):
            service.submit(private)
        service.submit(plain).result(timeout=30)


def test_tenant_max_active():
    policy = TenantPolicy(max_active=1)
    spec, source = gated_spec_and_source(tenant="acme")
    with MiningService(
        max_inflight=4, shard_backend="serial", tenants={"acme": policy}
    ) as service:
        handle = service.submit(spec, source=source)
        with pytest.raises(AdmissionError, match="active"):
            service.submit(spec)
        source.gate.set()
        handle.result(timeout=30)
        # Capacity is freed once the first session settles.
        service.submit(spec).result(timeout=30)


def test_closed_service_rejects():
    service = MiningService(max_inflight=1, shard_backend="serial")
    service.close()
    with pytest.raises(AdmissionError, match="closed"):
        service.submit(SessionSpec(kind="batch", dataset="iris", k=3))


# ----------------------------------------------------------------------
# handle lifecycle
# ----------------------------------------------------------------------
def test_handle_lifecycle_and_cancel():
    first_spec, first_source = gated_spec_and_source(seed=0)
    second_spec, second_source = gated_spec_and_source(seed=1)
    with MiningService(max_inflight=1, shard_backend="serial") as service:
        first = service.submit(first_spec, source=first_source)
        second = service.submit(second_spec, source=second_source)
        assert second.poll() == "queued"
        assert second.cancel()
        first_source.gate.set()
        first.result(timeout=30)
        service.drain(timeout=30)
        assert first.poll() == "completed"
        assert second.poll() == "cancelled"
        assert first.wall_seconds > 0
        stats = service.stats()
    assert stats.completed == 1
    assert stats.cancelled == 1
    assert stats.active == 0


def test_cancel_frees_admission_capacity_immediately():
    running_spec, running_source = gated_spec_and_source(seed=0)
    with MiningService(
        max_inflight=1, queue_limit=1, shard_backend="serial"
    ) as service:
        running = service.submit(running_spec, source=running_source)
        queued_spec, _ = gated_spec_and_source(seed=1)
        queued = service.submit(queued_spec)
        assert queued.cancel()
        # The cancelled session's slot is free *now*, not when a driver
        # eventually reaches the dead work item.
        third_spec, third_source = gated_spec_and_source(seed=2)
        third = service.submit(third_spec, source=third_source)
        running_source.gate.set()
        third_source.gate.set()
        running.result(timeout=30)
        third.result(timeout=30)
        stats = service.stats()
    assert stats.cancelled == 1
    assert stats.completed == 2


def test_close_without_waiting_cancels_queued_sessions():
    pairs = [gated_spec_and_source(seed=seed) for seed in range(4)]
    service = MiningService(max_inflight=1, shard_backend="serial")
    handles = [service.submit(spec, source=source) for spec, source in pairs]
    deadline = time.monotonic() + 30
    while handles[0].poll() != "running" and time.monotonic() < deadline:
        time.sleep(0.01)
    assert handles[0].poll() == "running"
    service.close(wait=False)
    for _, source in pairs:
        source.gate.set()
    statuses = [handle.wait(timeout=30) for handle in handles]
    assert statuses == ["completed", "cancelled", "cancelled", "cancelled"]
    stats = service.stats()
    assert stats.completed == 1
    assert stats.cancelled == 3
    assert stats.active == 0


def test_run_cleans_up_after_midlist_rejection():
    spec = SessionSpec(kind="batch", dataset="iris", k=3, tenant="acme")
    with MiningService(
        max_inflight=1,
        shard_backend="serial",
        tenants={"acme": TenantPolicy(max_sessions=1)},
    ) as service:
        with pytest.raises(AdmissionError, match="session budget"):
            service.run([spec, spec])
        service.drain(timeout=30)
        stats = service.stats()
    # The admitted session was not abandoned: it settled (completed or
    # cancelled) and nothing is left active.
    assert stats.active == 0
    assert stats.completed + stats.cancelled == 1


def test_wrapper_accepts_duck_typed_sources():
    # The legacy run_stream_session only ever required name/kind/dimension
    # and iteration from a source; the spec-driven wrapper must not demand
    # more (StreamSource-only fields are read leniently).
    spec, gated = gated_spec_and_source()

    class DuckSource:
        """Bare-minimum source surface."""

        name = "duck"
        kind = "mystery"  # not a registry stream kind
        dimension = gated.dimension

        def __iter__(self):
            gated.gate.set()
            return iter(gated)

    result = run_stream_session(DuckSource(), spec.to_stream_config())
    assert result.source_name == "duck"
    assert result.records_processed == spec.effective_records


def test_failed_session_surfaces_its_error():
    spec = SessionSpec(kind="batch", dataset="atlantis", k=3)
    with MiningService(max_inflight=1, shard_backend="serial") as service:
        handle = service.submit(spec)
        assert handle.wait(timeout=30) == "failed"
        with pytest.raises(KeyError, match="atlantis"):
            handle.result(timeout=1)
        stats = service.stats()
    assert stats.failed == 1


def test_stats_account_pool_demand_and_traffic():
    specs = mixed_workload()[:4]
    with MiningService(max_inflight=2, shard_backend="thread") as service:
        service.run(specs)
        stats = service.stats()
    assert stats.pool.tasks > 0
    assert stats.pool.busy_seconds > 0
    assert 0 <= stats.pool.utilization
    assert stats.records > 0
    assert stats.messages > 0 and stats.bytes > 0
    assert stats.sessions_per_second > 0
    payload = stats.to_dict()
    assert payload["completed"] == 4
    assert set(payload["tenants"]) == {t.tenant for t in stats.tenants}


def test_cancel_is_idempotent_under_a_thread_hammer():
    """Many racing cancellers: exactly one wins, the slot frees exactly once."""
    running_spec, running_source = gated_spec_and_source(seed=0)
    with MiningService(
        max_inflight=1, queue_limit=1, shard_backend="serial"
    ) as service:
        running = service.submit(running_spec, source=running_source)
        queued_spec, _ = gated_spec_and_source(seed=1)
        queued = service.submit(queued_spec)

        barrier = threading.Barrier(8)
        wins = []

        def hammer():
            barrier.wait(timeout=30)
            if queued.cancel():
                wins.append(threading.current_thread().name)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1  # one winner, however the race lands
        assert queued.cancel() is False  # and later callers lose too
        assert queued.poll() == "cancelled"

        # The admission slot was released exactly once: the queue has
        # room for exactly one more session, not two.
        third_spec, third_source = gated_spec_and_source(seed=2)
        third = service.submit(third_spec, source=third_source)
        with pytest.raises(AdmissionError, match="at capacity"):
            service.submit(gated_spec_and_source(seed=3)[0])
        running_source.gate.set()
        third_source.gate.set()
        running.result(timeout=30)
        third.result(timeout=30)
        stats = service.stats()
    assert stats.cancelled == 1
    assert stats.completed == 2
    assert stats.active == 0


def test_concurrent_sessions_pin_pool_utilization_at_most_one():
    """Overlapping sessions on one shared pool must not double-count busy
    time: utilization stays <= 1.0 no matter how demand overlaps."""
    specs = [
        SessionSpec(
            kind="stream",
            dataset="iris",
            windows=3,
            window_size=32,
            k=3,
            shards=4,
            seed=index,
            tenant="acme" if index % 2 else "globex",
            compute_privacy=False,
        )
        for index in range(6)
    ]
    with MiningService(
        max_inflight=6, shard_backend="thread", shard_workers=2
    ) as service:
        service.run(specs)
        stats = service.stats()
    assert stats.completed == 6
    assert stats.pool.busy_seconds > 0
    assert 0.0 <= stats.pool.utilization <= 1.0


def test_submit_accepts_raw_mappings():
    with MiningService(max_inflight=1, shard_backend="serial") as service:
        result = service.submit(
            {"kind": "batch", "dataset": "iris", "k": 3, "seed": 7}
        ).result(timeout=30)
    legacy = run_sap_session(load_dataset("iris"), SAPConfig(k=3, seed=7))
    assert result.accuracy_perturbed == legacy.accuracy_perturbed
    assert result.bytes_sent == legacy.bytes_sent


def test_pool_rebuilt_after_close_without_waiting_is_closed_at_settle():
    """A session still running at close(wait=False) rebuilds the pool on
    its next dispatch; settling the last session closes it again."""
    spec = SessionSpec(
        kind="stream", dataset="wine", windows=20, window_size=64, k=3,
        compute_privacy=False, shards=2,
    )
    source = GatedSource(spec.make_source())
    service = MiningService(
        max_inflight=1, shard_backend="process", shard_workers=2
    )
    handle = service.submit(spec, source=source)
    deadline = time.monotonic() + 30
    while handle.poll() != "running" and time.monotonic() < deadline:
        time.sleep(0.01)
    service.close(wait=False)
    assert service.pool.inner._pool is None
    source.gate.set()
    assert handle.wait(timeout=120) == "completed"
    assert service.pool.inner._pool is None


# ----------------------------------------------------------------------
# an inline engine: each session's shard tasks run on its own driver
# ----------------------------------------------------------------------
def test_thread_engine_runs_shard_tasks_on_its_drivers(monkeypatch):
    """No second pool under the drivers: every transform and predict task
    runs on the driver thread of its session, and no shard thread starts."""
    from repro.streaming import stream_session

    callers, alive = [], set()

    def on_the_caller(name):
        task = getattr(stream_session, name)

        def recorded(*args, **kwargs):
            callers.append((name, threading.current_thread().name))
            alive.update(t.name for t in threading.enumerate())
            return task(*args, **kwargs)

        monkeypatch.setattr(stream_session, name, recorded)

    on_the_caller("transform_window")
    on_the_caller("predict_window")
    specs = [
        replace(spec, shards=2) if spec.kind == "stream" else spec
        for spec in mixed_workload()
    ]
    with MiningService(
        max_inflight=2, shard_backend="thread", shard_workers=2
    ) as service:
        alive.update(t.name for t in threading.enumerate())
        assert len(service.run(specs)) == len(specs)
        alive.update(t.name for t in threading.enumerate())
    assert {name for name, _ in callers} == {"transform_window", "predict_window"}
    assert all(thread.startswith("repro-serve") for _, thread in callers), callers
    assert not [name for name in alive if name.startswith("repro-shard")], alive


def test_inline_engine_reports_its_drivers_as_workers():
    """Two sessions running at once on an inline engine: the pool report
    counts the two drivers and its utilization stays a fraction."""
    sessions = [gated_spec_and_source(seed=seed) for seed in (0, 1)]
    with MiningService(
        max_inflight=2, shard_backend="thread", shard_workers=3
    ) as service:
        handles = [service.submit(spec, source=src) for spec, src in sessions]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and any(
            handle.poll() != "running" for handle in handles
        ):
            time.sleep(0.01)
        assert [handle.poll() for handle in handles] == ["running"] * 2
        for _, source in sessions:
            source.gate.set()
        for handle in handles:
            handle.result(timeout=30)
        stats = service.stats()
    assert stats.pool.workers == 2
    assert stats.pool.busy_seconds > 0
    assert 0.0 < stats.pool.utilization <= 1.0
    assert stats.pool.busy_seconds <= 2 * stats.elapsed_seconds


@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_inline_engines_match_inline_execute_spec(backend):
    """Inline engines compute what ``execute_spec`` computes alone, and
    their stream sessions report the dispatch they ran: not overlapped."""
    specs = mixed_workload()
    with MiningService(max_inflight=4, shard_backend=backend) as service:
        served = service.run(specs)
    for spec, result in zip(specs, served):
        assert_same_result(spec, result, execute_spec(spec))
        if spec.kind == "stream":
            assert result.overlap is False


# ----------------------------------------------------------------------
# an inline engine's drivers take turns at round boundaries
# ----------------------------------------------------------------------
def _wait_until_running(handle, seconds=30):
    deadline = time.monotonic() + seconds
    while handle.poll() == "queued" and time.monotonic() < deadline:
        time.sleep(0.005)
    assert handle.poll() == "running"


@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_inline_engine_runs_one_driver_at_a_time(backend, monkeypatch):
    """Sixteen mixed sessions on four inline drivers: no two threads are
    ever inside a shard task at once, even when a task drops the GIL."""
    from repro.streaming import stream_session

    lock = threading.Lock()
    inside, overlaps, runners = set(), [], set()

    def exclusive(name):
        task = getattr(stream_session, name)

        def watched(*args, **kwargs):
            me = threading.current_thread().name
            with lock:
                if inside:
                    overlaps.append((me, sorted(inside)))
                inside.add(me)
                runners.add(me)
            try:
                time.sleep(0.0005)  # drops the GIL, as large numpy calls do
                return task(*args, **kwargs)
            finally:
                with lock:
                    inside.discard(me)

        monkeypatch.setattr(stream_session, name, watched)

    exclusive("transform_window")
    exclusive("predict_window")
    specs = [
        replace(spec, seed=spec.seed + 100 * copy)
        for copy in range(2)
        for spec in mixed_workload()
    ]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the turn changes hands at every boundary
    try:
        with MiningService(max_inflight=4, shard_backend=backend) as service:
            handles = [service.submit(spec) for spec in specs]
            assert [h.wait(timeout=60) for h in handles] == ["completed"] * 16
    finally:
        sys.setswitchinterval(previous)
    assert len(runners) > 1, runners  # the sessions did spread over drivers
    assert not overlaps, overlaps[:5]


def test_a_long_stream_lets_a_short_session_through():
    """Turns pass at round boundaries, not at session ends: a batch
    session submitted behind a long stream finishes while it runs."""
    stream_spec = SessionSpec(
        kind="stream", dataset="wine", windows=300, window_size=32, k=3,
        compute_privacy=False, seed=5,
    )
    batch_spec = SessionSpec(kind="batch", dataset="iris", k=3, seed=7)
    with MiningService(max_inflight=2, shard_backend="thread") as service:
        stream = service.submit(stream_spec)
        _wait_until_running(stream)
        batch = service.submit(batch_spec)
        batch.result(timeout=60)
        assert stream.poll() == "running"
        stream.result(timeout=120)


def test_failed_and_evicted_sessions_give_the_turn_back(tmp_path):
    """Whatever ends a session, its driver passes the turn on: the next
    session on the same engine still completes."""
    long_spec = SessionSpec(
        kind="stream", dataset="wine", windows=300, window_size=32, k=3,
        compute_privacy=False, seed=5,
    )
    with MiningService(
        max_inflight=2, shard_backend="thread", checkpoint_dir=str(tmp_path)
    ) as service:
        failed = service.submit(SessionSpec(kind="batch", dataset="atlantis", k=3))
        assert failed.wait(timeout=30) == "failed"
        after_failure = service.submit(gated_spec_and_source(seed=1)[0])
        assert after_failure.wait(timeout=30) == "completed"

        evicted = service.submit(long_spec)
        _wait_until_running(evicted)
        assert service.evict(evicted.session_id, timeout=30) is not None
        assert evicted.poll() == "evicted"
        after_eviction = service.submit(gated_spec_and_source(seed=2)[0])
        assert after_eviction.wait(timeout=30) == "completed"


@pytest.mark.parametrize(
    "backend, inflight, turns",
    [("thread", 2, True), ("serial", 2, True), ("thread", 1, False),
     ("process", 2, False)],
)
def test_only_inline_engines_with_several_drivers_take_turns(
    backend, inflight, turns
):
    """A process engine's drivers wait on its pool, so they run at once;
    a one-driver engine has nobody to take turns with."""
    with MiningService(
        max_inflight=inflight, shard_backend=backend, shard_workers=1
    ) as service:
        assert (service._turn is not None) is turns
