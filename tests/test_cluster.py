"""Cluster serving: placement, live migration, rebalance, merged stats.

The governing invariant, swept like the checkpoint layer's: any schedule
of migrations across replicas x backends x shards x plans x placement
policies yields results **bit-identical** to the unmigrated
single-engine run, and the merged :class:`ClusterStats` conserves every
records/traffic/budget counter exactly (cluster totals equal per-replica
sums).  The edge cases each get a seat: migrating during a trust
re-negotiation round, migrating an already-parked session, a destination
at ``max_inflight``, and per-tenant budgets that must be charged once no
matter how many replicas a session visits.
"""

import os

import pytest

from repro.cluster import (
    CheckpointPayload,
    ClusterController,
    ClusterError,
    hash_placement,
    least_loaded_placement,
    resolve_placement,
    tenant_placement,
)
from repro.serve import (
    AdmissionError,
    MiningService,
    SessionSpec,
    TenantPolicy,
)
from repro.obs import Telemetry
from repro.streaming import TrustChange


def _stream_spec(seed=5, tenant="acme", windows=10, **knobs):
    return SessionSpec(
        kind="stream", dataset="wine", k=3, windows=windows, window_size=32,
        compute_privacy=False, seed=seed, tenant=tenant, **knobs
    )


def _fingerprint(result):
    """Everything deterministic a stream result reports, bit for bit."""
    return (
        result.deviation_series(),
        result.messages_sent,
        result.bytes_sent,
        result.data_messages_sent,
        result.data_bytes_sent,
        result.records_processed,
    )


def _single_engine(spec):
    with MiningService(max_inflight=2) as service:
        return service.run([spec])[0]


def _assert_conserved(stats):
    """Cluster totals must equal per-replica sums exactly."""
    per = stats.per_replica
    assert stats.records == sum(s.records for s in per)
    assert stats.messages == sum(s.messages for s in per)
    assert stats.bytes == sum(s.bytes for s in per)
    assert stats.completed == sum(s.completed for s in per)
    assert stats.failed == sum(s.failed for s in per)
    assert stats.cancelled == sum(s.cancelled for s in per)
    assert stats.evicted == sum(s.evicted for s in per)
    assert stats.active == sum(s.active for s in per)
    # Every migration hop re-submits on a replica, so replica-level
    # submission counts exceed the cluster's by exactly the hop count.
    assert sum(s.submitted for s in per) == stats.submitted + stats.migrations
    # Tenant merges conserve traffic too.
    merged = {t.tenant: t for t in stats.tenants}
    for key in ("records", "messages", "bytes"):
        for tenant, row in merged.items():
            assert getattr(row, key) == sum(
                getattr(t, key)
                for s in per
                for t in s.tenants
                if t.tenant == tenant
            )


# ----------------------------------------------------------------------
# the bit-identity property, swept
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "backend,shards,plan",
    [
        ("serial", 1, "round_robin"),
        ("thread", 4, "hash"),
        ("thread", 4, "party"),
    ],
)
@pytest.mark.parametrize("placement", ["hash", "least_loaded", "tenant"])
def test_migration_schedule_bit_identical_and_stats_conserved(
    tmp_path, backend, shards, plan, placement
):
    spec = _stream_spec(shard_backend=backend, shards=shards, shard_plan=plan)
    unbroken = _single_engine(spec)
    with ClusterController(
        replicas=2,
        placement=placement,
        shard_backend=backend,
        shard_workers=shards,
        checkpoint_dir=str(tmp_path),
    ) as cluster:
        session = cluster.submit(spec, checkpoint_every=2)
        # A two-hop schedule: away and back again, mid-run.
        first = cluster.migrate(session.session_id, 1 - session.replica)
        hops = 0 if first is None else 1
        if first is not None and not session.done():
            try:
                second = cluster.migrate(session.session_id, 1 - first)
            except ClusterError:
                second = None  # settled under the migrate call
            hops += 0 if second is None else 1
        result = session.result(timeout=120)
        stats = cluster.stats()
    assert _fingerprint(result) == _fingerprint(unbroken)
    assert session.migrations == hops
    assert stats.migrations == hops
    assert stats.evicted == hops  # each hop is one eviction on the source
    _assert_conserved(stats)


def test_migrate_during_trust_renegotiation_round(tmp_path):
    """The drain rule holds mid-renegotiation: a migration requested while
    trust changes are being applied waits for the post-drain boundary and
    changes nothing in the result."""
    changes = (
        TrustChange(window=1, party=0, trust=0.5),
        TrustChange(window=3, party=1, trust=0.25),
    )
    spec = _stream_spec(
        seed=11, windows=8, trust_changes=changes, readapt_cooldown=1
    )
    unbroken = _single_engine(spec)
    assert len(unbroken.events) >= 3  # initial + both renegotiations
    with ClusterController(
        replicas=2, checkpoint_dir=str(tmp_path)
    ) as cluster:
        session = cluster.submit(spec, checkpoint_every=1)
        # Issued immediately: the eviction lands at the first boundary,
        # i.e. inside the renegotiation window schedule.
        cluster.migrate(session.session_id, 1 - session.replica)
        result = session.result(timeout=120)
    assert _fingerprint(result) == _fingerprint(unbroken)
    assert [(e.reason, e.window) for e in result.events] == [
        (e.reason, e.window) for e in unbroken.events
    ]


# ----------------------------------------------------------------------
# migration edge cases
# ----------------------------------------------------------------------
def test_migrate_parked_session_is_friendly(tmp_path):
    with ClusterController(
        replicas=2, checkpoint_dir=str(tmp_path)
    ) as cluster:
        session = cluster.submit(
            _stream_spec(windows=20), checkpoint_every=2, replica=0
        )
        parked = cluster.drain(0, resume=False)
        assert parked and parked[0][1] is None
        assert session.poll() == "parked"
        with pytest.raises(ClusterError, match="resume it instead"):
            cluster.migrate(session.session_id, 1)
        # ... and the hinted path actually resumes it.
        cluster.undrain(0)
        landed = cluster.resume(session.session_id)
        assert landed in (0, 1)
        assert session.result(timeout=120).records_processed == 20 * 32


def test_migrate_unknown_and_settled_sessions_are_friendly(tmp_path):
    with ClusterController(
        replicas=2, checkpoint_dir=str(tmp_path)
    ) as cluster:
        with pytest.raises(ClusterError, match="no tracked cluster session"):
            cluster.migrate(99, 1)
        session = cluster.submit(_stream_spec(windows=2), checkpoint_every=1)
        session.result(timeout=120)
        # Settled sessions are pruned at the next submit; migrating one is
        # an unknown-session error either way.
        with pytest.raises(ClusterError):
            cluster.migrate(session.session_id, 1)


def test_migrate_without_checkpoint_dir_refused():
    with ClusterController(replicas=2) as cluster:
        session = cluster.submit(_stream_spec(windows=2))
        with pytest.raises(ClusterError, match="checkpoint_dir"):
            cluster.migrate(session.session_id, 1)
        session.result(timeout=120)


def test_migrate_batch_session_refused(tmp_path):
    with ClusterController(
        replicas=2, checkpoint_dir=str(tmp_path)
    ) as cluster:
        spec = SessionSpec(kind="batch", dataset="iris", k=3, seed=0)
        session = cluster.submit(spec, replica=0)
        try:
            with pytest.raises(ClusterError, match="stream"):
                cluster.migrate(session.session_id, 1)
        except BaseException:
            raise
        finally:
            session.wait(timeout=120)


def test_migrate_to_full_destination_reenters_admission_queue(tmp_path):
    """A destination at max_inflight queues the migrant (admission is the
    same gate fresh submissions pass); the result is still bit-identical."""
    spec = _stream_spec(seed=9)
    unbroken = _single_engine(spec)
    with ClusterController(
        replicas=2, max_inflight=1, checkpoint_dir=str(tmp_path)
    ) as cluster:
        # Fill replica 1's only driver slot with a long session.
        occupier = cluster.submit(
            _stream_spec(seed=1, tenant="globex", windows=30), replica=1
        )
        migrant = cluster.submit(spec, checkpoint_every=2, replica=0)
        landed = cluster.migrate(migrant.session_id, 1)
        result = migrant.result(timeout=240)
        occupier.result(timeout=240)
        stats = cluster.stats()
    if landed is not None:  # did not complete before the boundary
        assert landed == 1
        assert migrant.migrations == 1
    assert _fingerprint(result) == _fingerprint(unbroken)
    _assert_conserved(stats)


def test_directories_reused_from_an_earlier_run_keep_fresh_checkpoints(
    tmp_path,
):
    """Engine labels restart at 0 in every run, so a reused directory holds
    an earlier run's files under the same label with later boundaries:
    retention must keep the eviction checkpoint it just wrote, the
    migrated session must still equal the single engine, and the earlier
    files stay untouched."""
    spec = _stream_spec(windows=20)
    unbroken = _single_engine(spec)
    planted = []
    for index in (0, 1):
        directory = tmp_path / f"replica-{index}"
        directory.mkdir()
        for windows in (118, 119):
            path = directory / f"session-0-w{windows:05d}.ckpt"
            path.write_bytes(b"an earlier run's checkpoint")
            planted.append(path)
    with ClusterController(
        replicas=2, checkpoint_dir=str(tmp_path), checkpoint_retain=2
    ) as cluster:
        session = cluster.submit(spec, checkpoint_every=1, replica=0)
        landed = cluster.migrate(session.session_id, 1)
        result = session.result(timeout=120)
        stats = cluster.stats()
    assert landed == 1
    assert _fingerprint(result) == _fingerprint(unbroken)
    assert stats.migrations == 1 and stats.completed == 1
    _assert_conserved(stats)
    assert all(path.exists() for path in planted)


def test_migrate_with_bounded_queue_bounces_back_to_source(tmp_path):
    """If the destination refuses admission outright, the session bounces
    back to its source replica and still finishes bit-identically."""
    spec = _stream_spec(seed=9)
    unbroken = _single_engine(spec)
    with ClusterController(
        replicas=2, max_inflight=1, queue_limit=0,
        checkpoint_dir=str(tmp_path),
    ) as cluster:
        occupier = cluster.submit(
            _stream_spec(seed=1, tenant="globex", windows=30), replica=1
        )
        migrant = cluster.submit(spec, checkpoint_every=2, replica=0)
        landed = cluster.migrate(migrant.session_id, 1)
        result = migrant.result(timeout=240)
        occupier.result(timeout=240)
    assert landed in (None, 0)  # completed-first, or bounced to the source
    assert _fingerprint(result) == _fingerprint(unbroken)


# ----------------------------------------------------------------------
# tenant budgets: charged once, cluster-wide
# ----------------------------------------------------------------------
def test_tenant_session_budget_conserved_across_migration(tmp_path):
    policy = {"acme": TenantPolicy(max_sessions=1)}
    with ClusterController(
        replicas=2, tenants=policy, checkpoint_dir=str(tmp_path)
    ) as cluster:
        session = cluster.submit(
            _stream_spec(seed=3), checkpoint_every=2, replica=0
        )
        # The hop re-admits on the destination replica but must not charge
        # the tenant's cluster-level budget a second time.
        cluster.migrate(session.session_id, 1)
        with pytest.raises(AdmissionError, match="session budget"):
            cluster.submit(_stream_spec(seed=4))
        result = session.result(timeout=120)
        stats = cluster.stats()
    assert result.records_processed == 10 * 32
    row = {t.tenant: t for t in stats.tenants}["acme"]
    assert row.submitted == 1  # one logical session, however many hops
    assert row.rejected == 1
    _assert_conserved(stats)


def test_tenant_max_active_counts_migrating_sessions(tmp_path):
    policy = {"acme": TenantPolicy(max_active=1)}
    with ClusterController(
        replicas=2, tenants=policy, checkpoint_dir=str(tmp_path)
    ) as cluster:
        session = cluster.submit(_stream_spec(windows=20), checkpoint_every=2)
        with pytest.raises(AdmissionError, match="max_active"):
            cluster.submit(_stream_spec(seed=8))
        session.result(timeout=120)
        # Capacity released on completion.
        follow_up = cluster.submit(_stream_spec(seed=8, windows=2))
        follow_up.result(timeout=120)


def test_tenant_privacy_budget_cluster_wide():
    policy = {"acme": TenantPolicy(privacy_budget=1)}
    with ClusterController(replicas=2, tenants=policy) as cluster:
        spec = SessionSpec(
            kind="batch", dataset="iris", k=3, seed=0, tenant="acme",
            compute_privacy=True,
        )
        first = cluster.submit(spec)
        with pytest.raises(AdmissionError, match="privacy"):
            cluster.submit(SessionSpec(
                kind="batch", dataset="iris", k=3, seed=1, tenant="acme",
                compute_privacy=True,
            ))
        first.result(timeout=120)


# ----------------------------------------------------------------------
# placement policies
# ----------------------------------------------------------------------
def test_hash_placement_is_deterministic():
    spec = _stream_spec()
    eligible = (0, 1, 2)
    picks = {hash_placement(spec, 7, eligible, None) for _ in range(10)}
    assert len(picks) == 1
    assert picks.pop() in eligible


def test_tenant_placement_keeps_a_tenant_together():
    eligible = (0, 1, 2)
    picks = {
        tenant_placement(_stream_spec(seed=s), s, eligible, None)
        for s in range(6)
    }
    assert len(picks) == 1  # same tenant -> same replica, whatever the spec


def test_least_loaded_placement_prefers_the_idle_replica():
    with ClusterController(replicas=2, placement="least_loaded") as cluster:
        # Pin a long-running session onto replica 0, then let the policy
        # place the next one: it must pick the idle replica 1.
        busy = cluster.submit(_stream_spec(windows=20), replica=0)
        placed = cluster.submit(_stream_spec(seed=6, tenant="globex", windows=2))
        assert placed.replica == 1
        placed.result(timeout=120)
        busy.result(timeout=120)


def test_resolve_placement_accepts_callables_rejects_unknown():
    name, fn = resolve_placement(least_loaded_placement)
    assert name == "least_loaded_placement" and fn is least_loaded_placement
    with pytest.raises(ValueError, match="hash"):
        resolve_placement("no_such_policy")
    with pytest.raises(ClusterError, match="no_such_policy"):
        ClusterController(replicas=1, placement="no_such_policy")


# ----------------------------------------------------------------------
# rebalance / drain / park / resume
# ----------------------------------------------------------------------
def test_rebalance_levels_a_lopsided_cluster(tmp_path):
    specs = [
        _stream_spec(seed=i, tenant="acme" if i % 2 else "globex", windows=20)
        for i in range(4)
    ]
    with ClusterController(
        replicas=2, checkpoint_dir=str(tmp_path)
    ) as cluster:
        sessions = [
            cluster.submit(spec, checkpoint_every=2, replica=0)
            for spec in specs
        ]
        moves = cluster.rebalance()
        for session in sessions:
            session.result(timeout=240)
        stats = cluster.stats()
    # Some sessions may finish before their checkpoint boundary, but any
    # move that happened went 0 -> 1 and is counted.
    assert all(src == 0 and dst == 1 for _, src, dst in moves)
    assert stats.rebalances == 1
    assert stats.migrations >= len(moves)
    _assert_conserved(stats)


def test_drain_moves_sessions_and_refuses_new_ones(tmp_path):
    with ClusterController(
        replicas=2, checkpoint_dir=str(tmp_path)
    ) as cluster:
        session = cluster.submit(
            _stream_spec(windows=20), checkpoint_every=2, replica=0
        )
        dispositions = cluster.drain(0)
        with pytest.raises(ClusterError, match="draining"):
            cluster.submit(_stream_spec(seed=2), replica=0)
        result = session.result(timeout=240)
        stats = cluster.stats()
    moved = dict(dispositions)
    if session.session_id in moved and moved[session.session_id] is not None:
        assert moved[session.session_id] == 1
    assert result.records_processed == 20 * 32
    _assert_conserved(stats)


def test_drain_last_replica_needs_park_mode(tmp_path):
    with ClusterController(
        replicas=1, checkpoint_dir=str(tmp_path)
    ) as cluster:
        session = cluster.submit(
            _stream_spec(windows=6), checkpoint_every=2
        )
        with pytest.raises(ClusterError, match="resume=False"):
            cluster.drain(0)
        session.result(timeout=120)


def test_close_park_then_resume_in_new_cluster_bit_identical(tmp_path):
    spec = _stream_spec(seed=13, windows=12)
    unbroken = _single_engine(spec)
    with ClusterController(
        replicas=2, checkpoint_dir=str(tmp_path)
    ) as cluster:
        session = cluster.submit(spec, checkpoint_every=2)
        parked = cluster.close(park=True)
    assert session.poll() == "parked"
    assert parked and all(os.path.exists(path) for path in parked)
    assert session.parked_path in parked
    with pytest.raises(ClusterError, match="parked"):
        session.result(timeout=0)
    # A brand-new cluster finishes the run from the parked file.
    with ClusterController(
        replicas=2, checkpoint_dir=str(tmp_path)
    ) as fresh:
        handle = fresh.replicas[0].submit(
            spec, resume=CheckpointPayload(session.parked_path)
        )
        result = handle.result(timeout=120)
    assert _fingerprint(result) == _fingerprint(unbroken)


def test_cluster_refuses_after_close():
    cluster = ClusterController(replicas=1)
    cluster.close()
    with pytest.raises(AdmissionError, match="closed"):
        cluster.submit(_stream_spec(windows=2))


def test_close_park_needs_checkpoint_dir():
    with ClusterController(replicas=1) as cluster:
        with pytest.raises(Exception, match="checkpoint"):
            cluster.close(park=True)


# ----------------------------------------------------------------------
# merged stats / reporting surface
# ----------------------------------------------------------------------
def test_stats_to_dict_and_summary_surface_everything(tmp_path):
    with ClusterController(
        replicas=2, placement="tenant", checkpoint_dir=str(tmp_path)
    ) as cluster:
        specs = [
            _stream_spec(seed=i, tenant="acme" if i % 2 else "globex",
                         windows=2)
            for i in range(4)
        ]
        cluster.run(specs)
        stats = cluster.stats()
    payload = stats.to_dict()
    assert payload["replicas"] == 2
    assert payload["placement"] == "tenant"
    assert payload["submitted"] == 4
    assert len(payload["per_replica"]) == 2
    assert set(payload["tenants"]) == {"acme", "globex"}
    text = stats.summary()
    assert "placement=tenant" in text
    assert "replica 0" in text and "replica 1" in text
    assert stats.sessions_per_second > 0
    _assert_conserved(stats)


# ----------------------------------------------------------------------
# one handoff path: every move claims, evicts, then lands or parks
# ----------------------------------------------------------------------
def test_lapsed_migrate_wait_parks_the_session_then_resume_finishes_it(tmp_path):
    """A migrate whose wait lapses raises, and the session parks at its
    next boundary instead of being stranded mid-eviction."""
    spec = _stream_spec(seed=9, windows=60)
    unbroken = _single_engine(spec)
    with ClusterController(
        replicas=2, max_inflight=1, checkpoint_dir=str(tmp_path)
    ) as cluster:
        # Queued behind an occupier, the session cannot reach a boundary
        # within the migrate's wait.
        occupier = cluster.submit(_stream_spec(seed=1, windows=60), replica=0)
        session = cluster.submit(spec, checkpoint_every=2, replica=0)
        with pytest.raises(ClusterError, match="parks at its next boundary"):
            cluster.migrate(session.session_id, 1, timeout=0.001)
        assert session.wait(timeout=120) == "parked"
        assert cluster.resume(session.session_id) in (0, 1)
        result = session.result(timeout=120)
        occupier.result(timeout=120)
        stats = cluster.stats()
    assert _fingerprint(result) == _fingerprint(unbroken)
    assert session.migrations == stats.migrations == 1
    assert stats.evicted == 1
    _assert_conserved(stats)


def test_lapsed_drain_wait_lists_the_session_as_parked(tmp_path):
    spec = _stream_spec(seed=9, windows=60)
    unbroken = _single_engine(spec)
    with ClusterController(
        replicas=2, max_inflight=1, checkpoint_dir=str(tmp_path)
    ) as cluster:
        occupier = cluster.submit(_stream_spec(seed=1, windows=60), replica=0)
        session = cluster.submit(spec, checkpoint_every=2, replica=0)
        dispositions = dict(cluster.drain(0, timeout=0.001))
        assert dispositions[session.session_id] is None
        assert session.wait(timeout=120) == "parked"
        assert cluster.resume(session.session_id) == 1  # 0 is draining
        result = session.result(timeout=120)
        if occupier.wait(timeout=120) == "parked":
            cluster.resume(occupier.session_id)
        occupier.result(timeout=120)
        stats = cluster.stats()
    assert _fingerprint(result) == _fingerprint(unbroken)
    _assert_conserved(stats)


def test_park_then_resume_counts_one_hop(tmp_path):
    with ClusterController(
        replicas=2, checkpoint_dir=str(tmp_path)
    ) as cluster:
        session = cluster.submit(
            _stream_spec(windows=100), checkpoint_every=2, replica=0
        )
        assert cluster.drain(0, resume=False) == [(session.session_id, None)]
        assert cluster.resume(session.session_id) == 1
        session.result(timeout=120)
        stats = cluster.stats()
    assert session.migrations == stats.migrations == 1
    _assert_conserved(stats)


def test_drain_and_resume_try_the_whole_placement_order(tmp_path):
    """The policy's pick first, then every other eligible replica: a full
    pick does not park a session another replica can take."""

    def always_replica_1(spec, session_id, eligible, cluster):
        return 1

    with ClusterController(
        replicas=3, placement=always_replica_1, max_inflight=1,
        queue_limit=0, checkpoint_dir=str(tmp_path),
    ) as cluster:
        occupier = cluster.submit(
            _stream_spec(seed=1, tenant="globex", windows=5000), replica=1
        )
        parked = cluster.submit(
            _stream_spec(seed=2, windows=40), checkpoint_every=2, replica=0
        )
        assert cluster.drain(0, resume=False) == [(parked.session_id, None)]
        assert cluster.resume(parked.session_id) == 2
        assert parked.result(timeout=120).records_processed == 40 * 32
        cluster.undrain(0)
        moved = cluster.submit(
            _stream_spec(seed=3, windows=40), checkpoint_every=2, replica=0
        )
        assert cluster.drain(0) == [(moved.session_id, 2)]
        assert moved.result(timeout=120).records_processed == 40 * 32
        assert occupier.poll() == "running"
        cluster.close(park=True)


def test_handoff_spans_and_the_resumed_hop_counter(tmp_path, monkeypatch):
    telemetry = Telemetry.in_memory()
    spec = _stream_spec(seed=9, windows=100)
    unbroken = _single_engine(spec)
    with ClusterController(
        replicas=2, telemetry=telemetry, checkpoint_dir=str(tmp_path)
    ) as cluster:
        session = cluster.submit(spec, checkpoint_every=2, replica=0)

        def refuse(*args, **kwargs):
            raise AdmissionError("replica at capacity")

        for replica in cluster.replicas:
            monkeypatch.setattr(replica, "submit", refuse)
        with pytest.raises(ClusterError, match="neither replica 1 nor 0"):
            cluster.migrate(session.session_id, 1)
        monkeypatch.undo()
        assert session.poll() == "parked"
        landed = cluster.resume(session.session_id)
        assert cluster.drain(landed) == [(session.session_id, 1 - landed)]
        result = session.result(timeout=120)
        stats = cluster.stats()
    spans = {span["name"]: span["attrs"] for span in telemetry.tracer.sink.spans}
    assert spans["migrate"]["error"] == "ClusterError"
    assert spans["drain"]["moved"] == 1
    counts = telemetry.metrics.snapshot()["repro_cluster_migrations_total"]
    assert counts["values"] == {
        '{outcome="resumed"}': 1.0, '{outcome="drained"}': 1.0,
    }
    assert _fingerprint(result) == _fingerprint(unbroken)
    assert session.migrations == stats.migrations == 2
    _assert_conserved(stats)
