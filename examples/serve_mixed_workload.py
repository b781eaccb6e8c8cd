#!/usr/bin/env python
"""Serving many sessions: one engine, many tenants.

Two organizations — "acme" and "globex" — use the same Space Adaptation
deployment.  Acme runs one-shot batch collaborations; globex mines live
streams.  A single :class:`repro.MiningService` runs all of it
concurrently, each session's shard tasks on its own driver thread, with
admission control (at most 3 sessions in flight, 2 more queued) and
per-tenant budgets (globex may only afford one privacy/attack-suite
evaluation).

Every tenant's seeds are namespaced, so acme and globex submitting the
*same* spec draw independent randomness — and each session's result is
bit-identical to running its spec alone through ``run_sap_session`` /
``run_stream_session``.

Run:  python examples/serve_mixed_workload.py
"""

from repro import MiningService, SessionSpec, TenantPolicy


def main() -> None:
    # The declarative workload: what to run, not how or where.
    workload = [
        SessionSpec(kind="batch", dataset="wine", k=3, tenant="acme", seed=1),
        SessionSpec(
            kind="stream", dataset="wine", k=3, windows=4, window_size=32,
            stream="abrupt", tenant="globex", compute_privacy=True, seed=1,
        ),
        SessionSpec(
            kind="batch", dataset="iris", k=4, classifier="lda",
            tenant="acme", seed=2,
        ),
        SessionSpec(
            kind="stream", dataset="iris", k=3, windows=4, window_size=32,
            classifier="linear_svm", tenant="globex",
            compute_privacy=False, seed=2,
        ),
    ]

    service = MiningService(
        max_inflight=3,
        queue_limit=2,
        shard_backend="thread",
        shard_workers=2,
        tenants={"globex": TenantPolicy(privacy_budget=1)},
    )
    with service:
        handles = [service.submit(spec) for spec in workload]
        for handle in handles:
            result = handle.result()
            print(f"--- {handle.spec.display_label} "
                  f"({handle.poll()}, {handle.wall_seconds * 1000:.0f} ms)")
            print(result.summary())
            print()
        print("=== service report")
        print(service.stats().summary())


if __name__ == "__main__":
    main()
