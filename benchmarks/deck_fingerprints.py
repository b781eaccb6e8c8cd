"""Every session fingerprint of the repo benchmark's decks, one line each.

Runs each spec of this checkout's ``perfbench`` decks (four workloads at
seeds 1 and 2, 168 sessions) inline through ``repro.serve.execute_spec``,
with the ``repro`` package imported from ``--src``, and prints
``<workload> <seed> <index> <fingerprint> <wire digest>`` per session.
The fingerprint is ``perfbench/workloads.py``'s; the wire digest is a
sha256 over every simnet payload the session serialized, in order, taken
by wrapping ``repro.simnet.channel.serialize_payload``.  The network
charges each message its payload's length, so the fingerprint already
moves with the byte count; the digest also moves with any byte of the
payload layout.  Two source trees print the same lines exactly when every
session reproduces bit for bit and sends the same bytes, so comparing a
change with its base commit is::

    git worktree add --detach ../base <base-commit>
    python benchmarks/deck_fingerprints.py --src ../base/src > base.txt
    python benchmarks/deck_fingerprints.py --src src > head.txt
    diff base.txt head.txt

The script only reads ``perfbench/``; it writes nothing but its output.
"""

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("service-mix", "stream-long", "cluster-migrate", "privacy-batch")
SEEDS = (1, 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", required=True, help="directory holding the repro package"
    )
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), PERFBENCH]
    import workloads
    from repro.serve import execute_spec
    from repro.simnet import channel

    serialize = channel.serialize_payload
    digest = hashlib.sha256()

    def hashed(payload):
        data = serialize(payload)
        digest.update(data)
        return data

    channel.serialize_payload = hashed
    for name in WORKLOADS:
        for seed in SEEDS:
            for index, spec in enumerate(workloads.WORKLOADS[name].deck(seed)):
                digest = hashlib.sha256()
                result = execute_spec(spec)
                print(
                    name, seed, index, workloads.fingerprint(result),
                    digest.hexdigest(),
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
