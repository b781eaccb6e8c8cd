"""A resume decodes its checkpoint file once, whichever caller loads it.

``MiningService.resume`` and ``repro stream --resume-from`` load the file
to read the spec or config it carries, then hand the loaded checkpoint
to the session; a process replica decodes the bytes it received and
hands that checkpoint to ``MiningService.resume``.  Each test counts
calls to ``loads_checkpoint``, the one decoder every load goes through.
"""

import pytest

import repro.checkpoint.checkpoint as checkpoint_module
from repro.checkpoint import Checkpointer, SessionEvicted
from repro.cli import main
from repro.cluster import ClusterController
from repro.cluster.protocol import unwrap_response
from repro.cluster.replica import ReplicaServer
from repro.serve import MiningService, SessionSpec, execute_spec

SPEC = SessionSpec(
    kind="stream", dataset="wine", tenant="acme", k=3, windows=6,
    window_size=32, compute_privacy=False, seed=5,
)


def _fingerprint(result):
    return (
        result.deviation_series(),
        result.messages_sent,
        result.bytes_sent,
        result.data_messages_sent,
        result.data_bytes_sent,
        result.records_processed,
    )


@pytest.fixture(scope="module")
def unbroken():
    return _fingerprint(execute_spec(SPEC))


@pytest.fixture(scope="module")
def evicted(tmp_path_factory):
    """A checkpoint 3 windows in that embeds its spec, as an engine's do."""
    checkpointer = Checkpointer(
        directory=str(tmp_path_factory.mktemp("evicted")),
        stop_after=3,
        spec_mapping=SPEC.to_mapping(),
    )
    with pytest.raises(SessionEvicted) as excinfo:
        execute_spec(SPEC, checkpointer=checkpointer)
    return excinfo.value.path


@pytest.fixture
def decodes(monkeypatch):
    """The origins of every ``loads_checkpoint`` call, in order."""
    calls = []
    decode = checkpoint_module.loads_checkpoint

    def counting(data, origin="checkpoint data"):
        calls.append(origin)
        return decode(data, origin)

    monkeypatch.setattr(checkpoint_module, "loads_checkpoint", counting)
    return calls


def test_replica_submit_with_resume_decodes_once(
    evicted, unbroken, decodes, tmp_path
):
    with open(evicted, "rb") as stream:
        raw = stream.read()
    with MiningService(max_inflight=1, checkpoint_dir=str(tmp_path)) as service:
        server = ReplicaServer(service)
        response, _ = server.handle_request({"op": "submit", "resume": raw})
        session_id = unwrap_response(response)["session_id"]
        response, _ = server.handle_request(
            {"op": "result", "session_id": session_id, "timeout": 120}
        )
        result = unwrap_response(response)["result"]
    assert _fingerprint(result) == unbroken
    assert len(decodes) == 1


def test_service_resume_decodes_once(evicted, unbroken, decodes):
    with MiningService(max_inflight=1) as service:
        result = service.resume(evicted).result(timeout=120)
    assert _fingerprint(result) == unbroken
    assert decodes == [repr(evicted)]


def test_stream_resume_from_decodes_once(evicted, decodes, capsys):
    assert main(["stream", "--resume-from", evicted, "--json"]) == 0
    assert '"records_processed": 192' in capsys.readouterr().out
    assert decodes == [repr(evicted)]


def test_in_process_migration_decodes_once_per_hop(unbroken, decodes, tmp_path):
    with ClusterController(replicas=2, checkpoint_dir=str(tmp_path)) as cluster:
        session = cluster.submit(SPEC, checkpoint_every=1)
        cluster.migrate(session.session_id, 1 - session.replica)
        result = session.result(timeout=120)
    assert _fingerprint(result) == unbroken
    assert session.migrations == 1
    assert len(decodes) == 1
