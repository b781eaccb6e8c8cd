"""What ``import repro`` loads, and what runs without scipy.

scipy is a dependency of one attack only: the ICA attack's component
matching (``linear_sum_assignment``), which only the full attack suite
behind the paper's reported privacy numbers runs.  Importing it costs
every process the package starts (CLI commands, replica children) about
half a second, so the package imports it where ICA needs it, and every
serve, stream and cluster path runs without it.

Each check runs in a fresh interpreter.  With ``shim`` first on
``PYTHONPATH``, ``import scipy`` raises as if scipy were not installed;
process replicas inherit that path, so their children run without scipy
too.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))


@pytest.fixture
def shim(tmp_path):
    """A directory whose ``scipy`` package refuses to import."""
    package = tmp_path / "shim" / "scipy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "raise ModuleNotFoundError(\"No module named 'scipy'\", name='scipy')\n"
    )
    return str(package.parent)


def _run(code, shim=None):
    """Run ``code`` in a fresh interpreter; returns its stdout."""
    path = [SRC] if shim is None else [shim, SRC]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("shimmed", [False, True], ids=["plain", "shimmed"])
def test_import_repro_leaves_scipy_unloaded(shim, shimmed):
    out = _run(
        """
        import sys
        import repro
        print("scipy" in sys.modules)
        """,
        shim=shim if shimmed else None,
    )
    assert out.split() == ["False"]


def test_stream_and_batch_privacy_run_without_scipy(shim):
    out = _run(
        """
        import sys
        from repro.serve import SessionSpec, execute_spec

        stream = execute_spec(SessionSpec(
            kind="stream", dataset="wine", k=3, windows=4, window_size=32,
            compute_privacy=True, seed=3,
        ))
        assert stream.events, "no negotiation epochs"
        assert all(e.privacy_guarantee is not None for e in stream.events)
        batch = execute_spec(SessionSpec(
            kind="batch", dataset="iris", k=3, compute_privacy=True, seed=3,
        ))
        assert batch.risk_profiles, "no privacy profiles"
        print("scipy" in sys.modules)
        """,
        shim=shim,
    )
    assert out.split() == ["False"]


def test_process_cluster_runs_without_scipy(shim):
    out = _run(
        """
        from repro.cluster import ClusterController
        from repro.serve import SessionSpec

        specs = [
            SessionSpec(kind="stream", dataset="wine", k=3, windows=4,
                        window_size=32, compute_privacy=True, seed=seed)
            for seed in (1, 2)
        ]
        with ClusterController(replicas=2, backend="process") as cluster:
            sessions = [cluster.submit(spec) for spec in specs]
            results = [session.result(timeout=120) for session in sessions]
        print(sum(r.records_processed for r in results))
        """,
        shim=shim,
    )
    assert out.split() == ["256"]


def test_ica_attack_needs_scipy_at_use(shim):
    out = _run(
        """
        import numpy as np
        from repro.attacks import ICAAttack, build_context

        X = np.random.default_rng(0).normal(size=(3, 40))
        try:
            ICAAttack().reconstruct(build_context(X, X, seed=0))
        except ImportError as exc:
            print(exc.name)
        """,
        shim=shim,
    )
    assert out.split() == ["scipy"]
