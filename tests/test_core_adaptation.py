"""Tests for space adaptors — the paper's Section 3 identities."""

import numpy as np
import pytest

from repro.core.adaptation import SpaceAdaptor, complementary_noise, compute_adaptor
from repro.core.perturbation import sample_perturbation
from repro.core.rotation import haar_orthogonal, is_orthogonal


@pytest.fixture
def source(rng):
    return sample_perturbation(5, rng, noise_sigma=0.08)


@pytest.fixture
def target(rng):
    return sample_perturbation(5, rng, noise_sigma=0.0)


@pytest.fixture
def X(rng):
    return rng.uniform(0, 1, size=(5, 40))


class TestAdaptorAlgebra:
    def test_rotation_adaptor_is_product(self, source, target):
        adaptor = compute_adaptor(source, target)
        np.testing.assert_allclose(
            adaptor.rotation_adaptor, target.rotation @ source.rotation.T
        )

    def test_rotation_adaptor_is_orthogonal(self, source, target):
        adaptor = compute_adaptor(source, target)
        assert is_orthogonal(adaptor.rotation_adaptor)

    def test_paper_identity_clean(self, source, target, X):
        """Y_{i->t} = R_t X + Psi_t when the source had no noise."""
        clean_source = source.without_noise()
        Y = np.asarray(clean_source.apply(X))
        adapted = compute_adaptor(clean_source, target).apply(Y)
        np.testing.assert_allclose(
            adapted, target.transform_clean(X), atol=1e-10
        )

    def test_paper_identity_with_complementary_noise(self, source, target, X, rng):
        """Y_{i->t} = R_t X + Psi_t + R_t R_i^{-1} Delta_i with noise."""
        Y, noise = source.apply(X, rng=rng, return_noise=True)
        adapted = compute_adaptor(source, target).apply(np.asarray(Y))
        expected = target.transform_clean(X) + complementary_noise(
            source, target, noise
        )
        np.testing.assert_allclose(adapted, expected, atol=1e-10)

    def test_complementary_noise_preserves_magnitude(self, source, target, rng):
        """Rotating the noise must not amplify it (orthogonal invariance)."""
        noise = rng.normal(scale=0.1, size=(5, 200))
        rotated = complementary_noise(source, target, noise)
        assert np.linalg.norm(rotated) == pytest.approx(np.linalg.norm(noise))

    def test_self_adaptation_is_identity(self, source, X, rng):
        adaptor = compute_adaptor(source, source)
        np.testing.assert_allclose(adaptor.rotation_adaptor, np.eye(5), atol=1e-10)
        np.testing.assert_allclose(adaptor.translation_adaptor, 0.0, atol=1e-10)
        Y = source.transform_clean(X)
        np.testing.assert_allclose(adaptor.apply(Y), Y, atol=1e-10)

    def test_adaptation_composes(self, rng, X):
        """Adapting A->B then B->C equals adapting A->C."""
        a = sample_perturbation(5, rng)
        b = sample_perturbation(5, rng)
        c = sample_perturbation(5, rng)
        Y = a.transform_clean(X)
        via_b = compute_adaptor(b, c).apply(compute_adaptor(a, b).apply(Y))
        direct = compute_adaptor(a, c).apply(Y)
        np.testing.assert_allclose(via_b, direct, atol=1e-9)

    def test_adaptor_hides_individual_rotations(self, rng):
        """Distinct (source, target) pairs can produce the same adaptor, so
        the adaptor alone cannot identify either rotation."""
        blinding = haar_orthogonal(5, rng)
        source_a = sample_perturbation(5, rng)
        target_a = sample_perturbation(5, rng)
        # Rotate both by the same blinding matrix on the right: the adaptor
        # R_t R_i^{-1} is unchanged.
        source_b = source_a.with_rotation(source_a.rotation @ blinding)
        target_b = target_a.with_rotation(target_a.rotation @ blinding)
        adaptor_a = compute_adaptor(source_a, target_a)
        adaptor_b = compute_adaptor(source_b, target_b)
        np.testing.assert_allclose(
            adaptor_a.rotation_adaptor, adaptor_b.rotation_adaptor, atol=1e-10
        )


class TestValidation:
    def test_dimension_mismatch_rejected(self, rng):
        a = sample_perturbation(3, rng)
        b = sample_perturbation(4, rng)
        with pytest.raises(ValueError):
            compute_adaptor(a, b)

    def test_non_orthogonal_adaptor_rejected(self):
        with pytest.raises(ValueError):
            SpaceAdaptor(
                rotation_adaptor=np.ones((3, 3)),
                translation_adaptor=np.zeros(3),
            )

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            SpaceAdaptor(
                rotation_adaptor=haar_orthogonal(3, rng),
                translation_adaptor=np.zeros(4),
            )
        with pytest.raises(ValueError, match="vector"):
            SpaceAdaptor(
                rotation_adaptor=np.eye(1), translation_adaptor=np.asarray(1.0)
            )

    def test_apply_checks_orientation(self, source, target, rng):
        adaptor = compute_adaptor(source, target)
        with pytest.raises(ValueError):
            adaptor.apply(rng.normal(size=(4, 10)))

    def test_complementary_noise_shape_checked(self, source, target):
        with pytest.raises(ValueError):
            complementary_noise(source, target, np.zeros((3, 10)))


class TestAdaptorCache:
    """LRU adaptor cache keyed by (target_id, party_id)."""

    def _adaptor(self, rng, d=5):
        return compute_adaptor(
            sample_perturbation(d, rng, noise_sigma=0.05),
            sample_perturbation(d, rng, noise_sigma=0.0),
        )

    def test_get_or_compute_caches_and_counts(self, rng):
        from repro.core.adaptation import AdaptorCache

        cache = AdaptorCache(maxsize=8)
        calls = []

        def factory():
            calls.append(1)
            return self._adaptor(rng)

        first = cache.get_or_compute("epoch-1", 0, factory)
        second = cache.get_or_compute("epoch-1", 0, factory)
        assert first is second  # repeat lookups skip re-derivation
        assert len(calls) == 1
        assert cache.stats["hits"] == 1 and cache.stats["misses"] == 1

    def test_lru_bound_evicts_oldest(self, rng):
        from repro.core.adaptation import AdaptorCache

        cache = AdaptorCache(maxsize=2)
        a, b, c = (self._adaptor(rng) for _ in range(3))
        cache.put(1, 0, a)
        cache.put(1, 1, b)
        assert cache.get(1, 0) is a  # refreshes (1, 0)
        cache.put(1, 2, c)  # evicts (1, 1), the least recently used
        assert cache.get(1, 1) is None
        assert cache.get(1, 0) is a and cache.get(1, 2) is c
        assert len(cache) == 2

    def test_invalidate_is_the_renegotiation_hook(self, rng):
        from repro.core.adaptation import AdaptorCache

        cache = AdaptorCache(maxsize=16)
        for epoch in (1, 2):
            for party in range(3):
                cache.put(epoch, party, self._adaptor(rng))
        # Re-negotiation: every adaptor of the stale target goes at once.
        assert cache.invalidate(target_id=1) == 3
        assert all(cache.get(1, party) is None for party in range(3))
        assert all(cache.get(2, party) is not None for party in range(3))
        # A single party can be dropped across targets too.
        assert cache.invalidate(party_id=0) == 1
        assert cache.invalidate() == 2  # clears the rest
        assert len(cache) == 0

    def test_maxsize_validated(self):
        from repro.core.adaptation import AdaptorCache

        with pytest.raises(ValueError):
            AdaptorCache(maxsize=0)

    def test_stream_session_reuses_cached_adaptors(self):
        """End to end: a multi-epoch stream run hits the cache instead of
        re-deriving per-party adaptors every window."""
        from unittest.mock import patch

        from repro.streaming import StreamConfig, make_stream, run_stream_session
        from repro.streaming import stream_session as session_module

        # shards=3 puts the drift re-negotiation (window 4) mid-round
        # (round = windows 3-5), exercising the deferred invalidation.
        for shards in (1, 3):
            source = make_stream("iris", kind="abrupt", n_records=8 * 32, seed=0)
            config = StreamConfig(
                k=3, window_size=32, compute_privacy=False, seed=0,
                shards=shards,
            )
            with patch.object(
                session_module, "compute_adaptor", wraps=compute_adaptor
            ) as spy:
                result = run_stream_session(source, config)
            # Derivations: k per negotiation (inside the protocol roles)
            # plus one migration adaptor per re-negotiation.  Every *window*
            # consults the cache instead — with 8 windows and cold caches
            # this count would exceed the bound, and so would invalidating
            # the replaced epoch before the round's stacks are built.
            epochs = len(result.events)
            assert epochs >= 2  # abrupt drift re-negotiates at least once
            assert spy.call_count == 3 * epochs + (epochs - 1)
            assert len(result.windows) == 8
