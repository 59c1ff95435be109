import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pdasgd.core import Distribution
from pdasgd.rng import CategoricalSampler, SplitMix64, derive_seed, fnv1a64


def test_splitmix64_reference_sequence():
    # First outputs of SplitMix64 seeded with 0, per the published algorithm.
    r = SplitMix64(0)
    assert r.next_uint64() == 0xE220A8397B1DCDAF
    assert r.next_uint64() == 0x6E789E6AA1B965F4
    assert r.next_uint64() == 0x06C45D188009454F


def test_splitmix64_matches_independent_reimplementation():
    mask = (1 << 64) - 1

    def reference(seed, count):
        state = seed & mask
        out = []
        for _ in range(count):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            out.append(z ^ (z >> 31))
        return out

    for seed in (0, 1, 123456789, 2**64 - 1):
        r = SplitMix64(seed)
        assert [r.next_uint64() for _ in range(8)] == reference(seed, 8)


def test_doubles_in_unit_interval():
    r = SplitMix64(7)
    xs = r.doubles(1000)
    assert xs.min() >= 0.0 and xs.max() < 1.0
    assert abs(xs.mean() - 0.5) < 0.05


def test_determinism_and_split_independence():
    assert SplitMix64(42).doubles(16).tolist() == SplitMix64(42).doubles(16).tolist()
    a = SplitMix64(derive_seed(42, "a")).doubles(16)
    b = SplitMix64(derive_seed(42, "b")).doubles(16)
    assert not np.allclose(a, b)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), count=st.integers(0, 300))
def test_doubles_equal_scalar_calls(seed, count):
    batched, scalar = SplitMix64(seed), SplitMix64(seed)
    xs = batched.doubles(count)
    ref = np.array([scalar.next_double() for _ in range(count)])
    assert xs.dtype == np.float64 and xs.tobytes() == ref.tobytes()
    # same final state: the streams continue identically
    assert batched.next_uint64() == scalar.next_uint64()
    with pytest.raises(ValueError):
        batched.doubles(-1)


def test_derive_seed_stable():
    s1 = derive_seed(5, "img/8/0/a")
    assert s1 == derive_seed(5, "img/8/0/a")
    assert s1 != derive_seed(5, "img/8/0/b")
    assert s1 != derive_seed(6, "img/8/0/a")


def test_fnv1a64_known_values():
    # Standard FNV-1a 64 test vectors.
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_next_index_bounds():
    r = SplitMix64(3)
    draws = [r.next_index(7) for _ in range(500)]
    assert min(draws) == 0 and max(draws) == 6


def test_categorical_sampler_frequencies():
    w = np.array([0.2, 0.0, 0.5, 0.3])
    sampler = CategoricalSampler(Distribution(w))
    r = SplitMix64(11)
    counts = np.zeros(4)
    for _ in range(20000):
        counts[sampler.draw(r)] += 1
    freq = counts / counts.sum()
    assert counts[1] == 0  # zero-weight category never drawn
    assert np.abs(freq - w).max() < 0.02


@settings(max_examples=50, deadline=None)
@given(
    raw=arrays(np.float64, st.integers(1, 12), elements=st.sampled_from([0.0, 0.0, 1e-300, 1e-9, 0.1, 0.5, 1.0, 7.0])),
    seed=st.integers(0, 2**64 - 1),
    count=st.integers(0, 200),
)
def test_batched_draws_equal_scalar_draws(raw, seed, count):
    raw[-1] += 1.0  # positive mass; zero weights stay elsewhere
    sampler = CategoricalSampler(Distribution(raw / raw.sum()))
    batched, scalar = SplitMix64(seed), SplitMix64(seed)
    idx = sampler.draws(batched, count)
    assert idx.tolist() == [sampler.draw(scalar) for _ in range(count)]
    assert batched.next_uint64() == scalar.next_uint64()
    assert np.all(raw[idx] > 0)  # zero-weight categories are never drawn


def test_draws_clamp_past_rounded_total():
    # cumsum of ten 0.1 weights ends just below 1; a uniform above it must
    # still map to the last category, in the batched and the scalar draw
    class TopOfInterval:
        u = 1.0 - 2.0**-53

        def next_double(self):
            return self.u

        def doubles(self, count):
            return np.full(count, self.u)

    sampler = CategoricalSampler(Distribution(np.full(10, 0.1)))
    assert sampler.draws(TopOfInterval(), 3).tolist() == [sampler.draw(TopOfInterval())] * 3 == [9] * 3
