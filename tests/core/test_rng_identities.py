"""The two NumPy ``Generator`` identities the batched delta kernel rests on.

The vectorized maintainers replace two scalar call sequences with
cheaper calls that must consume the bit generator *identically* —
otherwise every seeded stream in the repository (and
``tests/fixtures/engine_streams.json``) silently changes:

* random deletions: ``rng.integers(0, [t, t-1, …])`` (one broadcast
  call over descending bounds) ≡ the scalar loop ``rng.integers(0, t)``,
  ``rng.integers(0, t-1)``, …;
* old-sample segment choice: ``cdf.searchsorted(rng.random(),
  side="right")`` over the normalised cumulative weights ≡
  ``rng.choice(k, p=p)``.

Both are implementation facts of NumPy, not documented guarantees, so
they are pinned here — values *and* the generator's next draw — where a
NumPy upgrade that breaks them fails in a second with a readable name.
"""

import numpy as np
import pytest

SEEDS = range(200)


@pytest.mark.parametrize("total,count", [
    (7, 7),                  # down to the last item (bound 1)
    (500, 40),
    (32_000, 180),
    (2**32 + 5, 9),          # bounds straddling the 32-bit sampler switch
])
def test_descending_bounds_integers_equal_scalar_shrinking_loop(total, count):
    for seed in SEEDS:
        scalar_rng = np.random.default_rng(seed)
        scalar = [int(scalar_rng.integers(0, total - i))
                  for i in range(count)]
        batch_rng = np.random.default_rng(seed)
        batch = batch_rng.integers(0, np.arange(total, total - count, -1))
        assert batch.tolist() == scalar, f"seed {seed}"
        assert batch_rng.random() == scalar_rng.random(), f"seed {seed}"
        assert batch_rng.bit_generator.state == \
            scalar_rng.bit_generator.state, f"seed {seed}"


@pytest.mark.parametrize("sizes", [
    [500],                               # one stored delta: p == [1.0]
    [500, 3500],
    [500, 3500, 28_000],
    [100, 100, 200, 400, 800, 1600],
    [1, 10**6, 3],                       # near-degenerate weights
])
def test_cdf_searchsorted_equals_choice_with_p(sizes):
    sizes = np.asarray(sizes, dtype=float)
    p = sizes / sizes.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    for seed in SEEDS:
        choice_rng = np.random.default_rng(seed)
        chosen = [int(choice_rng.choice(len(p), p=p)) for _ in range(25)]
        cdf_rng = np.random.default_rng(seed)
        searched = [int(cdf.searchsorted(cdf_rng.random(), side="right"))
                    for _ in range(25)]
        assert searched == chosen, f"seed {seed}"
        assert cdf_rng.random() == choice_rng.random(), f"seed {seed}"
        assert cdf_rng.bit_generator.state == \
            choice_rng.bit_generator.state, f"seed {seed}"


def test_identities_survive_interleaving_with_other_draws():
    """As used by the kernel: the two calls interleave with sketch
    reloads (``choice(..., replace=False)``) and normal draws on one
    shared stream."""
    p = np.array([500.0, 3500.0, 28_000.0])
    p /= p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    for seed in range(50):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got_a, got_b = [], []
        for step in range(6):
            got_a.append(a.normal(4000.0, 59.0))
            got_b.append(b.normal(4000.0, 59.0))
            got_a += [int(a.integers(0, 4000 - i)) for i in range(12)]
            got_b += b.integers(0, np.arange(4000, 3988, -1)).tolist()
            got_a.append(int(a.choice(3, p=p)))
            got_b.append(int(cdf.searchsorted(b.random(), side="right")))
            got_a += a.choice(3500, size=40, replace=False).tolist()
            got_b += b.choice(3500, size=40, replace=False).tolist()
        assert got_a == got_b, f"seed {seed}"
        assert a.bit_generator.state == b.bit_generator.state
