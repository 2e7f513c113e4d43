import math

import numpy as np
import pytest

from roughwave import (
    CellField,
    SplitMix64,
    fbm_initial_field,
    fbm_midpoint,
    fit_rate,
    make_grid,
    midpoint_scale,
    normalize_to_unit,
    sample_seed,
    total_variation,
)
from roughwave.initial_data import FbmPath


class ZeroNoise(SplitMix64):
    """Degenerate stream: every normal draw is 0."""

    def normals(self, count):
        return np.zeros(count)


def test_splitmix64_known_answers():
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4


def test_splitmix64_streams_are_deterministic():
    a, b = SplitMix64(987654321), SplitMix64(987654321)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_normals_are_finite():
    # a uniform draw of 0 is mapped to 2^-53, so log(u1) never gives inf
    assert np.all(np.isfinite(SplitMix64(7).normals(100_000)))


def test_box_muller_zero_log_gives_zero():
    # u1 = 1 forces sqrt(-2 ln u1) = 0 whatever the angle
    assert math.sqrt(-2.0 * math.log(1.0)) * math.cos(2 * math.pi * 0.37) == 0.0


def test_normal_moments():
    z = SplitMix64(42).normals(100_000)
    assert -0.02 < z.mean() < 0.02
    assert 0.97 < z.var() < 1.03


def test_normal_block_matches_single_draws():
    block = SplitMix64(123).normals(1001)
    single_rng = SplitMix64(123)
    singles = np.array([single_rng.normals(1)[0] for _ in range(1001)])
    assert np.array_equal(block, singles)


def test_normal_chunked_matches_stream():
    chunked_rng = SplitMix64(5)
    chunks = [chunked_rng.normals(n) for n in (3, 4, 1, 8, 0, 2)]
    assert np.array_equal(np.concatenate(chunks), SplitMix64(5).normals(18))


def test_normals_validates_count():
    with pytest.raises(ValueError):
        SplitMix64(0).normals(-1)


def test_sample_seed_derivation():
    base = 0xDEADBEEF
    seeds = [sample_seed(base, i) for i in range(64)]
    assert len(set(seeds)) == 64
    assert all(0 <= s < 2**64 for s in seeds)
    assert seeds[0] == base ^ (0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF)


def test_midpoint_scale_values():
    assert midpoint_scale(0.5, 0) == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert midpoint_scale(0.75, 2) == pytest.approx(0.19134, abs=5e-6)


def test_fbm_midpoint_shape_and_pinning():
    path = fbm_midpoint(0.5, 5, SplitMix64(3))
    assert path.points.shape == (33,)
    assert path.points[0] == 0.0
    assert path.level == 5


def test_fbm_midpoint_zero_noise_gives_zero_path():
    path = fbm_midpoint(0.3, 4, ZeroNoise(0))
    assert np.all(path.points == 0.0)


def test_fbm_midpoint_validates_arguments():
    with pytest.raises(ValueError):
        fbm_midpoint(0.0, 4, SplitMix64(0))
    with pytest.raises(ValueError):
        fbm_midpoint(1.0, 4, SplitMix64(0))
    with pytest.raises(ValueError):
        fbm_midpoint(0.5, 0, SplitMix64(0))
    with pytest.raises(ValueError):
        fbm_midpoint(0.5, 27, SplitMix64(0))


def test_fbm_midpoint_consumes_fixed_draw_count():
    # 2^k normals in total: 1 endpoint + 2^k - 1 midpoints
    k = 6
    rng = SplitMix64(314)
    fbm_midpoint(0.5, k, rng)
    twin = SplitMix64(314)
    twin.normals(1 << k)
    assert rng.state == twin.state
    assert rng.normals(1)[0] == twin.normals(1)[0]


def test_fbm_increment_variance_matches_recursion():
    # one-cell increments at level k have variance V_k, where
    # V_0 = 1 and V_{l+1} = V_l / 4 + scale(H=1/2, l)^2, giving
    # V_6 = 127/4096 ~ 2^-k
    k = 6
    oracle = (2 ** (k + 1) - 1) / 4**k
    acc = 0.0
    n_seeds = 10_000
    for s in range(n_seeds):
        p = fbm_midpoint(0.5, k, SplitMix64(sample_seed(99, s)))
        acc += float(np.mean(np.diff(p.points) ** 2))
    emp = acc / n_seeds
    assert abs(emp - oracle) / oracle < 0.10


def test_normalize_examples():
    p = FbmPath(0.5, 1, np.array([0.0, 2.0, -4.0]))
    out = normalize_to_unit(p)
    assert np.array_equal(out.points, [0.0, 0.5, -1.0])


def test_normalize_zero_path_unchanged():
    p = FbmPath(0.5, 1, np.zeros(3))
    assert np.array_equal(normalize_to_unit(p).points, p.points)


def test_normalize_is_idempotent_with_unit_peak():
    p = fbm_midpoint(0.7, 5, SplitMix64(12))
    once = normalize_to_unit(p)
    assert np.max(np.abs(once.points)) == 1.0
    twice = normalize_to_unit(once)
    assert np.array_equal(once.points, twice.points)


def test_fbm_path_validation():
    with pytest.raises(ValueError):
        FbmPath(0.5, 2, np.zeros(4))  # needs 2^2 + 1 points
    with pytest.raises(ValueError):
        FbmPath(0.5, 1, np.array([1.0, 0.0, 0.0]))  # left endpoint not pinned


def test_fbm_initial_field_is_path_prefix():
    grid = make_grid(0, 1, 64)
    field = fbm_initial_field(0.5, grid, 2020)
    path = normalize_to_unit(fbm_midpoint(0.5, 6, SplitMix64(2020)))
    assert np.array_equal(field.values, path.points[:-1])


def test_fbm_initial_field_deterministic():
    grid = make_grid(0, 1, 256)
    a = fbm_initial_field(0.25, grid, 77)
    b = fbm_initial_field(0.25, grid, 77)
    assert np.array_equal(a.values, b.values)
    c = fbm_initial_field(0.25, grid, 78)
    assert not np.array_equal(a.values, c.values)


def test_fbm_initial_field_validates_grid():
    with pytest.raises(ValueError):
        fbm_initial_field(0.5, make_grid(0, 1, 48), 1)
    with pytest.raises(ValueError):
        fbm_initial_field(0.5, make_grid(0, 2, 64), 1)
    with pytest.raises(ValueError):
        fbm_initial_field(0.5, make_grid(0, 1, 1), 1)


def test_fbm_tv_blowup_rate():
    # TV of brownian-like data grows ~ dx^{-1/2}; 32 seeds, k = 6..12
    slopes = []
    for s in range(32):
        seed = sample_seed(4321, s)
        points = []
        for k in range(6, 13):
            field = fbm_initial_field(0.5, make_grid(0, 1, 1 << k), seed)
            points.append((field.grid.dx, total_variation(field)))
        slopes.append(fit_rate(points)[0])
    assert abs(np.mean(slopes) - (-0.5)) < 0.1

