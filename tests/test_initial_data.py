import math
import tracemalloc

import numpy as np
import pytest

from roughwave import (
    CellField,
    SplitMix64,
    fbm_initial_field,
    fit_rate,
    make_grid,
    sample_seed,
    total_variation,
)
from roughwave import initial_data
from roughwave.initial_data import _midpoint_points


class ZeroNoise(SplitMix64):
    """Degenerate stream: every normal draw is 0."""

    def normals(self, count):
        return np.zeros(count)


def test_splitmix64_known_answers():
    assert SplitMix64(0).u64(2).tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]


def test_splitmix64_streams_are_deterministic():
    # drawn in chunks or in one block, a seed gives the same words
    a, b = SplitMix64(987654321), SplitMix64(987654321)
    chunks = np.concatenate([a.u64(n) for n in (1, 0, 38, 61)])
    assert chunks.tolist() == b.u64(100).tolist()
    assert a.u64(3).tolist() == b.u64(3).tolist()


def test_u64_rejects_a_negative_count():
    rng = SplitMix64(5)
    with pytest.raises(ValueError, match="count"):
        rng.u64(-1)
    assert rng.u64(4).tolist() == SplitMix64(5).u64(4).tolist()


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
    assert initial_data._midpoint_scale(0.5, 0) == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert initial_data._midpoint_scale(0.75, 2) == pytest.approx(0.19134, abs=5e-6)


def test_midpoint_points_shape_and_pinning():
    points = _midpoint_points(0.5, 5, SplitMix64(3))
    assert points.shape == (33,)
    assert points[0] == 0.0


def test_midpoint_points_zero_noise_gives_zero_path():
    assert np.all(_midpoint_points(0.3, 4, ZeroNoise(0)) == 0.0)


def test_fbm_initial_field_leaves_zero_path_alone(monkeypatch):
    monkeypatch.setattr(initial_data, "SplitMix64", ZeroNoise)
    field = fbm_initial_field(0.3, make_grid(0, 1, 16), 0)
    assert np.array_equal(_bits(field.values), _bits(np.zeros(16)))


def test_fbm_initial_field_divides_by_largest_magnitude(monkeypatch):
    # the peak is |-4|, not max p = 2; the final path point is dropped
    monkeypatch.setattr(initial_data, "_midpoint_points",
                        lambda hurst, level, rng: np.array([0.0, 2.0, -4.0]))
    field = fbm_initial_field(0.5, make_grid(0, 1, 2), 0)
    assert np.array_equal(field.values, [0.0, 0.5])


@pytest.mark.parametrize("hurst, level", [(0.0, 4), (1.0, 4), (0.5, 0), (0.5, 27)])
def test_midpoint_points_validates_arguments(hurst, level):
    with pytest.raises(ValueError):
        _midpoint_points(hurst, level, SplitMix64(0))


@pytest.mark.parametrize("hurst", [0.0, 1.0, -0.5, 1.5])
def test_fbm_initial_field_validates_hurst(hurst):
    with pytest.raises(ValueError, match="hurst"):
        fbm_initial_field(hurst, make_grid(0, 1, 16), 0)


def test_midpoint_points_consumes_fixed_draw_count():
    # 2^k normals in total: 1 endpoint + 2^k - 1 midpoints
    k = 6
    rng = SplitMix64(314)
    _midpoint_points(0.5, k, rng)
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
        points = _midpoint_points(0.5, k, SplitMix64(sample_seed(99, s)))
        acc += float(np.mean(np.diff(points) ** 2))
    emp = acc / n_seeds
    assert abs(emp - oracle) / oracle < 0.10


def test_fbm_initial_field_is_unit_peak_path_prefix():
    field = fbm_initial_field(0.5, make_grid(0, 1, 64), 2020)
    points = _midpoint_points(0.5, 6, SplitMix64(2020))
    assert np.abs(points[:-1]).max() == np.abs(points).max()  # the peak is not dropped
    assert np.array_equal(field.values, points[:-1] / np.abs(points).max())
    assert np.max(np.abs(field.values)) == 1.0


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



# --- bit identity with the one-block recipe --------------------------------
#
# The oracle below is the recipe the chunked, in-place generator replaced: one
# splitmix64 block per draw, Box-Muller on fresh arrays, and one midpoint
# update per level.  The generator must reproduce it bit for bit.

_MASK = 0xFFFFFFFFFFFFFFFF


class OracleSplitMix64:
    def __init__(self, seed):
        self.state = int(seed) & _MASK
        self._spare_normal = None

    def _u64_block(self, count):
        steps = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(self.state) + steps * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        self.state = (self.state + count * 0x9E3779B97F4A7C15) & _MASK
        return z

    def normals(self, count):
        out = np.empty(count)
        k = 0
        if self._spare_normal is not None and count > 0:
            out[0] = self._spare_normal
            self._spare_normal = None
            k = 1
        need = count - k
        if need <= 0:
            return out
        pairs = (need + 1) // 2
        u = (self._u64_block(2 * pairs) >> np.uint64(11)).astype(np.float64)
        u *= 2.0**-53
        u[u == 0.0] = 2.0**-53
        r = np.sqrt(-2.0 * np.log(u[0::2]))
        ang = (2.0 * np.pi) * u[1::2]
        woven = np.empty(2 * pairs)
        woven[0::2] = r * np.cos(ang)
        woven[1::2] = r * np.sin(ang)
        out[k:] = woven[:need]
        if need % 2 == 1:
            self._spare_normal = float(woven[need])
        return out


def oracle_scale(hurst, level):
    return math.sqrt((1.0 - 2.0 ** (2.0 * hurst - 2.0)) / 2.0 ** (2.0 * level * hurst))


def oracle_midpoint(hurst, level_k, rng):
    n = 1 << level_k
    pts = np.zeros(n + 1)
    pts[n] = rng.normals(1)[0]
    for level in range(level_k):
        stride = n >> level
        noise = rng.normals(1 << level)
        left = pts[0:n:stride]
        right = pts[stride : n + 1 : stride]
        pts[stride >> 1 :: stride] = 0.5 * (left + right) + oracle_scale(hurst, level) * noise
    return pts


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


_CHUNK = initial_data._DRAW_CHUNK
_COUNTS = (0, 1, 7, 8, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3)


@pytest.mark.parametrize("spare", [False, True])
@pytest.mark.parametrize("count", _COUNTS)
def test_normals_bits_match_oracle(count, spare):
    rng, oracle = SplitMix64(2718), OracleSplitMix64(2718)
    if spare:  # an odd draw leaves a spare normal pending on both streams
        assert np.array_equal(_bits(rng.normals(3)), _bits(oracle.normals(3)))
        assert rng._spare_normal is not None
    assert np.array_equal(_bits(rng.normals(count)), _bits(oracle.normals(count)))
    assert rng.state == oracle.state
    assert rng._spare_normal == oracle._spare_normal
    assert np.array_equal(_bits(rng.normals(5)), _bits(oracle.normals(5)))


def test_normals_in_draw_chunks_match_oracle_block():
    rng = SplitMix64(99)
    chunks = [rng.normals(n) for n in (1, _CHUNK, _CHUNK, 17)]
    assert np.array_equal(_bits(np.concatenate(chunks)),
                          _bits(OracleSplitMix64(99).normals(2 * _CHUNK + 18)))


@pytest.mark.parametrize("seed", [7, sample_seed(2024, 3)])
@pytest.mark.parametrize("hurst", [0.25, 0.5, 0.75])
def test_fbm_bits_match_oracle(hurst, seed):
    for k in range(1, 19):
        pts = oracle_midpoint(hurst, k, OracleSplitMix64(seed))
        path = _midpoint_points(hurst, k, SplitMix64(seed))
        assert np.array_equal(_bits(path), _bits(pts)), k
        unit = pts / float(np.max(np.abs(pts)))
        field = fbm_initial_field(hurst, make_grid(0, 1, 1 << k), seed)
        assert np.array_equal(_bits(field.values), _bits(unit[:-1])), k


def test_fbm_initial_field_allocation_peak():
    # the path buffer plus CellField's copy, and chunk-sized temporaries
    grid = make_grid(0, 1, 1 << 18)
    tracemalloc.start()
    try:
        field = fbm_initial_field(0.5, grid, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * field.values.nbytes
