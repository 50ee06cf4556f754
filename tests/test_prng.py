"""The generator is pinned to the published SplitMix64 algorithm; if any of
these fixtures move, every golden file in the repository moves with them."""

import numpy as np
import pytest

from noiselogic.prng import (
    GOLDEN,
    MASK64,
    SplitMix64,
    _mix64_inplace,
    derive_seed,
    derive_seeds,
    mix64,
    mix64_array,
)

# Published reference outputs of splitmix64 (state-increment form).
SEED0_OUTPUTS = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]

SEED1_FIRST = 0x910A2DEC89025CC1


def test_known_answer_seed0():
    stream = SplitMix64(0)
    assert [stream.next_u64() for _ in range(4)] == SEED0_OUTPUTS


def test_known_answer_seed1():
    assert SplitMix64(1).next_u64() == SEED1_FIRST


def test_block_matches_scalar_path():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert list(a.block(32)) == [b.next_u64() for _ in range(32)]


def test_interleaved_consumption_is_one_stream():
    a = SplitMix64(42)
    got = [a.next_u64()] + list(a.block(3)) + [a.next_u64()]
    b = SplitMix64(42)
    assert got == [b.next_u64() for _ in range(5)]


EDGE_VALUES = [0, 1, GOLDEN, MASK64, 2**63, 12345678901234567]


def test_mix64_array_matches_scalar():
    zs = np.array(EDGE_VALUES, dtype=np.uint64)
    assert [int(v) for v in mix64_array(zs)] == [mix64(int(z)) for z in zs]


def test_mix64_array_leaves_its_argument_unchanged():
    zs = np.array(EDGE_VALUES, dtype=np.uint64)
    mix64_array(zs)
    assert zs.tolist() == EDGE_VALUES


def test_top_bit_only_mix_keeps_the_top_bit_of_mix64():
    zs = np.array(EDGE_VALUES, dtype=np.uint64)
    _mix64_inplace(zs, np.empty_like(zs), top_bit_only=True)
    assert [int(v) >> 63 for v in zs] == [mix64(z) >> 63 for z in EDGE_VALUES]


def test_derive_seed_is_root_stream_output():
    stream = SplitMix64(555)
    assert [derive_seed(555, i) for i in range(6)] == [stream.next_u64() for _ in range(6)]


def test_derive_seeds_vectorized_agrees():
    assert [int(v) for v in derive_seeds(777, 10)] == [derive_seed(777, i) for i in range(10)]
    assert [int(v) for v in derive_seeds(777, 5, start=3)] == [
        derive_seed(777, i) for i in range(3, 8)
    ]
    # A NumPy integer seed or start gives the same seeds as a Python int.
    for seed in (np.uint64(2**64 - 1), np.int64(5)):
        assert derive_seeds(seed, 3, np.int64(4)).tolist() == derive_seeds(int(seed), 3, 4).tolist()
    # Indices wrap modulo 2**64, as derive_seed's do.
    assert [int(v) for v in derive_seeds(777, 3, start=2**64 - 2)] == [
        derive_seed(777, i) for i in range(2**64 - 2, 2**64 + 1)
    ]


def test_spawn_uses_derive_convention():
    parent = SplitMix64(9)
    child = parent.spawn(4)
    assert child.seed == derive_seed(9, 4)


def test_seed_range_checked():
    with pytest.raises(ValueError):
        SplitMix64(-1)
    with pytest.raises(ValueError):
        SplitMix64(2**64)


def test_distinct_children_no_collisions_small_scale():
    seeds = derive_seeds(0, 10_000)
    assert len(set(int(s) for s in seeds)) == 10_000
