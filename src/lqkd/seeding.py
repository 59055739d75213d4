"""Deterministic seed derivation for reproducible, order-independent runs.

Every random draw in an experiment is derived from the master seed plus a
stream tag (and, for per-round generators, the round index) through a
collision-resistant hash. Results therefore never depend on execution
order or worker count.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1


def _absorb(h, tags) -> None:
    for tag in tags:
        if isinstance(tag, str):
            raw = tag.encode("utf-8")
            h.update(b"s" + len(raw).to_bytes(4, "little") + raw)
        else:
            h.update(b"i" + (int(tag) & _MASK64).to_bytes(8, "little"))


def _hasher(master_seed: int, *tags: int | str):
    h = hashlib.blake2b(digest_size=8)
    h.update((int(master_seed) & _MASK64).to_bytes(8, "little"))
    _absorb(h, tags)
    return h


def derive_seed(master_seed: int, *tags: int | str) -> int:
    """Mix a master seed and a sequence of tags into a fresh 64-bit seed."""
    return int.from_bytes(_hasher(master_seed, *tags).digest(), "little")


# Hash state after (master seed, stream tag); only ever copied, so that a
# round seed hashes just its round index on top.
_stream_hasher = lru_cache(maxsize=256)(_hasher)


def derive_round_seed(master_seed: int, round_index: int, stream_tag: str) -> int:
    """64-bit seed for one round of one named stream."""
    h = _stream_hasher(master_seed, stream_tag).copy()
    _absorb(h, (round_index,))
    return int.from_bytes(h.digest(), "little")


def stream_rng(master_seed: int, tag: str) -> np.random.Generator:
    """Generator for a named whole-run stream (drawn as fixed-size arrays)."""
    return np.random.default_rng(derive_seed(master_seed, tag))


def round_rng(master_seed: int, stream_tag: str, round_index: int) -> np.random.Generator:
    """Generator dedicated to a single round of a named stream."""
    return np.random.default_rng(derive_round_seed(master_seed, round_index, stream_tag))


# numpy's SeedSequence hash constants and PCG64's LCG multiplier, for
# round_rngs below; tests pin that it matches round_rng.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence_words(seeds: np.ndarray, n_words: int) -> list[np.ndarray]:
    """``SeedSequence(s).generate_state(n_words)`` for every 64-bit seed ``s``, word by word."""
    u32 = np.uint32
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * u32(hash_const)
        return value ^ (value >> u32(_XSHIFT))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return result ^ (result >> u32(_XSHIFT))

    # A seed's entropy is its little-endian 32-bit words; a seed below 2**32
    # has one word, and the pool pads with zero words either way.
    low, high = (seeds & _MASK32).astype(u32), (seeds >> 32).astype(u32)
    zero = np.zeros_like(low)
    pool = [hashmix(word) for word in (low, high) + (zero,) * (_POOL_SIZE - 2)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    words = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ u32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * u32(hash_const)
        words.append(value ^ (value >> u32(_XSHIFT)))
    return words


def round_rngs(master_seed: int, stream_tag: str, round_indices) -> Iterator[np.random.Generator]:
    """Generators for the given rounds of a named stream, in order.

    Each one draws exactly what ``round_rng(master_seed, stream_tag, r)``
    draws, but building a generator per round costs more than most rounds
    need, nearly all of it in ``SeedSequence``. Here the seeding of every
    round is worked out at once and one generator is reseeded in place,
    so use each generator before taking the next.
    """
    seeds = np.array([derive_round_seed(master_seed, r, stream_tag) for r in round_indices], dtype=np.uint64)
    words = [w.astype(np.uint64) for w in _seed_sequence_words(seeds, 8)]
    # PCG64 seeds from four little-endian 64-bit words: state high, low; increment high, low
    halves = [(words[2 * k] | (words[2 * k + 1] << 32)).tolist() for k in range(4)]
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for state_hi, state_lo, seq_hi, seq_lo in zip(*halves):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng
