"""Named, splittable random streams for reproducible trajectories.

Every trajectory owns two independent sub-streams derived deterministically
from ``(seed, replicate)``: one consumed by Gaussian increments, one by
Poisson jump counts. Keeping the two disjoint means toggling jumps on or off
never perturbs the Brownian path, which enables common-random-number
comparisons across noise configurations.

Streams are materialized with numpy's ``SeedSequence`` spawn keys, so a
replicate's stream depends only on its index, never on how many replicates
run or in what order. There are two ways to build them, and they give the
same streams bit for bit. ``stream`` builds one generator through
``SeedSequence`` and ``PCG64``, about 24 µs each. ``streams`` serves a block:
it runs the ``SeedSequence`` hash (O'Neill's ``seed_seq_fe``) on arrays, one
lane per replicate, and hands each ``PCG64`` its four state words as the
caller iterates, about 3 to 5 µs per generator, so a caller need not hold
every generator of the block at once. Only a seed and replicates below 2**32
hash the six entropy words ``[seed, 0, 0, 0, k, purpose]`` it computes, so a
block with a larger one, or a single replicate (where the array pass costs
more than one ``stream`` call), goes through ``stream``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["GAUSSIAN", "JUMPS", "stream", "streams"]

# purpose indices within one trajectory's stream family
GAUSSIAN = 0
JUMPS = 1

# numpy's SeedSequence constants: the pool hash (A), the output hash (B) and
# the pool mixer (L, R), all on 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_WORD = 1 << 32
_MASK = _WORD - 1


def stream(seed: int, replicate: int, purpose: int) -> np.random.Generator:
    """Generator for one (seed, replicate, purpose) triple.

    Identical triples always yield identical draw sequences; distinct
    triples yield statistically independent streams.
    """
    if replicate < 0:
        raise ValueError(f"replicate index must be >= 0, got {replicate}")
    if purpose not in (GAUSSIAN, JUMPS):
        raise ValueError(f"unknown stream purpose {purpose}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(replicate), int(purpose)))
    return np.random.Generator(np.random.PCG64(ss))


def streams(seed: int, reps: Sequence[int], purpose: int) -> Iterator[np.random.Generator]:
    """``stream(seed, k, purpose) for k in reps``, each generator built as
    the iterator reaches it, so a caller that drops one before taking the
    next holds one at a time. With two or more replicates and the seed and
    every k in [0, 2**32), their seeds are hashed at once, in one
    vectorised pass, when streams is called."""
    if purpose not in (GAUSSIAN, JUMPS):
        raise ValueError(f"unknown stream purpose {purpose}")
    if len(reps) <= 1 or not (0 <= seed < _WORD and 0 <= min(reps) and max(reps) < _WORD):
        return (stream(seed, k, purpose) for k in reps)
    words = _state_words(int(seed), np.asarray(reps, dtype=np.uint64), purpose)
    return (np.random.Generator(np.random.PCG64(_Fixed(row))) for row in words)


class _Fixed(ISeedSequence):
    """Seed sequence that hands PCG64 its four precomputed uint64 words."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _hash(value, const: int, mult: int):
    """One step of the SeedSequence hash: the hashed word and the next
    constant. ``value`` is an int or a uint64 array of 32-bit words."""
    value = value ^ const
    const = const * mult & _MASK
    value = value * const & _MASK
    return value ^ value >> 16, const


def _mix(x, y):
    r = (x * _MIX_L - y * _MIX_R) & _MASK
    return r ^ r >> 16


def _state_words(seed: int, ks: np.ndarray, purpose: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(k, purpose)).generate_state(4,
    np.uint64)`` for every k in ``ks``, as a (B, 4) uint64 array. The first
    four entropy words do not depend on k, so their part of the pool is
    hashed once on ints; k and purpose are mixed in on (B,) arrays."""
    const = _INIT_A
    pool = []
    for word in (seed, 0, 0, 0):
        hashed, const = _hash(word, const, _MULT_A)
        pool.append(hashed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    for word in (ks, purpose):
        for dst in range(4):
            hashed, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    const = _INIT_B
    out = []
    for i in range(8):
        value, const = _hash(pool[i % 4], const, _MULT_B)
        out.append(value)
    return np.stack([out[j] | out[j + 1] << 32 for j in range(0, 8, 2)], axis=1)
