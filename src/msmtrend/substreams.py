"""``numpy.random.default_rng([seed, key])`` substreams for keys 0..n-1 at once.

NumPy's SeedSequence hash and PCG64 seeding (O'Neill 2014) run on ``uint64``
arrays over all keys, which are below 2**32; every stream is bit-identical to
its own ``default_rng``, without building one generator per key.
"""

import numpy as np

__all__ = ["pcg64_states", "uniforms", "generators"]

_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier, as (high, low) 64-bit halves
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))
_CHUNK = 1024  # keys whose states generators() holds at once


def _seed_words(seed: int, ids: np.ndarray) -> list:
    """``SeedSequence([seed, id]).generate_state(4, np.uint64)`` for each id.

    NumPy's SeedSequence hash, run on ``uint64`` arrays holding 32-bit words:
    the entropy is the seed's little-endian uint32 words followed by the id
    (one word, as ids are below 2**32), mixed into a pool of four words, then
    drawn out as eight words paired into four uint64 values.
    """
    entropy = [np.full(ids.size, seed >> shift & _MASK32, dtype=np.uint64)
               for shift in range(0, max(seed.bit_length(), 1), 32)] + [ids]
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    zero = np.zeros(ids.size, dtype=np.uint64)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, len(entropy)):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[2 * j] | words[2 * j + 1] << 32 for j in range(4)]


def _mulhi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit product a * b, from 32-bit limbs."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    lo_lo, hi_lo, lo_hi = a_lo * b_lo, a_hi * b_lo, a_lo * b_hi
    mid = (lo_lo >> 32) + (hi_lo & _MASK32) + (lo_hi & _MASK32)
    return a_hi * b_hi + (hi_lo >> 32) + (lo_hi >> 32) + (mid >> 32)


def _step(hi, lo, inc_hi, inc_lo):
    """One step of the 128-bit LCG, held as (high, low) uint64 halves."""
    mult_hi, mult_lo = _PCG_MULT
    lo_new = lo * mult_lo + inc_lo
    hi_new = hi * mult_lo + lo * mult_hi + _mulhi(lo, mult_lo) + inc_hi
    return hi_new + (lo_new < inc_lo), lo_new


def pcg64_states(seed: int, keys: np.ndarray) -> tuple:
    """Seeded ``(state_hi, state_lo, inc_hi, inc_lo)`` for ``uint64`` keys: from
    the SeedSequence words (initstate, initseq), state 0 and increment ``2 *
    initseq + 1``, one step, add ``initstate``, one step."""
    s_hi, s_lo, i_hi, i_lo = _seed_words(seed, keys)
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    lo = inc_lo + s_lo
    hi, lo = _step(inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def uniforms(seed: int, n: int, m: int) -> np.ndarray:
    """Row ``key`` is ``default_rng([seed, key]).random(m)``: each draw steps
    the LCG and maps the XSL-RR output ``x`` to ``(x >> 11) * 2**-53``."""
    hi, lo, inc_hi, inc_lo = pcg64_states(seed, np.arange(n, dtype=np.uint64))
    u = np.empty((m, n))
    for k in range(m):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        u[k] = (x >> rot | x << (-rot & 63)) >> 11
    u *= 2.0**-53
    return u.T


def generators(seed: int, n: int):
    """Yield ``default_rng([seed, key])`` for key = 0..n-1 as one reused
    generator, set to each key's state in turn: good until the next yield."""
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    for start in range(0, n, _CHUNK):
        keys = np.arange(start, min(start + _CHUNK, n), dtype=np.uint64)
        for s_hi, s_lo, i_hi, i_lo in zip(*(a.tolist() for a in pcg64_states(seed, keys))):
            bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                          "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}}
            yield gen
