"""Deterministic random numbers: xoshiro256++ seeded through splitmix64.

The generator's stream is part of the package contract: a seed gives the
same initial fields in every version.  ``_blocks`` computes the stream in
vectorised lanes; the tests hold the scalar reference, one draw at a time.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


# Vectorised draws: the state update is linear over GF(2), so one step is a
# 256 x 256 bit matrix T, and its powers T^(2^i) jump a state ahead.  Lanes
# started a power-of-two stride apart then step in lockstep, and their
# outputs read lane by lane are the scalar stream.  A draw runs in blocks of
# at most 2^_BLOCK_LOG values (256 lanes x 64 steps); between blocks all
# lanes jump ahead by a block at once.
_LANES_LOG = 8  # at most 256 lanes
# even, so normal's pairs never straddle two blocks, and small, so that the
# logarithms of a block convert few Python floats at a time (2^16-draw blocks
# and 512 to 2048 lanes ran no faster)
_BLOCK_LOG = 14
# nibble p of a state is bits 4 (p % 16) .. +3 of word p // 16; a lookup
# table holds 16 columns per nibble, and unit state j = 4 p + b is column
# 16 p + 2^b
_NIBBLE_SHIFTS = np.arange(0, 64, 4, dtype=np.uint64)[:, None]
_NIBBLE_ROWS = 16 * np.arange(64).reshape(4, 16, 1)
_UNIT_COLUMNS = (16 * np.arange(64)[:, None] + (1 << np.arange(4))).ravel()


def _step_lanes(lanes: np.ndarray, scratch: np.ndarray) -> None:
    """One xoshiro256++ state update of every column of a 4 x L uint64
    array, in place (the xoshiro256++ state update); ``scratch`` is a
    uint64 array of length L."""
    s0, s1, s2, s3 = lanes
    np.left_shift(s1, 17, out=scratch)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= scratch
    np.left_shift(s3, 45, out=scratch)
    s3 >>= 19
    s3 |= scratch


@functools.cache
def _jump_lut(i: int) -> np.ndarray:
    """The nibble lookup table of T^(2^i), a 4 x 1024 uint64 array (32 KiB):
    column 16 p + v is the image of the state whose nibble p is v and whose
    other bits are 0.  Its columns 16 p + 2^b are the images of the 256
    unit states (unit state j has only bit j % 64 of word j // 64 set),
    which T^(2^i) maps to the unit images of T^(2^(i+1)).  Built on first
    use and read-only; a draw jumps by at most 2^_BLOCK_LOG, so the cache
    holds at most 15 tables, 480 KiB."""
    if i == 0:
        bit = np.arange(256)
        units = np.zeros((4, 256), dtype=np.uint64)
        units[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
        _step_lanes(units, np.empty(256, dtype=np.uint64))
    else:
        units = _jump(i - 1, _jump_lut(i - 1)[:, _UNIT_COLUMNS])
    images = units.reshape(4, 64, 4)  # word, nibble, bit in nibble
    lut = np.zeros((4, 64, 16), dtype=np.uint64)
    for b in range(4):
        lut[:, :, 1 << b : 2 << b] = lut[:, :, : 1 << b] ^ images[:, :, b, None]
    lut = lut.reshape(4, 1024)
    lut.flags.writeable = False
    return lut


def _jump(i: int, lanes: np.ndarray) -> np.ndarray:
    """Every column of a 4 x L state array advanced 2^i steps: the XOR of
    the images of its 64 nibbles."""
    rows = ((lanes[:, None, :] >> _NIBBLE_SHIFTS) & 15).astype(np.intp)
    rows += _NIBBLE_ROWS
    images = _jump_lut(i).take(rows.reshape(64, -1), axis=1)
    return np.bitwise_xor.reduce(images, axis=1)


def _libm_log(x: np.ndarray) -> np.ndarray:
    # the platform libm's log through the math module, one Python float per
    # value: numpy's AVX-512 float64 log differs from it in the last bit on
    # about 0.35% of Box-Muller u1, which would change seeded fields.
    # numpy's float64 cos and sin matched libm's bit for bit at each of its
    # x86 dispatch levels (AVX-512, AVX2, baseline), so normal calls them;
    # the tests pin that match
    return np.fromiter(map(math.log, x.tolist()), dtype=float, count=x.size)


class Xoshiro256pp:
    """xoshiro256++ generator, seeded through splitmix64.

    This exact algorithm (state update, output scrambler, seeding expansion
    and draw order) is part of the package contract: fields produced from a
    given seed must never change between versions.  Uniform doubles take the
    top 53 bits; normal deviates come from the Box-Muller transform applied
    to consecutive uniform pairs, with the platform libm's log (through
    ``math.log``) and cos and sin (through numpy's float64 ``cos`` and
    ``sin``, which call it).  ``_blocks``, which ``uniform`` and ``normal``
    read, produces the stream many lanes at a time.
    """

    def __init__(self, seed: int):
        s = seed & _MASK64
        state = []
        for _ in range(4):
            s, word = _splitmix64(s)
            state.append(word)
        self._state = state

    def _blocks(self, n: int):
        """The next n outputs as consecutive (offset, uint64 block) pairs,
        blocks of at most 2^_BLOCK_LOG values.  The state moves past all n
        draws before the last block is yielded.

        Lane k of a block starts at draw k * steps of it, and a block spans
        lanes x steps draws: the least power of two that holds n, at most
        2^_BLOCK_LOG.  The lockstep runs in place on one copy of the lanes
        and keeps the words that make each output, s0 + s3 and s0, indexed
        [step, lane] so that each step writes contiguous rows; one transpose
        per block puts the outputs in lane order.  The state after the last
        draw is a lane's state on the way."""
        if n <= 0:
            return
        span_log = min(_BLOCK_LOG, (n - 1).bit_length())
        lanes_log = min(_LANES_LOG, span_log)
        steps = 1 << (span_log - lanes_log)
        lanes = np.array(self._state, dtype=np.uint64).reshape(4, 1)
        for i in range(lanes_log):
            lanes = np.concatenate([lanes, _jump(span_log - lanes_log + i, lanes)], axis=1)
        work = np.empty_like(lanes)
        scratch = np.empty_like(lanes[0])
        sums = np.empty((steps, lanes.shape[1]), dtype=np.uint64)
        firsts = np.empty_like(sums)
        s0, s3 = work[0], work[3]
        for lo in range(0, n, 1 << span_log):
            count = min(n - lo, 1 << span_log)
            run = min(steps, count)
            # in the last block, the state after the last draw is lane j's
            # after t_end <= run steps
            j = min(count // steps, lanes.shape[1] - 1)
            t_end = count - j * steps if lo + count == n else -1
            np.copyto(work, lanes)
            for t in range(run):
                if t == t_end:
                    self._state = work[:, j].tolist()
                np.add(s0, s3, out=sums[t])
                firsts[t] = s0
                _step_lanes(work, scratch)
            if t_end == run:
                self._state = work[:, j].tolist()
            # rotl(s0 + s3, 23) + s0
            block = sums << 23
            sums >>= 41
            block |= sums
            block += firsts
            yield lo, block.T.reshape(-1)[:count]
            if t_end < 0:
                lanes = _jump(span_log, lanes)

    def uniform(self, size: int) -> np.ndarray:
        """size iid draws from U[0, 1)."""
        out = np.empty(size)
        for lo, draws in self._blocks(size):
            out[lo : lo + draws.size] = (draws >> 11) * 2.0**-53
        return out

    def normal(self, size: int) -> np.ndarray:
        """size iid standard normal draws (Box-Muller on uniform pairs)."""
        if size < 0:  # the pair count would round -1 up to 0 draws
            raise ValueError(f"negative size {size}")
        out = np.empty(2 * ((size + 1) // 2))
        for lo, draws in self._blocks(out.size):
            hi = lo + draws.size
            # u1 in (0, 1] so the logarithm is finite
            u1 = ((draws[0::2] >> 11) + 1) * 2.0**-53
            angle = (2.0 * math.pi) * ((draws[1::2] >> 11) * 2.0**-53)
            radius = np.sqrt(-2.0 * _libm_log(u1))
            np.multiply(radius, np.cos(angle), out=out[lo:hi:2])
            np.multiply(radius, np.sin(angle), out=out[lo + 1 : hi : 2])
        return out[:size]
