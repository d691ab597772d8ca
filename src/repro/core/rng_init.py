"""Vectorized per-query random streams for the traversal engine.

The sequential specification seeds every query's candidate list from its
own ``np.random.default_rng([seed, query_index])`` stream so a query's
result never depends on its position in the batch (the CUDA kernels
likewise derive per-query Philox streams).  The array-parallel engine must
draw the *same* streams — the bitwise regression fixture pins them — but
constructing a ``Generator`` per query made large-batch initialization a
serial Python loop that dominated auto-tuner sweeps.

:class:`VectorRngStreams` produces bit-identical draws for the whole
batch with array arithmetic by emulating the exact NumPy pipeline:

* ``SeedSequence([seed, q]).generate_state(4, uint64)`` — the entropy
  pool mixing (hash/mix rounds with the published constants; the evolving
  hash constant is query-independent, so the rounds vectorize across the
  batch);
* PCG64 (XSL-RR 128/64, setseq) seeding and state advance — 128-bit LCG
  steps emulated on ``uint64`` hi/lo pairs;
* ``Generator.integers(0, n, dtype=uint32)`` — Lemire bounded rejection
  over the 32-bit half-draw stream (low half first, then high, exactly
  like ``pcg64_next32``'s buffer).

Acceptance of each 32-bit draw is a pure predicate of the draw value
(``leftover >= threshold``), so per-element rejection vectorizes: draw a
chunk for all rows, keep each row's first ``width`` accepted values, and
draw again for any row that ran short (states persist across chunks).

NumPy documents both the ``SeedSequence`` mixing and the PCG64 stream as
stable across releases; ``tests/test_batch_search.py`` additionally
cross-checks this module against per-query ``default_rng`` draws on
every run, and :func:`make_streams` falls back to real per-row Generators
(:class:`GeneratorRngStreams`) for inputs outside the vectorized
envelope (negative/huge seeds, ``n`` beyond 32 bits).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GeneratorRngStreams",
    "VectorRngStreams",
    "make_streams",
]

_M32 = 0xFFFFFFFF
_U32 = np.uint64(_M32)

# SeedSequence mixing constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4

# PCG64 default multiplier (XSL-RR 128/64 setseq variant).
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)


def _ss_hash(value: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    """One SeedSequence hash round; ``const`` evolves query-independently."""
    value = value ^ np.uint32(const)
    const = (const * _MULT_A) & _M32
    value = value * np.uint32(const)
    return value ^ (value >> _XSHIFT), const


def _ss_mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = (x * _MIX_L) - (y * _MIX_R)
    return r ^ (r >> _XSHIFT)


def _seed_words(seed: int) -> list[int]:
    """Little-endian 32-bit decomposition (SeedSequence entropy coercion)."""
    if seed == 0:
        return [0]
    words = []
    while seed:
        words.append(seed & _M32)
        seed >>= 32
    return words


def _generate_states(seed: int, seed_offset: int, batch: int) -> list[np.ndarray]:
    """``SeedSequence([seed, q]).generate_state(4, uint64)`` for the whole
    batch of ``q`` values: four ``(batch,)`` uint64 arrays."""
    q = np.arange(seed_offset, seed_offset + batch, dtype=np.uint64)
    entropy = [np.full(batch, w, dtype=np.uint32) for w in _seed_words(seed)]
    entropy.append(q.astype(np.uint32))
    n_words = len(entropy)

    pool = np.empty((_POOL_SIZE, batch), dtype=np.uint32)
    const = _INIT_A
    for i in range(_POOL_SIZE):
        value = entropy[i] if i < n_words else np.zeros(batch, dtype=np.uint32)
        pool[i], const = _ss_hash(value, const)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                hashed, const = _ss_hash(pool[i_src], const)
                pool[i_dst] = _ss_mix(pool[i_dst], hashed)
    for i_src in range(_POOL_SIZE, n_words):
        for i_dst in range(_POOL_SIZE):
            hashed, const = _ss_hash(entropy[i_src], const)
            pool[i_dst] = _ss_mix(pool[i_dst], hashed)

    out32 = np.empty((2 * _POOL_SIZE, batch), dtype=np.uint32)
    const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        data = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _M32
        data = data * np.uint32(const)
        out32[i] = data ^ (data >> _XSHIFT)
    return [
        out32[2 * j].astype(np.uint64)
        | (out32[2 * j + 1].astype(np.uint64) << np.uint64(32))
        for j in range(_POOL_SIZE)
    ]


def _mul128(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.uint64, b_lo: np.uint64
) -> tuple[np.ndarray, np.ndarray]:
    """128-bit multiply (mod 2^128) on uint64 hi/lo pairs."""
    a_ll = a_lo & _U32
    a_lh = a_lo >> np.uint64(32)
    b_ll = b_lo & _U32
    b_lh = b_lo >> np.uint64(32)
    ll = a_ll * b_ll
    lh = a_ll * b_lh
    hl = a_lh * b_ll
    cross = (ll >> np.uint64(32)) + (lh & _U32) + (hl & _U32)
    lo = (ll & _U32) | ((cross & _U32) << np.uint64(32))
    mul_hi = (a_lh * b_lh) + (lh >> np.uint64(32)) + (hl >> np.uint64(32)) + (
        cross >> np.uint64(32)
    )
    hi = mul_hi + a_hi * b_lo + a_lo * b_hi
    return hi, lo


def _add128(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    carry = (lo < a_lo).astype(np.uint64)
    return a_hi + b_hi + carry, lo


class _VectorPCG64:
    """A batch of independent PCG64 streams advanced in lockstep."""

    def __init__(self, seed: int, seed_offset: int, batch: int):
        w0, w1, w2, w3 = _generate_states(seed, seed_offset, batch)
        # pcg_setseq_128_srandom_r: inc = (initseq << 1) | 1, then
        # step; state += initstate; step.
        self._inc_hi = (w2 << np.uint64(1)) | (w3 >> np.uint64(63))
        self._inc_lo = (w3 << np.uint64(1)) | np.uint64(1)
        hi = np.zeros(batch, dtype=np.uint64)
        lo = np.zeros(batch, dtype=np.uint64)
        hi, lo = self._step(hi, lo)
        hi, lo = _add128(hi, lo, w0, w1)
        self._hi, self._lo = self._step(hi, lo)

    def _step(self, hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hi, lo = _mul128(hi, lo, _PCG_MULT_HI, _PCG_MULT_LO)
        return _add128(hi, lo, self._inc_hi, self._inc_lo)

    def next_raw32(self, count64: int) -> np.ndarray:
        """``(batch, 2 * count64)`` uint32 draws in ``pcg64_next32`` order
        (low half of each 64-bit output first, then the buffered high)."""
        out = np.empty((self._hi.shape[0], 2 * count64), dtype=np.uint32)
        for j in range(count64):
            self._hi, self._lo = self._step(self._hi, self._lo)
            word = self._hi ^ self._lo
            rot = self._hi >> np.uint64(58)
            word = (word >> rot) | (word << ((np.uint64(64) - rot) & np.uint64(63)))
            out[:, 2 * j] = (word & _U32).astype(np.uint32)
            out[:, 2 * j + 1] = (word >> np.uint64(32)).astype(np.uint32)
        return out


class GeneratorRngStreams:
    """Per-row ``np.random.Generator`` streams (the compatibility path).

    Used when the seed falls outside :class:`VectorRngStreams`'s envelope.
    The per-row loop here is the *cold* fallback; the traversal hot loop
    itself stays array-parallel.
    """

    def __init__(self, rngs):
        self._rngs = list(rngs)

    def __len__(self) -> int:
        return len(self._rngs)

    def draw(self, n: int, width: int, mask: np.ndarray | None = None) -> np.ndarray:
        """``(rows, width)`` uint32 draws continuing each row's stream.

        With ``mask``, only rows where it is True draw (and consume their
        stream); the other rows' output is zeros and their state is
        untouched.
        """
        out = np.zeros((len(self._rngs), width), dtype=np.uint32)
        for i, rng in enumerate(self._rngs):
            if mask is None or mask[i]:
                out[i] = rng.integers(0, n, size=width, dtype=np.uint32)
        return out


class VectorRngStreams:
    """Stateful per-row bounded-draw streams, advanced in lockstep.

    Keeps the raw 32-bit word stream of every row *buffered* across calls,
    so ``draw`` is bit-identical to calling ``Generator.integers(0, n, width,
    uint32)`` repeatedly on per-row ``default_rng([seed, row])`` streams —
    including the leftover high half-word the PCG64 bit generator carries
    between calls.  That is exactly what the multi-CTA mapping needs: its
    sequential worker CTAs share one per-query stream, drawing seeds (and
    ``min_iterations`` re-seeds) at row-dependent paces.
    """

    def __init__(self, seed: int, seed_offset: int, batch: int):
        self._gen = _VectorPCG64(int(seed), int(seed_offset), batch)
        self._rows = batch
        self._buf = np.empty((batch, 0), dtype=np.uint32)
        self._avail = np.zeros(batch, dtype=np.int64)

    def __len__(self) -> int:
        return self._rows

    def _append(self, words: np.ndarray) -> None:
        fresh = words.shape[1]
        need = int(self._avail.max()) + fresh if self._rows else fresh
        if need > self._buf.shape[1]:
            grown = np.zeros((self._rows, need), dtype=np.uint32)
            grown[:, : self._buf.shape[1]] = self._buf
            self._buf = grown
        cols = self._avail[:, None] + np.arange(fresh, dtype=np.int64)
        self._buf[np.arange(self._rows)[:, None], cols] = words
        self._avail += fresh

    def draw(self, n: int, width: int, mask: np.ndarray | None = None) -> np.ndarray:
        """``(rows, width)`` uint32 draws continuing each row's stream.

        With ``mask``, only rows where it is True draw (and consume their
        buffered words); the other rows' output is zeros and their stream
        position is untouched — rows advance at independent paces, exactly
        like per-row Generators would.
        """
        if width < 1 or self._rows == 0:
            return np.empty((self._rows, max(width, 0)), dtype=np.uint32)
        if mask is not None and not mask.any():
            return np.zeros((self._rows, width), dtype=np.uint32)
        if n == 1:
            # numpy's bounded path short-circuits a zero range without
            # consuming any raw words.
            return np.zeros((self._rows, width), dtype=np.uint32)
        n64 = np.uint64(n)
        threshold = np.uint64((2**32 - n) % n)
        accept_rate = 1.0 - int(threshold) / 2.0**32
        while True:
            cols = np.arange(self._buf.shape[1], dtype=np.int64)
            valid = cols < self._avail[:, None]
            product = self._buf.astype(np.uint64) * n64
            accept = ((product & _U32) >= threshold) & valid
            counts = accept.sum(axis=1)
            need = counts if mask is None else counts[mask]
            if (need >= width).all():
                break
            deficit = int(width - need.min())
            self._append(
                self._gen.next_raw32(
                    max(2, int(np.ceil(deficit / (2.0 * accept_rate))) + 2)
                )
            )
        # Stable argsort floats the accepted positions to the front in
        # stream order; the width-th accepted word is the last consumed.
        pos = np.argsort(~accept, axis=1, kind="stable")[:, :width]
        rows = np.arange(self._rows)[:, None]
        out = (product >> np.uint64(32))[rows, pos].astype(np.uint32)
        consumed = pos[:, -1] + 1
        if mask is not None:
            out = np.where(mask[:, None], out, np.uint32(0))
            consumed = np.where(mask, consumed, 0)
        shift = consumed[:, None] + np.arange(self._buf.shape[1], dtype=np.int64)
        np.minimum(shift, self._buf.shape[1] - 1, out=shift)
        self._buf = np.take_along_axis(self._buf, shift, axis=1)
        self._avail -= consumed
        return out


def make_streams(seed, seed_offset: int, batch: int, n: int):
    """Per-row ``default_rng([seed, seed_offset + i])`` streams for a block.

    Returns :class:`VectorRngStreams` when the inputs fit the vectorized
    envelope (the common case), else :class:`GeneratorRngStreams` drawing
    from real per-row Generators — both produce bit-identical draws.
    """
    in_envelope = (
        isinstance(seed, (int, np.integer))
        and int(seed) >= 0
        and 1 <= n <= _M32
        and seed_offset >= 0
        and seed_offset + batch <= _M32 + 1
    )
    if in_envelope:
        return VectorRngStreams(int(seed), int(seed_offset), batch)
    return GeneratorRngStreams(
        np.random.default_rng([seed, seed_offset + i]) for i in range(batch)
    )
