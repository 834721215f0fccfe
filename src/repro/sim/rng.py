"""Deterministic random-stream management.

Every stochastic component of the simulator (each drive's layout draw, each
background-workload generator, the LT graph construction, the access
scheduler's disk selection, ...) draws from its own named child stream of a
single root seed.  Runs are exactly reproducible and adding a new component
never perturbs the draws of existing ones.
"""

from __future__ import annotations

import functools
import struct

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def _fnv32(data: bytes, h: int = 2166136261) -> int:
    """FNV-1a fold of ``data`` into 32 bits (process-independent)."""
    for byte in data:
        h = ((h ^ byte) * 16777619) & 0xFFFFFFFF
    return h


#: Process-wide memo of string -> FNV-1a fold (see :func:`_part_word`).
_STR_ENTROPY: dict[str, int] = {}


def _fold_parts(parts, h: int) -> int:
    """Fold ``parts`` (stable_seed's accepted types) into one 32-bit word."""
    for part in parts:
        if isinstance(part, bool):
            data = b"\x01" if part else b"\x00"
        elif isinstance(part, (int, np.integer)):
            data = (int(part) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
        elif isinstance(part, float):
            data = struct.pack("<d", part)
        else:
            data = str(part).encode()
        # Separate parts so ("ab",) and ("a", "b") fold differently.
        h = _fnv32(data, _fnv32(b"\x1f", h))
    return h


def stable_seed(*parts) -> int:
    """Fold ``parts`` into a stable 32-bit RNG seed.

    Unlike builtin ``hash`` — whose value for strings is salted per
    process by ``PYTHONHASHSEED`` and whose value for numbers depends on
    the platform word size — the result here depends only on ``parts``:
    the same key always produces the same seed, in every process, on
    every platform.  Use this (or an :class:`RngHub` stream) whenever a
    component needs to derive a seed from identifying data.
    """
    return _fold_parts(parts, 2166136261)


#: Lane bases for :func:`stable_digest` — four distinct FNV offsets so the
#: lanes are independent folds of the same part stream.
_DIGEST_LANES = (2166136261, 0x01000193, 0x9E3779B9, 0xDEADBEEF)


def stable_digest(*parts) -> str:
    """Fold ``parts`` into a stable 128-bit hex digest.

    The content-addressing big sibling of :func:`stable_seed`: four
    differently-based FNV-1a lanes over the same part encoding, rendered
    as 32 hex characters.  Like ``stable_seed`` the value depends only on
    ``parts`` — never on the process, platform or hash salt — so it is
    safe to use as an on-disk cache key (:mod:`repro.exec` keys its
    result store with it).
    """
    return "".join(f"{_fold_parts(parts, base):08x}" for base in _DIGEST_LANES)


#: Declared stream universe: every ``hub.stream(...)`` / ``hub.fresh(...)``
#: / ``hub.prime(...)`` call site in the ``repro`` package must use one of
#: these names as a string literal, with a key of the declared total arity
#: (name included) — enforced whole-program by lint rule SIM011.  A typo'd
#: name or a drifted key shape would silently fork the RNG tree and perturb
#: every later draw; declaring the shape here makes that a lint error
#: instead.
#:
#: Values are the allowed key arity — an int, or a tuple of ints where
#: one name is legitimately used at two granularities (``"env"`` is
#: drawn per-trial in serving/extension cells and per-(scheme, trial) in
#: the harness; renaming either would change every committed golden).
STREAMS = {
    "env": (2, 3),        #: disk-state redraw; (…, trial) / (…, scheme, trial)
    "env2": 3,            #: write-phase second redraw (harness)
    "faults": 3,          #: MTTF/MTTR fault-storm draws (harness)
    "select": 3,          #: scheme disk selection (core.base)
    "svc": (3, 5),        #: per-disk service draws (serve replay / core.base)
    "refsvc": 4,          #: event-engine per-disk service draws (core.base)
    "bgphase": 5,         #: background-stream initial phase draws (core.base)
    "cal-env": 3,         #: serving calibration environments
    "repair-extend": 3,   #: repair-time redundancy extension draws
    "rebuild": 2,         #: repair-economy storm sampling (ext_repair)
    "serve": 2,           #: workload generation + service facade
    "disk": 2,            #: per-disk layout draws (doctest/tests convention)
    "bg": 3,              #: background-workload generators
}


# -- block derivation ----------------------------------------------------------
# numpy's SeedSequence folds its entropy words into a 4-word pool with a
# data-independent chain of hash constants, then expands the pool into the
# PCG64 seed.  The functions below reimplement both steps (constants from
# numpy/random/bit_generator.pyx).  A block of keys that differ only in
# their last word mixes the shared prefix once, in Python ints, and absorbs
# the trailing words in one vectorised pass.  ``tests/test_rng_batch.py``
# pins the result to numpy's own derivation.

_M32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _int_words(n: int) -> list[int]:
    """``n`` as little-endian 32-bit words (numpy's entropy coercion)."""
    if n < 0:
        raise ValueError(f"seed must be non-negative, got {n}")
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _part_word(part) -> int:
    """One key part's entropy word: ints masked, anything else folded."""
    if isinstance(part, (int, np.integer)):
        return int(part) & _M32
    s = str(part)
    w = _STR_ENTROPY.get(s)
    if w is None:
        w = _STR_ENTROPY[s] = _fnv32(s.encode())
    return w


def _hashmix_count(n_words: int) -> int:
    """Hash-constant steps SeedSequence takes to absorb ``n_words`` words."""
    return _POOL * _POOL + _POOL * max(0, n_words - _POOL)


@functools.cache
def _hash_consts(init: int, mult: int, start: int, n: int) -> tuple[np.ndarray, ...]:
    """(xor, multiplier) columns of steps ``start .. start+n-1`` of a chain."""
    hc = init * pow(mult, start, 1 << 32) & _M32
    xors, mults = [], []
    for _ in range(n):
        xors.append(hc)
        hc = hc * mult & _M32
        mults.append(hc)
    return np.array(xors, np.uint32)[:, None], np.array(mults, np.uint32)[:, None]


def _mix_entropy(words: list[int]) -> list[int]:
    """SeedSequence's 4-word entropy pool after absorbing ``words``."""
    hc = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hc
        value ^= hc
        hc = hc * _MULT_A & _M32
        value = value * hc & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _block_seeds(prefix: list[int], tail: np.ndarray) -> np.ndarray:
    """PCG64 seed words of ``SeedSequence(prefix + [t])`` for each ``t``.

    ``tail`` is a uint32 array; the result is an ``(len(tail), 4)`` uint64
    array whose row ``i`` equals ``generate_state(4, np.uint64)``.
    """
    if len(prefix) < _POOL:
        # The trailing word lands in the pool fill and so in the all-pairs
        # mixing: each key mixes in full.  Only short keys take this path.
        pools = np.array([_mix_entropy([*prefix, t]) for t in tail.tolist()], np.uint32)
        pools = pools.T.copy()
    else:
        # The shared prefix fills and cross-mixes the pool; the trailing
        # word then meets each pool word through one hash step apiece.
        xor, mul = _hash_consts(_INIT_A, _MULT_A, _hashmix_count(len(prefix)), _POOL)
        h = tail ^ xor
        h *= mul
        h ^= h >> 16
        h *= _MIX_R
        left = np.array([_MIX_L * w & _M32 for w in _mix_entropy(prefix)], np.uint32)
        pools = left[:, None] - h
        pools ^= pools >> 16
    # generate_state(4, uint64): 8 uint32 words, word i from pool word i % 4.
    xor, mul = _hash_consts(_INIT_B, _MULT_B, 0, 2 * _POOL)
    data = np.concatenate([pools, pools])
    data ^= xor
    data *= mul
    data ^= data >> 16
    # numpy views the uint32 words as little-endian uint64 pairs.
    return np.ascontiguousarray(data.T, dtype="<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """A seed source replaying precomputed ``generate_state`` output.

    ``PCG64(_SeedWords(w))`` is seeded exactly as ``PCG64(seq)`` would
    be, where ``w == seq.generate_state(4, np.uint64)``.
    """

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's 4 x uint64 request is precomputed")
        return self.words


class _StreamBlock:
    """The streams ``prefix + (t,)`` for a block of trailing parts ``t``.

    Seeds are derived for the whole block on first use; until then the
    block holds only its key words.
    """

    __slots__ = ("prefix", "trailing", "seeds")

    def __init__(self, prefix: list[int], trailing) -> None:
        self.prefix = prefix
        self.trailing = trailing
        self.seeds: dict[int, np.ndarray] | None = None

    def seed_of(self, words: list[int]) -> np.ndarray | None:
        """PCG64 seed words of the key with entropy ``words`` (if in the block)."""
        if words[:-1] != self.prefix:
            return None
        seeds = self.seeds
        if seeds is None:
            tail = np.asarray(self.trailing)
            if tail.dtype.kind in "iu":
                tail = (tail & _M32).astype(np.uint32)
            else:
                tail = np.array([_part_word(t) for t in self.trailing], np.uint32)
            rows = _block_seeds(self.prefix, tail)
            seeds = self.seeds = dict(zip(tail.tolist(), rows))
        return seeds.get(words[-1])


class RngHub:
    """Root of a tree of named, independent random generators.

    Parameters
    ----------
    seed:
        Root seed.  Equal seeds produce identical simulations.

    Example
    -------
    >>> hub = RngHub(7)
    >>> a = hub.stream("disk", 3)
    >>> b = hub.stream("disk", 4)
    >>> float(a.random()) != float(b.random())
    True
    >>> hub2 = RngHub(7)
    >>> float(hub2.stream("disk", 3).random()) == float(RngHub(7).stream("disk", 3).random())
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._seed_words = _int_words(self.seed)
        self._cache: dict[tuple, np.random.Generator] = {}
        #: Primed blocks, at most one per stream name (keyed by its word).
        self._blocks: dict[int, _StreamBlock] = {}

    def stream(self, *key) -> np.random.Generator:
        """Return the generator for ``key`` (created on first use).

        ``key`` is any tuple of ints/strings identifying the component, e.g.
        ``hub.stream("bg", disk_id, trial)``.
        """
        key = tuple(key)
        gen = self._cache.get(key)
        if gen is None:
            gen = np.random.Generator(np.random.PCG64(self._derive(key)))
            self._cache[key] = gen
        return gen

    def fresh(self, *key) -> np.random.Generator:
        """Like :meth:`stream` but always returns a *new* generator.

        Useful when a component must be re-run from its initial state (e.g.
        repeating an access trial).  A key in a block announced by
        :meth:`prime` takes its seed from the block; the generator is the
        same either way.
        """
        words = self._key_words(key)
        if key and self._blocks:
            block = self._blocks.get(words[len(self._seed_words)])
            seed = None if block is None else block.seed_of(words)
            if seed is not None:
                return np.random.Generator(np.random.PCG64(_SeedWords(seed)))
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))

    def prime(self, *key) -> None:
        """Announce a block of :meth:`fresh` streams that differ in one part.

        ``key`` is a stream key whose last part is a collection (e.g. an
        access's disk ids): the block is the streams ``(*key[:-1], t)`` for
        each ``t`` in ``key[-1]``.  Their seeds are derived together, in one
        vectorised pass, when the first of them is drawn; each stream is
        still handed out by :meth:`fresh`, bit-identical to an unprimed one.
        A hub keeps one block per stream name: priming a name again
        replaces its block.
        """
        if len(key) < 2:
            raise ValueError("prime needs a stream name and a trailing collection")
        words = self._key_words(key[:-1])
        self._blocks[words[len(self._seed_words)]] = _StreamBlock(words, key[-1])

    def _key_words(self, key: tuple) -> list[int]:
        """The entropy words of ``key``: the seed's, then one per part."""
        words = self._seed_words.copy()
        append = words.append
        for part in key:
            # Native ints and memoised strings skip _part_word's dispatch.
            if type(part) is int:
                append(part & _M32)
            else:
                w = _STR_ENTROPY.get(part) if type(part) is str else None
                append(_part_word(part) if w is None else w)
        return words

    def _derive(self, key: tuple) -> np.random.SeedSequence:
        return np.random.SeedSequence(self._key_words(key))

    def spawn(self, *key) -> "RngHub":
        """Return a child hub whose streams are independent of this hub's.

        Derivation folds ``key`` into a fresh seed, so
        ``hub.spawn("worker", 3)`` is stable across runs and disjoint from
        both the parent's streams and other spawned hubs'.
        """
        seed_rng = np.random.Generator(np.random.PCG64(self._derive(("hub",) + key)))
        return RngHub(int(seed_rng.integers(2**31)))
