"""Resumable path signatures (§3.3).

The optimized kernel identifies a canonical path by a fixed-width
signature so that key comparison in the direct lookup hash table is a
constant-size compare instead of a PATH_MAX string compare.

The paper uses a keyed 2-universal multilinear hash; we use the closely
related keyed *polynomial* hash over two independent Mersenne-prime
fields, which is ε-almost-universal with ε ≈ len/p per field and — like
the paper's choice — resumable from any prefix: a dentry stores the hash
state of its canonical path, and a relative lookup under it only hashes
the relative suffix (§3.1, "we store the intermediate state of the hash
function in each dentry so that hashing can resume from any prefix").

A state is one int, packed like the paper's fixed-width dentry fields:
the 127-bit field element ``h1`` above the 89-bit ``h2`` fill the low
216 bits, and the number of characters consumed sits above them, so the
empty path's state is 0.  A finished signature — the key — is one int
too: the low ``index_bits + signature_bits`` bits of the two fields
(all 216 at the default 16 + 240).  Its low ``index_bits`` index the
hash table and the bits above them are the stored signature, mirroring
the paper's 16-bit index + 240-bit signature split; the key is both
what a probe asks for and what a registration stores.  The hash key is
drawn from a per-kernel boot seed, so the same path hashes differently
across "boots" — the paper's defence against offline collision search.
"""

from __future__ import annotations

import random
from operator import attrgetter, mul
from typing import Dict, NamedTuple, Tuple, Union

#: Two Mersenne primes; hashing is polynomial evaluation over each field.
#: Each is also the mask of its field's bits in a packed state.
_P1 = (1 << 127) - 1
_P2 = (1 << 89) - 1

#: Where ``h1`` starts in a packed state (above ``h2``), and where the
#: length starts (above both fields).
_H1_SHIFT = 89
_FIELD_BITS = 127 + 89

#: Bits taken from the combined output for the DLHT bucket index.
INDEX_BITS = 16

#: Precomputed r^k tables cover components up to NAME_MAX bytes plus a
#: separator; longer inputs (legal when calling the hasher directly) fall
#: back to pow(r, k, p).
_POW_TABLE_SIZE = 258

#: Bound of the transition memo (``_ext_cache``).  Path walks repeat the
#: same transitions heavily (a file tree has far fewer distinct prefixes
#: than lookups), so a flat clear on overflow keeps memory bounded
#: without LRU bookkeeping on the hit path.
_COMPONENT_CACHE_CAP = 1 << 16

#: Segment memo bound (:meth:`PathHasher.extend_segment`), the split
#: memo's (``vfs/path.py``): a lookup's key shares the parsed path's
#: tuple of names, so the two memos hold the same paths.  A steady
#: workload's hot set fits in a few hundred entries; a recorded seed-1
#: run of ``cold_scan`` hits as often at 4 096 as at 8 192, and
#: ``warm_lookup``'s 10 000-file tail fits no cap below 16 384.
_SEGMENT_CACHE_CAP = 1 << 12


def encode_component(component: str) -> bytes:
    """UTF-8 (surrogateescape) encoding of one component."""
    return component.encode("utf-8", "surrogateescape")


class _KeyedHasher:
    """What both hashers share: the key's layout and the folds over
    ``extend``.

    Args:
        signature_bits: stored signature width (the paper evaluates 240;
            tests shrink this to force collisions).
        index_bits: hash-table index width (16 in the paper; tests shrink
            it together with signature_bits to force bucket collisions).
    """

    def __init__(self, signature_bits: int, index_bits: int):
        self.signature_bits = signature_bits
        self.index_bits = index_bits
        self._key_mask = (1 << (index_bits + signature_bits)) - 1

    def index(self, key: int) -> int:
        """The DLHT bucket index of a finished ``key``."""
        return key & ((1 << self.index_bits) - 1)

    def bits(self, key: int) -> int:
        """The stored signature bits of a finished ``key``."""
        return key >> self.index_bits

    def extend_components(self, state, components):
        """Resume ``state`` over many components, one ``extend`` each."""
        for component in components:
            state = self.extend(state, component)
        return state

    def sign_components(self, components) -> int:
        """Convenience: hash a whole component list from the root."""
        return self.finish(self.extend_components(self.EMPTY, components))


class PathHasher(_KeyedHasher):
    """Keyed, resumable polynomial hasher for canonical paths.

    Args:
        boot_seed: kernel boot entropy; determines the hash key.
        signature_bits, index_bits: the key's widths (:class:`_KeyedHasher`).
    """

    cost_primitive = "sig_hash"

    def __init__(self, boot_seed: int, signature_bits: int = 240,
                 index_bits: int = INDEX_BITS):
        super().__init__(signature_bits, index_bits)
        rng = random.Random(boot_seed)
        self.r1 = rng.randrange(256, _P1 - 1)
        self.r2 = rng.randrange(256, _P2 - 1)
        # The key never reaches the length above the fields.
        self._key_mask &= (1 << _FIELD_BITS) - 1
        #: The key of a finished path: the low bits of its two fields.
        #: C-level, like :attr:`length`.
        self.finish = self._key_mask.__and__
        # r^k mod p tables so absorbing an m-byte component is one
        # multiply per field instead of m Horner steps.
        pow1 = [1] * _POW_TABLE_SIZE
        pow2 = [1] * _POW_TABLE_SIZE
        for k in range(1, _POW_TABLE_SIZE):
            pow1[k] = (pow1[k - 1] * self.r1) % _P1
            pow2[k] = (pow2[k - 1] * self.r2) % _P2
        self._pow1 = pow1
        self._pow2 = pow2
        # (state, component) -> state: transition memo.  Path walks
        # repeat the same prefix transitions constantly (every lookup
        # under a hot directory resumes the same state with the same
        # names), and each uncached transition sums the component over
        # the power tables and costs two ~128-bit modular multiplies.
        # The function is pure over exact integers, so caching cannot
        # change any produced value.  Bounded by a flat clear
        # (``_COMPONENT_CACHE_CAP``).
        self._ext_cache: Dict[Tuple[int, str], int] = {}
        # (state, names) -> extend_segment's result.
        self._seg_cache: Dict[Tuple[int, tuple], tuple] = {}

    #: The state of the empty path (the namespace root).
    EMPTY = 0

    #: The characters a state has consumed: its bits above the fields.
    #: A C-level callable, so asking costs no Python frame.
    length = _FIELD_BITS.__rrshift__

    def _pow(self, table, r: int, p: int, k: int) -> int:
        if k < _POW_TABLE_SIZE:
            return table[k]
        return pow(r, k, p)

    def _contribution(self, component: str):
        """One component's per-field hash contribution.

        Returns ``(c1, c2, s1, s2, nbytes, nchars)``: the component's
        polynomial contribution per field, the same with a leading '/'
        folded in, its encoded byte length, and its character length
        (a state's length counts characters, matching the per-byte
        loop's ``len(text)`` bookkeeping).

        For bytes ``b_0 .. b_{m-1}`` with values ``v_i = b_i + 1`` the
        Horner loop computes ``h * r^m + sum(v_i * r^(m-1-i))``; the sum
        is independent of ``h``, so a transition adds it after one
        multiply per field.  The sum is taken over the power tables with one
        reduction per field (``pow`` prices the powers of a component
        longer than the tables).
        """
        encoded = encode_component(component)
        m = len(encoded)
        r1, r2 = self.r1, self.r2
        if m < _POW_TABLE_SIZE:
            pow1, pow2 = self._pow1, self._pow2
        else:
            pow1 = [pow(r1, k, _P1) for k in range(m)]
            pow2 = [pow(r2, k, _P2) for k in range(m)]
        # Byte i weighs r^(m-1-i): the last byte pairs with r^0.
        values = [byte + 1 for byte in reversed(encoded)]
        c1 = sum(map(mul, values, pow1)) % _P1
        c2 = sum(map(mul, values, pow2)) % _P2
        # With a leading separator the text is "/" + component: the
        # slash's value (ord('/') + 1 = 48) is scaled past the component.
        s1 = (48 * self._pow(self._pow1, r1, _P1, m) + c1) % _P1
        s2 = (48 * self._pow(self._pow2, r2, _P2, m) + c2) % _P2
        return c1, c2, s1, s2, m, len(component)

    def extend(self, state: int, component: str) -> int:
        """Resume ``state`` with one more path component."""
        cache = self._ext_cache
        key = (state, component)
        cached = cache.get(key)
        if cached is not None:
            return cached
        result = self._extend_uncached(state, component)
        if len(cache) >= _COMPONENT_CACHE_CAP:
            cache.clear()
        cache[key] = result
        return result

    def _extend_uncached(self, state: int, component: str) -> int:
        c1, c2, s1, s2, m, nchars = self._contribution(component)
        length = state >> _FIELD_BITS
        if length == 0:
            k, a1, a2, length = m, c1, c2, nchars
        else:
            k, a1, a2, length = m + 1, s1, s2, length + nchars + 1
        if k < _POW_TABLE_SIZE:
            p1, p2 = self._pow1[k], self._pow2[k]
        else:
            p1, p2 = pow(self.r1, k, _P1), pow(self.r2, k, _P2)
        h1 = ((state >> _H1_SHIFT & _P1) * p1 + a1) % _P1
        h2 = ((state & _P2) * p2 + a2) % _P2
        return length << _FIELD_BITS | h1 << _H1_SHIFT | h2

    def extend_segment(self, state: int, names: tuple):
        """Resume ``state`` over the tuple ``names`` and finish, in one call.

        Returns ``(prefix, final, key, nbytes, states)``: the state
        before the last name, the state after it, its key, the bytes one
        extension per name charges (the name, plus a separator after a
        non-empty state) and the state after each name.  Equal to
        folding :meth:`extend` and then :meth:`finish`; memoized by
        ``(state, names)`` from a pair's first miss on.
        """
        cache = self._seg_cache
        key = (state, names)
        cached = cache.get(key)
        if cached is not None:
            return cached
        result = _fold_segment(self, state, names)
        if len(cache) >= _SEGMENT_CACHE_CAP:
            cache.clear()
        cache[key] = result
        return result


def _fold_segment(hasher, state, names):
    """:meth:`PathHasher.extend_segment`'s result, computed one
    :meth:`~PathHasher.extend` per name."""
    length = hasher.length
    prefix = state
    nbytes = 0
    states = []
    for name in names:
        nbytes += len(name) + (1 if length(state) else 0)
        prefix = state
        state = hasher.extend(state, name)
        states.append(state)
    return prefix, state, hasher.finish(state), nbytes, tuple(states)


class PrfSigState(NamedTuple):
    """Resumable state for the PRF hasher: a copyable keyed digest."""

    digest: object  # an updating hashlib.blake2b instance
    length: int


#: A hasher's resumable state: a packed int (:class:`PathHasher`) or a
#: :class:`PrfSigState`.
HashState = Union[int, PrfSigState]


class PrfPathHasher(_KeyedHasher):
    """Keyed-PRF path hasher (§3.3's "more cautious implementation").

    The paper discusses replacing the 2-universal hash with a
    pseudorandom function so that no side channel can leak the key, at
    the cost of slower hashing ("we could not find a function that was
    fast enough to improve over baseline Linux" below four components).
    We use keyed BLAKE2b — resumable via digest-state copies, 256-bit
    output whose low bits make the same index+signature key — and charge
    it under the separate ``sig_hash_prf`` cost primitive so the latency
    trade is measurable.
    """

    cost_primitive = "sig_hash_prf"

    def __init__(self, boot_seed: int, signature_bits: int = 240,
                 index_bits: int = INDEX_BITS):
        import hashlib

        super().__init__(signature_bits, index_bits)
        self._hashlib = hashlib
        self.key = random.Random(boot_seed).getrandbits(256) \
            .to_bytes(32, "big")

    #: :attr:`PathHasher.length`'s counterpart, C-level too.
    length = attrgetter("length")

    @property
    def EMPTY(self) -> PrfSigState:  # noqa: N802 - interface parity
        digest = self._hashlib.blake2b(key=self.key, digest_size=32)
        return PrfSigState(digest, 0)

    def extend(self, state: PrfSigState, component: str) -> PrfSigState:
        encoded = encode_component(component)
        digest = state.digest.copy()
        if state.length == 0:
            digest.update(encoded)
            return PrfSigState(digest, state.length + len(component))
        digest.update(b"/")
        digest.update(encoded)
        return PrfSigState(digest, state.length + len(component) + 1)

    def extend_segment(self, state: PrfSigState, names):
        """:meth:`PathHasher.extend_segment`, uncached (a digest state
        is hashed by identity, so a memo would never hit)."""
        return _fold_segment(self, state, names)

    def finish(self, state: PrfSigState) -> int:
        combined = int.from_bytes(state.digest.copy().digest(), "big")
        return combined & self._key_mask


def make_hasher(scheme: str, boot_seed: int, signature_bits: int = 240,
                index_bits: int = INDEX_BITS):
    """Build a path hasher: ``"universal"`` (default) or ``"prf"``."""
    if scheme == "universal":
        return PathHasher(boot_seed, signature_bits, index_bits)
    if scheme == "prf":
        return PrfPathHasher(boot_seed, signature_bits, index_bits)
    raise ValueError(f"unknown signature scheme {scheme!r}")


def collision_probability(queries: float, cache_entries: float,
                          signature_bits: int = 240) -> float:
    """The paper's §3.3 collision-risk model.

    Probability that ``queries`` brute-force lookups against a cache
    holding ``cache_entries`` signatures produce at least one collision:
    ``p ≈ 1 - exp(-q * n / |H|)``.
    """
    import math

    space = float(2 ** signature_bits)
    exponent = -(queries * cache_entries) / space
    return -math.expm1(exponent)


def queries_for_risk(risk: float, cache_entries: float,
                     signature_bits: int = 240) -> float:
    """Queries after which collision risk exceeds ``risk`` (§3.3 formula).

    The paper computes ``q ≈ ln(1-p) * |H| / -n ≈ 2^77`` for p=2^-128,
    n=2^35 entries and 240-bit signatures.
    """
    import math

    space = float(2 ** signature_bits)
    return math.log1p(-risk) * space / -cache_entries
