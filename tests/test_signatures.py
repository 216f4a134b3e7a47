"""Unit and property tests for path signatures (§3.3)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import make_kernel
from repro.core.signatures import (INDEX_BITS, PathHasher, SigState,
                                   collision_probability, make_hasher,
                                   queries_for_risk)

NAMES = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="/\x00"),
    min_size=1, max_size=24)

#: Lone surrogates as produced by os.fsdecode()'s surrogateescape for
#: non-UTF-8 bytes on disk — legal in our path strings.
SURROGATE_NAMES = st.text(
    alphabet=st.characters(min_codepoint=0xDC80, max_codepoint=0xDCFF),
    min_size=1, max_size=8)

#: Names whose byte length straddles NAME_MAX (255): the interned
#: contribution cache uses precomputed power tables up to NAME_MAX + a
#: separator, and must fall back to pow() beyond that.
LONG_NAMES = st.sampled_from(
    ["x" * 254, "y" * 255, "z" * 256, "é" * 130])  # "é"*130 = 260 bytes

ANY_NAME = st.one_of(NAMES, SURROGATE_NAMES, LONG_NAMES)


@pytest.fixture
def hasher():
    return PathHasher(boot_seed=42)


class TestResumability:
    def test_extend_matches_full_hash(self, hasher):
        full = hasher.sign_components(["a", "b", "c"])
        state = hasher.extend(hasher.EMPTY, "a")
        state = hasher.extend(state, "b")
        state = hasher.extend(state, "c")
        assert hasher.finish(state) == full

    @given(prefix=st.lists(NAMES, max_size=5),
           suffix=st.lists(NAMES, max_size=5))
    def test_resume_from_any_prefix(self, prefix, suffix):
        hasher = PathHasher(7)
        whole = hasher.sign_components(prefix + suffix)
        state = hasher.extend_components(hasher.EMPTY, prefix)
        state = hasher.extend_components(state, suffix)
        assert hasher.finish(state) == whole

    def test_empty_path_state(self, hasher):
        assert hasher.EMPTY == SigState(0, 0, 0)

    def test_length_tracks_separators(self, hasher):
        state = hasher.extend(hasher.EMPTY, "ab")
        assert state.length == 2
        state = hasher.extend(state, "cd")
        assert state.length == 5  # "ab/cd"


def _horner_contribution(hasher, component):
    """The per-byte Horner loop ``PathHasher._contribution`` replaces:
    ``(c1, c2, s1, s2, bytes, chars)``, ``s`` over ``"/" + component``."""
    encoded = component.encode("utf-8", "surrogateescape")
    fields = []
    for text in (encoded, b"/" + encoded):
        h1 = h2 = 0
        for byte in text:
            h1 = (h1 * hasher.r1 + byte + 1) % ((1 << 127) - 1)
            h2 = (h2 * hasher.r2 + byte + 1) % ((1 << 89) - 1)
        fields.append((h1, h2))
    (c1, c2), (s1, s2) = fields
    return c1, c2, s1, s2, len(encoded), len(component)


class TestContribution:
    @given(seed=st.integers(0, 2**32), name=st.one_of(
        ANY_NAME, st.text(min_size=250, max_size=300).filter(
            lambda t: "/" not in t and "\x00" not in t)))
    def test_power_sum_equals_the_horner_loop(self, seed, name):
        """Table-driven power sums, and ``pow`` past the tables (over
        257 bytes), give the Horner loop's fields bit for bit."""
        hasher = PathHasher(seed)
        assert hasher._contribution(name) == _horner_contribution(hasher,
                                                                  name)


class TestResumeFromStoredPrefix:
    """Satellite property: any stored prefix SigState resumes exactly.

    The DLHT stores per-dentry SigStates and the fastpath resumes hashing
    from whichever prefix it hit (§3.2), so this equality — for both
    signature schemes, including surrogateescape names and names at or
    past NAME_MAX — is load-bearing, not cosmetic.
    """

    @pytest.mark.parametrize("scheme", ["universal", "prf"])
    @given(components=st.lists(ANY_NAME, max_size=6))
    def test_every_prefix_state_resumes_to_full_hash(self, scheme,
                                                     components):
        hasher = make_hasher(scheme, boot_seed=1234)
        full = hasher.sign_components(components)
        states = [hasher.EMPTY]
        for name in components:
            states.append(hasher.extend(states[-1], name))
        for i, state in enumerate(states):
            resumed = hasher.extend_components(state, components[i:])
            assert hasher.finish(resumed) == full

    @pytest.mark.parametrize("scheme", ["universal", "prf"])
    def test_surrogateescape_and_name_max_adjacent(self, scheme):
        hasher = make_hasher(scheme, boot_seed=99)
        components = ["\udcff\udc80bad", "x" * 254, "ordinary",
                      "y" * 255, "é" * 130, "f"]
        full = hasher.sign_components(components)
        state = hasher.EMPTY
        for i, name in enumerate(components):
            resumed = hasher.extend_components(state, components[i:])
            assert hasher.finish(resumed) == full
            state = hasher.extend(state, name)
        assert hasher.finish(state) == full


_SEGMENT_KERNELS = {}


def _segment_kernel(scheme):
    """One optimized kernel per signature scheme, on calibrated costs."""
    if scheme not in _SEGMENT_KERNELS:
        _SEGMENT_KERNELS[scheme] = make_kernel(
            "optimized", signature_scheme=scheme, resolution_memo=False)
    return _SEGMENT_KERNELS[scheme]


def _hash_cost(costs, primitive):
    return costs.count(primitive), costs.by_primitive.get(primitive, 0.0)


class TestExtendSegment:
    """``extend_segment`` hashes a fastpath segment in one call: it must
    equal folding ``extend`` and then ``finish``, and its byte count
    must be what one ``FastLookup._extend`` per name charges."""

    @pytest.mark.parametrize("scheme", ["universal", "prf"])
    @given(start=st.one_of(st.just([]),
                           st.lists(ANY_NAME, min_size=1, max_size=3)),
           names=st.lists(ANY_NAME, min_size=1, max_size=6))
    def test_equals_folding_extend_then_finish(self, scheme, start, names):
        kernel = _segment_kernel(scheme)
        hasher = kernel.hasher

        def key(state):  # PRF states compare their digests by identity
            return hasher.finish(state), state.length

        state = hasher.extend_components(hasher.EMPTY, start)
        folded = [state]
        for name in names:
            folded.append(hasher.extend(folded[-1], name))
        for _ in range(3):  # missed twice, then (universal) memoized
            prefix, final, sig, nbytes, states = hasher.extend_segment(
                state, tuple(names))
            assert [key(s) for s in states] == [key(s) for s in folded[1:]]
            assert key(prefix) == key(folded[-2])
            assert key(final) == key(folded[-1])
            assert sig == hasher.finish(folded[-1])

        costs = kernel.costs
        primitive = hasher.cost_primitive
        count, ns = _hash_cost(costs, primitive)
        resumed = state
        for name in names:
            resumed = kernel.fast._extend(None, resumed, name)
        per_name = _hash_cost(costs, primitive)
        costs.apply(costs.run((("hash", primitive),), primitive),
                    len(names), nbytes)
        at_once = _hash_cost(costs, primitive)
        assert key(resumed) == key(final)
        assert per_name[0] - count == at_once[0] - per_name[0]
        assert per_name[1] - ns == at_once[1] - per_name[1]


class TestDiscrimination:
    def test_different_paths_differ(self, hasher):
        a = hasher.sign_components(["x", "y"])
        b = hasher.sign_components(["x", "z"])
        assert a != b

    def test_separator_ambiguity_resolved(self, hasher):
        # "ab"+"c" must not collide with "a"+"bc": the separator is hashed.
        a = hasher.sign_components(["ab", "c"])
        b = hasher.sign_components(["a", "bc"])
        assert a != b

    def test_nesting_differs_from_flat(self, hasher):
        a = hasher.sign_components(["abc"])
        b = hasher.sign_components(["a", "b", "c"])
        assert a != b

    @given(st.lists(NAMES, min_size=1, max_size=4),
           st.lists(NAMES, min_size=1, max_size=4))
    def test_no_easy_collisions(self, one, two):
        hasher = PathHasher(99)
        if one != two:
            assert hasher.sign_components(one) != \
                hasher.sign_components(two)

    def test_key_changes_across_boots(self):
        a = PathHasher(1).sign_components(["etc", "passwd"])
        b = PathHasher(2).sign_components(["etc", "passwd"])
        assert a != b

    def test_same_boot_deterministic(self):
        a = PathHasher(5).sign_components(["a", "b"])
        b = PathHasher(5).sign_components(["a", "b"])
        assert a == b


class TestWidths:
    def test_index_width(self, hasher):
        sig = hasher.sign_components(["whatever"])
        assert 0 <= sig.index < (1 << INDEX_BITS)

    def test_signature_width_default(self, hasher):
        sig = hasher.sign_components(["whatever"])
        assert 0 <= sig.bits < (1 << 240)

    def test_truncated_signatures_collide(self):
        hasher = PathHasher(3, signature_bits=2, index_bits=4)
        seen = set()
        collided = False
        for i in range(512):
            sig = hasher.sign_components([f"f{i}"])
            key = (sig.index, sig.bits)
            if key in seen:
                collided = True
            seen.add(key)
        assert collided, "2-bit signatures over 512 paths must collide"

    def test_unicode_paths(self, hasher):
        sig = hasher.sign_components(["caché", "файл", "ファイル"])
        assert sig.bits >= 0


class TestRiskModel:
    def test_paper_headline_number(self):
        queries = queries_for_risk(2.0 ** -128, 2.0 ** 35, 240)
        assert abs(math.log2(queries) - 77) < 1.5

    def test_probability_monotone_in_queries(self):
        p1 = collision_probability(1e6, 1e6, 64)
        p2 = collision_probability(1e9, 1e6, 64)
        assert p2 > p1

    def test_probability_bounds(self):
        assert 0.0 <= collision_probability(1e9, 1e9, 64) <= 1.0

    def test_small_space_saturates(self):
        assert collision_probability(1e6, 1e6, 16) == pytest.approx(1.0)
