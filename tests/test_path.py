"""Unit tests for path parsing and lexical normalization."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import errors
from repro.vfs import path as vfspath


class TestSplit:
    def test_absolute(self):
        absolute, comps, must_dir = vfspath.split("/a/b/c")
        assert absolute and comps == ("a", "b", "c") and not must_dir

    def test_relative(self):
        absolute, comps, _ = vfspath.split("a/b")
        assert not absolute and comps == ("a", "b")

    def test_collapses_slashes(self):
        assert vfspath.split("//a///b")[1] == ("a", "b")

    def test_drops_single_dots(self):
        assert vfspath.split("/a/./b/.")[1] == ("a", "b")

    def test_keeps_dotdot(self):
        assert vfspath.split("/a/../b")[1] == ("a", "..", "b")

    def test_trailing_slash_requires_dir(self):
        assert vfspath.split("/a/b/")[2] is True

    def test_trailing_dot_requires_dir(self):
        assert vfspath.split("/a/b/.")[2] is True

    def test_trailing_dotdot_requires_dir(self):
        assert vfspath.split("/a/b/..")[2] is True

    def test_root(self):
        absolute, comps, _ = vfspath.split("/")
        assert absolute and comps == ()

    def test_empty_path_rejected(self):
        with pytest.raises(errors.EINVAL):
            vfspath.split("")

    def test_component_too_long(self):
        with pytest.raises(errors.ENAMETOOLONG):
            vfspath.split("/" + "x" * (vfspath.NAME_MAX + 1))

    def test_path_too_long(self):
        long_path = "/a" * (vfspath.PATH_MAX // 2 + 1)
        with pytest.raises(errors.ENAMETOOLONG):
            vfspath.split(long_path)

    def test_exact_name_max_ok(self):
        comps = vfspath.split("/" + "x" * vfspath.NAME_MAX)[1]
        assert len(comps[0]) == vfspath.NAME_MAX

    @pytest.mark.parametrize("bad", ["/a\x00b", "\x00", "/etc\x00",
                                     "a/b/\x00c"])
    def test_embedded_nul_rejected(self, bad):
        # POSIX paths are NUL-terminated byte strings: an embedded NUL
        # can never reach a real kernel, so the simulator rejects it
        # up front with EINVAL rather than silently truncating.
        with pytest.raises(errors.EINVAL):
            vfspath.split(bad)

    def test_memo_stays_bounded_and_exact(self, monkeypatch):
        """After three memos' worth of distinct paths the parse memo
        holds at most its cap, and a memoized parse equals a fresh one."""
        cache = {}
        monkeypatch.setattr(vfspath, "_split_cache", cache)
        paths = [f"/d{i % 97}/./f{i}/" if i % 2 else f"a//b{i}/.."
                 for i in range(3 * vfspath._SPLIT_CACHE_CAP)]
        for path in paths:
            vfspath.split(path)
        assert len(cache) <= vfspath._SPLIT_CACHE_CAP
        sample = paths[:50] + paths[-50:]
        assert any(path in cache for path in sample)
        memoized = [vfspath.split(path) for path in sample]
        monkeypatch.setattr(vfspath, "_split_cache", {})
        assert [vfspath.split(path) for path in sample] == memoized


def _reference_split(path):
    """The parse with no memo and no name table: drop ``""`` and ``.``,
    keep ``..``; a path whose last segment is empty, ``.`` or ``..``
    must name a directory."""
    segments = path.split("/")
    comps = tuple(seg for seg in segments if seg not in ("", "."))
    return path.startswith("/"), comps, segments[-1] in ("", ".", "..")


SEGMENTS = st.one_of(st.sampled_from(["", ".", "..", "dir", "f.txt"]),
                     st.text(alphabet="xyz.", min_size=1, max_size=3))


class TestSplitSharing:
    """``split`` hands every caller the memo's own parse: immutable,
    shared, and with equal names one string."""

    @pytest.fixture(autouse=True)
    def _fresh_memo(self, monkeypatch):
        monkeypatch.setattr(vfspath, "_split_cache", {})

    def test_hit_returns_the_identical_tuple(self):
        first = vfspath.split("/usr/share/doc")
        again = vfspath.split("/usr/share/doc")
        assert again is first and type(first[1]) is tuple

    def test_equal_names_of_two_paths_are_one_object(self):
        one = vfspath.split("/srv/www/index.html")[1]
        two = vfspath.split("/home/index.html")[1]
        assert one[-1] == two[-1] and one[-1] is two[-1]

    @given(absolute=st.booleans(),
           segments=st.lists(SEGMENTS, min_size=1, max_size=8))
    def test_split_equals_reference_parse(self, absolute, segments):
        path = ("/" if absolute else "") + "/".join(segments)
        if not path:
            return  # EINVAL, covered by TestSplit
        first = vfspath.split(path)
        assert first == _reference_split(path)
        assert vfspath.split(path) is first


class TestLexicalNormalize:
    def test_folds_dotdot(self):
        assert vfspath.lexical_normalize(["a", "b", "..", "c"]) == \
            ["a", "c"]

    def test_multiple_dotdots(self):
        comps = ["a", "b", "..", "..", "c"]
        assert vfspath.lexical_normalize(comps) == ["c"]

    def test_leading_dotdots_preserved(self):
        assert vfspath.lexical_normalize(["..", "a"]) == ["..", "a"]

    def test_excess_dotdots_preserved(self):
        assert vfspath.lexical_normalize(["a", "..", ".."]) == [".."]

    def test_no_dotdots_identity(self):
        assert vfspath.lexical_normalize(["x", "y"]) == ["x", "y"]

    @given(st.lists(st.sampled_from(["a", "b", ".."]), max_size=12))
    def test_result_never_has_interior_dotdot(self, comps):
        result = vfspath.lexical_normalize(comps)
        seen_normal = False
        for comp in result:
            if comp != "..":
                seen_normal = True
            else:
                assert not seen_normal, result


class TestJoin:
    def test_simple(self):
        assert vfspath.join("/a", "b") == "/a/b"

    def test_strips_extra_slashes(self):
        assert vfspath.join("/a/", "/b/") == "/a/b"

    def test_root_base(self):
        assert vfspath.join("/", "x") == "/x"

    def test_multiple_parts(self):
        assert vfspath.join("/a", "b", "c") == "/a/b/c"
