"""Path string handling: splitting, limits, lexical normalization.

Splitting is deliberately simple (POSIX-like): repeated slashes collapse,
``.`` components fold away for free during scanning (both kernels do
this), trailing slashes require the target to be a directory.  ``..`` is
*not* folded here under Linux semantics — it is a semantic operation the
walk performs — but :func:`lexical_normalize` implements Plan 9's lexical
folding for the ``lexical_dotdot`` kernel configuration (§4.2).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro import errors

PATH_MAX = 4096
NAME_MAX = 255

#: Bound of the parse memo below.  Real workloads resolve the same path
#: strings over and over (every warm lookup re-parses its path), so
#: memoizing the pure parse removes a per-lookup string scan from the
#: simulator's hot path.  A hit returns the memo's own entry, immutable
#: tuples all the way down, so every caller of one path shares one
#: tuple of components (the fastpath's segment memo keys on it too).  A
#: full memo is cleared whole (evicting the oldest key would scan the
#: dict's dead slots on every insert).  4 096 holds a steady workload's
#: hot set: replaying recorded seed-1 runs, ``cold_scan`` hits as often
#: as at 8 192, and ``warm_lookup``'s 10 000-file tail fits no cap below
#: 16 384.
_SPLIT_CACHE_CAP = 4096

_split_cache: Dict[str, Tuple[bool, Tuple[str, ...], bool]] = {}

#: name -> the one string object for it, so equal components of the
#: memoized paths (a few hundred directory names under thousands of
#: paths) are one object.  Cleared with ``_split_cache``.  Not the
#: interpreter's intern table: interned strings are immortal on CPython
#: 3.12, so a workload's created names would never be freed.
_split_names: Dict[str, str] = {}


def validate(path: str) -> None:
    """Raise ENAMETOOLONG/EINVAL for malformed paths."""
    if not path:
        raise errors.EINVAL(path, "empty path")
    if "\x00" in path:
        # Kernel behavior: a path is a NUL-terminated string, so an
        # embedded NUL can never reach the VFS; the syscall layer
        # rejects it with EINVAL before any resolution starts.
        raise errors.EINVAL(path, "embedded NUL byte")
    if len(path) > PATH_MAX:
        raise errors.ENAMETOOLONG(path)


def split(path: str) -> Tuple[bool, Tuple[str, ...], bool]:
    """Split ``path`` into (is_absolute, components, must_be_dir).

    ``.`` components and empty components (from ``//``) are dropped;
    ``..`` is kept.  ``must_be_dir`` is True for paths with a trailing
    slash or that end in ``.``/``..``, which constrains the final
    component to resolve to a directory.  ``components`` is a tuple.

    Successful parses are memoized (bounded, cleared when full): the parse
    is a pure function of the path string, so warm lookups skip the
    validation scan and the split loop entirely, and get the very tuple
    of the first parse.  Failures are not cached — they already take the
    slow exception path.
    """
    cached = _split_cache.get(path)
    if cached is not None:
        return cached
    validate(path)
    is_absolute = path.startswith("/")
    if len(_split_cache) >= _SPLIT_CACHE_CAP:
        _split_cache.clear()
        _split_names.clear()
    shared = _split_names.setdefault
    components: List[str] = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if len(part) > NAME_MAX:
            raise errors.ENAMETOOLONG(path)
        components.append(shared(part, part))
    must_be_dir = path.endswith(("/", "/.", "/..")) or path in (".", "..")
    if components and components[-1] == "..":
        must_be_dir = True
    parsed = _split_cache[path] = (is_absolute, tuple(components),
                                   must_be_dir)
    return parsed


def lexical_normalize(components: Sequence[str]) -> List[str]:
    """Fold ``..`` lexically (Plan 9 semantics, §4.2).

    ``a/b/../c`` becomes ``a/c`` without consulting the file system.
    Leading ``..`` components (above the start) are preserved; the walk
    clamps them at the root.
    """
    out: List[str] = []
    for part in components:
        if part == ".." and out and out[-1] != "..":
            out.pop()
        else:
            out.append(part)
    return out


def join(base: str, *parts: str) -> str:
    """Join path fragments with single slashes."""
    pieces = [base.rstrip("/")] + [p.strip("/") for p in parts if p]
    joined = "/".join(piece for piece in pieces if piece != "")
    if base.startswith("/") and not joined.startswith("/"):
        joined = "/" + joined
    return joined or "/"
