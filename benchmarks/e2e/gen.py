"""Seeded input generator for the end-to-end benchmark.

Everything the program under test sees comes from here as plain data
(paths, op lists, tree specs, fleet parameters): the same ``seed`` gives
byte-identical inputs, another seed gives other names, draws and orders
with the same *shape* (tree fan-out, op mix, counts), so seed-to-seed
runs stay comparable.  This module must not import ``repro``.

A *step* is ``(kind, cred, op, args)``; ``kind`` says how the child's
executor threads the fd / temp name of an earlier step through
(:data:`CALL` … :data:`UNLINK_TMP`), ``cred`` indexes ``inputs["creds"]``
and ``op`` is a key of the child's op table.  Step lists are the inputs
of the two op-stream workloads; the session-shaped workloads get
parameter records instead.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import accumulate
from typing import Any, Dict, List, Sequence, Tuple

PROFILES = ("baseline", "optimized", "optimized-lazy")
WORKLOADS = ("warm_lookup", "churn", "fleet_replay", "cold_scan")

#: Step kinds (see ``child.run_steps``).
CALL, OPEN, ONFD, CLOSE, MKSTEMP, UNLINK_TMP = range(6)

#: Ops that change the namespace; the denominator of
#: ``coherence.inval_dentries_per_mutation``.
MUTATING = frozenset(["creat", "mkdir", "rmdir", "unlink", "rename",
                      "chmod_open", "chmod_shut", "symlink", "mkstemp",
                      "chmod", "chown", "link"])

#: Scale of the small inputs the virtual-invisibility check runs on.
CHECK_SCALE = 0.05

#: Every pinned parameter.  ``windows`` is W at the declared
#: ``run_seconds``; ``trace_windows`` is W of the traced run.
PARAMS: Dict[str, Any] = {
    "run_seconds": 10,
    "min_windows": 5,
    "warm_lookup": {
        "windows": 41, "trace_windows": 11, "ramp_passes": 8,
        "steps_per_window": 2000,
        # After the R passes over the hot set come as many *fill*
        # passes — every hot entry once among this many tail draws —
        # enough to fill every credential's PCC (4 096 entries): a full
        # PCC evicts, each eviction flushes the memo, and that, not the
        # first windows after boot, is the steady state.
        "fill_tail_steps": 2000,
        "tree": {"depth": 3, "fanout": 8, "files_per_dir": 16},
        "hot_pairs": 1000, "zipf_s": 1.1, "hot_share": 0.8,
        # Shares of steps; an ``open`` step is followed by its close.
        "mix": {"stat": 0.60, "open": 0.15, "access": 0.10,
                "lstat_readlink": 0.05, "enoent": 0.10},
        "symlinks": 32,
    },
    "churn": {
        "windows": 41, "trace_windows": 11, "ramp_passes": 8,
        "ops_per_window": 1600,
        "tree": {"depth": 2, "fanout": 4, "files_per_dir": 8},
        "warm_files": 50, "restats": 5, "gates": 4, "pool_names": 16,
        "list_dirs": 2, "list_files": 12, "links": 4,
        # Each re-read stretch takes ``reread_paths`` of a pool the seed
        # fixes: with one fixed set of six, which six the seed drew
        # moved ``ops_per_s.baseline`` by 12 % between seeds.
        "reread_paths": 6, "reread_pool": 24, "reread_rounds": 4,
        # Transactions per block; plain reads pad a block to ~30 %
        # mutating syscalls.  ``reread`` is the one mutation-free
        # stretch: the only place a memoised resolution can live long
        # enough to be replayed under every profile.
        "block": {"rename_flip": 2, "chmod_flip": 3, "create": 4,
                  "mkstemp": 2, "mkdir": 3, "retarget": 2,
                  "list_after": 2, "reread": 1, "reads": 14},
    },
    "fleet_replay": {
        # 12 sessions: four at each mutation rate.
        "windows": 12, "trace_windows": 6, "ramp_passes": 1,
        "tenants": 4, "total_requests": 16, "files_per_site": 32,
        "messages_per_box": 8, "mutation_rates": [0.0, 0.1, 0.3],
        "drains": 5, "loop_files": 8, "loop_io_rounds": 10,
        "loop_passes": 4, "steady_drains": 20,
    },
    "cold_scan": {
        "windows": 21, "trace_windows": 11, "ramp_passes": 8,
        # Field names of repro.workloads.tree.TreeSpec.
        "tree": {"depth": 3, "dirs_per_level": 3, "files_per_dir": 10},
        "dcache_capacity": 200,
    },
}

_DIR_WORDS = ["acct", "boot", "cfg", "data", "env", "font", "geo", "home",
              "img", "jobs", "keys", "logs", "mail", "net", "opt", "pkg",
              "queue", "repo", "spool", "tmpl", "users", "vault", "www",
              "xfer"]
_STEMS = ["alpha", "bravo", "cargo", "delta", "ember", "flint", "gamma",
          "hotel", "index", "joker", "kappa", "lemon", "metro", "nexus",
          "omega", "pixel", "quark", "radio", "sigma", "tango"]
_EXTS = [".c", ".h", ".py", ".md", ".json", ".log"]

#: uid/gid pairs of the three credentials: root and two users.
CREDS = [(0, 0), (1000, 1000), (1001, 1001)]


def windows_for(workload: str, seconds: float, traced: bool) -> int:
    """W for a run: the pinned count, scaled by ``seconds``."""
    pinned = PARAMS[workload]["trace_windows" if traced else "windows"]
    scaled = round(pinned * seconds / PARAMS["run_seconds"])
    return max(PARAMS["min_windows"], scaled)


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, round(value * scale))


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _build_tree(rng: random.Random, root: str, depth: int, fanout: int,
                files_per_dir: int) -> Tuple[List[str], List[str]]:
    """Directory and file paths of one tree, in creation order."""
    dirs: List[str] = []
    prefix = ""
    for part in root.strip("/").split("/"):
        prefix = f"{prefix}/{part}"
        dirs.append(prefix)
    files: List[str] = []

    def fill(base: str, level: int) -> None:
        for i in range(files_per_dir):
            files.append(f"{base}/{rng.choice(_STEMS)}{i}"
                         f"_{rng.randrange(100):02d}{rng.choice(_EXTS)}")
        if level < depth:
            for i in range(fanout):
                sub = f"{base}/{rng.choice(_DIR_WORDS)}{i}"
                dirs.append(sub)
                fill(sub, level + 1)

    fill(root, 0)
    return dirs, files


def _parent(path: str) -> str:
    return path.rsplit("/", 1)[0] or "/"


# ---------------------------------------------------------------------------
# warm_lookup
# ---------------------------------------------------------------------------

def _warm_lookup(seed: int, scale: float, windows: int) -> Dict[str, Any]:
    p = PARAMS["warm_lookup"]
    rng = _rng(seed, "warm_lookup")
    root = f"/srv/{rng.choice(_DIR_WORDS)}/{rng.choice(_STEMS)}"
    spec = p["tree"]
    dirs, files = _build_tree(
        rng, root, spec["depth"], spec["fanout"],
        _scaled(spec["files_per_dir"], scale, 2))
    tree_dirs = [d for d in dirs if d.startswith(root)]

    # Private subtrees: owned by the first user, closed to the second.
    second_level = [d for d in tree_dirs
                    if d.count("/") == root.count("/") + 2]
    private = rng.sample(second_level, max(1, len(second_level) // 8))
    attrs = [(d, CREDS[1][0], CREDS[1][1], 0o700) for d in private]

    links_dir = f"{root}/links"
    dirs.append(links_dir)
    symlinks: List[Tuple[str, str]] = []
    n_links = _scaled(p["symlinks"], scale, 4)
    dir_links = []
    for i in range(n_links // 2):
        target = rng.choice(tree_dirs[1:])
        link = f"{links_dir}/d{i}"
        symlinks.append((link, target))
        dir_links.append((link, target))
    file_links = []
    for i in range(n_links - n_links // 2):
        link = f"{links_dir}/f{i}"
        symlinks.append((link, rng.choice(files)))
        file_links.append(link)

    depth2 = [d for d in tree_dirs if d.count("/") == root.count("/") + 2
              and d not in private]
    cwds = [rng.choice(depth2) for _ in CREDS]
    def spell(cred: int, path: str) -> str:
        """One of the spellings of ``path`` valid for ``cred``: absolute,
        relative to the credential's cwd, or through a symlinked
        directory.  No ``..``: see the README's *not covered yet*."""
        style = rng.random()
        cwd = cwds[cred]
        if style < 0.25 and path.startswith(cwd + "/"):
            return path[len(cwd) + 1:]
        if style < 0.50:
            for link, target in dir_links:
                if path.startswith(target + "/"):
                    return link + path[len(target):]
        return path

    mix = p["mix"]
    kinds = list(mix)
    cum = list(accumulate(mix[k] for k in kinds))

    def group(cred: int) -> Tuple[tuple, ...]:
        """One step group: a lookup op, or an open with its close."""
        kind = rng.choices(kinds, cum_weights=cum)[0]
        if kind == "lstat_readlink":
            op = rng.choice(["lstat", "readlink"])
            return ((CALL, cred, op, (rng.choice(file_links),)),)
        if rng.random() < 0.1:
            target = rng.choice(tree_dirs)
        else:
            target = rng.choice(files)
        if kind == "enoent":
            missing = f"{_parent(target)}/absent{rng.randrange(1000)}"
            return ((CALL, cred, "stat", (spell(cred, missing),)),)
        path = spell(cred, target)
        if kind == "open":
            return ((OPEN, cred, "open", (path,)), (CLOSE, cred, "close", ()))
        if kind == "access":
            return ((CALL, cred, rng.choice(["access_r", "access_w"]),
                     (path,)),)
        return ((CALL, cred, "stat", (path,)),)

    n_creds = len(CREDS)
    hot = [group(rng.randrange(n_creds))
           for _ in range(_scaled(p["hot_pairs"], scale, 20))]
    zipf_cum = list(accumulate((rank + 1) ** -p["zipf_s"]
                               for rank in range(len(hot))))
    steps = _scaled(p["steps_per_window"], scale, 50)

    def mixed(hot_groups: List[tuple], tail: int) -> List[tuple]:
        groups = hot_groups + [group(rng.randrange(n_creds))
                               for _ in range(tail)]
        rng.shuffle(groups)
        return [step for g in groups for step in g]

    def window() -> List[tuple]:
        n_hot = sum(rng.random() < p["hot_share"] for _ in range(steps))
        return mixed(rng.choices(hot, cum_weights=zipf_cum, k=n_hot),
                     steps - n_hot)

    fill_tail = _scaled(p["fill_tail_steps"], scale, 50)
    ramp = [mixed(list(hot), 0) for _ in range(p["ramp_passes"])]
    ramp += [mixed(list(hot), fill_tail) for _ in range(p["ramp_passes"])]

    return {
        "dirs": dirs, "files": files, "symlinks": symlinks, "attrs": attrs,
        "creds": CREDS, "cwds": cwds,
        # The invisibility check's slice stops short of the fill passes
        # (see the README's *not covered yet*).
        "ramp": ramp, "slice_ramp": p["ramp_passes"],
        "windows": [window() for _ in range(windows)],
    }


# ---------------------------------------------------------------------------
# churn
# ---------------------------------------------------------------------------

def _churn(seed: int, scale: float, windows: int) -> Dict[str, Any]:
    p = PARAMS["churn"]
    rng = _rng(seed, "churn")
    root = f"/work/{rng.choice(_STEMS)}"
    spec = p["tree"]
    dirs, files = _build_tree(rng, root, spec["depth"], spec["fanout"],
                              spec["files_per_dir"])
    user = 1

    warm = f"{root}/warm_{rng.choice(_DIR_WORDS)}"
    warm_alt = warm + "_next"
    dirs.append(warm)
    warm_names = [f"{rng.choice(_STEMS)}{i:02d}"
                  for i in range(p["warm_files"])]
    files += [f"{warm}/{n}" for n in warm_names]

    gates = []
    for i in range(p["gates"]):
        gate = f"{root}/gate{i}_{rng.choice(_DIR_WORDS)}"
        dirs.append(gate)
        inner = [f"{gate}/{rng.choice(_STEMS)}{j}" for j in range(4)]
        files += inner
        gates.append((gate, inner))

    pool = f"{root}/pool"
    dirs.append(pool)
    pool_names = [f"{rng.choice(_STEMS)}{i}_{rng.randrange(100)}"
                  for i in range(p["pool_names"])]

    list_dirs = []
    for i in range(p["list_dirs"]):
        d = f"{root}/list{i}"
        dirs.append(d)
        files += [f"{d}/{rng.choice(_STEMS)}{j}"
                  for j in range(p["list_files"])]
        list_dirs.append(d)

    links_dir = f"{root}/links"
    dirs.append(links_dir)
    tree_dirs = [d for d in dirs if d.startswith(root + "/")
                 and d.count("/") == root.count("/") + 2]
    links = []
    symlinks = []
    for i in range(p["links"]):
        a, b = rng.sample(tree_dirs, 2)
        link = f"{links_dir}/cur{i}"
        symlinks.append((link, a))
        links.append((link, a, b))
    read_targets = [f for f in files if f.startswith(root + "/")
                    and not f.startswith(warm + "/")]

    def call(op: str, *args: Any, cred: int = 0) -> tuple:
        return (CALL, cred, op, args)

    def rename_flip() -> List[tuple]:
        picks = rng.sample(warm_names, p["restats"])
        return ([call("rename", warm, warm_alt)]
                + [call("stat", f"{warm_alt}/{n}") for n in picks]
                + [call("rename", warm_alt, warm)]
                + [call("stat", f"{warm}/{n}") for n in picks])

    def chmod_flip() -> List[tuple]:
        gate, inner = rng.choice(gates)
        probe = rng.choice(inner)
        return [call("chmod_shut", gate), call("stat", probe, cred=user),
                call("chmod_open", gate), call("stat", probe, cred=user)]

    def create() -> List[tuple]:
        path = f"{pool}/{rng.choice(pool_names)}"
        return [(OPEN, 0, "creat", (path,)), (ONFD, 0, "write", ("x" * 64,)),
                (CLOSE, 0, "close", ()), call("stat", path),
                call("unlink", path)]

    def mkstemp() -> List[tuple]:
        return [(MKSTEMP, 0, "mkstemp", (pool,)),
                (ONFD, 0, "write", ("tmp",)), (CLOSE, 0, "close", ()),
                (UNLINK_TMP, 0, "unlink", (pool,))]

    def mkdir() -> List[tuple]:
        path = f"{pool}/d_{rng.choice(pool_names)}"
        return [call("mkdir", path), call("stat", path, cred=user),
                call("rmdir", path)]

    def retarget() -> List[tuple]:
        link, a, b = rng.choice(links)
        return [call("unlink", link), call("symlink", b, link),
                call("stat", link), call("unlink", link),
                call("symlink", a, link), call("readlink", link)]

    def list_after() -> List[tuple]:
        d = rng.choice(list_dirs)
        path = f"{d}/new_{rng.choice(pool_names)}"
        return [(OPEN, 0, "creat", (path,)), (CLOSE, 0, "close", ()),
                call("listdir", d), call("unlink", path),
                call("listdir", d)]

    reread_pool = rng.sample(read_targets, p["reread_pool"])

    def reread() -> List[tuple]:
        paths = rng.sample(reread_pool, p["reread_paths"])
        return [call("stat", path) for _ in range(p["reread_rounds"])
                for path in paths]

    def reads() -> List[tuple]:
        path = rng.choice(read_targets)
        op = rng.choice(["stat", "stat", "stat", "access_r", "lstat"])
        return [call(op, path, cred=rng.choice([0, user]))]

    makers = {"rename_flip": rename_flip, "chmod_flip": chmod_flip,
              "create": create, "mkstemp": mkstemp, "mkdir": mkdir,
              "retarget": retarget, "list_after": list_after,
              "reread": reread, "reads": reads}

    def block() -> List[tuple]:
        order = [name for name, n in p["block"].items() for _ in range(n)]
        rng.shuffle(order)
        return [step for name in order for step in makers[name]()]

    one = block()
    blocks = max(1, round(p["ops_per_window"] * scale / len(one)))
    one_pass = one + [s for _ in range(blocks - 1) for s in block()]
    return {
        "dirs": dirs, "files": files, "symlinks": symlinks, "attrs": [],
        "creds": CREDS, "cwds": [root for _ in CREDS],
        # Self-undoing, so every pass replays the same list.
        "ramp": [one_pass] * p["ramp_passes"],
        "slice_ramp": p["ramp_passes"],
        "windows": [one_pass] * windows,
    }


# ---------------------------------------------------------------------------
# session-shaped workloads
# ---------------------------------------------------------------------------

def _fleet_replay(seed: int, scale: float, windows: int) -> Dict[str, Any]:
    p = PARAMS["fleet_replay"]
    rng = _rng(seed, "fleet_replay")
    rates = list(p["mutation_rates"])
    first = rng.randrange(len(rates))
    sessions = [{"seed": rng.randrange(1 << 30),
                 "mutation_rate": rates[(first + i) % len(rates)]}
                for i in range(p["ramp_passes"] + windows)]
    return {
        "tenants": p["tenants"],
        "total_requests": _scaled(p["total_requests"], scale, p["tenants"]),
        "files_per_site": _scaled(p["files_per_site"], scale, 4),
        "messages_per_box": _scaled(p["messages_per_box"], scale, 4),
        "drains": p["drains"], "loop_files": p["loop_files"],
        "loop_io_rounds": _scaled(p["loop_io_rounds"], scale, 2),
        "loop_passes": p["loop_passes"],
        "steady_drains": p["steady_drains"],
        "ramp": sessions[:p["ramp_passes"]],
        "slice_ramp": p["ramp_passes"],
        "windows": sessions[p["ramp_passes"]:],
    }


def _cold_scan(seed: int, scale: float, windows: int) -> Dict[str, Any]:
    p = PARAMS["cold_scan"]
    rng = _rng(seed, "cold_scan")
    spec = dict(p["tree"])
    spec["files_per_dir"] = _scaled(spec["files_per_dir"], scale, 2)
    spec["seed"] = rng.randrange(1 << 30)
    return {
        "root": f"/src_{rng.choice(_STEMS)}",
        "spec": spec,
        "subtree": rng.randrange(spec["dirs_per_level"]),
        "dcache_capacity": _scaled(p["dcache_capacity"], scale, 20),
        "ramp": list(range(p["ramp_passes"])),
        "slice_ramp": p["ramp_passes"],
        "windows": list(range(windows)),
    }


_MAKERS = {"warm_lookup": _warm_lookup, "churn": _churn,
           "fleet_replay": _fleet_replay, "cold_scan": _cold_scan}


def make_inputs(workload: str, seed: int, scale: float = 1.0,
                windows: int = 0) -> Dict[str, Any]:
    """The inputs of one workload: plain data, a pure function of the
    arguments.  ``windows`` 0 means the pinned W."""
    if not windows:
        windows = PARAMS[workload]["windows"]
    return _MAKERS[workload](seed, scale, windows)


def digest(inputs: Dict[str, Any]) -> str:
    """Content hash of an input set (echoed in the output JSON)."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def mutating_steps(steps: Sequence[tuple]) -> int:
    """Namespace-mutating syscalls in a step list."""
    return sum(1 for step in steps if step[2] in MUTATING)
