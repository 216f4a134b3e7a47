"""Kernel builder: wire the VFS, a dcache configuration, and a root FS.

:func:`make_kernel` produces a :class:`Kernel` in one of the three
canonical profiles of :data:`PROFILES` —

* ``baseline``: the unmodified-Linux-style dcache (component-at-a-time
  walk, primary hash table, plain negative dentries);
* ``optimized``: the paper's full design (fastpath DLHT + PCC +
  signatures, directory completeness, aggressive/deep negatives);
* ``optimized-lazy``: the full design with epoch-based lazy
  invalidation instead of eager recursive shootdowns (O(1) mutations,
  touch-time revalidation — see docs/coherence.md);

— or any à-la-carte combination via :class:`DcacheConfig`, which is how
the ablation benchmarks isolate each mechanism's contribution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.coherence import EagerCoherence, FastDcacheHooks
from repro.core.completeness import ReaddirEngine
from repro.core.dlht import DirectLookupHashTable
from repro.core.epoch import EpochCoherence
from repro.core.fastdentry import fast_of
from repro.core.fastpath import FastLookup
from repro.core.pcc import DEFAULT_CAPACITY
from repro.core.signatures import PathHasher, make_hasher
from repro.fs.base import FileSystem
from repro.fs.simext import SimExtFs
from repro.sim.costs import CALIBRATED, CostModel
from repro.sim.stats import Stats
from repro.vfs.cred import Cred, commit_creds, prepare_creds
from repro.vfs.dcache import Dcache
from repro.vfs.lsm import Lsm, NullLsm
from repro.vfs.mount import Mount, PathPos
from repro.vfs.namespace import MountNamespace
from repro.vfs.task import Task
from repro.vfs.walk import SlowWalk


@dataclass(frozen=True)
class DcacheConfig:
    """Feature knobs of the directory cache design.

    Attributes:
        fastpath: DLHT + PCC + signatures direct lookup (§3).
        dir_complete: directory completeness caching (§5.1).
        aggressive_negative: negatives on unlink/rename and pseudo file
            systems (§5.2).
        deep_negative: deep negative / ENOTDIR dentries (§5.2).
        lexical_dotdot: Plan 9 lexical ``..`` semantics (§4.2); default
            is Linux semantics (extra fastpath lookup per dot-dot).
        lazy_invalidation: epoch-based lazy coherence: mutations stamp
            the mutated dentry in O(1) and fastpath hits revalidate
            against the ancestor-epoch summary on touch, instead of the
            eager recursive shootdown (see docs/coherence.md).
        force_fastpath_miss: always fall from fastpath to slowpath after
            doing the fastpath work (Figure 6's worst case).
        pcc_capacity: PCC entries per credential (paper: 64 KB / 16 B).
        pcc_adaptive: each credential's PCC doubles its capacity, up to
            16 x the default, while a full cache keeps missing (the
            paper's future work, §6.1; see
            :class:`~repro.core.pcc.AdaptivePrefixCheckCache`).
        signature_scheme: path signature hash, ``"universal"`` (the
            paper's keyed 2-universal hash) or ``"prf"`` (keyed BLAKE2b,
            §3.3's cautious variant); see
            :func:`~repro.core.signatures.make_hasher`.
        signature_bits: stored signature width (paper: 240).
        index_bits: DLHT bucket index width taken from the hash (paper:
            16); tests shrink it with ``signature_bits`` to force bucket
            collisions.
        dcache_capacity: dentry count before LRU shrink.
        boot_seed: signature hash key seed ("random key at boot").
        resolution_memo: host-side memoization of whole path
            resolutions with replayed virtual charges — a pure
            wall-clock optimization of the simulator itself; virtual
            costs and stats are bit-identical either way (see
            :mod:`repro.core.resmemo`).
    """

    name: str = "custom"
    fastpath: bool = False
    dir_complete: bool = False
    aggressive_negative: bool = False
    deep_negative: bool = False
    lexical_dotdot: bool = False
    lazy_invalidation: bool = False
    force_fastpath_miss: bool = False
    pcc_capacity: int = DEFAULT_CAPACITY
    pcc_adaptive: bool = False
    signature_scheme: str = "universal"
    signature_bits: int = 240
    index_bits: int = 16
    dcache_capacity: int = 1_000_000
    boot_seed: int = 0x5EED
    resolution_memo: bool = True

    def variant(self, **changes) -> "DcacheConfig":
        return replace(self, **changes)


#: The unmodified-Linux baseline of the paper's evaluation.
BASELINE = DcacheConfig(name="baseline")

#: The paper's full optimized design.
OPTIMIZED = DcacheConfig(name="optimized", fastpath=True, dir_complete=True,
                         aggressive_negative=True, deep_negative=True)

#: The optimized design with epoch-based lazy invalidation: O(1)
#: mutations, touch-time revalidation of fastpath hits.
OPTIMIZED_LAZY = OPTIMIZED.variant(name="optimized-lazy",
                                   lazy_invalidation=True)

#: The canonical profiles by name — the one table :func:`make_kernel`,
#: the benchmarks and the tests read.
PROFILES = {config.name: config
            for config in (BASELINE, OPTIMIZED, OPTIMIZED_LAZY)}


class Kernel:
    """One simulated kernel instance: caches, resolver, syscalls, time."""

    def __init__(self, config: DcacheConfig,
                 root_fs: Optional[FileSystem] = None,
                 costs: Optional[CostModel] = None,
                 lsm: Optional[Lsm] = None):
        self.config = config
        self.costs = costs or CostModel(dict(CALIBRATED))
        self.stats = Stats()
        self.lsm = lsm or NullLsm()
        self.root_fs = root_fs or SimExtFs(self.costs)
        #: Live tasks by pid (counted per kernel from 1), in spawn order
        #: (see :meth:`live_caches`).
        self.tasks: Dict[int, Task] = {}
        self._pids = itertools.count(1)
        # The coherence policy (§3.2), chosen here and nowhere else.
        policy = (EpochCoherence
                  if config.fastpath and config.lazy_invalidation
                  else EagerCoherence)
        self.coherence = policy(self.costs, self.stats, self.live_caches)
        hooks = FastDcacheHooks() if config.fastpath else None
        self.dcache = Dcache(self.costs, self.stats,
                             capacity=config.dcache_capacity, hooks=hooks)
        if hooks is not None:
            hooks.dcache = self.dcache
        root_dentry = self.dcache.root_dentry(self.root_fs)
        self.root_mount = Mount(self.root_fs, root_dentry)
        self.root_ns = MountNamespace(self.root_mount)
        self.slow_walk = SlowWalk(self.costs, self.stats, self.dcache,
                                  config, lsm=self.lsm)
        self.hasher: Optional[PathHasher] = None
        self.fast: Optional[FastLookup] = None
        self.memo = None
        if config.fastpath:
            self.hasher = make_hasher(config.signature_scheme,
                                      config.boot_seed,
                                      config.signature_bits,
                                      config.index_bits)
            self.fast = FastLookup(self.costs, self.stats, config,
                                   self.dcache, self.hasher,
                                   self.coherence, self.slow_walk)
            self._install_dlht(self.root_ns)
        self.resolver = self.fast if self.fast is not None else self.slow_walk
        if config.resolution_memo:
            from repro.core.resmemo import ResolutionMemo
            self.memo = ResolutionMemo(
                self.costs, self.stats, self.coherence, self.dcache,
                self.resolver)
        self.readdir_engine = ReaddirEngine(self.costs, self.stats,
                                            self.dcache, config)
        # The syscall facade (late import avoids a module cycle).
        from repro.vfs.syscalls import Syscalls
        self.sys = Syscalls(self)

    # -- namespace / fast bootstrap ------------------------------------------

    def _install_dlht(self, ns: MountNamespace) -> None:
        """Give ``ns`` its DLHT and anchor its root at the empty path."""
        ns.dlht = DirectLookupHashTable(self.costs, self.stats)
        # A cloned root mount reuses the same root dentry; its hash state
        # (the empty path) is valid in the new namespace too.
        fast = fast_of(ns.root_mount.root_dentry)
        if fast.hash_state is None:
            fast.hash_state = self.hasher.EMPTY
        fast.mount = ns.root_mount

    def new_namespace_for(self, task: Task) -> MountNamespace:
        """Clone the task's namespace (unshare), with its own DLHT."""
        ns = task.ns.clone()
        if self.config.fastpath:
            self._install_dlht(ns)
        return ns

    # -- task management ----------------------------------------------------------

    def spawn_task(self, uid: int = 0, gid: int = 0, groups=(),
                   security: Optional[str] = None,
                   ns: Optional[MountNamespace] = None) -> Task:
        """Create a process with fresh credentials at the root."""
        cred = Cred(uid, gid, frozenset(groups), security)
        namespace = ns or self.root_ns
        root = PathPos(namespace.root_mount, namespace.root_mount.root_dentry)
        return self._add(Task(next(self._pids), cred, root, None,
                              namespace))

    def fork_task(self, parent: Task) -> Task:
        """A child sharing the parent's cred, namespace, root and cwd."""
        return self._add(Task(next(self._pids), parent.cred, parent.root,
                              parent.cwd, parent.ns, parent.umask))

    def _add(self, task: Task) -> Task:
        self.tasks[task.pid] = task
        return task

    def exit_task(self, task: Task) -> None:
        """Close the task's fds, unpin its root and cwd, and forget it.
        It keeps no cred: a later syscall on it raises instead of probing
        a PCC that wraparound no longer flushes."""
        del self.tasks[task.pid]
        task.exit()
        task.cred = None

    def live_caches(self) -> Tuple[List, List]:
        """The PCCs and DLHTs a live task can reach, each once, in spawn
        order (``root_ns.dlht`` first): what wraparound flushes and memory
        accounting prices.  A cred or namespace with no task left has
        released its cache, as ``put_cred`` would."""
        tasks = self.tasks.values()
        pccs = dict.fromkeys(task.cred.pcc for task in tasks)
        dlhts = dict.fromkeys([self.root_ns.dlht]
                              + [task.ns.dlht for task in tasks])
        pccs.pop(None, None)
        dlhts.pop(None, None)
        return list(pccs), list(dlhts)

    def change_identity(self, task: Task, uid: Optional[int] = None,
                        gid: Optional[int] = None,
                        security: Optional[str] = None) -> None:
        """setuid/setgid/domain transition through the COW cred path."""
        new = prepare_creds(task.cred)
        if uid is not None:
            new.uid = uid
        if gid is not None:
            new.gid = gid
        if security is not None:
            new.security = security
        cred = commit_creds(task.cred, new)
        if cred is not task.cred:
            # Nothing is charged, so an armed drain plan's clock guard
            # cannot see the new identity.
            self.costs.forget()
        task.cred = cred

    # -- time/statistics convenience -------------------------------------------------

    @property
    def now_ns(self) -> int:
        return self.costs.now_ns

    def drop_caches(self, dentries: bool = True) -> None:
        """Cold-cache helper: drop buffer caches and (optionally) dentries.

        Mirrors ``echo 3 > /proc/sys/vm/drop_caches`` — the Table 2
        cold-cache methodology.
        """
        for mount in self.root_ns.mounts:
            mount.fs.drop_caches()
        if dentries:
            self.dcache.drop_all()
        # Buffer-cache state changed; recorded fs-level charges (if any
        # slipped through) and future cold costs would diverge.
        self.costs.forget()


def make_kernel(profile: str = "optimized",
                root_fs: Optional[FileSystem] = None,
                costs: Optional[CostModel] = None,
                lsm: Optional[Lsm] = None,
                config: Optional[DcacheConfig] = None,
                **overrides) -> Kernel:
    """Build a kernel.

    Args:
        profile: a :data:`PROFILES` name — ``"baseline"``,
            ``"optimized"`` or ``"optimized-lazy"`` (ignored when an
            explicit ``config`` is given).
        root_fs: root file system; a fresh :class:`SimExtFs` by default.
        costs: cost model (a fresh calibrated one by default).
        lsm: optional Linux-security-module analog.
        config: full configuration, overriding the profile.
        **overrides: field overrides applied to the selected config.
    """
    if config is None:
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}")
        config = PROFILES[profile]
    if overrides:
        config = config.variant(**overrides)
    return Kernel(config, root_fs=root_fs, costs=costs, lsm=lsm)
