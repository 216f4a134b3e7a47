"""Resolution memo: seq-validated caching of whole path resolutions.

The paper's central claim (§3.1) is that a repeated full-path lookup
should cost a constant number of table operations.  The simulator's
*virtual* costs already reflect that, but its *wall-clock* cost did
not: every ``stat`` of a hot path re-ran the entire Python resolve
machinery — split, signature resume, DLHT probe, PCC probe, lazy
revalidation.  This module memoizes the whole resolution instead.

A memo entry is keyed per namespace by

    ``(ns id, root dentry id, cwd dentry id, cred id,
       path, follow_last, intent_create, create_dir)``

and stores the terminal :class:`~repro.vfs.dentry.PathPos` (or a replica
of the raised :class:`~repro.errors.FsError`: data, no traceback), the
tables the resolution charged and counted into — its
:class:`~repro.sim.costs.ChargeVector` and its ``Stats`` deltas — and
the dcache-LRU / PCC touches it performed.  A hit is accepted only
after a validity check over the entry's recorded *dependencies*:

* the generation ``CostModel.forget()`` bumps is unchanged, and
* the lazy epoch high-water mark is unchanged (the lazy profile stamps
  epochs instead of shooting down; touch-time revalidation charges
  depend on it, so lazy recordings never survive an epoch bump), and
* the start dentry (root or cwd) is the same object with the same
  seqcount, and
* every dentry the walk's conclusion rested on — dcache-LRU hits, DLHT
  probe hits, PCC probe hits, fastpath negativity checks — is alive
  with its recorded seqcount, the *same inode object* (identity pins
  negativity flips and re-instantiations that do not bump seqs) and
  the same fast state under the same DLHT key, and
* the terminal dentry's state signature (inode kind, negativity kind,
  stub/alias state, DLHT registration) matches the recorded one, and
* every name, signature or prefix check the walk found absent is still
  what its table held at the snapshot, and
* every recorded PCC probe hit would hit again right now, and
* for entries whose recordings contain mutation-adjacent charges (see
  ``_STEADY_UNSAFE_PRIMITIVES``), the global invalidation counter is
  additionally unchanged.

Entries whose recordings are free of mutation-adjacent charges are
*steady*: they skip the counter comparison, so a confirmed resolution
survives its workload's own create/unlink/rename cycle and replays
again when the path returns to the recorded state — the memoized
parent resolution for mutation syscalls (an ``unlink`` or ``O_CREAT``
open re-resolves its path from the memo; the mutation invalidates
*after* resolution, so the read is legal).

On acceptance the memo *replays* the recording: one
:meth:`CostModel.apply` of the vector (a clock advance and a pending
count, folded into the attribution tables when they are next read) and
one bulk merge of the counter deltas.  Charging is integer and
order-independent, so virtual costs and stats are exactly those of
running the resolver again, on all three kernel profiles, while the
Python resolve machinery is skipped entirely.

Correctness protocol — confirm on second identical execution
------------------------------------------------------------

A first resolution of a path typically *populates* caches (dentry
allocation, DLHT/PCC inserts, stub fills, lazy re-arms).  Replaying
such a recording would skip those side effects.  Instead of trying to
enumerate every populating side effect, the memo stores the first
recording as *provisional* and only promotes it to *confirmed* —
eligible for replay — after a second execution under a still-valid
snapshot reproduces the identical charge vector, stat deltas, touch
lists, and outcome.  Any cache-populating work makes two consecutive
executions differ (the second run hits what the first one filled), so
confirmed recordings are structurally steady-state: their only side
effects are dcache-LRU reordering, PCC ``move_to_end`` touches and
re-inserts of PCC entries already there (a lookup that settles into
the slowpath repeats them), all captured in order and mirrored on
replay so eviction victims stay identical.  A successful confirmation
also refreshes the validity snapshot from the confirming run, so the
dependencies always describe the newest of the two identical executions.

The steady classification is the cycle-spanning complement of that
protocol: within one quiescent phase, consecutive identical runs prove
the absence of population; across a mutation cycle, the recording's
own charge vector proves it (population charges ``dentry_alloc`` /
``dlht_insert`` / ``pcc_insert`` / ... — any of which forces the
strict counter comparison, so such an entry lapses at the next
mutation).

Admission — record only while recordings pay
--------------------------------------------

Recording costs wall-clock (the touch lists, the swapped-in tables,
the snapshot, all of it twice before the first replay), so two
host-side rules decide *when to try*.  Neither can move virtual output:
every check above still guards every replay.  A *doorkeeper* — one set
of ``hash(key)`` ints — has a key resolved plainly on first sight and
recorded on its second.  It is cleared whole at ``CAPACITY`` keys, the
default LRU size: a key whose second sight comes only after more new
keys than the LRU holds cannot be replayed before it is pushed out, so
recording it would be pure cost (a recorded resolve costs about four
plain ones, and repays itself only after about ten replays).  A
*governor* counts resolves in windows of ``_WINDOW`` (integers, never
wall-clock) and compares what a window *earned* (replays) with what it
*wasted*: recordings ``_memoizable`` refused or a confirming run
contradicted, and entries found stale or pushed out past capacity.
``wasted > earned`` shuts recording for 1, 2, 4 ... ``_MAX_SHUT``
windows, then one probe window reopens it; a window that pays resets
the backoff.  A warm-up records much and loses nothing, so it never
shuts.  While shut, confirmed entries still validate and replay,
provisional ones wait, and an empty memo costs a resolve one countdown
step.

Resolutions that call into the low-level file system (buffer-cache or
device charges, pseudo-file generation, network RPCs) are never
memoized: their charges depend on state the memo cannot validate
cheaply.  The same applies to terminals on ``requires_revalidation``
file systems (§4.3 network file systems) and to resolutions that missed
a probe of an adaptive PCC (the miss moves its resize counter).

Invalidation is *checked on read*, as the paper's PCC checks its
seqcounts at probe time (§3.1-3.2): nothing outside this module knows
the memo's rule.  Every pin above is re-read by :meth:`_valid` before a
replay, and an entry that fails it is dropped then and counted
``stale``.  A dependency pin is its dentry's liveness, seqcount
(``Dcache.d_move`` bumps it, as ``__d_move`` writes ``d_seq``), inode
identity, fast state and DLHT key (a lazy re-registration demotes a
key without bumping seqs).  An absence pin is ``(table, key, value at
snapshot)`` for every name, signature or prefix check the walk found
missing — in a parent's ``children``, a DLHT's table or a PCC — and
holds while ``table.get(key)`` is still that value.  The generation
that ``CostModel.forget()`` bumps covers the coarse hazards no pin sees:
chmod/chown/label changes (permission bits feed memoized prefix
checks), mount table edits, credential changes, ``drop_caches`` and
seqcount wraparound (which breaks every seq pin at once).  A stale
entry costs only wall-clock, never fidelity.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Optional

from repro import errors
from repro.core.pcc import AdaptivePrefixCheckCache
from repro.sim.costs import Recording
from repro.vfs.mount import PathPos

__all__ = ["CAPACITY", "ResolutionMemo"]

#: Default LRU size in entries, and the doorkeeper's size in keys (see
#: *Admission* above): one number, so a key that comes back more rarely
#: than the default LRU could keep it is never recorded.
CAPACITY = 4096

#: Charge primitives whose presence makes a recording non-memoizable.
#: They are emitted by the low-level file systems and the simulated
#: device, so their repetition depends on buffer-cache / server state
#: the memo's validity check cannot see.
_UNMEMOIZABLE_PRIMITIVES = frozenset({
    "fs_lookup_base",
    "fs_dirblock_scan",
    "fs_readdir_entry",
    "pagecache_hit",
    "disk_seq_block",
    "disk_seek",
    "pseudo_generate",
    "net_rpc",
})

#: Charge primitives that mark a recording as *not* steady: cache
#: population (allocs/inserts) or invalidation work.  Entries carrying
#: any of these keep the strict global-counter comparison, so they can
#: never replay across a mutation cycle — only pure-probe recordings
#: (hash, table probes, LRU/PCC touches, permission checks) earn
#: cycle-spanning validity.
_STEADY_UNSAFE_PRIMITIVES = frozenset({
    "dentry_alloc",
    "negative_dentry_alloc",
    "dentry_free",
    "dlht_insert",
    "pcc_insert",
    "inval_per_dentry",
    "inval_counter_bump",
    "epoch_bump",
    "dentry_lock",
})

#: Interned kind markers for :func:`_dentry_sig`.
_DIR = "d"
_FILE = "f"


def _charges_any(vector, primitives: frozenset) -> bool:
    """Does ``vector`` hold a charge (or raw hint) named in ``primitives``?"""
    return not (primitives.isdisjoint(vector.counts)
                and primitives.isdisjoint(vector.raw))


def _dentry_sig(dentry) -> tuple:
    """State signature of a terminal dentry.

    Captures everything about the dentry's *own* state that a resolve
    conclusion can rest on without bumping its seqcount: negativity
    (and its kind), stub/alias state, inode kind, and the DLHT
    registration the fastpath would hit.  Regular-file inodes are
    summarized by kind only — an unlink/create cycle instantiates a
    fresh inode each round, and a file's own inode attributes are
    never read during resolution (permission checks on the terminal
    happen in the syscall layer, after resolve).  Directories are also
    kind-only: their permission bits are covered by the generation
    ``costs.forget()`` bumps on chmod/chown, and walks *into* them pin
    the inode identity through their dependency list instead.  Symlink
    inodes are pinned by identity — a retarget must not revalidate.
    """
    inode = dentry.inode
    if inode is None:
        kind = None
    elif inode.is_symlink:
        kind = inode
    elif inode.is_dir:
        kind = _DIR
    else:
        kind = _FILE
    fast = dentry.fast
    if fast is None:
        fsig = None
    else:
        fsig = (fast.dlht, fast.dlht_key, fast.hash_state is not None)
    return (kind, dentry.neg_kind, dentry.stub, dentry.alias_target, fsig)


class _Entry:
    """One memoized resolution plus its validity snapshot."""

    __slots__ = (
        "outcome_pos",      # terminal PathPos, or None if the walk raised
        "outcome_exc",      # never-raised FsError replica, or None
        "vector",           # ChargeVector the resolution charged,
        "stat_deltas",      # {counter name: int delta}: both shared
                            # with every equal recording
        "lru_touches",      # dentries whose dcache-LRU slot was refreshed
        "pcc_touches",      # Recording.pcc: PCC hits and inserts, in order
        "counter",          # Coherence.counter (checked unless steady)
        "epoch",            # Coherence.epoch at record time
        "start_dentry",     # root/cwd dentry the walk started from
        "start_seq",
        "term_dentry",      # terminal dentry (None for raised outcomes)
        "term_seq",
        "term_sig",         # _dentry_sig of the terminal at record time
        "deps",             # tuple of (dentry, seq, inode, fast,
                            # dlht_key) pins
        "absent",           # tuple of (table, key, value at snapshot)
        "gen",              # CostModel.plans.gen, bumped by forget()
        "steady",           # no mutation-adjacent charges: skip counter
        "refs",             # strong refs pinning every id() in the key
        "confirmed",        # replayable only after a second identical run
    )


class ResolutionMemo:
    """Capacity-bounded LRU of whole-path resolutions.

    Constructed by :class:`~repro.core.kernel.Kernel` when
    ``DcacheConfig.resolution_memo`` is on, and consulted by
    ``Syscalls._resolve`` for every resolve-bearing entry point.

    ``hits``/``misses``/``stale``/``recorded`` are host-side telemetry;
    they deliberately live outside :class:`~repro.sim.stats.Stats` so
    the memo never perturbs golden counters.  ``recorded`` counts the
    resolver runs made under a :class:`Recording`, first recordings and
    confirming runs alike.
    """

    __slots__ = (
        "costs", "stats", "coherence", "dcache", "resolver", "capacity",
        "_entries", "_door", "_interned",
        "_open", "_left", "_shut_for", "_mark", "_wasted",
        "hits", "misses", "stale", "recorded",
    )

    #: Resolves per governor window (see *Admission* in the module
    #: docstring), and the longest shut spell in windows.
    _WINDOW = 512
    _MAX_SHUT = 64

    #: Intern table size at which it is cleared whole.
    _INTERN_MAX = 1 << 10

    def __init__(self, costs, stats, coherence, dcache, resolver,
                 capacity: int = CAPACITY) -> None:
        self.costs = costs
        self.stats = stats
        self.coherence = coherence
        self.dcache = dcache
        self.resolver = resolver
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        #: Doorkeeper: ``hash(key)`` of every key resolved while open.
        self._door: set = set()
        #: Content -> the one stored ``ChargeVector`` / ``stat_deltas``
        #: tuple every entry with an equal recording shares.
        self._interned: dict = {}
        #: Governor: is recording open, resolves left in this window or
        #: shut spell, windows the next shut lasts, ``hits`` when the
        #: window began, and entries and recordings it has lost since.
        self._open = True
        self._left = self._WINDOW
        self._shut_for = 1
        self._mark = 0
        self._wasted = 0
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.recorded = 0

    # ------------------------------------------------------------------
    # hot path

    def _valid(self, entry: _Entry, start) -> bool:
        """Does ``entry``'s validity snapshot still hold?"""
        coh = self.coherence
        if entry.gen != self.costs.plans.gen or entry.epoch != coh.epoch:
            return False
        if not entry.steady and entry.counter != coh.counter:
            return False
        if (start is not entry.start_dentry or start.dead
                or start.seq != entry.start_seq):
            return False
        term = entry.term_dentry
        if term is not None:
            if (term.dead or term.seq != entry.term_seq
                    or _dentry_sig(term) != entry.term_sig):
                return False
        for d, seq, inode, fast, key in entry.deps:
            if (d.dead or d.seq != seq or d.inode is not inode
                    or d.fast is not fast
                    or fast is not None and fast.dlht_key != key):
                return False
        for table, key, seen in entry.absent:
            if table.get(key) is not seen:
                return False
        for pcc, d, epoch in entry.pcc_touches:
            if epoch is not None:  # an insert rests on nothing
                continue
            e = pcc._entries.get(id(d))
            if e is None or e[0] is not d or d.dead or e[1] != d.seq:
                return False
        return True

    def resolve(self, task, path: str, follow_last: bool,
                intent_create: bool, create_dir: bool) -> PathPos:
        """Resolve ``path`` for ``task``, replaying a memoized result
        when the validity snapshot still holds.

        Mirrors the resolver's contract exactly: returns the terminal
        :class:`PathPos` or raises a new instance of the recorded
        :class:`FsError`.
        """
        left = self._left - 1
        if left:
            self._left = left
        else:
            self._turn()
        entries = self._entries
        recording = self._open
        # Shut and empty is free: no key, no probe.  A re-entrant
        # resolve while another recording is active is resolved plainly
        # too: never nest recordings, and never replay into one.
        if (entries or recording) and self.costs.recorder is None:
            root_dentry = task.root.dentry
            cwd_dentry = task.cwd.dentry
            key = (id(task.ns), id(root_dentry), id(cwd_dentry),
                   id(task.cred), path, follow_last, intent_create,
                   create_dir)
            entry = entries.get(key)
            if entry is not None:
                start = root_dentry if path.startswith("/") else cwd_dentry
                if not self._valid(entry, start):
                    self.stale += 1
                    self._wasted += 1
                    del entries[key]
                elif entry.confirmed:
                    self.hits += 1
                    entries.move_to_end(key)
                    return self._replay(entry)
                elif recording:
                    return self._confirm(key, entry, task, path, follow_last,
                                         intent_create, create_dir)
                # else provisional while shut: resolved plainly, it waits
            if recording:
                # Doorkeeper: a key is recorded on its second sight.
                door = self._door
                seen = hash(key)
                if seen in door:
                    self.misses += 1
                    return self._record(key, task, path, follow_last,
                                        intent_create, create_dir)
                if len(door) >= CAPACITY:
                    door.clear()
                door.add(seen)
        self.misses += 1
        return self.resolver.resolve(
            task, path, follow_last=follow_last,
            intent_create=intent_create, create_dir=create_dir)

    def _turn(self) -> None:
        """A governor window or shut spell ended: a spell is followed by
        one probe window; a window that lost more entries and recordings
        than it replayed by a spell twice as long as the last."""
        self._left = self._WINDOW
        if not self._open:
            self._open = True
        elif self._wasted > self.hits - self._mark:
            self._open = False
            self._left *= self._shut_for
            self._shut_for = min(self._shut_for << 1, self._MAX_SHUT)
        else:
            self._shut_for = 1  # the window paid
        self._mark = self.hits
        self._wasted = 0

    def _replay(self, entry: _Entry) -> PathPos:
        """Re-apply a confirmed recording without running the resolver."""
        self.costs.apply(entry.vector)
        self.stats.bump_many(entry.stat_deltas)
        # The entry's strong refs keep every touched object alive, so
        # the id() keys below are the ones the live tables use.
        lru = self.dcache._lru
        for dentry in entry.lru_touches:
            dkey = id(dentry)
            lru[dkey] = dentry
            lru.move_to_end(dkey)
        for pcc, dentry, epoch in entry.pcc_touches:
            if epoch is not None:
                pcc.store(dentry, epoch)
                continue
            pcc_entries = pcc._entries
            dkey = id(dentry)
            if dkey in pcc_entries:
                pcc_entries.move_to_end(dkey)
        exc = entry.outcome_exc
        if exc is not None:
            # A new instance per failing call, as the resolver raises:
            # a raised instance keeps its traceback, and raising it
            # again would only lengthen the chain.  The new one is not
            # bound to a local, which would tie it into a cycle with
            # this frame.
            raise exc.replica()
        return entry.outcome_pos

    # ------------------------------------------------------------------
    # record / confirm

    def _run_recorded(self, task, path, follow_last, intent_create,
                      create_dir):
        """Run the real resolver under a :class:`Recording`."""
        self.recorded += 1
        pos = None
        exc = None
        with Recording(self.costs, self.stats) as rec:
            try:
                pos = self.resolver.resolve(
                    task, path, follow_last=follow_last,
                    intent_create=intent_create, create_dir=create_dir)
            except errors.FsError as caught:
                exc = caught
        return pos, exc, rec, rec.stat_deltas

    def _memoizable(self, rec: Recording, pos: Optional[PathPos]) -> bool:
        if _charges_any(rec.vector, _UNMEMOIZABLE_PRIMITIVES):
            return False
        # A missed probe of an adaptive PCC advanced its resize counter,
        # which no replay repeats and no validity check can see.
        if any(isinstance(owner, AdaptivePrefixCheckCache)
               for owner, _table, _key in rec.misses):
            return False
        if pos is not None and pos.dentry.inode is not None:
            if pos.dentry.inode.fs.requires_revalidation:
                return False
        return True

    def _snapshot(self, entry: _Entry, task, path, rec: Recording) -> None:
        """(Re)capture ``entry``'s validity snapshot from ``rec``."""
        entry.gen = self.costs.plans.gen
        coh = self.coherence
        entry.counter = coh.counter
        entry.epoch = coh.epoch
        start = task.root.dentry if path.startswith("/") else task.cwd.dentry
        entry.start_dentry = start
        entry.start_seq = start.seq
        pos = entry.outcome_pos
        term = pos.dentry if pos is not None else None
        entry.term_dentry = term
        if term is not None:
            entry.term_seq = term.seq
            entry.term_sig = _dentry_sig(term)
        else:
            entry.term_seq = 0
            entry.term_sig = None
        # Dependency pins: every dentry the walk's conclusion rested on
        # — dcache-LRU hits, fastpath DLHT/negativity conclusions, and
        # PCC probe and insert targets (the PCC hit condition alone does
        # not see negativity flips, so the inode pin rides along here).  The
        # terminal is excluded: its cycle-tolerant state signature
        # replaces the inode pin so unlink/create cycles can revalidate.
        deps = {}
        for d in chain(rec.lru, rec.deps,
                       [d for _pcc, d, _epoch in rec.pcc]):
            if d is not term and id(d) not in deps:
                fast = d.fast
                deps[id(d)] = (d, d.seq, d.inode, fast,
                               None if fast is None else fast.dlht_key)
        entry.deps = tuple(deps.values())
        # Absence pins hold the table itself, so no id() of theirs can
        # be recycled.  A PCC's table is keyed by id(dentry), and an
        # ``is`` check cannot be fooled by a recycled one either: a
        # present value holds its dentry, and an absent one turning
        # present fails the check whoever owns the id.
        absent = {(id(table), key): (table, key, table.get(key))
                  for _owner, table, key in rec.misses}
        entry.absent = tuple(absent.values())
        # Strong refs keep every object behind an id() in the key alive
        # (``deps`` and the touch lists hold the dentries), so no id can
        # be recycled while the entry can match.
        entry.refs = (task.ns, task.root, task.cwd, task.cred)
        entry.steady = not _charges_any(entry.vector,
                                        _STEADY_UNSAFE_PRIMITIVES)

    def _store(self, key, task, path, pos, exc, rec, deltas) -> None:
        if not self._memoizable(rec, pos):
            self._wasted += 1
            return
        entry = _Entry()
        entry.outcome_pos = pos
        # The caught instance carries the resolver's traceback (frames,
        # locals) and is the caller's to keep; the entry holds data.
        entry.outcome_exc = None if exc is None else exc.replica()
        # Stored tables are never mutated after ``Recording.__exit__``,
        # so equal recordings (paths of one shape) share one object.
        vector = rec.vector
        interned = self._interned
        if len(interned) + 2 > self._INTERN_MAX:  # room for both
            interned.clear()
        entry.vector = interned.setdefault(
            (frozenset(vector.counts.items()),
             frozenset(vector.by_scope.items()),
             frozenset(vector.nbytes.items()),
             frozenset(vector.raw.items())), vector)
        entry.stat_deltas = interned.setdefault(
            frozenset(deltas.items()), deltas)
        entry.lru_touches = rec.lru
        entry.pcc_touches = rec.pcc
        entry.confirmed = False
        self._snapshot(entry, task, path, rec)
        entries = self._entries
        entries[key] = entry
        entries.move_to_end(key)
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self._wasted += 1

    def _record(self, key, task, path, follow_last, intent_create,
                create_dir) -> PathPos:
        pos, exc, rec, deltas = self._run_recorded(
            task, path, follow_last, intent_create, create_dir)
        self._store(key, task, path, pos, exc, rec, deltas)
        if exc is not None:
            raise exc
        return pos

    def _confirm(self, key, entry, task, path, follow_last, intent_create,
                 create_dir) -> PathPos:
        """Re-run a provisional entry for real; promote it only if this
        execution is indistinguishable from the recorded one."""
        pos, exc, rec, deltas = self._run_recorded(
            task, path, follow_last, intent_create, create_dir)
        # Nothing but this memo's own resolve path removes an entry, and
        # a resolve inside a recording runs plainly: the entry is still
        # there.
        if self._matches(entry, pos, exc, rec, deltas):
            entry.confirmed = True
            # Refresh the validity snapshot from this (newest) run: the
            # two executions were observably identical, but the second
            # one's dependencies describe the current cache state.
            self._snapshot(entry, task, path, rec)
            self._entries.move_to_end(key)
        else:
            self._wasted += 1
            del self._entries[key]
            self._store(key, task, path, pos, exc, rec, deltas)
        if exc is not None:
            raise exc
        return pos

    @staticmethod
    def _matches(entry: _Entry, pos, exc, rec: Recording, deltas) -> bool:
        if rec.vector != entry.vector:
            return False
        if deltas != entry.stat_deltas:
            return False
        # Dentry and PCC objects compare by identity (no __eq__), which
        # is exactly the equality we want for the touch lists.
        if rec.lru != entry.lru_touches:
            return False
        if rec.pcc != entry.pcc_touches:
            return False
        old_pos = entry.outcome_pos
        if (pos is None) != (old_pos is None):
            return False
        if pos is not None:
            if pos.dentry is not old_pos.dentry:
                return False
            if pos.mount is not old_pos.mount:
                return False
        old_exc = entry.outcome_exc
        if (exc is None) != (old_exc is None):
            return False
        if exc is not None:
            if type(exc) is not type(old_exc):
                return False
            if exc.errno != old_exc.errno:
                return False
            if str(exc) != str(old_exc):
                return False
        return True

    # ------------------------------------------------------------------
    # accounting

    def __len__(self) -> int:
        return len(self._entries)

    def event_count(self) -> int:
        """Stored charge-vector keys, a shared vector counted once (for
        memory accounting)."""
        distinct = {id(e.vector): e.vector for e in self._entries.values()}
        return sum(map(len, distinct.values()))
