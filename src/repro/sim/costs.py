"""Cost model: per-primitive virtual-nanosecond charges.

The algorithms in :mod:`repro.vfs` and :mod:`repro.core` are exact
implementations of the baseline and optimized dcache designs; whenever they
perform a hardware-priced primitive they call :meth:`CostModel.charge`.
The mapping from primitive to nanoseconds is the single calibration point
of the reproduction.

Two presets ship with the library:

* ``CALIBRATED`` — charges tuned so the *baseline* kernel matches the
  paper's §1/§6 reference numbers (a warm ``stat`` costs ~0.3 µs for one
  component and ~1.1 µs for eight; ``readdir`` of a 10 k directory costs
  ~2.9 ms; a non-adjacent disk block costs hundreds of microseconds).
  Everything the *optimized* kernel achieves is then emergent from doing
  fewer/cheaper primitives, exactly as in the paper.
* ``UNIT`` — every primitive costs 1 ns, so tests can assert raw
  operation counts (e.g. "the fastpath does a constant number of hash
  table probes regardless of path depth").

Attribution scopes (:meth:`CostModel.scope`) label charges with the current
phase of a lookup ("init", "perm_check", "hash", ...), which is how the
Figure 3 breakdown and Figure 1 time-fraction experiments are produced.

Time is accumulated in integer ticks (see :mod:`repro.sim.clock`): a rate
table is converted once at construction and every rate must be a whole
number of ticks.  Integer addition is associative, so the clock and the
attribution tables depend only on *what* was charged, never on the order
— which is what lets a fixed bundle of charges be kept as a
:class:`ChargeVector` and charged any number of times with one counter
bump (:meth:`CostModel.apply`): the clock advances at once, and the
tables get the vector when next read.  A bundle is either priced once
from its members (:meth:`CostModel.run`) or recorded: a
:class:`Recording` charges a run into fresh tables of its own, which
are added back when it ends.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Tuple

from repro.sim.clock import TICKS_PER_NS, Clock, to_ticks

#: Charges (virtual ns) calibrated against the paper's baseline numbers.
#: Per-byte entries are suffixed ``_per_byte``; everything else is per call.
CALIBRATED: Dict[str, float] = {
    # --- generic syscall machinery -------------------------------------
    "syscall_fixed": 130.0,        # entry/exit, arg copy, audit
    "stat_fill": 60.0,             # copying struct stat out
    "open_install_fd": 1150.0,     # file object alloc + fd table install
    "close_fd": 200.0,
    "read_write_base": 250.0,      # per read()/write() call overhead
    "read_write_base_per_byte": 0.02,
    # --- lookup: shared fixed costs ------------------------------------
    "lookup_init": 60.0,           # nameidata setup, fetching root/cwd
    "lookup_final": 46.0,          # mnt checks, final audit
    # --- baseline component-at-a-time walk ------------------------------
    "component_hash": 5.0,         # hash one component (fixed part)
    "component_hash_per_byte": 1.6,
    "ht_probe": 30.0,              # primary hash table bucket fetch
    "chain_compare": 12.0,         # compare one chain entry (parent+name)
    "perm_check_dac": 30.0,        # inode mode-bit check
    "perm_check_lsm": 18.0,        # LSM hook dispatch (when an LSM is set)
    "read_barrier": 8.0,           # RCU-walk memory barrier per component
    "dentry_lock": 55.0,           # ref-walk per-dentry lock (slow slowpath)
    "seqlock_read": 10.0,
    "symlink_resolve": 90.0,       # reading the link body, restarting walk
    "mountpoint_cross": 45.0,
    # --- optimized fastpath ----------------------------------------------
    "fastpath_init": 30.0,         # lighter setup than a full nameidata
    "sig_hash": 50.0,              # signature hashing: per-component part
    "sig_hash_per_byte": 4.0,      # multilinear hash per path byte
    "sig_hash_prf": 120.0,         # PRF (AES/BLAKE-class) per component
    "sig_hash_prf_per_byte": 6.0,  # §3.3: too slow to win at few comps
    "dlht_probe": 26.0,            # direct-lookup hash table bucket fetch
    "sig_compare": 8.0,            # 240-bit signature compare
    "pcc_probe": 16.0,             # per-cred prefix check cache lookup
    "pcc_insert": 26.0,
    "dlht_insert": 34.0,
    "mount_flag_check": 8.0,       # per-dentry mount pointer check
    "dotdot_extra_lookup": 170.0,  # extra fastpath lookup per ".." (§4.2)
    # --- mutation-side invalidation (the paper's deliberate trade-off) ---
    "inval_per_dentry": 32.0,      # recursive seq bump + DLHT eviction
    "inval_counter_bump": 20.0,    # global invalidation counter
    # --- lazy (epoch-based) invalidation: optimized-lazy profile only ---
    # One atomic increment of the global epoch plus one stamp store on
    # the mutated dentry: two cache lines, no tree walk.  Priced like
    # the eager counter bump plus one dirtied line.
    "epoch_bump": 28.0,
    # Touch-time revalidation, charged once per chain node examined: a
    # parent-pointer load plus an epoch compare (one likely-shared cache
    # line per hop, cheaper than a hashed dcache probe).  The O(1)
    # accept — one predicted-branch integer compare against the global
    # epoch, on a cache line the probe already loaded — is not charged.
    "lazy_validate": 12.0,
    "rename_fixed": 2500.0,        # rename_lock + dentry moves (baseline)
    "chmod_fixed": 300.0,          # setattr dcache work (baseline)
    # --- dcache maintenance ----------------------------------------------
    "dentry_alloc": 90.0,
    "dentry_free": 60.0,
    "negative_dentry_alloc": 70.0,
    "lru_touch": 6.0,
    # --- readdir ----------------------------------------------------------
    "readdir_fixed": 1400.0,       # getdents sequence fixed cost
    "fs_readdir_entry": 280.0,     # low-level FS: parse+translate one entry
    "cached_readdir_entry": 73.0,  # emit one entry from the dcache
    # --- low-level FS / disk ----------------------------------------------
    "fs_lookup_base": 500.0,       # calling into the low-level FS
    "fs_dirblock_scan": 160.0,     # scan one directory block for a name
    "fs_create": 9000.0,           # allocate inode + dir entry (in cache)
    "fs_unlink": 3200.0,
    "fs_setattr": 250.0,
    "fs_xattr": 420.0,             # read/write one extended attribute
    "fs_rename": 1200.0,
    "pagecache_hit": 180.0,        # metadata block already in buffer cache
    "disk_seq_block": 12_000.0,    # sequential 4 KB block transfer
    "disk_seek": 480_000.0,        # non-adjacent access penalty (7200 rpm)
    # --- pseudo file systems ----------------------------------------------
    "pseudo_generate": 350.0,      # synthesize a proc-like entry
}

#: Unit preset: every primitive costs exactly 1 ns (for counting tests).
UNIT: Dict[str, float] = {name: 1.0 for name in CALIBRATED}


class _ScopeGuard:
    """Reusable, allocation-free replacement for a contextmanager scope.

    One guard exists per (CostModel, label); entering pushes the label on
    the model's scope stack and exiting pops it, so nesting — including
    re-entering the same label — behaves exactly like the previous
    generator-based implementation at a fraction of the cost.
    """

    __slots__ = ("_stack", "_label")

    def __init__(self, stack: list, label: str):
        self._stack = stack
        self._label = label

    def __enter__(self) -> None:
        self._stack.append(self._label)

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stack.pop()


class ChargeVector:
    """What a bundle of charges adds to a :class:`CostModel`, as a sum.

    The bundle's own attribution tables — ``counts`` (primitive ->
    calls), ``nbytes`` (primitive -> bytes at its per-byte rate), ``raw``
    (``charge_ns`` hint -> ticks) and ``by_scope`` (scope -> ticks) —
    and ``ticks``, the clock advance.  Those are exactly what
    :meth:`CostModel.apply` adds; no joint ``(scope, primitive)`` total
    is observable anywhere, so ``==`` means "leaves every table and the
    clock the same".  Charging is order-independent, so this is
    everything a bundle needs to keep.  A vector is priced from its
    members once (:meth:`CostModel.run`; ``per_byte`` is then the
    ``(scope, primitive, ticks per byte)`` member that takes the bytes
    ``apply`` is given, or None) or recorded: a :class:`Recording`
    charges straight into a fresh vector's tables, and the resolution
    memo and every charge plan store one, compare two with ``==`` to
    confirm a recording, and replay it through ``apply``.

    Hashing is by identity (``==`` stays by content): ``apply`` counts a
    vector in a pending ``{vector: times}`` table keyed by the object,
    so two equal vectors may take one key or two — either way they
    fold to the same tables.  A vector is never changed once priced or
    once its recording has ended.
    """

    __slots__ = ("counts", "nbytes", "raw", "by_scope", "ticks", "per_byte")

    __hash__ = object.__hash__

    def __init__(self) -> None:
        # ``charge`` adds by ``+=`` to these two: a default spares a
        # fresh table its KeyError branch on each new key.
        self.counts: Dict[str, int] = defaultdict(int)
        self.nbytes: Dict[str, int] = {}
        self.raw: Dict[str, int] = {}
        self.by_scope: Dict[str, int] = defaultdict(int)
        self.ticks = 0
        self.per_byte: Optional[Tuple[str, str, int]] = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChargeVector):
            return NotImplemented
        return (self.ticks == other.ticks and self.counts == other.counts
                and self.by_scope == other.by_scope
                and self.nbytes == other.nbytes and self.raw == other.raw
                and self.per_byte == other.per_byte)

    def __len__(self) -> int:
        """Distinct keys held (the memory a stored vector costs)."""
        return (len(self.counts) + len(self.nbytes) + len(self.raw)
                + len(self.by_scope))

    def __repr__(self) -> str:
        return (f"ChargeVector(counts={dict(self.counts)}, by_scope="
                f"{dict(self.by_scope)}, nbytes={self.nbytes}, raw={self.raw},"
                f" ticks={self.ticks}, per_byte={self.per_byte})")


class Recording:
    """What a run charges and touches, collected while it executes.

    A context manager: ``with Recording(costs, stats) as rec: run()``
    swaps fresh attribution tables into ``costs`` (``counts``, the
    byte, raw and scope totals, the pending vectors) and ``stats`` for
    the block, so the run charges and counts straight into ``vector``
    and ``stat_deltas`` (a ``{counter: delta}`` dict), and folds both
    back on exit (its pending vectors into ``vector`` first), also when
    the run raises.  The add back on exit is eager, not a deferred
    :meth:`CostModel.apply`: a pending key would keep every fresh
    recorded vector alive until the next read.  The clock is not
    swapped: ``mtime_ns`` stamps and plan guards read real time inside
    the block, and ``vector.ticks`` is the clock's advance over it.
    While a recording is open, ``costs.counts``, ``by_scope``,
    ``by_primitive`` and ``stats.get`` see only its own tables.  A
    recording opened inside another folds its tables into the outer one
    on exit; its touch lists stay its own.

    ``costs.recorder`` is the innermost open recording, for the cache
    structures to note what the run touches: ``lru`` dcache-LRU touches
    (``Dcache.probe`` hits), ``pcc`` PCC probe hits ``(pcc, dentry,
    None)`` and inserts ``(pcc, dentry, epoch)`` in order, ``deps`` the
    dentries a fastpath conclusion rested on (DLHT probe hits,
    negativity checks), ``misses`` an ``(owner, table, key)`` triple for
    each probe that found ``key`` absent from the dict ``table``
    (``Dcache.probe``: the parent and its ``children``; a DLHT and its
    signature table; a PCC and its entries by ``id(dentry)``).  The
    resolution memo mirrors ``lru``/``pcc`` on replay and pins
    ``deps``/``misses``, re-reading them before each replay; a
    charge-plan capture reads none of them
    (a drain vouches for itself through
    :func:`~repro.workloads.traces._drain_state`).
    """

    __slots__ = ("vector", "stat_deltas", "lru", "pcc", "deps", "misses",
                 "_costs", "_stats", "_outer", "_saved", "_start")

    def __init__(self, costs: "CostModel", stats) -> None:
        self.vector = ChargeVector()
        self.stat_deltas: Dict[str, int] = {}
        self.lru: list = []
        self.pcc: list = []
        self.deps: list = []
        self.misses: list = []
        self._costs = costs
        self._stats = stats

    def __enter__(self) -> "Recording":
        costs, stats, vector = self._costs, self._stats, self.vector
        self._saved = (costs._counts, costs._nbytes, costs._raw,
                       costs._by_scope, costs._pending_vectors,
                       stats._counters)
        (costs._counts, costs._nbytes, costs._raw, costs._by_scope,
         costs._pending_vectors, stats._counters) = (
            vector.counts, vector.nbytes, vector.raw, vector.by_scope, {},
            self.stat_deltas)
        self._outer, costs.recorder = costs.recorder, self
        self._start = costs.clock._ticks
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        costs, stats = self._costs, self._stats
        costs._fold()  # what was charged in here, into the vector
        (costs._counts, costs._nbytes, costs._raw, costs._by_scope,
         costs._pending_vectors, stats._counters) = self._saved
        costs.recorder = self._outer
        vector = self.vector
        # The clock already ran on through the block: this adds the
        # tables only, at once.
        costs._add(vector)
        vector.ticks = costs.clock._ticks - self._start
        stats.bump_many(self.stat_deltas)


class PlanCell:
    """Capture state of one whole drain, whose protocol
    :func:`~repro.workloads.traces.replay_interleaved` runs.

    ``pending`` holds the last capture ``(vector, stat_deltas)`` until
    an equal one, whose drain is vouched to leave the state it found,
    confirms it as ``plan``: the memo's confirm-on-second-identical-run
    protocol, with no warm-up.  ``armed`` is the ``(clock state,
    registry generation)`` the confirming capture or the last apply
    ended on; the plan applies only while both still hold.  ``retries``
    counts rejected or mismatched captures; too many mark the cell
    ``dead``.
    """

    __slots__ = ("pending", "plan", "armed", "retries", "dead")

    def __init__(self) -> None:
        self.pending = None
        self.plan = None
        self.armed = None
        self.retries = 0
        self.dead = False


class ChargePlanRegistry:
    """Per-:class:`CostModel` store of captured charge plans.

    The replay engine (:func:`repro.workloads.traces.replay_interleaved`)
    owns the capture/apply protocol; this registry owns the state: one
    table of :class:`PlanCell`, a generation counter bumped by
    :meth:`CostModel.forget` (every armed plan disarms on a bump, and
    every resolution memo entry lapses), and
    host-side telemetry
    (``compiled``/``applied``/``invalidated``/``fallbacks`` — like the
    resolution memo's counters these live outside
    :class:`~repro.sim.stats.Stats` so plans never perturb golden
    counters).
    """

    #: Rejected/mismatched captures before a cell goes dead.
    MAX_RETRIES = 3
    #: Cells kept; a full table is cleared whole (dropping a cell costs
    #: a re-capture, never fidelity).
    MAX_CELLS = 256

    __slots__ = ("gen", "compiled", "applied", "invalidated", "fallbacks",
                 "_cells")

    def __init__(self) -> None:
        self.gen = 0
        self.compiled = 0
        self.applied = 0
        self.invalidated = 0
        self.fallbacks = 0
        #: (tag, id(pin), ...) -> (pins, PlanCell).
        self._cells: Dict[tuple, tuple] = {}

    def bump_gen(self) -> None:
        """Invalidate every live plan (out-of-band world change)."""
        self.gen += 1

    def cell(self, tag, *pins) -> "PlanCell":
        """The cell of drain ``tag`` over ``pins`` (created lazily).

        ``pins`` are the tasks and programs whose executions feed the
        cell, in stream order, keyed by identity: a drain's charges are
        a deterministic function of those plus kernel state, which the
        armed guard covers, and no plan crosses tasks.  ``tag``, the
        drain's scheduler seed, tells the drains over one pin sequence
        apart.
        """
        key = (tag, *map(id, pins))
        entry = self._cells.get(key)
        if entry is None:
            if len(self._cells) >= self.MAX_CELLS:
                self._cells.clear()
            # The entry keeps ``pins`` alive, so no other object can
            # take one of the ids in ``key`` while it exists.
            entry = self._cells[key] = (pins, PlanCell())
        return entry[1]

    def telemetry(self) -> Dict[str, int]:
        return {"compiled": self.compiled, "applied": self.applied,
                "invalidated": self.invalidated,
                "fallbacks": self.fallbacks}


def _rate_ticks(name: str, ns: float) -> int:
    """``ns`` as ticks; a rate between two ticks is a table error."""
    ticks = ns * TICKS_PER_NS
    whole = round(ticks)
    if abs(ticks - whole) > 1e-6:
        raise ValueError(f"rate {name!r} = {ns} ns is not a whole number "
                         f"of ticks ({TICKS_PER_NS} per ns)")
    return whole


class CostModel:
    """Charges virtual time for primitives and attributes it to scopes.

    Args:
        charges: primitive-name -> nanoseconds table; defaults to a copy
            of :data:`CALIBRATED`.  The table is converted to ticks once
            at construction (:class:`ValueError` for a rate that is not
            a whole number of ticks) and is immutable afterwards.
        clock: the clock to advance; a private one is created if omitted.

    ``by_primitive`` and ``by_scope`` read in nanoseconds, like
    ``now_ns``; the integer tables behind them are private.  A
    primitive's time is linear in what ``counts`` and the per-primitive
    byte totals hold, so only those are accumulated per charge and
    ``by_primitive`` is worked out when read.  An :meth:`apply` only
    counts its vector as pending; every reader of the tables folds the
    pending ones in first (:meth:`_fold`).
    """

    #: Distinct vectors pending at most: a new one past this folds the
    #: table first, so a run that never reads still holds few vectors.
    MAX_PENDING_VECTORS = 64

    __slots__ = ("charges", "clock", "_scope_stack", "_by_scope", "_nbytes",
                 "_raw", "_counts", "_pending_vectors", "_priced", "_rates",
                 "_guards", "recorder", "plans")

    def __init__(self, charges: Optional[Dict[str, float]] = None,
                 clock: Optional[Clock] = None):
        self.charges = dict(CALIBRATED if charges is None else charges)
        self.clock = clock or Clock()
        self._scope_stack: list = []
        self._by_scope: Dict[str, int] = {}
        self._counts: Dict[str, int] = {}
        #: :class:`ChargeVector` -> times applied, unfolded.
        self._pending_vectors: Dict[ChargeVector, int] = {}
        #: primitive -> bytes charged at its per-byte rate.
        self._nbytes: Dict[str, int] = {}
        #: ``charge_ns`` hint -> ticks.
        self._raw: Dict[str, int] = {}
        self._guards: Dict[str, _ScopeGuard] = {}
        #: ``(charges, per_byte)`` -> the vector :meth:`run` priced.
        self._priced: Dict[tuple, ChargeVector] = {}
        #: primitive -> (per-call ticks, per-byte ticks).  A per-byte
        #: rate is no primitive of its own: charging it is a typo.
        self._rates: Dict[str, Tuple[int, int]] = {
            name: (_rate_ticks(name, value),
                   _rate_ticks(name + "_per_byte",
                               self.charges.get(name + "_per_byte", 0.0)))
            for name, value in self.charges.items()
            if not name.endswith("_per_byte")}
        #: The innermost open :class:`Recording`, which the cache
        #: structures note their touches in (see
        #: :mod:`repro.core.resmemo`, ``workloads/traces.py``).
        self.recorder: Optional[Recording] = None
        #: Captured charge plans for whole drains (see
        #: :class:`ChargePlanRegistry` and ``workloads/traces.py``).
        self.plans = ChargePlanRegistry()

    def forget(self) -> None:
        """Bulk-invalidate every host-side layer: bump the generation
        that every captured charge plan and every resolution memo entry
        pins, so each lapses when it is next read.

        For the changes no per-entry pin sees: chmod/chown/relabel
        (the eager profile elides the invalidation-counter bump when no
        fast-side state was hit and no walk is active, the baseline
        profile has no counter at all, and chmod of a regular file
        mutates no dentry), mount-table edits, credential changes
        (:meth:`~repro.core.kernel.Kernel.change_identity` charges
        nothing), ``drop_caches`` and seqcount wraparound.  Plan guards
        cannot see mode, label, mount-table or credential state either.
        Forgetting too often costs wall-clock only.
        """
        self.plans.bump_gen()

    # -- charging ---------------------------------------------------------

    def charge(self, primitive: str, times: int = 1, nbytes: int = 0) -> float:
        """Charge ``times`` occurrences of ``primitive`` (+ per-byte part).

        Returns the nanoseconds charged.  Unknown primitives are an error:
        they indicate a typo, not a free operation.
        """
        try:
            per_call, per_byte = self._rates[primitive]
        except KeyError:
            raise KeyError(f"unknown cost primitive: {primitive!r}") from None
        ticks = per_call * times
        if nbytes:
            ticks += per_byte * nbytes
            totals = self._nbytes
            totals[primitive] = totals.get(primitive, 0) + nbytes
        # Charge rates are nonnegative, so the ticks are added directly:
        # only ``charge_ns``, whose nanoseconds come from the caller,
        # checks that the clock does not run backwards.
        self.clock._ticks += ticks
        counts = self._counts
        try:
            counts[primitive] += times
        except KeyError:
            counts[primitive] = times
        stack = self._scope_stack
        if stack:
            by_scope = self._by_scope
            try:
                by_scope[stack[-1]] += ticks
            except KeyError:
                by_scope[stack[-1]] = ticks
        return ticks / TICKS_PER_NS

    def run(self, charges, per_byte: Optional[str] = None) -> ChargeVector:
        """``((scope, primitive), ...)`` priced once, as a vector; the
        first ``per_byte`` member takes the bytes :meth:`apply` is given.

        Equal arguments return the same vector, so the bundle takes one
        pending key however many owners price it.
        """
        charges = tuple(charges)
        key = (charges, per_byte)
        vector = self._priced.get(key)
        if vector is not None:
            return vector
        vector = ChargeVector()
        for scope, primitive in charges:
            ticks = self._rates[primitive][0]  # KeyError: not a primitive
            vector.counts[primitive] += 1
            vector.by_scope[scope] += ticks
            vector.ticks += ticks
        if per_byte is not None:  # ValueError unless a member
            scope = charges[[p for _s, p in charges].index(per_byte)][0]
            vector.per_byte = (scope, per_byte, self._rates[per_byte][1])
        self._priced[key] = vector
        return vector

    def _fold(self) -> None:
        """Add the pending vectors to the attribution tables."""
        vectors = self._pending_vectors
        if vectors:
            for vector, n in vectors.items():
                self._add(vector, n)
            vectors.clear()

    def charge_ns(self, scope_hint: str, ns: float) -> None:
        """Charge raw nanoseconds (used for app 'compute' phases).

        ``ns`` is an arbitrary caller float; it is rounded to the
        nearest tick.
        """
        if ns < 0:
            raise ValueError(f"clock cannot run backwards ({ns} ns)")
        ticks = to_ticks(ns)
        self.clock._ticks += ticks
        self._raw[scope_hint] = self._raw.get(scope_hint, 0) + ticks
        stack = self._scope_stack
        scope = stack[-1] if stack else None
        if scope is not None:
            self._by_scope[scope] = self._by_scope.get(scope, 0) + ticks

    def apply(self, vector: ChargeVector, times: int = 1,
              nbytes: int = 0) -> None:
        """Charge ``vector`` ``times`` over, plus ``nbytes`` on its
        per-byte member, in one call.

        Advances the clock at once, and adds the bytes to the byte and
        scope totals, but only counts the vector as pending: ``counts``,
        ``by_scope``, ``by_primitive`` and the byte and raw totals get
        it when next read (:meth:`_fold`), exactly as charging its
        members again would have left them.  Ticks are integers, so the
        folded tables equal the eager ones; the clock is never deferred,
        so anything that reads time sees every vector charged so far.  A
        new vector that would make more than :attr:`MAX_PENDING_VECTORS`
        pending folds the table first.
        """
        ticks = vector.ticks * times
        if nbytes:
            if vector.per_byte is None:
                raise ValueError(f"{vector!r} has no per-byte member")
            scope, primitive, rate = vector.per_byte
            extra = rate * nbytes
            self._nbytes[primitive] = self._nbytes.get(primitive, 0) + nbytes
            self._by_scope[scope] = self._by_scope.get(scope, 0) + extra
            ticks += extra
        self.clock._ticks += ticks
        pending = self._pending_vectors
        try:
            pending[vector] += times
        except KeyError:
            if len(pending) >= self.MAX_PENDING_VECTORS:
                self._fold()
            pending[vector] = times

    def _add(self, vector: ChargeVector, times: int = 1) -> None:
        """Add ``vector``'s tables ``times`` over to the attribution
        tables (not the clock): one addition per distinct key."""
        for table, delta in ((self._counts, vector.counts),
                             (self._by_scope, vector.by_scope),
                             (self._nbytes, vector.nbytes),
                             (self._raw, vector.raw)):
            if delta:
                get = table.get
                if times == 1:  # every recording's exit: spare the product
                    for key, value in delta.items():
                        table[key] = get(key, 0) + value
                else:
                    for key, value in delta.items():
                        table[key] = get(key, 0) + value * times

    # -- attribution --------------------------------------------------------

    def scope(self, label: str) -> _ScopeGuard:
        """Attribute charges inside the ``with`` block to ``label``.

        Scopes do not nest additively: the innermost label wins, matching
        how a profiler attributes exclusive time.
        """
        guard = self._guards.get(label)
        if guard is None:
            guard = _ScopeGuard(self._scope_stack, label)
            self._guards[label] = guard
        return guard

    def reset_attribution(self) -> None:
        """Clear scope/primitive attribution without touching the clock."""
        self._by_scope.clear()
        self._nbytes.clear()
        self._raw.clear()
        self._counts.clear()
        self._pending_vectors.clear()

    # -- reading ------------------------------------------------------------

    @property
    def now_ns(self) -> float:
        return self.clock.now_ns

    @property
    def counts(self) -> Dict[str, int]:
        """Calls charged per primitive (the live table: read, not kept)."""
        self._fold()
        return self._counts

    @property
    def by_primitive(self) -> Dict[str, float]:
        """Nanoseconds charged per primitive (and per ``charge_ns`` hint)."""
        self._fold()
        rates = self._rates
        totals = self._nbytes
        ticks = {name: rates[name][0] * times
                 + rates[name][1] * totals.get(name, 0)
                 for name, times in self._counts.items()}
        for hint, raw in self._raw.items():
            ticks[hint] = ticks.get(hint, 0) + raw
        return {name: value / TICKS_PER_NS for name, value in ticks.items()}

    @property
    def by_scope(self) -> Dict[str, float]:
        """Nanoseconds charged per attribution scope."""
        self._fold()
        return {name: ticks / TICKS_PER_NS
                for name, ticks in self._by_scope.items()}

    def scope_ns(self, label: str) -> float:
        self._fold()
        return self._by_scope.get(label, 0) / TICKS_PER_NS

    def count(self, primitive: str) -> int:
        return self.counts.get(primitive, 0)
