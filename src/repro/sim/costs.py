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
— which is what lets a recorded run be kept as a :class:`ChargeVector`
and re-applied with one addition per distinct key
(:meth:`CostModel.apply`).
"""

from __future__ import annotations

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
    """What a run of charges adds to a :class:`CostModel`, as a sum.

    ``charges`` maps ``(scope, primitive)`` to the ``(times, nbytes)``
    totals charged under that attribution scope (``None``: no scope);
    ``raw`` maps ``(scope, hint)`` to the ticks :meth:`CostModel.charge_ns`
    added; ``ticks`` is the total clock advance.  Charging is
    order-independent, so this is everything a recorded run needs to
    keep: the resolution memo and every charge plan store one, compare
    two with ``==`` to confirm a recording, and replay through
    :meth:`CostModel.apply`.
    """

    __slots__ = ("charges", "raw", "ticks")

    def __init__(self, charges: Optional[dict] = None,
                 raw: Optional[dict] = None, ticks: int = 0) -> None:
        self.charges: Dict[tuple, Tuple[int, int]] = charges or {}
        self.raw: Dict[tuple, int] = raw or {}
        self.ticks = ticks

    def add(self, scope, primitive: str, times: int, nbytes: int,
            ticks: int) -> None:
        """Record one :meth:`CostModel.charge` / ``charge_in``."""
        key = (scope, primitive)
        old = self.charges.get(key)
        if old is not None:
            times += old[0]
            nbytes += old[1]
        self.charges[key] = (times, nbytes)
        self.ticks += ticks

    def add_raw(self, scope, hint: str, ticks: int) -> None:
        """Record one :meth:`CostModel.charge_ns`."""
        key = (scope, hint)
        self.raw[key] = self.raw.get(key, 0) + ticks
        self.ticks += ticks

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChargeVector):
            return NotImplemented
        return self.charges == other.charges and self.raw == other.raw

    def __len__(self) -> int:
        """Distinct keys held (the memory a stored vector costs)."""
        return len(self.charges) + len(self.raw)

    def __repr__(self) -> str:
        return (f"ChargeVector({self.charges!r}, {self.raw!r}, "
                f"ticks={self.ticks})")


class Recording:
    """What a run charges and touches, collected while it executes.

    A context manager: ``with Recording(costs, stats) as rec: run()``
    attaches itself as ``costs.recorder`` for the block and leaves the
    run's sorted ``(counter, delta)`` Stats changes in ``stat_deltas``.
    ``vector`` receives every ``charge``/``charge_in``/``charge_ns``;
    ``lru`` dcache-LRU touches (``Dcache.d_lookup`` hits), ``pcc`` PCC
    probe hits ``(pcc, dentry, None)`` and inserts ``(pcc, dentry,
    epoch)`` in order, ``deps`` the dentries a fastpath conclusion
    rested on (DLHT probe hits, negativity checks), ``misses`` the
    ``(container, key)`` pairs whose *absence* the run observed
    (``Dcache.d_lookup``, DLHT and PCC probe misses).  The resolution
    memo mirrors ``lru``/``pcc`` on replay and pins ``deps``/``misses``;
    a charge-plan capture that touched ``lru`` or ``pcc`` is rejected
    (plans cover only fd-table syscalls).
    """

    __slots__ = ("vector", "lru", "pcc", "deps", "misses",
                 "stat_deltas", "_costs", "_stats", "_before")

    def __init__(self, costs: "CostModel", stats) -> None:
        self.vector = ChargeVector()
        self.lru: list = []
        self.pcc: list = []
        self.deps: list = []
        self.misses: list = []
        self.stat_deltas: tuple = ()
        self._costs = costs
        self._stats = stats

    def __enter__(self) -> "Recording":
        self._before = self._stats.snapshot()
        self._costs.recorder = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._costs.recorder = None
        before = self._before
        # The items-view difference picks the moved counters in C; a
        # counter born at zero is in it and is no change.
        self.stat_deltas = tuple(sorted(
            (name, value - before.get(name, 0))
            for name, value in self._stats._counters.items() - before.items()
            if value != before.get(name, 0)))


class ChargePlan:
    """A confirmed capture of one replay unit, applied as vector adds.

    ``vector`` is everything the unit charges and ``stat_deltas`` its
    Stats counter deltas; ``gen`` snapshots the registry generation the
    plan was captured under.
    """

    __slots__ = ("vector", "stat_deltas", "gen")

    def __init__(self, vector: ChargeVector, stat_deltas: tuple,
                 gen: int) -> None:
        self.vector = vector
        self.stat_deltas = stat_deltas
        self.gen = gen


class PlanCell:
    """Capture state of one replay unit (``workloads/traces.py`` runs
    the protocol; a unit is a plannable segment or a whole drain).

    Lifecycle: ``execs`` warm executions run interpreted, then two
    recorded executions must produce equal captures (kept in
    ``pending`` in between) before a :class:`ChargePlan` is stored — the
    same confirm-on-second-identical-run protocol the resolution memo
    uses.  ``retries`` counts rejected/mismatched captures; too many
    marks the cell ``dead`` (permanently interpreted).  ``fail_streak``
    counts consecutive guard failures at apply time; too many
    invalidates the plan for re-capture.  ``armed_now`` is used by
    whole-drain cells only: the clock state the kernel must be in for
    the plan to apply (any interleaving syscall moves the clock off it).
    """

    __slots__ = ("execs", "pending", "plan", "dead", "retries",
                 "fail_streak", "armed_now")

    def __init__(self) -> None:
        self.execs = 0
        self.pending = None
        self.plan = None
        self.dead = False
        self.retries = 0
        self.fail_streak = 0
        self.armed_now = None

    def reset(self) -> None:
        """Drop any captured state and restart the capture protocol."""
        self.execs = 0
        self.pending = None
        self.plan = None
        self.fail_streak = 0
        self.armed_now = None


class ChargePlanRegistry:
    """Per-:class:`CostModel` store of captured charge plans.

    The replay engine (:func:`repro.workloads.traces.replay_interleaved`)
    owns the capture/apply protocol; this registry owns the state: one
    table of :class:`PlanCell`, a generation counter bumped by
    :meth:`CostModel.forget` (every live plan dies on a bump), and
    host-side telemetry
    (``compiled``/``applied``/``invalidated``/``fallbacks`` — like the
    resolution memo's counters these live outside
    :class:`~repro.sim.stats.Stats` so plans never perturb golden
    counters).
    """

    #: Interpreted executions of a unit before capture starts.
    WARMUP = 1
    #: Rejected/mismatched captures before a cell goes dead.
    MAX_RETRIES = 3
    #: Consecutive apply-time guard failures before re-capture.  A
    #: whole drain's clock guard, once failed, fails until then, so
    #: every fallback past the first is wasted; a segment's guards fail
    #: in passing (a sweep deadline) and build no streak.
    MAX_FAIL_STREAK = 2
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
        """The cell of unit ``tag`` over ``pins`` (created lazily).

        ``pins`` are the tasks and programs whose executions feed the
        cell, in stream order, keyed by identity: a unit's charges are a
        deterministic function of those plus kernel state, which the
        apply-time guards cover, and no plan crosses tasks.  ``tag``
        tells the units over one pin sequence apart — the scheduler seed
        for a whole drain; a segment's is ``"segment"``, with its shape
        as the last pin.
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


class _NoMemo:
    """What ``CostModel.memo`` is until a kernel attaches its resolution
    memo (``DcacheConfig.resolution_memo`` off, or no kernel at all):
    there is nothing to invalidate, so every report is dropped.
    """

    __slots__ = ()

    def kill(self, dentry) -> None:
        """No entry can depend on ``dentry``."""

    def kill_miss(self, container, key) -> None:
        """No entry can rest on ``key``'s absence from ``container``."""

    def flush(self) -> None:
        """Nothing to flush."""


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
    ``by_primitive`` is worked out when read.
    """

    __slots__ = ("charges", "clock", "_scope_stack", "_by_scope", "_nbytes",
                 "_raw", "counts", "_rates", "_guards", "recorder", "plans",
                 "memo")

    def __init__(self, charges: Optional[Dict[str, float]] = None,
                 clock: Optional[Clock] = None):
        self.charges = dict(CALIBRATED if charges is None else charges)
        self.clock = clock or Clock()
        self._scope_stack: list = []
        self._by_scope: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        #: primitive -> bytes charged at its per-byte rate.
        self._nbytes: Dict[str, int] = {}
        #: ``charge_ns`` hint -> ticks.
        self._raw: Dict[str, int] = {}
        self._guards: Dict[str, _ScopeGuard] = {}
        #: primitive -> (per-call ticks, per-byte ticks).
        self._rates: Dict[str, Tuple[int, int]] = {
            name: (_rate_ticks(name, value),
                   _rate_ticks(name + "_per_byte",
                               self.charges.get(name + "_per_byte", 0.0)))
            for name, value in self.charges.items()}
        #: When non-None, a :class:`Recording` every charge is added to
        #: (see :mod:`repro.core.resmemo`, ``workloads/traces.py``).
        self.recorder: Optional[Recording] = None
        #: Captured charge plans for compiled-trace segments (see
        #: :class:`ChargePlanRegistry` and ``workloads/traces.py``).
        self.plans = ChargePlanRegistry()
        #: The one place the cache structures report changes to:
        #: ``Dcache.d_alloc/d_drop/d_move/evict``, ``DLHT.insert`` and
        #: ``PCC.store`` call ``memo.kill`` / ``memo.kill_miss``.  A
        #: :class:`~repro.core.resmemo.ResolutionMemo` once a kernel
        #: attaches one (at most one per cost model), else a no-op.
        self.memo = _NoMemo()

    def forget(self) -> None:
        """Bulk-invalidate every host-side layer: flush the resolution
        memo and kill every captured charge plan.

        For the changes no scoped report covers: chmod/chown/relabel
        (the eager profile elides the invalidation-counter bump when no
        fast-side state was hit and no walk is active, the baseline
        profile has no counter at all, and chmod of a regular file
        mutates no dentry), mount-table edits, ``drop_caches`` and
        seqcount wraparound.  Plan guards cannot see mode, label or
        mount-table state either.  Forgetting too often costs
        wall-clock only.
        """
        self.memo.flush()
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
        # Charge rates are nonnegative, so the clock's monotonicity check
        # is skipped on this fast path (Clock.advance validates for
        # everyone else).
        self.clock._ticks += ticks
        counts = self.counts
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
        rec = self.recorder
        if rec is not None:
            rec.vector.add(stack[-1] if stack else None, primitive, times,
                           nbytes, ticks)
        return ticks / TICKS_PER_NS

    def charge_in(self, scope: str, primitive: str, times: int = 1,
                  nbytes: int = 0) -> float:
        """Charge ``primitive`` attributed directly to ``scope``.

        Equivalent to ``with self.scope(scope): self.charge(...)`` for a
        single charge, without the stack push/pop — the hot-loop form.
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
        self.clock._ticks += ticks
        counts = self.counts
        try:
            counts[primitive] += times
        except KeyError:
            counts[primitive] = times
        by_scope = self._by_scope
        try:
            by_scope[scope] += ticks
        except KeyError:
            by_scope[scope] = ticks
        rec = self.recorder
        if rec is not None:
            rec.vector.add(scope, primitive, times, nbytes, ticks)
        return ticks / TICKS_PER_NS

    def charge_many(self, primitives) -> None:
        """Charge a fixed sequence of single-count primitives.

        Equivalent to calling :meth:`charge` once per primitive, with
        the per-call dispatch paid once — for hot sites that always
        charge the same short primitive run.
        """
        stack = self._scope_stack
        self.charge_in_many(stack[-1] if stack else None, primitives)

    def charge_in_many(self, scope: Optional[str], primitives) -> None:
        """:meth:`charge_in` over a fixed primitive sequence, one call."""
        rates = self._rates
        counts = self.counts
        rec = self.recorder
        total = 0
        for primitive in primitives:
            try:
                ticks = rates[primitive][0]
            except KeyError:
                raise KeyError(
                    f"unknown cost primitive: {primitive!r}") from None
            total += ticks
            try:
                counts[primitive] += 1
            except KeyError:
                counts[primitive] = 1
            if rec is not None:
                rec.vector.add(scope, primitive, 1, 0, ticks)
        self.clock._ticks += total
        if scope is not None:
            by_scope = self._by_scope
            by_scope[scope] = by_scope.get(scope, 0) + total

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
        rec = self.recorder
        if rec is not None:
            rec.vector.add_raw(scope, scope_hint, ticks)

    def apply(self, vector: ChargeVector) -> None:
        """Charge a recorded :class:`ChargeVector` in one step.

        Leaves the clock, ``by_primitive``, ``by_scope`` and ``counts``
        exactly as charging the recorded run again would: one addition
        per distinct key, in any order.
        """
        rates = self._rates
        by_scope = self._by_scope
        counts = self.counts
        totals = self._nbytes
        raw = self._raw
        for (scope, primitive), (times, nbytes) in vector.charges.items():
            counts[primitive] = counts.get(primitive, 0) + times
            if nbytes:
                totals[primitive] = totals.get(primitive, 0) + nbytes
            if scope is not None:
                per_call, per_byte = rates[primitive]
                by_scope[scope] = by_scope.get(scope, 0) \
                    + per_call * times + per_byte * nbytes
        for (scope, hint), ticks in vector.raw.items():
            raw[hint] = raw.get(hint, 0) + ticks
            if scope is not None:
                by_scope[scope] = by_scope.get(scope, 0) + ticks
        self.clock._ticks += vector.ticks

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
        self.counts.clear()

    # -- reading ------------------------------------------------------------

    @property
    def now_ns(self) -> float:
        return self.clock.now_ns

    @property
    def by_primitive(self) -> Dict[str, float]:
        """Nanoseconds charged per primitive (and per ``charge_ns`` hint)."""
        rates = self._rates
        totals = self._nbytes
        ticks = {name: rates[name][0] * times
                 + rates[name][1] * totals.get(name, 0)
                 for name, times in self.counts.items()}
        for hint, raw in self._raw.items():
            ticks[hint] = ticks.get(hint, 0) + raw
        return {name: value / TICKS_PER_NS for name, value in ticks.items()}

    @property
    def by_scope(self) -> Dict[str, float]:
        """Nanoseconds charged per attribution scope."""
        return {name: ticks / TICKS_PER_NS
                for name, ticks in self._by_scope.items()}

    def scope_ns(self, label: str) -> float:
        return self._by_scope.get(label, 0) / TICKS_PER_NS

    def count(self, primitive: str) -> int:
        return self.counts.get(primitive, 0)
