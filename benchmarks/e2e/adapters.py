"""The four workloads, driven through ``repro``'s public API only.

Imported by the child inside a timed region, so importing ``repro`` is
part of ``setup_s``.  Every adapter has the same surface — ``build``,
``ramp``, ``window``, ``outcomes``, ``states``, ``details`` — and takes
its inputs as the plain data :mod:`gen` made.  Whatever an adapter
times it cuts into short regions for :func:`clock.timed_each`.
"""

from __future__ import annotations

from statistics import median
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

from repro import (MAY_READ, MAY_WRITE, O_CREAT, O_RDONLY, O_RDWR, FsError,
                   make_kernel)
from repro.workloads import server_fleet
from repro.workloads.apps import (DuWorkload, FindWorkload, MeteredSyscalls,
                                  RmTreeWorkload, TarExtractWorkload,
                                  UpdatedbWorkload)
from repro.workloads.compile import build_loop_trace, compile_trace
from repro.workloads.traces import replay, replay_compiled
from repro.workloads.tree import BuiltTree, TreeSpec, populate

import gen
from clock import Timing, timed, timed_each
from gen import CALL, CLOSE, MKSTEMP, ONFD, OPEN
from spans import NULL

#: Step op key -> (syscall name, trailing arguments).
OPS: Dict[str, Tuple[str, tuple]] = {
    "access_r": ("access", (MAY_READ,)),
    "access_w": ("access", (MAY_WRITE,)),
    "open": ("open", (O_RDONLY,)),
    "creat": ("open", (O_CREAT | O_RDWR,)),
    "chmod_shut": ("chmod", (0o700,)),
    "chmod_open": ("chmod", (0o755,)),
}

#: Span category per syscall name (``syscalls.<cat>_us.p50``).
_READDIR = frozenset(["readdir", "listdir", "getdents"])
_FD_OPS = frozenset(["close", "read", "write", "lseek", "fstat"])


class Config(NamedTuple):
    """Which host-side layers a child runs with."""

    memo: bool = True
    plans: bool = True
    #: Interpreted ``replay`` instead of ``replay_compiled``.
    interpreted: bool = False


CONFIGS = {
    "default": Config(),
    "memo_off": Config(memo=False),
    "plans_off": Config(plans=False),
    "reference": Config(memo=False, plans=False, interpreted=True),
}


class Window(NamedTuple):
    """One measured window: what ran, how long, counters around it."""

    ops: int
    timing: Timing
    mutations: int
    before: Dict[str, Any]
    after: Dict[str, Any]


def snap(kernel) -> Dict[str, Any]:
    """The kernel's public counters at a phase boundary."""
    costs, memo = kernel.costs, kernel.memo
    return {
        "now_ns": kernel.now_ns,
        # Compute gaps the workload generators charge through
        # ``charge_ns``: application time, not modelled-kernel time.
        "app_ns": sum(ns for name, ns in costs.by_primitive.items()
                      if name not in costs.charges),
        "stats": kernel.stats.snapshot(),
        "counts": dict(costs.counts),
        "by_scope": dict(costs.by_scope),
        "by_primitive": dict(costs.by_primitive),
        "memo": {name: getattr(memo, name, 0)
                 for name in ("hits", "misses", "stale", "flushes")},
        "plans": costs.plans.telemetry(),
    }


def _creates(args: tuple) -> bool:
    """Does this ``open`` call carry O_CREAT?  (flags: its first int.)"""
    flags = next((a for a in args if isinstance(a, int)), 0)
    return bool(flags & O_CREAT)


def category(name: str) -> str:
    """Span category of a syscall other than ``open``."""
    if name in _READDIR:
        return "readdir"
    if name in _FD_OPS:
        return "fd"
    return "mutation" if name in gen.MUTATING else "path"


def normalise(result: Any) -> str:
    """A syscall result in the form profiles are compared in: no inode
    numbers, no virtual timestamps, directory listings sorted."""
    if result is None:
        return "ok"
    if hasattr(result, "filetype"):
        return (f"st:{result.mode:o}:{result.uid}:{result.gid}:"
                f"{result.nlink}:{result.size}:{result.filetype}")
    if isinstance(result, (bytes, bytearray)):
        return f"b:{len(result)}"
    if isinstance(result, list):
        return "ls:" + ",".join(sorted(f"{e[0]}/{e[2]}" for e in result))
    if isinstance(result, tuple):
        return f"tmp:{result[1]}"
    return f"{type(result).__name__}:{result}"


class Proxy:
    """Hands out ``wrap(name, attr)`` for every attribute of ``target``;
    how spans and outcome capture reach calls the workloads make."""

    def __init__(self, target: Any, wrap: Callable[[str, Callable], Callable]):
        self._target = target
        self._wrap = wrap

    def __getattr__(self, name: str):
        fn = self._wrap(name, getattr(self._target, name))
        self.__dict__[name] = fn
        return fn


def capturing(sink: List[str]) -> Callable[[str, Callable], Callable]:
    """A :class:`Proxy` wrap that appends ``op=outcome`` to ``sink``."""

    def wrap(name: str, fn: Callable) -> Callable:
        def captured(*args: Any, **kwargs: Any) -> Any:
            try:
                result = fn(*args, **kwargs)
            except FsError as exc:
                sink.append(f"{name}=E:{type(exc).__name__}")
                raise
            sink.append(f"{name}={normalise(result)}")
            return result

        return captured

    return wrap


def tracing(rec) -> Callable[[str, Callable], Callable]:
    """A :class:`Proxy` wrap that records one leaf span per call."""

    def wrap(name: str, fn: Callable) -> Callable:
        if name != "open":
            return rec.wrap(name, fn, category(name))
        plain = rec.wrap(name, fn, "path")
        creating = rec.wrap(name, fn, "mutation")

        def traced(*args: Any, **kwargs: Any) -> Any:
            return (creating if _creates(args) else plain)(*args, **kwargs)

        return traced

    return wrap


def run_steps(bound: List[tuple]) -> int:
    """Issue bound steps as one closed-loop client; returns the number
    of simulated syscalls issued.  An ``FsError`` is an outcome, not a
    failure; a step that needs the fd of a failed open is skipped."""
    issued = 0
    fd = None
    name = ""
    for kind, fn, args in bound:
        try:
            if kind == CALL:
                fn(*args)
            elif kind == OPEN:
                fd = None
                fd = fn(*args)
            elif kind == ONFD:
                if fd is None:
                    continue
                fn(fd, *args)
            elif kind == CLOSE:
                if fd is None:
                    continue
                closing, fd = fd, None
                fn(closing)
            elif kind == MKSTEMP:
                fd = None
                fd, name = fn(*args)
            else:
                fn(f"{args[0]}/{name}")
        except FsError:
            pass
        issued += 1
    return issued


#: Step kinds that use no earlier step's fd or temp name.
_GROUP_STARTS = (CALL, OPEN, MKSTEMP)

#: Timed regions per step-list pass, and files per provisioning region.
SLICES_PER_PASS = 4
FILES_PER_REGION = 500


def _slices(bound: List[tuple], count: int) -> List[List[tuple]]:
    """``bound`` cut into about ``count`` runs, never between a step
    and the earlier step whose fd or temp name it uses."""
    size = max(1, -(-len(bound) // count))
    out, start = [], 0
    while start < len(bound):
        end = min(len(bound), start + size)
        while end < len(bound) and bound[end][0] not in _GROUP_STARTS:
            end += 1
        out.append(bound[start:end])
        start = end
    return out


class Adapter:
    """What the three adapters share: one workload's inputs on one
    profile under one configuration, on one kernel unless overridden."""

    kernel: Any

    def __init__(self, inputs: Dict[str, Any], profile: str, config: Config):
        self.inputs = inputs
        self.profile = profile
        self.config = config
        # Plain ``make_kernel(profile)`` unless the configuration turns
        # the memo off: a later change to its default must show.
        self.kernel_options = {} if config.memo else {"resolution_memo": False}

    def states(self) -> List[Dict[str, Any]]:
        """Final counters of every kernel the adapter ran."""
        return [snap(self.kernel)]

    def details(self) -> Dict[str, Any]:
        """Workload-specific host figures for the per-layer metrics."""
        return {}


class StepAdapter(Adapter):
    """warm_lookup and churn: step lists through ``kernel.sys.batch``."""

    def build(self, rec) -> Timing:
        inputs = self.inputs
        files = inputs["files"]

        def make() -> None:
            with rec.span("make_kernel", "core.kernel"):
                self.kernel = make_kernel(self.profile,
                                          **self.kernel_options)
            # Kept alive: a dead task's credential drops its PCC from
            # the lazy sweeper's rounds at a time the garbage collector
            # picks, and virtual costs would depend on host allocation.
            self.admin = self.kernel.spawn_task(uid=0, gid=0)
            for path in inputs["dirs"]:
                self.kernel.sys.mkdir(self.admin, path)

        def create(paths: List[str]) -> None:
            sys, admin = self.kernel.sys, self.admin
            for path in paths:
                sys.close(admin, sys.open(admin, path, O_CREAT | O_RDWR))

        def finish() -> None:
            sys, admin = self.kernel.sys, self.admin
            for link, target in inputs["symlinks"]:
                sys.symlink(admin, target, link)
            for path, uid, gid, mode in inputs["attrs"]:
                sys.chown(admin, path, uid, gid)
                sys.chmod(admin, path, mode)
            self.tasks = [self.kernel.spawn_task(uid=uid, gid=gid)
                          for uid, gid in inputs["creds"]]
            for task, cwd in zip(self.tasks, inputs["cwds"]):
                sys.chdir(task, cwd)
            self.batches = [sys.batch(task) for task in self.tasks]

        regions = [make] + [
            lambda chunk=files[i:i + FILES_PER_REGION]: create(chunk)
            for i in range(0, len(files), FILES_PER_REGION)] + [finish]
        with rec.span("provision", "setup"):
            return Timing.total(timed_each(regions)[1])

    def _bind(self, steps: List[tuple], batches: List[Any]) -> List[tuple]:
        bound = []
        for kind, cred, op, args in steps:
            name, extra = OPS.get(op, (op, ()))
            if name == "write":
                args = (args[0].encode(),)
            bound.append((kind, getattr(batches[cred], name), args + extra))
        return bound

    def _run(self, steps: List[tuple], rec) -> Tuple[int, Timing]:
        """One pass over ``steps``: syscalls issued and host time."""
        batches = self.batches
        if rec.active:
            batches = [Proxy(batch, tracing(rec)) for batch in batches]
        regions = [lambda part=part: run_steps(part) for part in
                   _slices(self._bind(steps, batches), SLICES_PER_PASS)]
        issued, timings = timed_each(regions)
        return sum(issued), Timing.total(timings)

    def ramp(self, index: int) -> Timing:
        return self._run(self.inputs["ramp"][index], NULL)[1]

    def window(self, index: int, rec) -> Window:
        steps = self.inputs["windows"][index]
        before = snap(self.kernel)
        with rec.span("window", "steady"):
            ops, timing = self._run(steps, rec)
        return Window(ops, timing, gen.mutating_steps(steps), before,
                      snap(self.kernel))

    def outcomes(self) -> List[str]:
        """Re-run the last window, capturing every outcome."""
        sink: List[str] = []
        proxies = [Proxy(batch, capturing(sink)) for batch in self.batches]
        run_steps(self._bind(self.inputs["windows"][-1], proxies))
        return sink


class ScanAdapter(Adapter):
    """cold_scan: drop caches, then find, du, updatedb and a tar
    extract + rm of one subtree, on a dcache smaller than the tree."""

    def __init__(self, inputs: Dict[str, Any], profile: str, config: Config):
        super().__init__(inputs, profile, config)
        self.scans = (FindWorkload(), DuWorkload(), UpdatedbWorkload())
        self.tar = TarExtractWorkload()
        self.rm = RmTreeWorkload()
        self.extracts = 0

    def build(self, rec) -> Timing:
        inputs = self.inputs

        def make() -> None:
            with rec.span("make_kernel", "core.kernel"):
                self.kernel = make_kernel(
                    self.profile, dcache_capacity=inputs["dcache_capacity"],
                    **self.kernel_options)
            self.task = self.kernel.spawn_task(uid=0, gid=0)
            with rec.span("provision", "setup"):
                self.tree = populate(self.kernel, self.task, inputs["root"],
                                     TreeSpec(**inputs["spec"]))

        _none, timing = timed(make)
        depth = inputs["root"].count("/") + 1
        top = [d for d in self.tree.directories if d.count("/") == depth]
        sub = top[inputs["subtree"]]
        self.subtree = BuiltTree(
            root=sub,
            directories=[d for d in self.tree.directories
                         if d == sub or d.startswith(sub + "/")],
            files=[f for f in self.tree.files if f.startswith(sub + "/")])
        return timing

    def _pass(self, sys: Any, rec) -> Timing:
        """One scan pass, one timed region per application."""
        kernel, task = self.kernel, self.task

        def scan(app: Any, drop: bool) -> None:
            if drop:
                with rec.span("drop_caches", "core.kernel"):
                    kernel.drop_caches()
            with rec.span(app.name, "workloads.apps"):
                app.run(kernel, sys, task, self.tree)

        def extract_and_remove() -> None:
            self.extracts += 1
            with rec.span("tar+rm", "workloads.apps"):
                self.tar.prepare_run(kernel, task, self.subtree)
                self.tar.run(kernel, sys, task, self.subtree)
                self.rm.copy_root = f"/extract{self.extracts}"
                self.rm.run(kernel, sys, task, self.subtree)

        regions = [lambda app=app, drop=(app is self.scans[0]):
                   scan(app, drop) for app in self.scans]
        return Timing.total(timed_each(regions + [extract_and_remove])[1])

    def ramp(self, index: int) -> Timing:
        return self._pass(MeteredSyscalls(self.kernel), NULL)

    def window(self, index: int, rec) -> Window:
        metered = MeteredSyscalls(self.kernel)
        sys = Proxy(metered, tracing(rec)) if rec.active else metered
        before = snap(self.kernel)
        with rec.span("window", "steady"):
            timing = self._pass(sys, rec)
        counts = metered.counts
        mutations = sum(n for name, n in counts.items()
                        if name in gen.MUTATING)
        return Window(sum(counts.values()), timing, mutations, before,
                      snap(self.kernel))

    def outcomes(self) -> List[str]:
        sink: List[str] = []
        self._pass(Proxy(MeteredSyscalls(self.kernel), capturing(sink)),
                   NULL)
        return sink


def _mutating_rows(program) -> int:
    """Namespace-mutating rows of a compiled program."""
    count = 0
    for row in program.rows:
        name = program.op_table[row[0]]
        if name in gen.MUTATING or (name == "open" and _creates(row[1])):
            count += 1
    return count


class FleetAdapter(Adapter):
    """fleet_replay: each window is one whole session on a fresh kernel
    — provision + record + compile a tenant fleet, drain it, then a
    compiled loop trace — because that is how the replay engine is
    used, and it puts record/confirm/compile cost inside ``ops_per_s``."""

    def __init__(self, inputs: Dict[str, Any], profile: str, config: Config):
        super().__init__(inputs, profile, config)
        # None leaves the replay engines on their defaults.
        self.plans = None if config.plans else False
        self.build_seconds: List[float] = []
        self.record_compile_seconds: List[float] = []
        self.slowest_drain_seconds: List[float] = []
        self.steady_drain_seconds: List[float] = []
        self.replay_calls = 0
        self._states: List[Dict[str, Any]] = []
        self._outcomes: List[str] = []

    def build(self, rec) -> Timing:
        """Nothing to build once: every session builds its own kernel."""
        return Timing(0.0, 0.0, 1.0)

    def _regions(self, s: SimpleNamespace, params: Dict[str, Any],
                 rec) -> List[Callable[[], None]]:
        """The session as timed regions — kernel, fleet, each drain, the
        loop trace, each loop pass — handing objects on through ``s``."""
        inputs, config = self.inputs, self.config

        def make() -> None:
            with rec.span("make_kernel", "core.kernel"):
                s.kernel = make_kernel(self.profile, **self.kernel_options)

        def record() -> None:
            with rec.span("build_fleet", "workloads.compile"):
                s.fleet = server_fleet.build_fleet(
                    s.kernel, inputs["tenants"],
                    total_requests=inputs["total_requests"],
                    mutation_rate=params["mutation_rate"],
                    files_per_site=inputs["files_per_site"],
                    messages_per_box=inputs["messages_per_box"],
                    seed=params["seed"])
            s.before = snap(s.kernel)

        def drain() -> None:
            with rec.span("drain_fleet", "workloads.traces"):
                server_fleet.drain_fleet(s.kernel, s.fleet, plans=self.plans)

        def compile_loop() -> None:
            with rec.span("build_loop_trace", "workloads.compile"):
                s.trace = build_loop_trace(
                    files=inputs["loop_files"],
                    io_rounds=inputs["loop_io_rounds"],
                    profile=self.profile)
            with rec.span("compile_trace", "workloads.compile"):
                s.program = compile_trace(s.trace)
            s.task = s.kernel.spawn_task(uid=0, gid=0)

        def loop_pass() -> None:
            if config.interpreted:
                replay(s.kernel, s.task, s.trace)
                return
            with rec.span("replay_compiled", "workloads.traces"):
                replay_compiled(s.kernel, s.task, s.program,
                                plans=self.plans)

        return ([make, record] + [drain] * inputs["drains"]
                + [compile_loop] + [loop_pass] * inputs["loop_passes"])

    def _session(self, params: Dict[str, Any], rec,
                 steady_drains: int = 0) -> Window:
        inputs = self.inputs
        s = SimpleNamespace()
        with rec.span("session", "workloads"):
            timings = timed_each(self._regions(s, params, rec))[1]
        after = snap(s.kernel)
        made, recorded = timings[:2]
        drains = timings[2:2 + inputs["drains"]]
        compiled = timings[2 + inputs["drains"]]
        self.build_seconds.append(made.seconds)
        self.record_compile_seconds.append(recorded.seconds
                                           + compiled.seconds)
        self.slowest_drain_seconds.append(max(t.seconds for t in drains))
        self.replay_calls += inputs["drains"] + inputs["loop_passes"]
        self._states.append(after)
        streams = [prog for _task, prog in s.fleet.streams]
        self._outcomes = [f"{prog.op_table[row[0]]}=E:{row[4]}"
                          for prog in streams + [s.program]
                          for row in prog.rows]
        if steady_drains:
            thunk = self._regions(s, params, NULL)[2]
            self.steady_drain_seconds += [
                t.seconds for t in timed_each([thunk] * steady_drains)[1]]
        ops = (inputs["drains"] * sum(len(prog.rows) for prog in streams)
               + inputs["loop_passes"] * len(s.program.rows))
        mutations = (
            inputs["drains"] * sum(_mutating_rows(p) for p in streams)
            + inputs["loop_passes"] * _mutating_rows(s.program))
        return Window(ops, Timing.total(timings), mutations, s.before, after)

    def ramp(self, index: int) -> Timing:
        return self._session(self.inputs["ramp"][index], NULL).timing

    def window(self, index: int, rec) -> Window:
        sessions = self.inputs["windows"]
        last = index == len(sessions) - 1
        return self._session(
            sessions[index], rec,
            self.inputs["steady_drains"] if last and rec.active else 0)

    def outcomes(self) -> List[str]:
        """``op=errno`` of every row recorded in the last session; the
        strict replay engines already fail a window on any row whose
        outcome departs from its recording."""
        return self._outcomes

    def states(self) -> List[Dict[str, Any]]:
        return self._states

    def details(self) -> Dict[str, Any]:
        return {
            "build_s": median(self.build_seconds),
            "record_compile_s": median(self.record_compile_seconds),
            "slowest_drain_s": median(self.slowest_drain_seconds),
            "steady_drain_ms": (median(self.steady_drain_seconds) * 1e3
                                if self.steady_drain_seconds else 0.0),
            "replay_calls": self.replay_calls,
        }


ADAPTERS = {"warm_lookup": StepAdapter, "churn": StepAdapter,
            "fleet_replay": FleetAdapter, "cold_scan": ScanAdapter}

#: Workloads whose default kernel must show the layer at work for the
#: invisibility check to mean anything: (counter group, counter).
_MUST_BE_USED = {"warm_lookup": ("memo", "hits"), "churn": ("memo", "hits"),
                 "fleet_replay": ("plans", "applied")}


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= 1e-9 * max(abs(a), abs(b))


def _state_diff(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Where two kernels' virtual outputs differ (ints exact, floats at
    1e-9 relative)."""
    diffs = []
    if not _close(a["now_ns"], b["now_ns"]):
        diffs.append(f"now_ns {a['now_ns']} != {b['now_ns']}")
    for group, exact in (("counts", True), ("stats", True),
                         ("by_primitive", False), ("by_scope", False)):
        for key in sorted(set(a[group]) | set(b[group])):
            x, y = a[group].get(key, 0), b[group].get(key, 0)
            if (x != y) if exact else not _close(x, y):
                diffs.append(f"{group}[{key}] {x} != {y}")
    return diffs


def invisibility(workload: str, profile: str, seed: int) -> Dict[str, Any]:
    """Virtual invisibility: a default kernel and a reference one (memo
    off, plans off, interpreted replay) run the same small inputs and
    must end with the same clock, charges and Stats."""
    inputs = gen.make_inputs(workload, seed, gen.CHECK_SCALE, windows=2)
    runs = []
    for config in (CONFIGS["default"], CONFIGS["reference"]):
        adapter = ADAPTERS[workload](inputs, profile, config)
        adapter.build(NULL)
        for index in range(inputs["slice_ramp"]):
            adapter.ramp(index)
        for index in range(len(inputs["windows"])):
            adapter.window(index, NULL)
        runs.append(adapter.states())
    diffs = [d for a, b in zip(*runs) for d in _state_diff(a, b)]
    used = _MUST_BE_USED.get(workload)
    vacuous = used is not None and not any(
        state[used[0]][used[1]] for state in runs[0])
    return {"ok": not diffs and not vacuous, "vacuous": vacuous,
            "diffs": diffs[:5]}
