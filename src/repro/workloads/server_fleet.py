"""Multi-tenant server fleet: interleaved per-tenant request streams.

The paper's caches live in a *shared* kernel: one directory cache
serving every process on the machine.  The single-workload drivers
(:mod:`~repro.workloads.webserver`, :mod:`~repro.workloads.maildir`)
exercise that cache from one task at a time; this module builds the
multi-tenant shape — a hosting box running many tenants' webservers and
mail stores at once, each tenant a separate task (own uid, own
``/srv/t{i}`` subtree) whose request stream was recorded once and
replays interleaved with everyone else's through
:func:`~repro.workloads.traces.replay_interleaved`.

Request volume across tenants follows a Zipf distribution — a few hot
tenants dominate, a long tail barely shows up — which is what makes the
shared cache interesting: the hot tenants' dentries stay resident while
the tail's churn.  Each tenant's stream mixes read-only autoindex
requests with *mutating* requests — atomic docroot rotations, maildir
flag-flip pairs and, rarest, whole-mailbox rename pairs — at a
configurable ``mutation_rate``; the mutating operations are the lever
that separates eager from lazy coherence (see
``bench/exp_tenant_crossover.py``).

Every recorded stream is **self-undoing**: autoindex requests are
read-only, and every mutating operation restores the exact names it
renamed.  A full drain therefore returns the filesystem (and fd
numbering) to its start state, so the same fleet can be drained any
number of times on one kernel — the property repeated drains and the
whole-drain charge plans depend on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.kernel import Kernel
from repro.vfs.task import Task
from repro.workloads import maildir, webserver
from repro.workloads.compile import (CompiledTrace, RecordingKernel,
                                     compile_trace)
from repro.workloads.traces import replay_interleaved

FLEET_ROOT = "/srv"

#: Zipf exponent for the tenant popularity distribution.
ZIPF_EXPONENT = 1.1

#: Mutating-request mix, as cumulative fractions of one uniform draw:
#: below ``DEPLOY_FRACTION`` the request is an atomic docroot rotation
#: (:func:`~repro.workloads.webserver.deploy_rotation` — the shape
#: where lazy coherence shines: hot per-entry subtree, eager shootdown
#: plus cold refills vs. in-place revalidation); between it and
#: ``DEPLOY_FRACTION + MARK_FRACTION`` a maildir flag-flip pair (whose
#: full-mailbox syncs lean *eager*: listdir enumeration pays lazy
#: revalidation per entry while eager's shot-down entries are never
#: individually re-looked-up); the rest rename a whole mailbox
#: (:func:`~repro.workloads.maildir.folder_rename_operation`).
DEPLOY_FRACTION = 0.7
MARK_FRACTION = 0.2


def zipf_counts(tenants: int, total_requests: int,
                s: float = ZIPF_EXPONENT) -> List[int]:
    """Per-tenant request counts under a Zipf(s) popularity law.

    Tenant 0 is the hottest; every tenant gets at least one request so
    no stream is empty.  Deterministic — no RNG involved.
    """
    weights = [1.0 / (rank + 1) ** s for rank in range(tenants)]
    scale = total_requests / sum(weights)
    return [max(1, round(w * scale)) for w in weights]


@dataclass
class TenantSite:
    """One provisioned tenant: its task, content, and compiled stream."""

    index: int
    task: Task
    listing: str
    mail: maildir.MaildirSetup
    requests: int
    program: CompiledTrace


@dataclass
class FleetSetup:
    """A provisioned fleet, ready to drain."""

    tenants: List[TenantSite]
    seed: int
    mutation_rate: float

    @property
    def streams(self) -> List[Tuple[Task, CompiledTrace]]:
        """The ``(task, program)`` pairs ``replay_interleaved`` takes."""
        return [(site.task, site.program) for site in self.tenants]

    @property
    def total_requests(self) -> int:
        return sum(site.requests for site in self.tenants)


def provision_tenant(kernel: Kernel, admin: Task, index: int, *,
                     files_per_site: int = 48, mailboxes: int = 1,
                     messages_per_box: int = 12,
                     seed: int = 0) -> Tuple[Task, str,
                                             maildir.MaildirSetup]:
    """Create tenant ``index``'s task and ``/srv/t{index}`` subtree.

    ``admin`` is a root task that creates ``/srv`` if missing.  The
    tenant runs under its own uid/gid (``1000 + index``) and owns
    everything below its base directory; ``/srv`` itself is root-owned
    and sticky, ``/tmp``-style, so tenants cannot touch each other's
    trees — which also means their dentries only meet in the shared
    cache, never in a shared path prefix below ``/srv``.
    """
    sys = kernel.sys
    if not sys.exists(admin, FLEET_ROOT):
        sys.mkdir(admin, FLEET_ROOT)
        sys.chmod(admin, FLEET_ROOT, 0o1777)
    task = kernel.spawn_task(uid=1000 + index, gid=1000 + index)
    base = f"{FLEET_ROOT}/t{index}"
    sys.mkdir(task, base)
    listing = webserver.provision(kernel, task, files_per_site,
                                  docroot=f"{base}/www")
    mail = maildir.provision(kernel, task, mailboxes, messages_per_box,
                             root=f"{base}/mail", seed=seed * 1000 + index)
    return task, listing, mail


def record_tenant_stream(kernel: Kernel, task: Task, listing: str,
                         mail: maildir.MaildirSetup, requests: int,
                         mutation_rate: float, rng: random.Random):
    """Record ``requests`` tenant requests and compile them to a program.

    Recording executes the requests on the live fleet kernel (through
    :class:`~repro.workloads.compile.RecordingKernel`), so provisioning
    plus one recording pass leaves the kernel exactly one self-undoing
    drain past its provisioned state — i.e. *at* its steady state,
    caches warm, ready for replay.
    """
    rk = RecordingKernel(kernel, task=task)
    for _ in range(requests):
        if rng.random() < mutation_rate:
            kind = rng.random()
            if kind < DEPLOY_FRACTION:
                webserver.deploy_rotation(rk, task, listing)
            elif kind < DEPLOY_FRACTION + MARK_FRACTION:
                maildir.mark_unmark_operation(rk, task, mail, rng)
            else:
                maildir.folder_rename_operation(rk, task, mail, rng)
        else:
            webserver.handle_request(rk, task, listing)
    return compile_trace(rk.trace)


def build_fleet(kernel: Kernel, tenants: int = 8, *,
                total_requests: int = 120, mutation_rate: float = 0.1,
                files_per_site: int = 48, mailboxes: int = 1,
                messages_per_box: int = 12, seed: int = 0) -> FleetSetup:
    """Provision ``tenants`` tenants and record their request streams.

    Deterministic for a given argument tuple: tenant popularity comes
    from :func:`zipf_counts` and the request mix from one seeded RNG
    consumed in tenant order.
    """
    rng = random.Random(seed)
    counts = zipf_counts(tenants, total_requests)
    admin = kernel.spawn_task(uid=0, gid=0)
    sites: List[TenantSite] = []
    for index in range(tenants):
        task, listing, mail = provision_tenant(
            kernel, admin, index, files_per_site=files_per_site,
            mailboxes=mailboxes, messages_per_box=messages_per_box,
            seed=seed)
        program = record_tenant_stream(kernel, task, listing, mail,
                                       counts[index], mutation_rate, rng)
        sites.append(TenantSite(index=index, task=task, listing=listing,
                                mail=mail, requests=counts[index],
                                program=program))
    return FleetSetup(tenants=sites, seed=seed,
                      mutation_rate=mutation_rate)


def drain_fleet(kernel: Kernel, setup: FleetSetup, *,
                plans=None) -> None:
    """One interleaved drain of every tenant's stream."""
    replay_interleaved(kernel, setup.streams, seed=setup.seed,
                       plans=plans)


def run_benchmark(kernel: Kernel, tenants: int = 8, *,
                  total_requests: int = 120, mutation_rate: float = 0.1,
                  drains: int = 4, seed: int = 0, plans=None,
                  files_per_site: int = 48, mailboxes: int = 1,
                  messages_per_box: int = 12) -> float:
    """Fleet driver: requests per virtual second over ``drains`` drains."""
    setup = build_fleet(kernel, tenants, total_requests=total_requests,
                        mutation_rate=mutation_rate, seed=seed,
                        files_per_site=files_per_site, mailboxes=mailboxes,
                        messages_per_box=messages_per_box)
    drain_fleet(kernel, setup, plans=plans)  # warm, as a running box is
    start = kernel.now_ns
    for _ in range(drains):
        drain_fleet(kernel, setup, plans=plans)
    elapsed_s = (kernel.now_ns - start) / 1e9
    return drains * setup.total_requests / elapsed_s
