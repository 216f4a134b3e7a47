"""Eager vs. lazy coherence across a multi-tenant fleet (§5.1 at scale).

Sweeps the two knobs that decide the coherence strategy contest in the
shared-cache, multi-tenant setting: the fraction of tenant requests
that *mutate* directories (flag-flip renames and, rarest, whole-mailbox
rename pairs — the §5.1 subtree-invalidation shape) and the number of
tenants sharing the cache.  For each cell a fresh fleet is provisioned
per profile (:mod:`repro.workloads.server_fleet`) and drained with
interleaved per-tenant streams; throughput is requests per *virtual*
second, so the table is deterministic and engine-independent —
``tests/test_server_fleet.py`` drains this sweep's quick cells with the
resolution memo and charge plans off and asserts equal virtual output,
the proof that the multi-tenant charge-plan machinery changes
wall-clock only.

The expected shape: read-dominated fleets favour ``optimized`` (eager
shootdowns are off the hot path and lookups skip revalidation), while
mutation-heavy fleets favour ``optimized-lazy`` — every directory
rename under eager coherence pays per-dentry invalidation across the
mailbox subtree, which lazy converts into one epoch bump plus
pay-as-you-go revalidation.  The crossover column records where each
tenant count flips.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro import make_kernel
from repro.bench.harness import Report
from repro.workloads import server_fleet

#: (tenants, total requests per drain) grid rows.
FLEETS: Tuple[Tuple[int, int], ...] = ((4, 48), (8, 96), (16, 144))
FLEETS_QUICK: Tuple[Tuple[int, int], ...] = ((4, 24),)

MUTATION_RATES: Tuple[float, ...] = (0.0, 0.1, 0.3, 0.6)
MUTATION_RATES_QUICK: Tuple[float, ...] = (0.0, 0.6)


def _throughput(profile: str, tenants: int, total_requests: int,
                mutation_rate: float) -> float:
    kernel = make_kernel(profile)
    return server_fleet.run_benchmark(
        kernel, tenants, total_requests=total_requests,
        mutation_rate=mutation_rate, drains=3, seed=11)


def run(quick: bool = False) -> Report:
    """Run the experiment; ``quick`` shrinks the sweep."""
    fleets = FLEETS_QUICK if quick else FLEETS
    rates = MUTATION_RATES_QUICK if quick else MUTATION_RATES
    report = Report(
        exp_id="tenant_crossover",
        title="eager vs. lazy coherence across a multi-tenant fleet",
        paper_expectation=("directory renames are the lazy scheme's "
                           "case for existing: eager pays per-dentry "
                           "subtree shootdowns at mutation time, lazy "
                           "an epoch bump plus pay-as-you-go "
                           "revalidation — so the winner flips from "
                           "eager to lazy as the tenant mix shifts "
                           "from read-dominated to mutation-heavy"),
        headers=["tenants", "mutation rate", "eager req/s", "lazy req/s",
                 "lazy/eager", "winner"],
    )
    winners: Dict[int, List[Tuple[float, str]]] = {}
    for tenants, total_requests in fleets:
        winners[tenants] = []
        for rate in rates:
            eager = _throughput("optimized", tenants, total_requests,
                                rate)
            lazy = _throughput("optimized-lazy", tenants, total_requests,
                               rate)
            winner = "lazy" if lazy > eager else "eager"
            winners[tenants].append((rate, winner))
            report.add_row(tenants, rate, round(eager, 1), round(lazy, 1),
                           f"{lazy / eager:.4f}", winner)
    most_mutating = rates[-1]
    report.check(
        "lazy coherence wins every mutation-heavy fleet "
        f"(mutation rate {most_mutating})",
        all(dict(winners[tenants])[most_mutating] == "lazy"
            for tenants, _ in fleets))
    report.check(
        "eager coherence holds the read-only fleets "
        "(no renames, revalidation pure overhead)",
        all(dict(winners[tenants])[0.0] == "eager"
            for tenants, _ in fleets))
    report.notes = ("throughput is virtual-time only: identical with "
                    "charge plans on or off (tests/test_server_fleet.py "
                    "asserts it on the quick cells of this sweep) and "
                    "under any interleaving engine; the fleet engine "
                    "behind this table is documented in "
                    "docs/benchmarking.md#the-multi-tenant-fleet-engine")
    return report
