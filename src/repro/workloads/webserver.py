"""Apache-style directory-listing workload (Table 3).

Each request for an auto-indexed directory makes Apache: resolve the URI
to a filesystem path, probe ``.htaccess`` at every level (negative
lookups), open and read the directory, ``stat`` every entry for the
size/date columns, and render HTML.  Pages are generated per request —
not cached — exactly as in the paper's benchmark.

Throughput is requests per virtual second.
"""

from __future__ import annotations

from repro import errors
from repro.core.kernel import Kernel
from repro.vfs.file import O_DIRECTORY, O_RDONLY
from repro.vfs.task import Task
from repro.workloads.tree import build_flat_dir

#: Per-request protocol work (accept, parse, headers, send).
REQUEST_FIXED_NS = 22_000.0
#: HTML row rendering per directory entry.
PER_ENTRY_HTML_NS = 1_200.0

DOCROOT = "/var/www/html"


def provision(kernel: Kernel, task: Task, nfiles: int,
              docroot: str = DOCROOT) -> str:
    """Create the docroot and a listing directory with ``nfiles`` files."""
    sys = kernel.sys
    prefix = ""
    for part in docroot.strip("/").split("/"):
        prefix = f"{prefix}/{part}"
        if not sys.exists(task, prefix):
            sys.mkdir(task, prefix)
    listing = f"{docroot}/files{nfiles}"
    build_flat_dir(kernel, task, listing, nfiles, prefix="asset")
    return listing


def handle_request(kernel: Kernel, task: Task, listing: str) -> int:
    """One autoindex request; returns the number of rows rendered."""
    sys = kernel.sys
    kernel.costs.charge_ns("httpd_compute", REQUEST_FIXED_NS)
    # URI -> path resolution.
    sys.stat(task, listing)
    # mod_authz: .htaccess probe at the docroot and every level below it.
    parts = listing.strip("/").split("/")
    prefix = ""
    for part in parts:
        prefix = f"{prefix}/{part}"
        try:
            sys.stat(task, f"{prefix}/.htaccess")
        except (errors.ENOENT, errors.ENOTDIR):
            pass
    fd = sys.open(task, listing, O_RDONLY | O_DIRECTORY)
    try:
        entries = sys.readdir(task, fd)
        for name, _ino, _dtype in entries:
            sys.fstatat(task, name, dirfd=fd, follow=False)
            kernel.costs.charge_ns("httpd_compute", PER_ENTRY_HTML_NS)
    finally:
        sys.close(task, fd)
    return len(entries)


#: Config-check/reload compute around an atomic docroot swap.
DEPLOY_FIXED_NS = 9_000.0


def deploy_rotation(kernel: Kernel, task: Task, listing: str) -> None:
    """Zero-downtime deploy pair: rotate the listing aside and back.

    The standard atomic deploy swaps the live content directory with
    ``rename(2)``.  The cache work is what matters here: the listing's
    subtree (one dentry per asset) is hot — every autoindex request
    ``fstatat``\\ s each entry — so the eager profile pays a per-dentry
    subtree shootdown at swap time *and* cold per-entry refills on the
    requests that follow, while the lazy profile bumps an epoch and
    revalidates each entry in place on its next touch.  The pair
    restores the original name, keeping the operation self-undoing for
    replay loops (see :mod:`repro.workloads.server_fleet`).
    """
    kernel.costs.charge_ns("httpd_compute", DEPLOY_FIXED_NS)
    kernel.sys.rename(task, listing, f"{listing}.old")
    kernel.sys.rename(task, f"{listing}.old", listing)


def run_benchmark(kernel: Kernel, nfiles: int, *,
                  requests: int = 50) -> float:
    """Table 3 driver: returns requests per virtual second."""
    task = kernel.spawn_task(uid=0, gid=0)
    listing = provision(kernel, task, nfiles)
    handle_request(kernel, task, listing)  # warm, as a running server is
    start = kernel.now_ns
    for _ in range(requests):
        handle_request(kernel, task, listing)
    elapsed_s = (kernel.now_ns - start) / 1e9
    kernel.exit_task(task)
    return requests / elapsed_s
