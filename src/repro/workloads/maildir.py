"""Dovecot-style maildir IMAP workload (Figure 10).

Maildir stores each mailbox as a directory and each message as a file
whose name encodes its flags.  Marking a message (seen/flagged/unflagged)
renames the file; the server then re-reads the directory to sync its view
of the mailbox, and a delivery agent occasionally drops new messages into
``new/`` which the server moves into ``cur/`` (§5.1's motivating
example).

The client model below marks/unmarks random messages across mailboxes;
per-operation IMAP parsing and index-update work is charged as compute so
the directory-cache share of each operation matches a real Dovecot
profile.  Throughput is operations per virtual second.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro import O_CREAT, O_RDWR
from repro.core.kernel import Kernel
from repro.vfs.task import Task

#: Per-operation protocol/index compute (command parse, index write).
OP_FIXED_NS = 600_000.0
#: Per-message processing while syncing a re-read mailbox listing.
PER_MESSAGE_NS = 1_500.0


@dataclass
class MaildirSetup:
    """A provisioned maildir store."""

    root: str
    mailboxes: List[str]
    messages: Dict[str, List[str]]


def provision(kernel: Kernel, task: Task, mailboxes: int,
              messages_per_box: int, root: str = "/mail",
              seed: int = 42) -> MaildirSetup:
    """Create ``mailboxes`` maildirs with ``messages_per_box`` each."""
    sys = kernel.sys
    rng = random.Random(seed)
    sys.mkdir(task, root)
    setup = MaildirSetup(root=root, mailboxes=[], messages={})
    for box in range(mailboxes):
        base = f"{root}/inbox{box}"
        sys.mkdir(task, base)
        for sub in ("cur", "new", "tmp"):
            sys.mkdir(task, f"{base}/{sub}")
        names = []
        for i in range(messages_per_box):
            name = f"{1600000000 + i}.M{rng.randrange(10**6)}P{box}.host:2,"
            fd = sys.open(task, f"{base}/cur/{name}", O_CREAT | O_RDWR)
            sys.close(task, fd)
            names.append(name)
        setup.mailboxes.append(base)
        setup.messages[base] = names
    return setup


def _sync_mailbox(kernel: Kernel, task: Task, curdir: str) -> int:
    """Server-side mailbox sync: re-read the directory, process entries."""
    entries = kernel.sys.listdir(task, curdir)
    kernel.costs.charge_ns("imap_compute", PER_MESSAGE_NS * len(entries))
    return len(entries)


def mark_operation(kernel: Kernel, task: Task, setup: MaildirSetup,
                   rng: random.Random) -> None:
    """One IMAP STORE: flip a random message's Seen flag, then sync."""
    box = setup.mailboxes[rng.randrange(len(setup.mailboxes))]
    names = setup.messages[box]
    idx = rng.randrange(len(names))
    name = names[idx]
    flagged = name.endswith("S")
    new_name = name[:-1] if flagged else name + "S"
    kernel.costs.charge_ns("imap_compute", OP_FIXED_NS)
    kernel.sys.stat(task, f"{box}/cur/{name}")
    kernel.sys.rename(task, f"{box}/cur/{name}", f"{box}/cur/{new_name}")
    names[idx] = new_name
    _sync_mailbox(kernel, task, f"{box}/cur")


def mark_unmark_operation(kernel: Kernel, task: Task, setup: MaildirSetup,
                          rng: random.Random) -> None:
    """A STORE pair: flag a random message, sync, unflag it, sync.

    Same per-operation cache work as two :func:`mark_operation` calls,
    but the filesystem ends exactly where it started — the message is
    back under its original name.  Self-undoing operations are what let
    a recorded tenant request stream replay any number of times on one
    kernel (see :mod:`repro.workloads.server_fleet`).
    """
    box = setup.mailboxes[rng.randrange(len(setup.mailboxes))]
    names = setup.messages[box]
    name = names[rng.randrange(len(names))]
    flipped = name[:-1] if name.endswith("S") else name + "S"
    kernel.costs.charge_ns("imap_compute", OP_FIXED_NS)
    kernel.sys.stat(task, f"{box}/cur/{name}")
    kernel.sys.rename(task, f"{box}/cur/{name}", f"{box}/cur/{flipped}")
    _sync_mailbox(kernel, task, f"{box}/cur")
    kernel.costs.charge_ns("imap_compute", OP_FIXED_NS)
    kernel.sys.rename(task, f"{box}/cur/{flipped}", f"{box}/cur/{name}")
    _sync_mailbox(kernel, task, f"{box}/cur")


def folder_rename_operation(kernel: Kernel, task: Task,
                            setup: MaildirSetup,
                            rng: random.Random) -> None:
    """An IMAP RENAME pair: move a whole mailbox aside, then back.

    Renaming a *directory* is where the coherence strategies diverge
    hardest (§5.1): the eager profile shoots down every cached dentry
    under the mailbox — ``cur``/``new``/``tmp`` plus one per message —
    per-dentry at rename time, while the lazy profile bumps an epoch
    and pays per-entry revalidation only as the following syncs touch
    the subtree again.  The pair restores the original name, so the
    operation is self-undoing like :func:`mark_unmark_operation`.

    Unlike the flag operations, a RENAME does not re-read the mailbox:
    Dovecot rewrites its index and checks ``new/`` for races, so the
    syncs here list the (normally empty) ``new/`` directory.  The cost
    of the operation is therefore dominated by the *coherence* work the
    rename triggers, not by per-message compute: the fleet's
    (:mod:`~repro.workloads.server_fleet`) eager/lazy probe, the shape
    Figure 7 (``bench/exp_fig7.py``) prices on one subtree.
    """
    box = setup.mailboxes[rng.randrange(len(setup.mailboxes))]
    aside = f"{box}.tmp-rename"
    kernel.costs.charge_ns("imap_compute", OP_FIXED_NS)
    kernel.sys.rename(task, box, aside)
    _sync_mailbox(kernel, task, f"{aside}/new")
    kernel.costs.charge_ns("imap_compute", OP_FIXED_NS)
    kernel.sys.rename(task, aside, box)
    _sync_mailbox(kernel, task, f"{box}/new")


def deliver_operation(kernel: Kernel, task: Task, setup: MaildirSetup,
                      rng: random.Random, seq: int) -> None:
    """MDA delivery: drop a message in new/, server moves it to cur/."""
    box = setup.mailboxes[rng.randrange(len(setup.mailboxes))]
    name = f"{1700000000 + seq}.M{rng.randrange(10**6)}D.host:2,"
    kernel.costs.charge_ns("imap_compute", OP_FIXED_NS / 2)
    fd = kernel.sys.open(task, f"{box}/new/{name}", O_CREAT | O_RDWR)
    kernel.sys.close(task, fd)
    kernel.sys.rename(task, f"{box}/new/{name}", f"{box}/cur/{name}")
    setup.messages[box].append(name)
    _sync_mailbox(kernel, task, f"{box}/cur")


def run_benchmark(kernel: Kernel, mailbox_size: int, *,
                  mailboxes: int = 10, operations: int = 200,
                  deliver_every: int = 20, seed: int = 7) -> float:
    """Figure 10 driver: returns throughput in operations per second."""
    task = kernel.spawn_task(uid=0, gid=0)
    setup = provision(kernel, task, mailboxes, mailbox_size)
    rng = random.Random(seed)
    # Warm pass: the server has been running and has the boxes cached.
    for box in setup.mailboxes:
        _sync_mailbox(kernel, task, f"{box}/cur")
    start = kernel.now_ns
    for op in range(operations):
        if deliver_every and op % deliver_every == deliver_every - 1:
            deliver_operation(kernel, task, setup, rng, op)
        else:
            mark_operation(kernel, task, setup, rng)
    elapsed_s = (kernel.now_ns - start) / 1e9
    kernel.exit_task(task)
    return operations / elapsed_s
