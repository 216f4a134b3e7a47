"""Workload generators for the paper's evaluation (§6).

* :mod:`repro.workloads.tree` — synthetic directory trees (Linux-source
  shaped, /usr shaped, maildir shaped).
* :mod:`repro.workloads.lmbench` — lat_syscall-style microbenchmarks
  (Figures 2, 3, 6, 7, 8, 9).
* :mod:`repro.workloads.apps` — find/tar/rm/make/du/updatedb/git trace
  generators (Figure 1, Tables 1–2).
* :mod:`repro.workloads.maildir` — Dovecot-style IMAP flag workload
  (Figure 10).
* :mod:`repro.workloads.webserver` — Apache directory-listing workload
  (Table 3).
* :mod:`repro.workloads.traces` — record/replay: ``TraceRecorder``, the
  per-event :func:`~repro.workloads.traces.replay` interpreter, and the
  compiled engine :func:`~repro.workloads.traces.replay_interleaved`
  (:func:`~repro.workloads.traces.replay_compiled` for one stream).
* :mod:`repro.workloads.compile` — the trace compiler: AOT-lowers
  traces (and the generator-driven workloads above) to flat opcode
  programs executed through the batched syscall dispatch table; see
  ``docs/benchmarking.md``.
"""

from repro.workloads.tree import TreeSpec, build_linux_like_tree, populate

__all__ = ["TreeSpec", "build_linux_like_tree", "populate"]
