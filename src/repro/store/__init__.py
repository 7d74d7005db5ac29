"""Content-addressed result store for sweep orchestration.

The store is the persistence half of the sweep service (the other half is
the job queue in :mod:`repro.jobs`): every per-trial simulation outcome is
written once under a canonical digest of *what produced it*, so re-running
any experiment — or extending its repetition count — only computes the
trials that are actually missing.

* :mod:`repro.store.keys` — canonical digests (:func:`trial_digest`, and
  :func:`seeded_digests` for the keys of one sweep spliced from a single
  template) and the :data:`ENGINE_VERSION` constant that gates them;
* :mod:`repro.store.result_store` — :class:`ResultStore`, append-only JSONL
  shards under a cache directory;
* :mod:`repro.store.aggregates` — :class:`AggregateStore`, checkpointed
  streaming-aggregation state so resumed sweeps continue their running
  reduction without re-reading stored traces.

The experiment runner (:mod:`repro.experiments.runner`) owns the mapping
from jobs to digests and payloads; this package deliberately knows nothing
about jobs or traces — it stores opaque JSON payloads under opaque keys.
"""

from repro.store.aggregates import AggregateStore
from repro.store.keys import (
    ENGINE_VERSION,
    SEED_SLOT,
    canonical_dumps,
    canonicalize,
    seeded_digests,
    trial_digest,
)
from repro.store.result_store import ResultStore

__all__ = [
    "ENGINE_VERSION",
    "AggregateStore",
    "ResultStore",
    "SEED_SLOT",
    "canonical_dumps",
    "canonicalize",
    "seeded_digests",
    "trial_digest",
]
