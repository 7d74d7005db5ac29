"""Named probes: custom per-trial measurements outside the job pipeline.

Most sweep cells compile to :class:`~repro.experiments.runner.ExecutionPlan`
jobs, but several experiments measure things no ``(GraphSpec, ProtocolSpec)``
job can express — the per-round active-set growth of Algorithm 1 (protocol
internals), graph eccentricities (no protocol at all), relay-transmission
counts on the lower-bound gadgets, or the collision-free phone-call
reference model.  Those become **probe cells**: the cell names a probe
registered here plus its parameters, and the probe generates per-trial
metric samples directly.

A probe is a callable ``fn(params, seed, repetitions)`` returning an
iterator of one ``{metric: value-or-values}`` mapping per trial; the runtime
streams each sample straight into the cell's accumulators.  Probes own their
rng derivation (they reproduce the historical per-experiment seeding, so
ported experiments keep their numbers); determinism in ``(params, seed)`` is
part of the contract.  A probe that runs a protocol runs it on the
:class:`~repro.radio.batch.BatchEngine` in exact mode (one generator per
trial), like job cells, so its runs are traced like theirs.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["register_probe", "probe_names", "get_probe"]

ProbeFn = Callable[[Dict[str, object], int, int], Iterator[Dict[str, object]]]

_PROBES: Dict[str, ProbeFn] = {}


def register_probe(name: str, fn: Optional[ProbeFn] = None):
    """Register a probe generator under ``name`` (usable as a decorator)."""

    def register(target: ProbeFn) -> ProbeFn:
        existing = _PROBES.get(name)
        if existing is not None and existing is not target:
            raise ValueError(f"probe {name!r} is already registered")
        _PROBES[name] = target
        return target

    return register(fn) if fn is not None else register


def probe_names() -> List[str]:
    """Every registered probe name, sorted."""
    return sorted(_PROBES)


def get_probe(name: str) -> ProbeFn:
    """Look a probe up by name (raises on unknown names)."""
    try:
        return _PROBES[name]
    except KeyError:
        known = ", ".join(probe_names())
        raise ValueError(f"unknown probe {name!r}; registered: {known}")
