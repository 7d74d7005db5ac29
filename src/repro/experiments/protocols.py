"""Declarative protocol specifications.

The experiment runner describes each run as plain data
(:class:`~repro.graphs.builders.GraphSpec`, :class:`ProtocolSpec`, a seed and
a couple of engine options) so jobs are picklable — which is what allows the
runner to fan repetitions out over worker processes — and so results files
record exactly what was run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict

from repro.baselines.czumaj_rytter import (
    BatchKnownDiameterCR,
    BatchUniformSelectionBroadcast,
    KnownDiameterCR,
    UniformSelectionBroadcast,
)
from repro.baselines.decay import BatchDecayBroadcast, DecayBroadcast
from repro.baselines.elsasser_gasieniec import (
    BatchElsasserGasieniecBroadcast,
    ElsasserGasieniecBroadcast,
)
from repro.baselines.flooding import (
    BatchBernoulliFlood,
    BatchDeterministicFlood,
    BernoulliFlood,
    DeterministicFlood,
)
from repro.baselines.gossip_uniform import BatchUniformScaleGossip, UniformScaleGossip
from repro.baselines.sequential_gossip import (
    BatchSequentialBroadcastGossip,
    SequentialBroadcastGossip,
)
from repro.core.broadcast_general import (
    BatchKnownDiameterBroadcast,
    KnownDiameterBroadcast,
)
from repro.core.broadcast_random import (
    BatchEnergyEfficientBroadcast,
    EnergyEfficientBroadcast,
)
from repro.core.distributions import (
    AlphaDistribution,
    CzumajRytterDistribution,
    FixedProbabilityOblivious,
    UniformScaleDistribution,
)
from repro.core.gossip_random import BatchRandomNetworkGossip, RandomNetworkGossip
from repro.core.oblivious import BatchTimeInvariantBroadcast, TimeInvariantBroadcast
from repro.core.tradeoff import BatchTradeoffBroadcast, TradeoffBroadcast
from repro.radio.batch import BatchProtocol
from repro.radio.protocol import Protocol

__all__ = [
    "ProtocolSpec",
    "build_protocol",
    "build_batch_protocol",
    "PROTOCOL_FACTORIES",
    "BATCH_PROTOCOL_FACTORIES",
]


def _resolve_distribution(dist_spec):
    """Resolve a distribution spec: a float (fixed probability), a
    ``ScaleDistribution`` instance, or a dict
    ``{"kind": "alpha" | "alpha_prime" | "uniform" | "fixed", ...}``."""
    if isinstance(dist_spec, dict):
        kind = dist_spec.get("kind")
        if kind == "alpha":
            return AlphaDistribution(
                dist_spec["n"], dist_spec["diameter"], lam=dist_spec.get("lam")
            )
        if kind == "alpha_prime":
            return CzumajRytterDistribution(dist_spec["n"], dist_spec["diameter"])
        if kind == "uniform":
            return UniformScaleDistribution(dist_spec["n"])
        if kind == "fixed":
            return FixedProbabilityOblivious(dist_spec["q"])
        raise ValueError(f"unknown distribution kind {kind!r}")
    return dist_spec


def _build_time_invariant(**params) -> TimeInvariantBroadcast:
    """Factory for :class:`TimeInvariantBroadcast` taking a distribution spec."""
    dist = _resolve_distribution(params.pop("distribution"))
    return TimeInvariantBroadcast(dist, **params)


def _build_batch_time_invariant(**params) -> BatchTimeInvariantBroadcast:
    """Batched counterpart of :func:`_build_time_invariant` (same spec)."""
    dist = _resolve_distribution(params.pop("distribution"))
    return BatchTimeInvariantBroadcast(dist, **params)


#: Registry: protocol name -> factory taking keyword parameters.
PROTOCOL_FACTORIES: Dict[str, Callable[..., Protocol]] = {
    "algorithm1": EnergyEfficientBroadcast,
    "algorithm2": RandomNetworkGossip,
    "algorithm3": KnownDiameterBroadcast,
    "tradeoff": TradeoffBroadcast,
    "time_invariant": _build_time_invariant,
    "decay": DecayBroadcast,
    "elsasser_gasieniec": ElsasserGasieniecBroadcast,
    "czumaj_rytter_known_d": KnownDiameterCR,
    "uniform_selection": UniformSelectionBroadcast,
    "deterministic_flood": DeterministicFlood,
    "bernoulli_flood": BernoulliFlood,
    "uniform_gossip": UniformScaleGossip,
    "sequential_gossip": SequentialBroadcastGossip,
}


@dataclass(frozen=True)
class ProtocolSpec:
    """A named protocol plus its constructor parameters."""

    name: str
    params: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}({inner})"

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ProtocolSpec":
        return cls(name=payload["name"], params=dict(payload.get("params", {})))


def build_protocol(spec: ProtocolSpec) -> Protocol:
    """Instantiate the protocol described by ``spec``."""
    try:
        factory = PROTOCOL_FACTORIES[spec.name]
    except KeyError:
        known = ", ".join(sorted(PROTOCOL_FACTORIES))
        raise ValueError(
            f"unknown protocol {spec.name!r}; known protocols: {known}"
        )
    return factory(**spec.params)


#: Protocols with a batched (R-trials-per-round) implementation.  Every name
#: in :data:`PROTOCOL_FACTORIES` has an entry (the tests assert the two key
#: sets are equal), so :func:`repro.experiments.runner.repeat_job` runs
#: every protocol on the batch engine; the scalar implementations remain the
#: serial oracle of :func:`repro.experiments.runner.execute_job`.
BATCH_PROTOCOL_FACTORIES: Dict[str, Callable[..., BatchProtocol]] = {
    "algorithm1": BatchEnergyEfficientBroadcast,
    "algorithm2": BatchRandomNetworkGossip,
    "algorithm3": BatchKnownDiameterBroadcast,
    "tradeoff": BatchTradeoffBroadcast,
    "time_invariant": _build_batch_time_invariant,
    "decay": BatchDecayBroadcast,
    "elsasser_gasieniec": BatchElsasserGasieniecBroadcast,
    "czumaj_rytter_known_d": BatchKnownDiameterCR,
    "uniform_selection": BatchUniformSelectionBroadcast,
    "deterministic_flood": BatchDeterministicFlood,
    "bernoulli_flood": BatchBernoulliFlood,
    "uniform_gossip": BatchUniformScaleGossip,
    "sequential_gossip": BatchSequentialBroadcastGossip,
}


def build_batch_protocol(spec: ProtocolSpec) -> BatchProtocol:
    """Instantiate the batched implementation of ``spec``."""
    try:
        factory = BATCH_PROTOCOL_FACTORIES[spec.name]
    except KeyError:
        known = ", ".join(sorted(BATCH_PROTOCOL_FACTORIES))
        raise ValueError(
            f"protocol {spec.name!r} has no batched implementation; "
            f"batchable protocols: {known}"
        )
    return factory(**spec.params)
