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

from repro.baselines.czumaj_rytter import KnownDiameterCR, UniformSelectionBroadcast
from repro.baselines.decay import DecayBroadcast
from repro.baselines.elsasser_gasieniec import ElsasserGasieniecBroadcast
from repro.baselines.flooding import BernoulliFlood, DeterministicFlood
from repro.baselines.gossip_uniform import UniformScaleGossip
from repro.baselines.sequential_gossip import SequentialBroadcastGossip
from repro.core.broadcast_general import KnownDiameterBroadcast
from repro.core.broadcast_random import EnergyEfficientBroadcast
from repro.core.distributions import (
    AlphaDistribution,
    CzumajRytterDistribution,
    FixedProbabilityOblivious,
    UniformScaleDistribution,
)
from repro.core.gossip_random import RandomNetworkGossip
from repro.core.oblivious import TimeInvariantBroadcast
from repro.core.tradeoff import TradeoffBroadcast
from repro.radio.batch import BatchProtocol

__all__ = ["ProtocolSpec", "build_protocol", "PROTOCOL_FACTORIES"]


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


#: Registry: protocol name -> factory taking keyword parameters.
PROTOCOL_FACTORIES: Dict[str, Callable[..., BatchProtocol]] = {
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


def build_protocol(spec: ProtocolSpec) -> BatchProtocol:
    """Instantiate the protocol described by ``spec``."""
    try:
        factory = PROTOCOL_FACTORIES[spec.name]
    except KeyError:
        known = ", ".join(sorted(PROTOCOL_FACTORIES))
        raise ValueError(
            f"unknown protocol {spec.name!r}; known protocols: {known}"
        )
    return factory(**spec.params)
