"""Radio-network simulation substrate.

This package implements the communication model of Section 1.2 of the paper:

* the network is a **directed** graph ``G = (V, E)``; an edge ``(u, v)``
  means that a transmission by ``u`` can be heard by ``v`` (``u`` lies inside
  ``v``'s listening range) — not necessarily vice versa;
* time proceeds in **synchronous rounds**; in each round every node decides
  (based only on local state, the round number and global constants such as
  ``n`` and optionally ``D``) whether to transmit;
* a node ``v`` **receives** a message in a round iff *exactly one* of its
  in-neighbours transmits in that round; if two or more transmit, the
  messages collide and ``v`` hears nothing (and cannot even detect the
  collision under the standard model);
* there are no acknowledgements and no collision detection;
* **energy** is the number of transmissions (fixed transmission power).

Public surface:

* :class:`~repro.radio.network.RadioNetwork` — CSR digraph container.
* :mod:`~repro.radio.batch` — the synchronous round engine
  (:class:`~repro.radio.batch.BatchEngine`): ``R`` independent trials
  advanced per vectorised round on stacked ``(R, n)`` state, with per-trial
  completion masking and an exact mode (one generator per trial); and
  :class:`~repro.radio.batch.BatchProtocol`, the base class of every
  protocol (what the paper calls "algorithms").
* :class:`~repro.radio.engine.SimulationEngine` and
  :func:`~repro.radio.engine.run_protocol` — the single-run API: the batch
  engine with one exact-mode trial.
* :class:`~repro.radio.energy.BatchEnergyAccountant` — transmission
  accounting.
* :mod:`~repro.radio.collision` — pluggable collision semantics.
* :mod:`~repro.radio.trace` — per-round traces and run summaries.
* :mod:`~repro.radio.nodesets` — the node-set state the protocols keep:
  membership sets, bit-packed gossip knowledge, Decay quotas and flooding
  budgets, one class each.
* :mod:`~repro.radio.environment` — composable faulty-world layers (i.i.d.
  and burst message loss, crash/churn schedules, adversarial jamming,
  wake-up asynchrony) wrapped around collision resolution.
"""

from repro.radio.batch import (
    BatchBroadcastProtocol,
    BatchEngine,
    BatchGossipProtocol,
    BatchProtocol,
    BatchRandomSource,
    NetworkBatch,
    run_protocol_batch,
)
from repro.radio.collision import (
    BatchCollisionModel,
    BatchCollisionOutcome,
    BatchErasureCollisionModel,
    BatchStandardCollisionModel,
    BatchWithCollisionDetectionModel,
    CollisionModel,
    CollisionOutcome,
    ErasureCollisionModel,
    StandardCollisionModel,
    WithCollisionDetectionModel,
    as_batch_collision_model,
)
from repro.radio.energy import BatchEnergyAccountant, EnergyReport
from repro.radio.engine import SimulationEngine, run_protocol
from repro.radio.environment import (
    ENVIRONMENT_FAMILIES,
    BurstLossEnvironment,
    ChurnEnvironment,
    ComposedEnvironment,
    Environment,
    IidLossEnvironment,
    JamEnvironment,
    NullEnvironment,
    WakeupEnvironment,
    build_environment,
    parse_environment_option,
    validate_environment_spec,
)
from repro.radio.network import RadioNetwork
from repro.radio.trace import RoundRecord, RunResultTrace

__all__ = [
    "RadioNetwork",
    "NetworkBatch",
    "BatchProtocol",
    "BatchBroadcastProtocol",
    "BatchGossipProtocol",
    "SimulationEngine",
    "run_protocol",
    "BatchEngine",
    "BatchRandomSource",
    "run_protocol_batch",
    "BatchEnergyAccountant",
    "EnergyReport",
    "CollisionModel",
    "CollisionOutcome",
    "StandardCollisionModel",
    "WithCollisionDetectionModel",
    "ErasureCollisionModel",
    "BatchCollisionModel",
    "BatchCollisionOutcome",
    "BatchStandardCollisionModel",
    "BatchWithCollisionDetectionModel",
    "BatchErasureCollisionModel",
    "as_batch_collision_model",
    "Environment",
    "NullEnvironment",
    "IidLossEnvironment",
    "BurstLossEnvironment",
    "ChurnEnvironment",
    "JamEnvironment",
    "WakeupEnvironment",
    "ComposedEnvironment",
    "ENVIRONMENT_FAMILIES",
    "build_environment",
    "validate_environment_spec",
    "parse_environment_option",
    "RoundRecord",
    "RunResultTrace",
]
