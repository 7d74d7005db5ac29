"""The single-run API: one protocol run on one network.

:class:`SimulationEngine` and :func:`run_protocol` run
:class:`~repro.radio.batch.BatchEngine` with one exact-mode trial, whose
generator is the run's ``rng``.  The round loop, the stopping rules and the
result trace are the batch engine's; this module only adapts the call.
"""

from __future__ import annotations

from typing import Optional, Union

from repro._util.rng import SeedLike
from repro.radio.batch import BatchEngine, BatchProtocol
from repro.radio.collision import BatchCollisionModel, CollisionModel
from repro.radio.network import RadioNetwork
from repro.radio.trace import RunResultTrace

__all__ = ["SimulationEngine", "run_protocol"]


class SimulationEngine:
    """Runs one protocol on one radio network under a collision model.

    The parameters are those of :class:`~repro.radio.batch.BatchEngine`:
    a collision model (the paper's standard model by default),
    ``record_rounds``, ``keep_arrays``, ``run_to_quiescence``,
    ``retire_dead`` and an optional ``environment``.
    """

    def __init__(
        self,
        collision_model: Union[BatchCollisionModel, CollisionModel, None] = None,
        *,
        record_rounds: bool = False,
        keep_arrays: bool = False,
        run_to_quiescence: bool = False,
        retire_dead: bool = True,
        environment=None,
    ):
        self.engine = BatchEngine(
            collision_model,
            record_rounds=record_rounds,
            keep_arrays=keep_arrays,
            run_to_quiescence=run_to_quiescence,
            retire_dead=retire_dead,
            environment=environment,
        )

    def run(
        self,
        network: RadioNetwork,
        protocol: BatchProtocol,
        *,
        rng: SeedLike = None,
        max_rounds: Optional[int] = None,
    ) -> RunResultTrace:
        """Run ``protocol`` on ``network`` until completion or ``max_rounds``.

        ``completed`` on the result is False when the horizon was hit before
        the protocol's objective was reached.  The protocol stays bound to
        its one-trial batch, so its state can be read after the run.
        """
        return self.engine.run(
            [network], protocol, rngs=[rng], max_rounds=max_rounds
        )[0]


def run_protocol(
    network: RadioNetwork,
    protocol: BatchProtocol,
    *,
    rng: SeedLike = None,
    max_rounds: Optional[int] = None,
    collision_model: Union[BatchCollisionModel, CollisionModel, None] = None,
    record_rounds: bool = False,
    keep_arrays: bool = False,
    run_to_quiescence: bool = False,
    retire_dead: bool = True,
    environment=None,
) -> RunResultTrace:
    """Convenience wrapper: build an engine and run once.

    Examples
    --------
    >>> from repro.graphs import random_digraph
    >>> from repro.core import EnergyEfficientBroadcast
    >>> net = random_digraph(256, 0.05, rng=1)
    >>> result = run_protocol(net, EnergyEfficientBroadcast(0.05), rng=2)
    >>> result.energy.max_per_node <= 1
    True
    """
    engine = SimulationEngine(
        collision_model,
        record_rounds=record_rounds,
        keep_arrays=keep_arrays,
        run_to_quiescence=run_to_quiescence,
        retire_dead=retire_dead,
        environment=environment,
    )
    return engine.run(network, protocol, rng=rng, max_rounds=max_rounds)
