#!/usr/bin/env python
"""Dynamic gossiping among mobile devices (Algorithm 2 + mobility).

The paper notes that Algorithm 2 "can be transformed into a dynamic gossiping
algorithm" by time-stamping rumours — nodes simply keep running the same
per-round rule while the topology underneath them changes.  This example puts
that to the test: devices drift across the unit square (waypoint mobility),
the radio network is rebuilt every epoch, and the gossip protocol keeps its
rumour state across epochs.

We report how many epochs it takes until every device knows every rumour and
how many transmissions each device spent — the per-node energy stays
O(log n)-ish per epoch because the transmission rule is an independent
Bernoulli(1/d) per round regardless of mobility.

Run:  python examples/dynamic_gossip.py [n] [seed]
"""

from __future__ import annotations

import math
import sys

import numpy as np

from repro.analysis.tables import format_table
from repro.core import RandomNetworkGossip
from repro.radio import BatchRandomSource, BatchStandardCollisionModel, NetworkBatch
from repro.radio.dynamics import WaypointDriftModel


def main(n: int = 128, seed: int = 11, epochs: int = 12, rounds_per_epoch: int = 60) -> None:
    drift = WaypointDriftModel(step_std=0.03, radius=2.2 * math.sqrt(math.log(n) / (math.pi * n)))
    rng = np.random.default_rng(seed)

    # The gossip protocol needs an effective density; use the expected degree
    # of the geometric model (pi r^2 n neighbours -> p_eff = pi r^2).
    p_eff = min(1.0, math.pi * drift.radius**2)
    protocol = RandomNetworkGossip(p_eff, rounds_constant=64.0)

    print(
        f"{n} mobile devices, listening radius {drift.radius:.3f}, "
        f"effective density p_eff={p_eff:.3f}\n"
    )

    # The protocol is driven one round at a time on a one-trial batch whose
    # generator is ``rng`` (the binding run_protocol makes).
    collision_model = BatchStandardCollisionModel()
    rng_source = BatchRandomSource.exact([rng])
    running = np.ones(1, dtype=bool)
    rows = []
    total_tx = np.zeros(n, dtype=np.int64)
    completed_epoch = None

    for epoch, network in enumerate(drift.snapshots(n, epochs, rng=rng)):
        batch = NetworkBatch([network])
        if epoch == 0:
            protocol.bind(batch, rng_source)
        else:
            # Keep rumour knowledge, swap the topology under the protocol:
            # compact() rebinds to a new batch and keeps the rows it is told
            # to keep -- here, the one trial.
            protocol.compact(running, batch, rng_source)
        for round_index in range(rounds_per_epoch):
            # With one trial, flat node ids are node ids.
            tx = protocol.transmit_flat(round_index, running)
            outcome = collision_model.resolve(batch, tx, rng_source)
            protocol.observe(round_index, tx, outcome, running)
            total_tx[tx] += 1
        coverage = protocol.knowledge.mean()
        min_known = int(protocol.rumours_known().min())
        rows.append(
            [
                epoch,
                network.num_edges,
                f"{coverage * 100:.1f}%",
                min_known,
                int(total_tx.max()),
            ]
        )
        if protocol.completed()[0] and completed_epoch is None:
            completed_epoch = epoch
            break

    print(
        format_table(
            ["epoch", "links", "rumour coverage", "min rumours/node", "max tx/node so far"],
            rows,
            title="Gossip progress while devices move",
        )
    )
    print()
    if completed_epoch is not None:
        print(
            f"All {n} rumours reached all devices during epoch {completed_epoch}; "
            f"max transmissions per device: {int(total_tx.max())} "
            f"(log2 n = {math.log2(n):.1f})."
        )
    else:
        print(
            "Gossip did not complete within the epoch budget — increase epochs or the radius."
        )


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 128
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 11
    main(n, seed)
