"""Baseline protocols the paper compares against (Section 1.1 related work).

* :class:`~repro.baselines.flooding.DeterministicFlood` and
  :class:`~repro.baselines.flooding.BernoulliFlood` — folklore flooding
  (shows why collisions make naive approaches fail or burn energy).
* :class:`~repro.baselines.decay.DecayBroadcast` — Bar-Yehuda, Goldreich,
  Itai [3]: O((D + log n) log n) time, unbounded per-node energy.
* :class:`~repro.baselines.elsasser_gasieniec.ElsasserGasieniecBroadcast` —
  [12]: the three-phase random-graph broadcast Algorithm 1 improves on
  (up to D−1 transmissions per node).
* :class:`~repro.baselines.czumaj_rytter.KnownDiameterCR` and
  :class:`~repro.baselines.czumaj_rytter.UniformSelectionBroadcast` — [11]:
  selection-sequence broadcasting with the α′ distribution (known D) and a
  uniform-scale variant (unknown D).
* :func:`~repro.baselines.phone_call.run_push_broadcast` /
  :func:`~repro.baselines.phone_call.run_push_gossip` — the random
  phone-call model of [13] (no radio collisions; an energy reference point).
* :class:`~repro.baselines.gossip_uniform.UniformScaleGossip` — a
  selection-sequence gossip baseline for general networks in the spirit of
  the Chrobak–Gasieniec–Rytter framework [8].
"""

from repro.baselines.czumaj_rytter import (
    KnownDiameterCR,
    UniformSelectionBroadcast,
)
from repro.baselines.decay import DecayBroadcast
from repro.baselines.elsasser_gasieniec import (
    ElsasserGasieniecBroadcast,
)
from repro.baselines.flooding import (
    BernoulliFlood,
    DeterministicFlood,
)
from repro.baselines.gossip_uniform import UniformScaleGossip
from repro.baselines.phone_call import (
    PhoneCallResult,
    run_push_broadcast,
    run_push_gossip,
)
from repro.baselines.sequential_gossip import (
    SequentialBroadcastGossip,
)

__all__ = [
    "SequentialBroadcastGossip",
    "DeterministicFlood",
    "BernoulliFlood",
    "UniformScaleGossip",
    "DecayBroadcast",
    "ElsasserGasieniecBroadcast",
    "KnownDiameterCR",
    "UniformSelectionBroadcast",
    "PhoneCallResult",
    "run_push_broadcast",
    "run_push_gossip",
]
