"""repro — reproduction of *Energy efficient randomised communication in unknown AdHoc networks*.

Berenbrink, Cooper, Hu (SPAA 2007; Theoretical Computer Science 410 (2009)
2549–2561).

The package is organised as:

* :mod:`repro.radio` — the radio-network simulation substrate (the paper's
  model: directed links, synchronous rounds, collisions, fixed power,
  energy = number of transmissions).  One engine runs every protocol:
  :class:`~repro.radio.batch.BatchEngine` advances ``R`` trials per
  vectorised round, and the single-run API
  (:func:`~repro.radio.engine.run_protocol`) is that engine with one trial;
* :mod:`repro.graphs` — topology generators (directed ``G(n, p)``, random
  geometric graphs, the lower-bound constructions, structured families) and
  graph properties;
* :mod:`repro.core` — the paper's algorithms, one class each: Algorithm 1
  (random-network broadcast, ≤1 transmission per node), Algorithm 2
  (random-network gossip), Algorithm 3 (known-diameter broadcast), the
  Theorem 4.2 tradeoff family, the Fig. 1 distributions, and the
  time-invariant oblivious class used by the lower bounds;
* :mod:`repro.baselines` — the related-work protocols the paper compares
  against (flooding, Decay, Elsässer–Gasieniec, Czumaj–Rytter, random phone
  call);
* :mod:`repro.analysis` — statistics, scaling fits and concentration checks;
* :mod:`repro.experiments` — one module per reproduced theorem/figure
  (E1–E14), a declarative job runner, and result containers;
* :mod:`repro.store` — the content-addressed result store behind resumable
  sweeps (canonical digests, append-only JSONL shards);
* :mod:`repro.jobs` — the job queue the execution plan dispatches through
  (in-process / process-pool backends with retry-on-worker-death);
* :mod:`repro.cli` — the ``repro`` command-line interface.

Quickstart
----------

>>> from repro.graphs import random_digraph
>>> from repro.core import EnergyEfficientBroadcast
>>> from repro.radio import run_protocol
>>> net = random_digraph(512, 0.05, rng=1)
>>> result = run_protocol(net, EnergyEfficientBroadcast(p=0.05), rng=2)
>>> result.completed and result.energy.max_per_node <= 1
True
"""

from repro._version import __version__

__all__ = ["__version__"]
