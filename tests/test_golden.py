"""Golden engine traces: SHA-256 digests of every batched protocol's results.

Pairwise equivalence tests (serial vs batch, ``run`` vs ``run_continuous``)
pass when a shared helper moves both sides at once.  This
corpus does not depend on two implementations staying in sync: it pins the
canonical :meth:`~repro.radio.trace.RunResultTrace.to_payload` of each trial
for every entry of ``BATCH_PROTOCOL_FACTORIES`` under

* fast mode through :meth:`BatchEngine.run` (one shared generator, so the
  draws of protocols that size them by row count are pinned too);
* exact mode, through :meth:`BatchEngine.run` and through a refilled
  :meth:`BatchEngine.run_continuous` stream against the same digests;
* exact mode under every environment family (``iid_loss``, ``burst_loss``,
  ``churn``, ``jam``, ``wakeup`` and a ``compose`` of ``iid_loss`` with
  ``churn``);
* exact mode for Decay and deterministic flooding on one wide batch
  (``R = 256`` distinct ``G(256, 0.03)`` topologies, ``R * n = 2**16``),
  whose trials stop over a spread of rounds, so the frontier state is
  compacted while it holds hundreds of trials; also as a continuous stream
  of capacity 64 against the same digests;
* one ``record_rounds=True``, one ``keep_arrays=True`` and one
  ``run_to_quiescence=True`` case;
* an in-process fast-mode ``repeat_job(..., shards=3)`` sweep, which pins
  the per-shard fast seeds, and an in-process exact-mode one, which runs
  as one continuous stream that retires and refills rows.

A digest change means the engine computes something else: it needs an
``ENGINE_VERSION`` bump and a justification, then a regenerated corpus::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.protocols import BATCH_PROTOCOL_FACTORIES, ProtocolSpec
from repro.experiments.runner import repeat_job
from repro.graphs.builders import GraphSpec
from repro.graphs.random_digraph import random_digraph
from repro.radio.batch import BatchEngine, PendingTrial
from repro.radio.environment import build_batch_environment
from repro.store.keys import canonical_dumps

GOLDEN_PATH = Path(__file__).parent / "golden" / "engine_traces.json"

PROTOCOL_PARAMS = {
    "algorithm1": {"p": 0.1},
    "algorithm2": {"p": 0.1},
    "algorithm3": {"diameter": 3},
    "tradeoff": {"diameter": 3, "lam": 3.0},
    "time_invariant": {"distribution": 0.1},
    "decay": {},
    "elsasser_gasieniec": {"p": 0.1},
    "czumaj_rytter_known_d": {"diameter": 3},
    "uniform_selection": {"diameter": 3},
    "deterministic_flood": {},
    "bernoulli_flood": {"q": 0.1},
    "uniform_gossip": {},
    "sequential_gossip": {},
}

IID_LOSS = {"name": "iid_loss", "params": {"tx_loss": 0.1, "rx_loss": 0.15}}
CHURN = {
    "name": "churn",
    "params": {
        "events": [
            {"round": 3, "crash_fraction": 0.25},
            {"round": 12, "recover_all": True},
        ]
    },
}
ENV_SPECS = {
    "iid_loss": IID_LOSS,
    "burst_loss": {"name": "burst_loss", "params": {"p_bad": 0.1, "p_good": 0.4}},
    "churn": CHURN,
    "jam": {"name": "jam", "params": {"k": 2, "start": 1, "stop": 20}},
    "wakeup": {"name": "wakeup", "params": {"max_delay": 6}},
    "compose": {"name": "compose", "params": {"layers": [IID_LOSS, CHURN]}},
}

N = 64
TRIALS = 6
MAX_ROUNDS = 300
FAST_SEED = 2024
#: Smaller than TRIALS, so the continuous stream retires, compacts and
#: refills on its way through the exact cases.
CAPACITY = 4

#: The wide exact-mode batch: R = 256 trials on distinct G(256, 0.03)
#: topologies, run to the protocol's own horizon.
WIDE_TRIALS = 256
WIDE_N = 256
WIDE_PROTOCOLS = ("decay", "deterministic_flood")
#: The wide batch as a continuous stream, a quarter of it at a time, so
#: frontier rows of the wide shape retire, compact and refill.
WIDE_CAPACITY = 64

SWEEP_GRAPH = GraphSpec("gnp", {"n": 48, "p": 0.15})
SWEEP_PROTOCOLS = {
    "algorithm1": {"p": 0.15},
    "decay": {},
    "uniform_gossip": {},
}


def _digests(traces):
    return [
        hashlib.sha256(canonical_dumps(t.to_payload()).encode()).hexdigest()
        for t in traces
    ]


def _shared_network():
    return random_digraph(N, 0.15, rng=11)


def _networks():
    """Distinct per-trial topologies (the general stacking path)."""
    return [random_digraph(N, 0.1, rng=100 + t) for t in range(TRIALS)]


def _rngs():
    return [np.random.default_rng(500 + t) for t in range(TRIALS)]


def _wide_inputs():
    networks = [
        random_digraph(WIDE_N, 0.03, rng=700 + t) for t in range(WIDE_TRIALS)
    ]
    rngs = [np.random.default_rng(500 + t) for t in range(WIDE_TRIALS)]
    return networks, rngs


def _protocol(name):
    return BATCH_PROTOCOL_FACTORIES[name](**PROTOCOL_PARAMS[name])


def _engine(env=None, **options):
    environment = build_batch_environment(ENV_SPECS[env]) if env else None
    return BatchEngine(environment=environment, **options)


def _run(config, name):
    """The traces of one corpus case, through :meth:`BatchEngine.run`."""
    if config == "fast":
        return _engine().run(
            _shared_network(), _protocol(name), trials=TRIALS,
            rng=FAST_SEED, max_rounds=MAX_ROUNDS,
        )
    if config == "exact":
        return _engine().run(
            _networks(), _protocol(name), rngs=_rngs(), max_rounds=MAX_ROUNDS
        )
    if config == "exact-wide":
        networks, rngs = _wide_inputs()
        return _engine().run(networks, _protocol(name), rngs=rngs)
    if config.startswith("exact-"):
        return _engine(config[len("exact-"):]).run(
            _shared_network(), _protocol(name), trials=TRIALS,
            rngs=_rngs(), max_rounds=MAX_ROUNDS,
        )
    if config == "fast-record_rounds":
        return _engine(record_rounds=True).run(
            _shared_network(), _protocol(name), trials=TRIALS,
            rng=FAST_SEED, max_rounds=MAX_ROUNDS,
        )
    if config == "fast-keep_arrays":
        return _engine(keep_arrays=True).run(
            _networks(), _protocol(name), rng=FAST_SEED, max_rounds=MAX_ROUNDS
        )
    if config == "fast-quiescence":
        return _engine(run_to_quiescence=True).run(
            _shared_network(), _protocol(name), trials=TRIALS,
            rng=FAST_SEED, max_rounds=MAX_ROUNDS,
        )
    raise KeyError(config)


def _run_continuous(config, name):
    """An exact case as a refilled :meth:`BatchEngine.run_continuous` stream."""
    if config == "exact-wide":
        networks, rngs = _wide_inputs()
        pending = (PendingTrial(net, rng=rng) for net, rng in zip(networks, rngs))
        return _engine().run_continuous(
            pending, lambda: _protocol(name), capacity=WIDE_CAPACITY, watermark=1.0
        )
    if config == "exact":
        networks = _networks()
        engine = _engine()
    else:
        networks = [_shared_network()] * TRIALS
        engine = _engine(config[len("exact-"):])
    pending = (
        PendingTrial(net, rng=rng) for net, rng in zip(networks, _rngs())
    )
    return engine.run_continuous(
        pending,
        lambda: _protocol(name),
        capacity=CAPACITY,
        watermark=1.0,
        max_rounds=MAX_ROUNDS,
    )


def _sweep(name, batch_mode="fast"):
    """An in-process three-shard sweep.  In exact mode it runs as one
    continuous stream of capacity two, so rows retire and refill."""
    return repeat_job(
        SWEEP_GRAPH,
        ProtocolSpec(name, SWEEP_PROTOCOLS[name]),
        repetitions=TRIALS,
        seed=3,
        batch_mode=batch_mode,
        shards=3,
        store=False,
        max_rounds=MAX_ROUNDS,
    )


SWEEP_CASES = {"repeat_job-fast-shards3": "fast", "repeat_job-exact-stream": "exact"}


ENGINE_CASES = (
    [("fast", name) for name in sorted(BATCH_PROTOCOL_FACTORIES)]
    + [("exact", name) for name in sorted(BATCH_PROTOCOL_FACTORIES)]
    + [
        (f"exact-{env}", name)
        for env in sorted(ENV_SPECS)
        for name in sorted(BATCH_PROTOCOL_FACTORIES)
    ]
    + [
        ("fast-record_rounds", "algorithm1"),
        ("fast-keep_arrays", "algorithm1"),
        ("fast-quiescence", "algorithm1"),
    ]
)
EXACT_CASES = [case for case in ENGINE_CASES if case[0].startswith("exact")]
WIDE_CASES = [("exact-wide", name) for name in WIDE_PROTOCOLS]


def _case_id(config, name):
    return f"{config}/{name}"


def compute_corpus():
    corpus = {
        _case_id(config, name): _digests(_run(config, name))
        for config, name in ENGINE_CASES + WIDE_CASES
    }
    for config, mode in SWEEP_CASES.items():
        for name in sorted(SWEEP_PROTOCOLS):
            corpus[_case_id(config, name)] = _digests(_sweep(name, mode))
    return corpus


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_corpus_covers_every_batch_protocol(golden):
    assert PROTOCOL_PARAMS.keys() == BATCH_PROTOCOL_FACTORIES.keys()
    expected = {_case_id(c, n) for c, n in ENGINE_CASES + WIDE_CASES} | {
        _case_id(c, n) for c in SWEEP_CASES for n in SWEEP_PROTOCOLS
    }
    assert set(golden) == expected


@pytest.mark.parametrize(
    "config,name", ENGINE_CASES, ids=[_case_id(*c) for c in ENGINE_CASES]
)
def test_run_matches_golden(golden, config, name):
    assert _digests(_run(config, name)) == golden[_case_id(config, name)]


@pytest.mark.parametrize(
    "config,name", WIDE_CASES, ids=[_case_id(*c) for c in WIDE_CASES]
)
def test_wide_batch_matches_golden(golden, config, name):
    assert _digests(_run(config, name)) == golden[_case_id(config, name)]


@pytest.mark.parametrize(
    "config,name", WIDE_CASES, ids=[_case_id(*c) for c in WIDE_CASES]
)
def test_wide_batch_continuous_matches_golden(golden, config, name):
    traces = _run_continuous(config, name)
    assert _digests(traces) == golden[_case_id(config, name)]


@pytest.mark.parametrize(
    "config,name", EXACT_CASES, ids=[_case_id(*c) for c in EXACT_CASES]
)
def test_run_continuous_matches_golden(golden, config, name):
    traces = _run_continuous(config, name)
    assert _digests(traces) == golden[_case_id(config, name)]


@pytest.mark.parametrize("name", sorted(SWEEP_PROTOCOLS))
def test_sharded_fast_sweep_matches_golden(golden, name):
    case = _case_id("repeat_job-fast-shards3", name)
    assert _digests(_sweep(name)) == golden[case]


@pytest.mark.parametrize("name", sorted(SWEEP_PROTOCOLS))
def test_exact_stream_sweep_matches_golden(golden, name):
    case = _case_id("repeat_job-exact-stream", name)
    assert _digests(_sweep(name, "exact")) == golden[case]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute_corpus(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
