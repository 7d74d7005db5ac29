"""Golden engine traces: SHA-256 digests of every batched protocol's results.

Pairwise equivalence tests (``run`` vs ``run_continuous``) pass when a
shared helper moves both sides at once.  This corpus does not depend on two
code paths staying in sync: it pins the
canonical :meth:`~repro.radio.trace.RunResultTrace.to_payload` of each trial
for every entry of ``PROTOCOL_FACTORIES`` under

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
  as one continuous stream that retires and refills rows;
* the single-run entry points (``SimulationEngine``, ``execute_job``,
  ``run_protocol``), each against the batch engine with one generator per
  trial (``oracle-*`` cases, recorded while the single-run API still had
  its own round loop and protocol classes): engine runs with the erasure
  and collision-detection models, flooding caps, ``record_rounds`` and
  ``keep_arrays``; exact ``repeat_job`` sweeps (every registry case, two
  environments, ``processes=2``) against ``execute_job`` per job; and
  every registry protocol through ``run_protocol``.

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

from repro.experiments.protocols import (
    PROTOCOL_FACTORIES,
    ProtocolSpec,
    build_protocol,
)
from repro.experiments.runner import build_repetition_plan, execute_job, repeat_job
from repro.graphs.builders import GraphSpec
from repro.graphs.random_digraph import (
    connectivity_threshold_probability,
    random_digraph,
)
from repro.radio.batch import BatchEngine, PendingTrial
from repro.radio.collision import (
    ErasureCollisionModel,
    WithCollisionDetectionModel,
)
from repro.radio.engine import SimulationEngine, run_protocol
from repro.radio.environment import build_environment
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
    return PROTOCOL_FACTORIES[name](**PROTOCOL_PARAMS[name])


def _engine(env=None, **options):
    environment = build_environment(ENV_SPECS[env]) if env else None
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
    [("fast", name) for name in sorted(PROTOCOL_FACTORIES)]
    + [("exact", name) for name in sorted(PROTOCOL_FACTORIES)]
    + [
        (f"exact-{env}", name)
        for env in sorted(ENV_SPECS)
        for name in sorted(PROTOCOL_FACTORIES)
    ]
    + [
        ("fast-record_rounds", "algorithm1"),
        ("fast-keep_arrays", "algorithm1"),
        ("fast-quiescence", "algorithm1"),
    ]
)
EXACT_CASES = [case for case in ENGINE_CASES if case[0].startswith("exact")]
WIDE_CASES = [("exact-wide", name) for name in WIDE_PROTOCOLS]


# --------------------------------------------------------------------- #
# Single-run entry points against the batch engine ("oracle-*" cases)
# --------------------------------------------------------------------- #
def _gnp_batch():
    """Eight distinct G(192, p) samples at four times the threshold."""
    n = 192
    p = connectivity_threshold_probability(n, delta=4.0)
    return [random_digraph(n, p, rng=300 + t) for t in range(8)], p


def _gossip_batch():
    return [random_digraph(40, 0.25, rng=400 + t) for t in range(4)], 0.25


#: Engine-level cases: ``(inputs, protocol spec from p, seeds, collision
#: model factory, engine options, also as a continuous stream)``.
ORACLE_RUNS = {
    "algorithm1-quiescence-arrays": (
        _gnp_batch, lambda p: ProtocolSpec("algorithm1", {"p": p}),
        range(50, 58), None,
        {"run_to_quiescence": True, "keep_arrays": True}, False,
    ),
    "uniform_gossip": (
        _gossip_batch, lambda p: ProtocolSpec("uniform_gossip", {}),
        range(90, 94), None, {}, False,
    ),
    "erasure-algorithm1-quiescence": (
        _gnp_batch, lambda p: ProtocolSpec("algorithm1", {"p": p}),
        range(60, 68), lambda: ErasureCollisionModel(0.25),
        {"run_to_quiescence": True}, True,
    ),
    "erasure-decay": (
        _gnp_batch, lambda p: ProtocolSpec("decay", {}),
        range(60, 68), lambda: ErasureCollisionModel(0.25), {}, True,
    ),
    "collision_detection-algorithm1": (
        _gnp_batch, lambda p: ProtocolSpec("algorithm1", {"p": p}),
        range(100, 108), WithCollisionDetectionModel, {}, True,
    ),
    "collision_detection-uniform_gossip": (
        _gossip_batch, lambda p: ProtocolSpec("uniform_gossip", {}),
        range(100, 104), WithCollisionDetectionModel, {}, True,
    ),
    "bernoulli_flood": (
        _gnp_batch, lambda p: ProtocolSpec("bernoulli_flood", {"q": 0.05}),
        range(70, 78), None, {}, False,
    ),
    "deterministic_flood-cap6": (
        _gnp_batch,
        lambda p: ProtocolSpec(
            "deterministic_flood", {"max_transmissions_per_node": 6}
        ),
        range(70, 78), None, {}, False,
    ),
    "algorithm1-record_rounds": (
        lambda: (_gnp_batch()[0][:4], _gnp_batch()[1]),
        lambda p: ProtocolSpec("algorithm1", {"p": p}),
        range(80, 84), None, {"record_rounds": True}, False,
    ),
}


def _oracle_run(case, *, single_run=False, continuous=False):
    inputs, spec_for, seeds, model, options, _ = ORACLE_RUNS[case]
    networks, p = inputs()
    spec = spec_for(p)

    def engine(cls):
        return cls(model() if model else None, **options)

    if single_run:
        return [
            engine(SimulationEngine).run(
                net, build_protocol(spec), rng=np.random.default_rng(seed)
            )
            for net, seed in zip(networks, seeds)
        ]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if continuous:
        return engine(BatchEngine).run_continuous(
            (PendingTrial(net, rng=rng) for net, rng in zip(networks, rngs)),
            lambda: build_protocol(spec),
            capacity=3,
            watermark=1.0,
        )
    return engine(BatchEngine).run(networks, build_protocol(spec), rngs=rngs)


_REGISTRY_GRAPH = {"n": 64, "p": 0.18}
#: Exact ``repeat_job`` sweeps: ``(graph params, protocol, params, options)``.
ORACLE_SWEEPS = {
    "algorithm1-quiescence": (
        {"n": 128, "p": 0.08}, "algorithm1", {"p": 0.08},
        {"repetitions": 6, "seed": 11, "run_to_quiescence": True},
    ),
    "algorithm1-processes2": (
        {"n": 96, "p": 0.1}, "algorithm1", {"p": 0.1},
        {"repetitions": 6, "seed": 3, "processes": 2,
         "run_to_quiescence": True},
    ),
    "decay-iid_loss": (
        {"n": 48, "p": 0.25}, "decay", {},
        {"repetitions": 4, "seed": 23,
         "environment": {"name": "iid_loss", "params": {"rx_loss": 0.15}}},
    ),
    "decay-churn": (
        {"n": 48, "p": 0.25}, "decay", {},
        {"repetitions": 4, "seed": 23, "environment": {
            "name": "churn",
            "params": {"events": [{"round": 4, "crash_fraction": 0.2}]},
        }},
    ),
    "registry-algorithm2": ({"n": 48, "p": 0.2}, "algorithm2", {"p": 0.2}, {}),
    "registry-algorithm3": (_REGISTRY_GRAPH, "algorithm3", {"diameter": 3}, {}),
    "registry-algorithm3-q": (
        _REGISTRY_GRAPH, "algorithm3", {"diameter": 3},
        {"run_to_quiescence": True},
    ),
    "registry-tradeoff": (
        _REGISTRY_GRAPH, "tradeoff", {"diameter": 3, "lam": 4.0}, {}
    ),
    "registry-decay": (_REGISTRY_GRAPH, "decay", {}, {}),
    "registry-decay-q-capped": (
        _REGISTRY_GRAPH, "decay", {"max_phases_active": 3},
        {"run_to_quiescence": True},
    ),
    "registry-time_invariant": (
        _REGISTRY_GRAPH, "time_invariant",
        {"distribution": {"kind": "fixed", "q": 0.06}}, {},
    ),
    "registry-time_invariant-q-capped": (
        _REGISTRY_GRAPH, "time_invariant",
        {"distribution": {"kind": "alpha", "n": 64, "diameter": 3},
         "active_window": 60},
        {"run_to_quiescence": True},
    ),
    "registry-czumaj_rytter_known_d": (
        _REGISTRY_GRAPH, "czumaj_rytter_known_d", {"diameter": 3}, {}
    ),
    "registry-uniform_selection": (
        _REGISTRY_GRAPH, "uniform_selection", {"diameter": 3}, {}
    ),
    "registry-elsasser_gasieniec-q": (
        _REGISTRY_GRAPH, "elsasser_gasieniec", {"p": 0.18},
        {"run_to_quiescence": True},
    ),
    "registry-sequential_gossip": (
        {"n": 24, "p": 0.3}, "sequential_gossip", {}, {}
    ),
}


def _oracle_sweep(case, *, single_run=False):
    graph_params, name, params, options = ORACLE_SWEEPS[case]
    options = {"repetitions": 4, "seed": 17, **options}
    graph = GraphSpec("gnp", graph_params)
    protocol = ProtocolSpec(name, params)
    if single_run:
        options.pop("processes", None)
        plan = build_repetition_plan(graph, protocol, **options)
        return [execute_job(job) for job in plan.jobs]
    return repeat_job(graph, protocol, batch_mode="exact", store=False, **options)


#: ``run_protocol`` on one G(64, 0.15) sample, run to quiescence with the
#: per-node arrays kept, for every registry protocol.
FACADE_SEEDS = (31, 32, 33)


def _facade_run(name, *, single_run=False):
    network = _shared_network()
    spec = ProtocolSpec(name, PROTOCOL_PARAMS[name])
    options = {"run_to_quiescence": True, "keep_arrays": True,
               "max_rounds": MAX_ROUNDS}
    if single_run:
        return [
            run_protocol(network, build_protocol(spec), rng=seed, **options)
            for seed in FACADE_SEEDS
        ]
    max_rounds = options.pop("max_rounds")
    return BatchEngine(**options).run(
        network, build_protocol(spec), trials=len(FACADE_SEEDS),
        rngs=list(FACADE_SEEDS), max_rounds=max_rounds,
    )


ORACLE_RUN_IDS = [f"oracle-run/{case}" for case in ORACLE_RUNS]
ORACLE_CONTINUOUS = [case for case, spec in ORACLE_RUNS.items() if spec[-1]]
ORACLE_SWEEP_IDS = [f"oracle-sweep/{case}" for case in ORACLE_SWEEPS]
FACADE_IDS = [f"oracle-run_protocol/{name}" for name in sorted(PROTOCOL_PARAMS)]


def _oracle(case_id, **kwargs):
    kind, case = case_id.split("/", 1)
    if kind == "oracle-run":
        return _oracle_run(case, **kwargs)
    if kind == "oracle-sweep":
        return _oracle_sweep(case, **kwargs)
    return _facade_run(case, **kwargs)


ORACLE_IDS = ORACLE_RUN_IDS + ORACLE_SWEEP_IDS + FACADE_IDS


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
    for case_id in ORACLE_IDS:
        corpus[case_id] = _digests(_oracle(case_id))
    return corpus


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_corpus_covers_every_batch_protocol(golden):
    assert PROTOCOL_PARAMS.keys() == PROTOCOL_FACTORIES.keys()
    expected = {_case_id(c, n) for c, n in ENGINE_CASES + WIDE_CASES} | {
        _case_id(c, n) for c in SWEEP_CASES for n in SWEEP_PROTOCOLS
    } | set(ORACLE_IDS)
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


@pytest.mark.parametrize("case_id", ORACLE_IDS)
def test_oracle_batch_matches_golden(golden, case_id):
    assert _digests(_oracle(case_id)) == golden[case_id]


@pytest.mark.parametrize("case_id", ORACLE_IDS)
def test_oracle_single_run_matches_golden(golden, case_id):
    """``SimulationEngine.run``, ``execute_job`` and ``run_protocol``."""
    assert _digests(_oracle(case_id, single_run=True)) == golden[case_id]


@pytest.mark.parametrize("case", ORACLE_CONTINUOUS)
def test_oracle_continuous_matches_golden(golden, case):
    traces = _oracle_run(case, continuous=True)
    assert _digests(traces) == golden[f"oracle-run/{case}"]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute_corpus(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
