"""Interest trimming: a delivery the protocol ignores may be dropped.

A broadcast node is informed by its first successful reception, so the
engine hands the collision rule the protocol's interest set (the
still-uninformed nodes) and lets it drop every other delivery.  Contracts
pinned here:

1. **Rule level.**  With a listener filter the exactly-one rule delivers
   exactly the unfiltered delivery set intersected with the filter, on both
   sides of the sparse/dense edge threshold.  The sparse branch keeps the
   unfiltered edge order, each kept receiver pairs with the same sender as
   in the unfiltered outcome, and hear counts still count every edge.
2. **Engine level.**  For every batched broadcast protocol, exact-mode
   traces through :meth:`BatchEngine.run` and through
   :meth:`BatchEngine.run_continuous` with refills equal the traces of a
   model that declares per-delivery draws, which the engine never trims.
3. **Where the filter goes.**  A spy model counts the resolve calls that
   receive a filter: every call for the standard model in exact mode, none
   for a model that draws per delivery, under an environment, with
   ``record_rounds`` or for gossip.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.protocols import PROTOCOL_FACTORIES
from repro.graphs.random_digraph import random_digraph
from repro.radio.batch import (
    BatchBroadcastProtocol,
    BatchEngine,
    NetworkBatch,
    PendingTrial,
)
from repro.radio.collision import (
    BatchCollisionModel,
    BatchErasureCollisionModel,
    BatchStandardCollisionModel,
)
from repro.radio.environment import build_environment

_THRESHOLD = BatchCollisionModel._SPARSE_EDGE_THRESHOLD


class _PerDeliveryDrawsModel(BatchStandardCollisionModel):
    """The standard rule, declared as if it drew per delivered edge.

    A test double: the engine must not trim its outcomes, so its traces are
    the untrimmed reference the trimmed standard model is held to.
    """

    draws_per_delivery = True


# --------------------------------------------------------------------------- #
# Rule level
# --------------------------------------------------------------------------- #
def _numpy_model():
    model = BatchStandardCollisionModel()
    model.kernel = "numpy"
    return model


def _stacked_case(seed, tx_fraction, *, n=400, p=0.02, trials=6):
    rng = np.random.default_rng(seed)
    batch = NetworkBatch(
        [random_digraph(n, p, rng=7000 + 10 * seed + t) for t in range(trials)]
    )
    tx_flat = np.flatnonzero(rng.random(batch.total_nodes) < tx_fraction)
    interest = rng.random(batch.total_nodes) < 0.5
    return batch, tx_flat, interest


def _pairs(outcome):
    return dict(zip(outcome.receiver_flat.tolist(), outcome.sender_flat.tolist()))


class TestRuleWithFilter:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "tx_fraction, sparse", [(0.02, True), (0.06, True), (0.5, False)]
    )
    def test_filtered_outcome_is_the_unfiltered_one_restricted(
        self, seed, tx_fraction, sparse
    ):
        batch, tx_flat, interest = _stacked_case(seed, tx_fraction)
        model = _numpy_model()
        full = model._batch_exactly_one_rule(batch, tx_flat)
        trimmed = model._batch_exactly_one_rule(
            batch, tx_flat, listener_filter=interest.copy()
        )
        edges = int(full.hear_counts.sum())
        assert (edges < _THRESHOLD) == sparse
        assert full.receiver_flat.size > 0

        expected = full.receiver_flat[interest[full.receiver_flat]]
        if sparse:
            # The sparse branch keeps the unfiltered (edge) order.
            assert np.array_equal(trimmed.receiver_flat, expected)
        else:
            assert np.array_equal(np.sort(trimmed.receiver_flat), np.sort(expected))
        assert trimmed.receiver_flat.dtype == full.receiver_flat.dtype
        assert np.array_equal(
            trimmed.receiver_counts,
            np.bincount(expected // batch.n, minlength=batch.trials),
        )
        # Each kept receiver is paired with its unfiltered sender.
        assert trimmed.sender_flat.size == trimmed.receiver_flat.size
        full_pairs = _pairs(full)
        assert _pairs(trimmed) == {r: full_pairs[r] for r in expected.tolist()}
        # Counting uses every transmission, filter or not.
        assert np.array_equal(trimmed.hear_counts, full.hear_counts)
        assert np.array_equal(trimmed.collision_flags, full.collision_flags)

    @pytest.mark.parametrize("tx_fraction", [0.02, 0.5])
    def test_all_and_no_interest(self, tx_fraction):
        batch, tx_flat, _ = _stacked_case(11, tx_fraction)
        model = _numpy_model()
        full = model._batch_exactly_one_rule(batch, tx_flat)
        everyone = model._batch_exactly_one_rule(
            batch, tx_flat, listener_filter=np.ones(batch.total_nodes, dtype=bool)
        )
        nobody = model._batch_exactly_one_rule(
            batch, tx_flat, listener_filter=np.zeros(batch.total_nodes, dtype=bool)
        )
        assert _pairs(everyone) == _pairs(full)
        assert nobody.receiver_flat.size == 0
        assert nobody.sender_flat.size == 0
        assert np.array_equal(nobody.hear_counts, full.hear_counts)


# --------------------------------------------------------------------------- #
# Engine level
# --------------------------------------------------------------------------- #
BROADCAST_PARAMS = {
    "algorithm1": {"p": 0.06},
    "algorithm3": {"diameter": 4},
    "tradeoff": {"diameter": 4, "lam": 3.0},
    "time_invariant": {"distribution": 0.08},
    "decay": {},
    "elsasser_gasieniec": {"p": 0.06},
    "czumaj_rytter_known_d": {"diameter": 4},
    "uniform_selection": {"diameter": 4},
    "deterministic_flood": {},
    "bernoulli_flood": {"q": 0.1},
}

#: The gossip protocols return no interest set; listed only to instantiate.
GOSSIP_PARAMS = {"algorithm2": {"p": 0.1}, "uniform_gossip": {}, "sequential_gossip": {}}

TRIALS = 8
#: Below TRIALS, so the continuous run retires, compacts and refills, and
#: rounds with several cohorts concatenate their interest sets.
CAPACITY = 5
MAX_ROUNDS = 400


def _is_broadcast(name):
    params = {**BROADCAST_PARAMS, **GOSSIP_PARAMS}[name]
    return isinstance(PROTOCOL_FACTORIES[name](**params), BatchBroadcastProtocol)


@pytest.fixture(scope="module")
def networks():
    # Sized so full rounds gather more than the sparse threshold of edges
    # and late rounds fewer: both branches of the rule see a filter.
    return [random_digraph(200, 0.06, rng=900 + t) for t in range(TRIALS)]


def _rngs():
    return [np.random.default_rng(4200 + t) for t in range(TRIALS)]


def _run(model, networks, name):
    factory = PROTOCOL_FACTORIES[name]
    engine = BatchEngine(model, keep_arrays=True)
    return engine.run(
        networks, factory(**BROADCAST_PARAMS[name]), rngs=_rngs(), max_rounds=MAX_ROUNDS
    )


def _run_continuous(model, networks, name):
    factory = PROTOCOL_FACTORIES[name]
    cohorts = {"built": 0}

    def make_protocol():
        cohorts["built"] += 1
        return factory(**BROADCAST_PARAMS[name])

    traces = BatchEngine(model, keep_arrays=True).run_continuous(
        (
            PendingTrial(net, rng=rng, tag=t)
            for t, (net, rng) in enumerate(zip(networks, _rngs()))
        ),
        make_protocol,
        capacity=CAPACITY,
        watermark=1.0,
        max_rounds=MAX_ROUNDS,
    )
    assert cohorts["built"] > 1
    return traces


def _assert_same(reference, trimmed):
    assert len(reference) == len(trimmed)
    for a, b in zip(reference, trimmed):
        assert a.completed == b.completed
        assert a.completion_round == b.completion_round
        assert a.rounds_executed == b.rounds_executed
        assert a.energy == b.energy
        assert a.informed_count == b.informed_count
        assert a.metadata == b.metadata
        assert np.array_equal(a.per_node_transmissions, b.per_node_transmissions)
        assert np.array_equal(a.informed_round, b.informed_round)


class TestEngineTrimmingIsInvisible:
    def test_every_broadcast_protocol_is_covered(self):
        assert {**BROADCAST_PARAMS, **GOSSIP_PARAMS}.keys() == PROTOCOL_FACTORIES.keys()
        assert {n for n in PROTOCOL_FACTORIES if _is_broadcast(n)} == set(
            BROADCAST_PARAMS
        )

    @pytest.mark.parametrize("name", sorted(BROADCAST_PARAMS))
    def test_run(self, networks, name):
        reference = _run(_PerDeliveryDrawsModel(), networks, name)
        trimmed = _run(BatchStandardCollisionModel(), networks, name)
        _assert_same(reference, trimmed)

    @pytest.mark.parametrize("name", sorted(BROADCAST_PARAMS))
    def test_run_continuous(self, networks, name):
        reference = _run_continuous(_PerDeliveryDrawsModel(), networks, name)
        trimmed = _run_continuous(BatchStandardCollisionModel(), networks, name)
        _assert_same(reference, trimmed)
        # Continuous traces equal the single wave's, trimmed or not.
        _assert_same(_run(BatchStandardCollisionModel(), networks, name), trimmed)


# --------------------------------------------------------------------------- #
# Work counters: which resolve calls receive a filter
# --------------------------------------------------------------------------- #
class _SpyMixin:
    """Counts resolve calls, and those that receive a listener filter."""

    calls = 0
    filtered = 0

    def resolve(self, batch, transmitters, rng_source=None, listener_filter=None):
        self.calls += 1
        self.filtered += listener_filter is not None
        return super().resolve(batch, transmitters, rng_source, listener_filter)


class _SpyStandard(_SpyMixin, BatchStandardCollisionModel):
    pass


class _SpyErasure(_SpyMixin, BatchErasureCollisionModel):
    pass


_LOSS = {"name": "iid_loss", "params": {"tx_loss": 0.1, "rx_loss": 0.15}}


def _spy_run(model, networks, name="decay", params=None, **engine_options):
    params = BROADCAST_PARAMS[name] if params is None else params
    BatchEngine(model, **engine_options).run(
        networks,
        PROTOCOL_FACTORIES[name](**params),
        rngs=_rngs(),
        max_rounds=MAX_ROUNDS,
    )
    assert model.calls > 0
    return model.filtered, model.calls


class TestFilterWorkCounters:
    @pytest.mark.parametrize("name", ["algorithm1", "decay", "deterministic_flood"])
    def test_standard_model_filters_every_exact_round(self, networks, name):
        filtered, calls = _spy_run(_SpyStandard(), networks, name)
        assert filtered == calls

    def test_standard_model_filters_every_continuous_round(self, networks):
        model = _SpyStandard()
        _run_continuous(model, networks, "decay")
        assert model.calls > 0
        assert model.filtered == model.calls

    def test_per_delivery_draws_get_no_filter_in_exact_mode(self, networks):
        filtered, _ = _spy_run(_SpyErasure(0.2), networks)
        assert filtered == 0

    def test_per_delivery_draws_get_the_filter_in_fast_mode(self, networks):
        model = _SpyErasure(0.2)
        BatchEngine(model).run(
            networks, PROTOCOL_FACTORIES["decay"](), rng=3, max_rounds=MAX_ROUNDS
        )
        assert model.calls > 0
        assert model.filtered == model.calls

    def test_environment_gets_no_filter(self, networks):
        model = _SpyStandard()
        filtered, _ = _spy_run(
            model, networks, environment=build_environment(_LOSS)
        )
        assert filtered == 0

    def test_record_rounds_gets_no_filter(self, networks):
        filtered, _ = _spy_run(_SpyStandard(), networks, record_rounds=True)
        assert filtered == 0

    def test_gossip_declares_no_interest(self):
        small = [random_digraph(32, 0.2, rng=60 + t) for t in range(TRIALS)]
        filtered, _ = _spy_run(
            _SpyStandard(), small, "uniform_gossip", params=GOSSIP_PARAMS["uniform_gossip"]
        )
        assert filtered == 0
