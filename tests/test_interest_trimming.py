"""Interest trimming: a delivery the protocol ignores may be dropped.

A broadcast node is informed by its first successful reception, so the
engine hands the collision rule the protocol's interest set (the
still-uninformed nodes) and lets it drop every other delivery.  Contracts
pinned here:

1. **Rule level.**  Each of the rule's four scans (sparse or dense, with or
   without a filter) matches a naive per-listener recount: receivers,
   senders, per-trial counts, hear counts, collision flags and the receiver
   order the rule promises.  With a listener filter the rule delivers
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
    BatchWithCollisionDetectionModel,
)
from repro.radio.environment import build_environment
from repro.radio.network import RadioNetwork

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


def _naive_round(batch, networks, tx_flat, listener_filter):
    """The exactly-one rule recounted listener by listener.

    Returns the flat hear counts and the ``(receiver, sender)`` deliveries in
    transmitter-major edge order: transmitters ascending, each one's
    listeners in CSR order.
    """
    n = batch.n
    hears = np.zeros(batch.total_nodes, dtype=np.int64)
    edges = []
    for sender in tx_flat.tolist():
        trial, node = divmod(sender, n)
        for listener in networks[trial].out_neighbors(node).tolist():
            hears[trial * n + listener] += 1
            edges.append((trial * n + listener, sender))
    deliveries = [
        (receiver, sender)
        for receiver, sender in edges
        if hears[receiver] == 1
        and (listener_filter is None or listener_filter[receiver])
    ]
    return hears, deliveries


def _random_stack(seed, *, n=40, trials=5):
    """``trials`` random digraphs of assorted density, isolated nodes and
    sinks included, stacked into one batch."""
    rng = np.random.default_rng(seed)
    networks = []
    for _ in range(trials):
        p = rng.choice([0.0, 0.03, 0.1, 0.3])
        pairs = np.argwhere(rng.random((n, n)) < p)
        networks.append(RadioNetwork(n, pairs[pairs[:, 0] != pairs[:, 1]]))
    return NetworkBatch(networks), networks, rng


#: Each scan of the rule: ``(threshold, filtered, dense)``.  A threshold of 0
#: makes every non-empty round dense; an unreachable one leaves an
#: unfiltered round sparse only while its edges stay under an eighth of the
#: id space (:func:`_sparse_transmitters`).
_SCANS = {
    "sparse-unfiltered": (10**12, False, False),
    "sparse-filtered": (10**12, True, False),
    "dense-unfiltered": (0, False, True),
    "dense-filtered": (0, True, True),
}


def _sparse_transmitters(batch, rng):
    """Transmitters in random order, each kept while the round's gathered
    edges stay under an eighth of the id space.  The densest trial's nodes
    come first, so listeners still hear collisions."""
    degrees = np.diff(batch.out_indptr)
    densest = int(np.argmax(degrees.reshape(batch.trials, batch.n).sum(axis=1)))
    order = rng.permutation(batch.total_nodes)
    order = order[np.argsort(order // batch.n != densest, kind="stable")]
    budget = batch.total_nodes // 8 - 1
    chosen = []
    for node in order.tolist():
        if degrees[node] <= budget:
            chosen.append(node)
            budget -= int(degrees[node])
    return np.sort(np.asarray(chosen, dtype=np.int64))


class TestRuleAgainstNaiveRecount:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("scan", sorted(_SCANS))
    @pytest.mark.parametrize(
        "model_class",
        [BatchStandardCollisionModel, BatchWithCollisionDetectionModel],
        ids=["standard", "detection"],
    )
    def test_each_scan_matches_the_recount(
        self, monkeypatch, seed, scan, model_class
    ):
        threshold, filtered, dense = _SCANS[scan]
        monkeypatch.setattr(BatchCollisionModel, "_SPARSE_EDGE_THRESHOLD", threshold)
        batch, networks, rng = _random_stack(seed)
        if dense or filtered:
            tx_flat = np.flatnonzero(rng.random(batch.total_nodes) < 0.3)
        else:
            tx_flat = _sparse_transmitters(batch, rng)
        tx_mask = np.zeros((batch.trials, batch.n), dtype=bool)
        tx_mask.reshape(-1)[tx_flat] = True
        listener_filter = (
            rng.random(batch.total_nodes) < 0.6 if filtered else None
        )
        hears, deliveries = _naive_round(batch, networks, tx_flat, listener_filter)

        model = model_class()
        outcome = model.resolve(
            batch,
            tx_flat if seed % 2 else tx_mask,
            listener_filter=None if listener_filter is None else listener_filter.copy(),
        )
        # The forced scan is the one that ran (the dense scans count densely).
        assert (outcome._hear_dense is not None) == (dense and hears.sum() > 0)

        receivers = outcome.receiver_flat
        senders = outcome.sender_flat
        if dense and filtered:
            # The dense filtered scan yields sorted ids; the others keep
            # transmitter-major edge order.
            deliveries = sorted(deliveries)
        assert receivers.dtype == np.int64
        assert receivers.tolist() == [r for r, _ in deliveries]
        assert senders.tolist() == [s for _, s in deliveries]
        for receiver, sender in zip(receivers.tolist(), senders.tolist()):
            trial, node = divmod(sender, batch.n)
            assert receiver // batch.n == trial
            assert tx_mask[trial, node]
            assert networks[trial].has_edge(node, receiver - trial * batch.n)
        assert np.array_equal(
            outcome.receiver_counts,
            np.bincount(receivers // batch.n, minlength=batch.trials),
        )
        assert np.array_equal(outcome.hear_counts, hears.reshape(batch.trials, batch.n))
        assert np.array_equal(
            outcome.collision_flags,
            hears.reshape(batch.trials, batch.n) >= 2
            if model.detects_collisions
            else np.zeros((batch.trials, batch.n), dtype=bool),
        )

    @pytest.mark.parametrize("scan", sorted(_SCANS))
    @pytest.mark.parametrize("silent", ["nobody", "sinks"])
    def test_rounds_without_edges(self, monkeypatch, scan, silent):
        threshold, filtered, _ = _SCANS[scan]
        monkeypatch.setattr(BatchCollisionModel, "_SPARSE_EDGE_THRESHOLD", threshold)
        batch, _, _ = _random_stack(3, trials=3)
        if silent == "nobody":
            tx_flat = np.empty(0, dtype=np.int64)
        else:
            # Transmitters without out-edges gather no edge either.
            degrees = np.diff(batch.out_indptr)
            tx_flat = np.flatnonzero(degrees == 0)[:4].astype(np.int64)
            assert tx_flat.size
        listener_filter = np.ones(batch.total_nodes, dtype=bool) if filtered else None
        outcome = BatchWithCollisionDetectionModel().resolve(
            batch, tx_flat, listener_filter=listener_filter
        )
        assert outcome.receiver_flat.size == 0
        assert outcome.sender_flat.size == 0
        assert np.array_equal(outcome.receiver_counts, np.zeros(batch.trials))
        assert not outcome.hear_counts.any()
        assert not outcome.collision_flags.any()


class TestRuleWithFilter:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "tx_fraction, sparse", [(0.02, True), (0.06, True), (0.5, False)]
    )
    def test_filtered_outcome_is_the_unfiltered_one_restricted(
        self, seed, tx_fraction, sparse
    ):
        batch, tx_flat, interest = _stacked_case(seed, tx_fraction)
        model = BatchStandardCollisionModel()
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
        model = BatchStandardCollisionModel()
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
