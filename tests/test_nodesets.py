"""The node-set state layer (`repro.radio.nodesets`).

Two groups of guarantees:

1. **Unit contracts** of the four state classes — membership sets, gossip
   knowledge, Decay quota frontiers and flooding budget frontiers — each
   also held to a plain-Python model under randomised operation sequences,
   at a single-trial single-node shape, at the ``R = 1`` shape the serial
   protocols use and at a multi-trial shape.
2. **Row independence** — one state row per trial: for *every* protocol in
   ``PROTOCOL_FACTORIES``, an exact-mode trial's trace does not depend
   on which other trials share its batch or on its row.  Each trial run
   alone, the batch reversed and every trial run twice side by side all
   give the batch's bits, and the batch gives the exact sweep's (the case
   table is pinned to the registry so a new protocol cannot dodge the
   property).

Compaction repacks are pinned in ``tests/test_compaction.py``; whole-engine
behaviour, including a wide exact-mode Decay and flooding batch, in the
golden corpus (``tests/test_golden.py``).
"""

import copy

import numpy as np
import pytest

import repro.experiments.runner as runner_module
from repro.experiments.protocols import (
    PROTOCOL_FACTORIES,
    ProtocolSpec,
    build_protocol,
)
from repro.experiments.runner import build_repetition_plan, repeat_job
from repro.graphs.builders import GraphSpec
from repro.radio.nodesets import (
    BudgetFrontier,
    KnowledgeState,
    NodeSetState,
    QuotaFrontier,
)

#: ``(trials, n)`` shapes for the model-based tests: one trial of one node,
#: the serial protocols' single trial, and several trials at once.
SHAPES = [(1, 1), (1, 40), (4, 37)]
SHAPE_IDS = [f"R{trials}-n{n}" for trials, n in SHAPES]


class TestNodeSetState:
    def test_add_returns_new_members_in_input_order(self):
        state = NodeSetState(1, 10)
        state.add_flat(np.array([4]))
        newly = state.add_flat(np.array([7, 4, 2]))
        assert list(newly) == [7, 2]

    def test_same_word_adds_all_land(self):
        """Several new members of one trial added in one call all land."""
        state = NodeSetState(1, 64)
        newly = state.add_flat(np.array([3, 5, 17, 63]))
        assert newly.size == 4
        assert state.counts()[0] == 4
        assert sorted(np.flatnonzero(state.mask()[0])) == [3, 5, 17, 63]

    def test_incremental_counts_match_full_rescan(self):
        # Counts and the complement are kept from add deltas; pin them
        # against a from-scratch scan of the mask.
        trials, n = 3, 150
        rng = np.random.default_rng(4)
        state = NodeSetState(trials, n)
        for _ in range(20):
            # Unique ids in shuffled order, as a round's receivers arrive.
            ids = np.unique(rng.integers(0, trials * n, size=rng.integers(0, 12)))
            state.add_flat(ids[rng.permutation(ids.size)])
            assert np.array_equal(state.counts(), state.mask().sum(axis=1))
            assert np.array_equal(
                state.complement_flat(), ~state.mask().reshape(-1)
            )

    @pytest.mark.parametrize("trials,n", SHAPES, ids=SHAPE_IDS)
    def test_matches_python_sets_under_random_adds(self, trials, n):
        rng = np.random.default_rng(trials * 1000 + n)
        state = NodeSetState(trials, n)
        members = set()
        for _ in range(25):
            ids = np.unique(rng.integers(0, trials * n, size=rng.integers(0, 8)))
            ids = ids[rng.permutation(ids.size)]
            expected = [int(i) for i in ids if int(i) not in members]
            members.update(expected)
            assert state.add_flat(ids).tolist() == expected
            mask = np.zeros(trials * n, dtype=bool)
            mask[sorted(members)] = True
            assert np.array_equal(state.mask().reshape(-1), mask)
            assert np.array_equal(state.complement_flat(), ~mask)
            assert state.counts().tolist() == [
                sum(1 for m in members if m // n == t) for t in range(trials)
            ]


class TestKnowledgeState:
    def test_complete_after_full_merge(self):
        n = 65
        state = KnowledgeState(1, n)
        # Chain: node 0 learns everything by merging every row into row 0,
        # then every node merges row 0.
        for v in range(1, n):
            state.merge_flat(np.array([v]), np.array([0]))
        assert not state.complete()[0]
        for v in range(1, n):
            state.merge_flat(np.array([0]), np.array([v]))
        assert state.complete()[0]
        assert state.min_counts()[0] == n

    def test_single_node_trials_start_complete(self):
        state = KnowledgeState(4, 1)
        assert state.complete().all()
        assert np.array_equal(state.min_counts(), np.ones(4, dtype=np.int64))

    @pytest.mark.parametrize("trials,n", SHAPES, ids=SHAPE_IDS)
    def test_matches_python_sets_under_random_merges(self, trials, n):
        rng = np.random.default_rng(trials * 1000 + n + 1)
        state = KnowledgeState(trials, n)
        # known[t][v]: the rumours node v of trial t knows.
        known = [[{v} for v in range(n)] for _ in range(trials)]
        for _ in range(25):
            k = int(rng.integers(1, min(8, trials * n) + 1))
            receivers = rng.choice(trials * n, size=k, replace=False)
            # Sender and receiver share a trial, as in the engine.
            senders = (receivers // n) * n + rng.integers(0, n, size=k)
            # Receivers merge their senders' round-start rumour sets.
            payloads = [set(known[s // n][s % n]) for s in senders]
            for r, payload in zip(receivers, payloads):
                known[r // n][r % n] |= payload
            state.merge_flat(senders, receivers)
            dense = np.zeros((trials, n, n), dtype=bool)
            for t in range(trials):
                for v in range(n):
                    dense[t, v, sorted(known[t][v])] = True
            assert np.array_equal(state.as_dense(), dense)
            assert np.array_equal(state.per_node_counts(), dense.sum(axis=2))
            assert np.array_equal(state.min_counts(), dense.sum(axis=2).min(axis=1))
            assert np.array_equal(state.complete(), dense.all(axis=(1, 2)))
            rumour = int(rng.integers(0, n))
            assert np.array_equal(state.column(rumour), dense[:, :, rumour])


class TestQuotaFrontier:
    def test_transmitters_hold_quota_above_within_in_running_trials(self):
        state = QuotaFrontier(2, 4)
        participating = np.array([[True, False, True, True], [False, True, True, False]])
        state.begin_phase(participating, np.array([1, 3, 2, 2, 1]))
        both = np.ones(2, dtype=bool)
        assert list(state.transmitters(0, both)) == [0, 2, 3, 5, 6]
        assert list(state.transmitters(1, both)) == [2, 3, 5]
        assert list(state.transmitters(1, np.array([False, True]))) == [5]
        assert list(state.transmitters(3, both)) == []

    @pytest.mark.parametrize("trials,n", SHAPES, ids=SHAPE_IDS)
    def test_matches_python_model_over_random_phases(self, trials, n):
        rng = np.random.default_rng(trials * 1000 + n + 2)
        state = QuotaFrontier(trials, n)
        for _ in range(5):
            participating = rng.random((trials, n)) < 0.5
            # One quota per participant, in trial-major ascending id order.
            ids = np.flatnonzero(participating.reshape(-1))
            values = rng.integers(1, 8, size=ids.size)
            quota = dict(zip(ids.tolist(), values.tolist()))
            state.begin_phase(participating, values)
            for within in range(8):
                running = rng.random(trials) < 0.7
                expected = sorted(
                    i for i, q in quota.items() if q > within and running[i // n]
                )
                assert state.transmitters(within, running).tolist() == expected


class TestBudgetFrontier:
    def test_budget_eviction_caps_transmissions(self):
        state = BudgetFrontier(1, 5)
        state.admit(np.array([2]), 2)
        running = np.ones(1, dtype=bool)
        assert list(state.transmitters(running)) == [2]
        assert list(state.transmitters(running)) == [2]
        assert list(state.transmitters(running)) == []
        assert state.counts()[0] == 0

    @pytest.mark.parametrize("trials,n", SHAPES, ids=SHAPE_IDS)
    def test_matches_python_model_under_random_admits(self, trials, n):
        rng = np.random.default_rng(trials * 1000 + n + 3)
        state = BudgetFrontier(trials, n)
        remaining = {}
        for _ in range(15):
            fresh = sorted(
                {int(i) for i in rng.integers(0, trials * n, size=3)} - remaining.keys()
            )
            budget = int(rng.integers(1, 4))
            remaining.update((i, budget) for i in fresh)
            state.admit(np.array(fresh, dtype=np.int64), budget)
            running = rng.random(trials) < 0.7
            expected = sorted(
                i for i, b in remaining.items() if b > 0 and running[i // n]
            )
            for i in expected:
                remaining[i] -= 1
            assert state.transmitters(running).tolist() == expected
            assert state.counts().tolist() == [
                sum(1 for i, b in remaining.items() if b > 0 and i // n == t)
                for t in range(trials)
            ]


# --------------------------------------------------------------------------- #
# Row independence, whole registry
# --------------------------------------------------------------------------- #
def _assert_traces_identical(reference, other):
    assert len(reference) == len(other)
    for a, b in zip(reference, other):
        assert a.protocol_name == b.protocol_name
        assert a.completed == b.completed
        assert a.completion_round == b.completion_round
        assert a.rounds_executed == b.rounds_executed
        assert a.energy == b.energy
        assert a.informed_count == b.informed_count


class TestRowIndependence:
    """An exact-mode trial's trace is independent of its batch and its row.

    Exact rng mode fixes the randomness per trial, so any dependence on the
    other rows of the batch is a state-layer bug: a count, mask or frontier
    update that leaks across trial rows, or one that depends on a trial's
    row index.  The case table is pinned against ``PROTOCOL_FACTORIES``
    — adding a protocol without adding a case here fails the pin test.
    """

    _CASES = {
        "algorithm1": ({"p": 0.18}, {"n": 64, "p": 0.18}, {"run_to_quiescence": True}),
        "algorithm2": ({"p": 0.2}, {"n": 48, "p": 0.2}, {}),
        "algorithm3": ({"diameter": 3}, {"n": 64, "p": 0.18}, {}),
        "tradeoff": ({"diameter": 3, "lam": 4.0}, {"n": 64, "p": 0.18}, {}),
        "time_invariant": (
            {"distribution": {"kind": "fixed", "q": 0.06}},
            {"n": 64, "p": 0.18},
            {},
        ),
        "decay": (
            {"max_phases_active": 3},
            {"n": 64, "p": 0.18},
            {"run_to_quiescence": True},
        ),
        "elsasser_gasieniec": (
            {"p": 0.18},
            {"n": 64, "p": 0.18},
            {"run_to_quiescence": True},
        ),
        "czumaj_rytter_known_d": ({"diameter": 3}, {"n": 64, "p": 0.18}, {}),
        "uniform_selection": ({"diameter": 3}, {"n": 64, "p": 0.18}, {}),
        "deterministic_flood": (
            {"max_transmissions_per_node": 6},
            {"n": 64, "p": 0.18},
            {},
        ),
        "bernoulli_flood": ({"q": 0.05}, {"n": 64, "p": 0.18}, {}),
        "uniform_gossip": ({}, {"n": 32, "p": 0.25}, {}),
        "sequential_gossip": ({}, {"n": 24, "p": 0.3}, {}),
    }
    REPETITIONS = 3

    def _sweep_args(self, name):
        params, graph_params, options = self._CASES[name]
        return (
            GraphSpec("gnp", graph_params),
            ProtocolSpec(name, params),
            dict(repetitions=self.REPETITIONS, seed=23, **options),
        )

    def _run_rows(self, name, rows):
        """Run the sweep's trials ``rows`` (indices, repeats allowed) as one
        batch on the sweep's own engine, each row with a fresh copy of its
        trial's network and protocol stream."""
        graph, protocol, common = self._sweep_args(name)
        plan = build_repetition_plan(graph, protocol, batch_mode="exact", **common)
        inputs = list(runner_module._trial_inputs(plan.jobs, plan.shared_topology()))
        job = plan.jobs[0]
        return runner_module._batch_engine_for(job).run(
            [inputs[t][0] for t in rows],
            build_protocol(protocol),
            rngs=[copy.deepcopy(inputs[t][1]) for t in rows],
            max_rounds=job.max_rounds,
        )

    def test_case_table_pins_registry(self):
        assert self._CASES.keys() == PROTOCOL_FACTORIES.keys()

    @pytest.mark.parametrize(
        "layout", ["sweep", "alone", "reversed", "duplicated"]
    )
    @pytest.mark.parametrize("name", sorted(_CASES))
    def test_trial_trace_is_independent_of_batch(self, name, layout):
        trials = list(range(self.REPETITIONS))
        batch = self._run_rows(name, trials)
        if layout == "sweep":
            graph, protocol, common = self._sweep_args(name)
            other = repeat_job(graph, protocol, batch_mode="exact", **common)
        elif layout == "alone":
            other = [trace for t in trials for trace in self._run_rows(name, [t])]
        elif layout == "reversed":
            other = self._run_rows(name, trials[::-1])[::-1]
        else:
            twice = self._run_rows(name, [t for t in trials for _ in range(2)])
            _assert_traces_identical(twice[0::2], twice[1::2])
            other = twice[0::2]
        _assert_traces_identical(batch, other)
