"""The pluggable node-set state layer (`repro.radio.nodesets`).

Three groups of guarantees:

1. **Primitive correctness** — bit packing round-trips, popcounts match, and
   each backend of every state kind (membership set, knowledge tensor, quota
   and budget frontiers) behaves identically to the dense reference under
   randomised op sequences.
2. **Cross-backend bit-exactness** — for *every* protocol in
   ``BATCH_PROTOCOL_FACTORIES``, an exact-mode batched run is bit-identical
   under ``dense``, ``bitset`` and ``sparse`` state backends (the case table
   is pinned to the registry so a new protocol cannot dodge the property).
3. **Plumbing** — the ``state_backend`` knob flows through
   ``ExecutionPlan`` / ``configure_execution`` / the CLI, and the plan-level
   topology cache hands shards a shared network for deterministic families.
"""

import numpy as np
import pytest

from repro.cli import build_parser
from repro.experiments.protocols import (
    BATCH_PROTOCOL_FACTORIES,
    ProtocolSpec,
)
from repro.experiments.runner import (
    ExecutionPlan,
    Job,
    build_repetition_plan,
    configure_execution,
    execute_job,
    repeat_job,
)
from repro.graphs.builders import GraphSpec, spec_is_deterministic
from repro.radio.batch import BatchEngine
from repro.radio.nodesets import (
    BitsetKnowledge,
    BitsetNodeSet,
    DenseBudgetFrontier,
    DenseKnowledge,
    DenseNodeSet,
    DenseQuotaFrontier,
    NodeSetKernel,
    SparseBudgetFrontier,
    SparseQuotaFrontier,
    pack_bool_rows,
    popcount,
    resolve_kernel,
    select_backend,
    unpack_bool_rows,
    words_for,
)


class TestPackingPrimitives:
    @pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 200, 513])
    def test_pack_unpack_roundtrip(self, n):
        rng = np.random.default_rng(n)
        mask = rng.random((5, n)) < 0.3
        words = pack_bool_rows(mask)
        assert words.shape == (5, words_for(n))
        assert words.dtype == np.uint64
        assert np.array_equal(unpack_bool_rows(words, n), mask)

    def test_padding_bits_stay_zero(self):
        mask = np.ones((3, 70), dtype=bool)
        words = pack_bool_rows(mask)
        # Bits 70..127 of the second word must be zero.
        assert int(words[0, 1]) == (1 << (70 - 64)) - 1

    def test_popcount_matches_dense_sum(self):
        rng = np.random.default_rng(9)
        mask = rng.random((4, 300)) < 0.5
        words = pack_bool_rows(mask)
        counts = popcount(words).sum(axis=-1, dtype=np.int64)
        assert np.array_equal(counts, mask.sum(axis=1))


class TestNodeSetBackends:
    def test_bitset_matches_dense_under_random_adds(self):
        trials, n = 3, 150
        rng = np.random.default_rng(4)
        dense, packed = DenseNodeSet(trials, n), BitsetNodeSet(trials, n)
        for _ in range(20):
            ids = rng.integers(0, trials * n, size=rng.integers(0, 12))
            ids = np.unique(ids)[rng.permutation(np.unique(ids).size)]
            newly_dense = dense.add_flat(ids)
            newly_packed = packed.add_flat(ids)
            assert np.array_equal(newly_dense, newly_packed)
            assert np.array_equal(dense.counts(), packed.counts())
            assert np.array_equal(dense.mask(), packed.mask())
            assert np.array_equal(
                dense.complement_flat(), packed.complement_flat()
            )

    def test_add_returns_new_members_in_input_order(self):
        for cls in (DenseNodeSet, BitsetNodeSet):
            state = cls(1, 10)
            state.add_flat(np.array([4]))
            newly = state.add_flat(np.array([7, 4, 2]))
            assert list(newly) == [7, 2], cls.__name__

    def test_same_word_adds_all_land(self):
        """Multiple new members in one uint64 word must all be recorded."""
        state = BitsetNodeSet(1, 64)
        newly = state.add_flat(np.array([3, 5, 17, 63]))
        assert newly.size == 4
        assert state.counts()[0] == 4
        assert sorted(np.flatnonzero(state.mask()[0])) == [3, 5, 17, 63]


class TestKnowledgeBackends:
    def test_bitset_matches_dense_under_random_merges(self):
        trials, n = 2, 70
        rng = np.random.default_rng(11)
        dense, packed = DenseKnowledge(trials, n), BitsetKnowledge(trials, n)
        assert np.array_equal(dense.as_dense(), packed.as_dense())
        for _ in range(15):
            k = int(rng.integers(1, 8))
            receivers = rng.choice(trials * n, size=k, replace=False)
            senders = rng.integers(0, trials * n, size=k)
            # Keep sender/receiver in the same trial, as the engine does.
            senders = (receivers // n) * n + senders % n
            dense.merge_flat(senders, receivers)
            packed.merge_flat(senders, receivers)
            assert np.array_equal(dense.per_node_counts(), packed.per_node_counts())
            assert np.array_equal(dense.complete(), packed.complete())
            assert np.array_equal(dense.as_dense(), packed.as_dense())
            r = int(rng.integers(0, n))
            assert np.array_equal(dense.column(r), packed.column(r))

    def test_complete_after_full_merge(self):
        n = 65  # crosses a word boundary
        dense, packed = DenseKnowledge(1, n), BitsetKnowledge(1, n)
        for state in (dense, packed):
            # Chain: node 0 learns everything by merging every row into row 0,
            # then every node merges row 0.
            for v in range(1, n):
                state.merge_flat(np.array([v]), np.array([0]))
            for v in range(1, n):
                state.merge_flat(np.array([0]), np.array([v]))
        assert dense.complete()[0] and packed.complete()[0]
        assert np.array_equal(dense.min_counts(), packed.min_counts())

    def test_incremental_counts_match_full_rescan(self):
        # The bitset backend maintains counts/completion from merge deltas;
        # pin them against a from-scratch popcount of the packed words.
        trials, n = 3, 130  # three words per row, ragged tail
        rng = np.random.default_rng(23)
        packed = BitsetKnowledge(trials, n)
        for _ in range(40):
            k = int(rng.integers(1, 12))
            receivers = rng.choice(trials * n, size=k, replace=False)
            senders = (receivers // n) * n + rng.integers(0, n, size=k)
            packed.merge_flat(senders, receivers)
            rescan = popcount(packed._words).sum(axis=2, dtype=np.int64)
            assert np.array_equal(packed.per_node_counts(), rescan)
            assert np.array_equal(packed.complete(), (rescan == n).all(axis=1))

    def test_single_node_trials_start_complete(self):
        packed = BitsetKnowledge(4, 1)
        assert packed.complete().all()
        assert np.array_equal(packed.min_counts(), np.ones(4, dtype=np.int64))


class TestFrontierBackends:
    def test_quota_frontiers_agree(self):
        trials, n = 3, 40
        rng = np.random.default_rng(21)
        dense, sparse = DenseQuotaFrontier(trials, n), SparseQuotaFrontier(trials, n)
        for _ in range(4):  # phases
            participating = rng.random((trials, n)) < 0.4
            values = rng.integers(1, 8, size=int(participating.sum()))
            dense.begin_phase(participating, values)
            sparse.begin_phase(participating, values)
            for within in range(8):
                running = rng.random(trials) < 0.8
                if not running.any():
                    running[0] = True
                a = dense.transmitters(within, running)
                b = sparse.transmitters(within, running)
                assert np.array_equal(a, b), within

    def test_budget_frontiers_agree(self):
        trials, n = 2, 30
        rng = np.random.default_rng(33)
        dense, sparse = DenseBudgetFrontier(trials, n), SparseBudgetFrontier(trials, n)
        admitted = set()
        for step in range(12):
            fresh = [
                int(i)
                for i in rng.integers(0, trials * n, size=3)
                if int(i) not in admitted
            ]
            admitted.update(fresh)
            ids = np.array(sorted(fresh), dtype=np.int64)
            dense.admit(ids, 3)
            sparse.admit(ids, 3)
            running = rng.random(trials) < 0.7
            if not running.any():
                running[0] = True
            a = dense.transmitters(running)
            b = sparse.transmitters(running)
            assert np.array_equal(a, b), step

    def test_budget_eviction_caps_transmissions(self):
        sparse = SparseBudgetFrontier(1, 5)
        sparse.admit(np.array([2]), 2)
        running = np.ones(1, dtype=bool)
        assert list(sparse.transmitters(running)) == [2]
        assert list(sparse.transmitters(running)) == [2]
        assert list(sparse.transmitters(running)) == []


class TestKernelSelection:
    def test_knowledge_profile_scales_to_bitset(self):
        assert select_backend(16, 512, profile="knowledge") == "dense"
        assert select_backend(8, 4096, profile="knowledge") == "bitset"

    def test_frontier_profile_scales_to_sparse(self):
        assert select_backend(4, 64, profile="frontier") == "dense"
        assert select_backend(16, 16384, profile="frontier") == "sparse"

    def test_frontier_density_raises_the_bar(self):
        trials, n = 2, 40000  # trials * n just above the floor
        assert select_backend(trials, n, profile="frontier", density=0.01) == "sparse"
        assert select_backend(trials, n, profile="frontier", density=0.5) == "dense"

    def test_plain_profile_stays_dense(self):
        assert select_backend(1024, 65536, profile="plain") == "dense"

    def test_resolve_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="state backend"):
            resolve_kernel("packed", 4, 16)
        with pytest.raises(ValueError):
            NodeSetKernel(backend="auto")  # must be resolved first

    def test_kernel_backend_mapping(self):
        dense = NodeSetKernel("dense")
        bitset = NodeSetKernel("bitset")
        sparse = NodeSetKernel("sparse")
        assert isinstance(dense.knowledge(1, 8), DenseKnowledge)
        assert isinstance(bitset.knowledge(1, 8), BitsetKnowledge)
        assert isinstance(sparse.knowledge(1, 8), BitsetKnowledge)
        assert isinstance(bitset.node_set(1, 8), BitsetNodeSet)
        assert isinstance(sparse.node_set(1, 8), DenseNodeSet)
        assert isinstance(sparse.quota_frontier(1, 8), SparseQuotaFrontier)
        assert isinstance(bitset.quota_frontier(1, 8), DenseQuotaFrontier)
        assert isinstance(sparse.budget_frontier(1, 8), SparseBudgetFrontier)

    def test_engine_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="state backend"):
            BatchEngine(state_backend="packed")


def _assert_traces_identical(reference, other):
    assert len(reference) == len(other)
    for a, b in zip(reference, other):
        assert a.protocol_name == b.protocol_name
        assert a.completed == b.completed
        assert a.completion_round == b.completion_round
        assert a.rounds_executed == b.rounds_executed
        assert a.energy == b.energy
        assert a.informed_count == b.informed_count


class TestCrossBackendBitExactness:
    """dense <-> bitset <-> sparse bit-exact equivalence, whole registry.

    Exact rng mode fixes the randomness per trial, so any divergence between
    backends is a state-layer bug.  The case table is pinned against
    ``BATCH_PROTOCOL_FACTORIES`` — adding a protocol without adding a case
    here fails the pin test.
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

    def test_case_table_pins_registry(self):
        assert self._CASES.keys() == BATCH_PROTOCOL_FACTORIES.keys()

    @pytest.mark.parametrize("name", sorted(_CASES))
    def test_backends_bit_identical_in_exact_mode(self, name):
        params, graph_params, options = self._CASES[name]
        graph = GraphSpec("gnp", graph_params)
        protocol = ProtocolSpec(name, params)
        runs = {
            backend: repeat_job(
                graph,
                protocol,
                repetitions=3,
                seed=23,
                batch_mode="exact",
                state_backend=backend,
                **options,
            )
            for backend in ("dense", "bitset", "sparse")
        }
        _assert_traces_identical(runs["dense"], runs["bitset"])
        _assert_traces_identical(runs["dense"], runs["sparse"])


class TestExecutionPlumbing:
    @pytest.mark.parametrize(
        "job_options,plan_options,match",
        [
            ({}, {"state_backend": "packed"}, "state_backend"),
            ({"collision_model": "bogus"}, {}, "collision model"),
            ({"protocol": ProtocolSpec("bogus", {})}, {}, "protocol"),
        ],
        ids=["state_backend", "collision_model", "protocol"],
    )
    def test_plan_rejects_unknown_option(self, job_options, plan_options, match):
        job = Job(
            **{
                "graph": GraphSpec("gnp", {"n": 16, "p": 0.2}),
                "protocol": ProtocolSpec("algorithm1", {"p": 0.2}),
                "seed": 1,
                **job_options,
            }
        )
        with pytest.raises(ValueError, match=match):
            ExecutionPlan(jobs=(job,), **plan_options)

    def test_shards_carry_the_backend(self):
        job = Job(
            graph=GraphSpec("gnp", {"n": 16, "p": 0.2}),
            protocol=ProtocolSpec("algorithm1", {"p": 0.2}),
            seed=1,
        )
        plan = ExecutionPlan(jobs=(job, job), processes=2, state_backend="bitset")
        assert all(s.state_backend == "bitset" for s in plan.shards())

    def test_configure_execution_default_flows_through(self):
        configure_execution(state_backend="sparse")
        try:
            runs = repeat_job(
                GraphSpec("gnp", {"n": 48, "p": 0.2}),
                ProtocolSpec("decay", {}),
                repetitions=2,
                seed=3,
            )
            assert len(runs) == 2 and all(r.completed for r in runs)
        finally:
            configure_execution(state_backend="auto")

    def test_cli_parses_state_backend(self):
        parser = build_parser()
        args = parser.parse_args(["run", "E1", "--state-backend", "bitset"])
        assert args.state_backend == "bitset"
        args = parser.parse_args(["run", "E1"])
        assert args.state_backend == "auto"


class TestTopologyCache:
    def test_deterministic_spec_detection(self):
        assert spec_is_deterministic(GraphSpec("path", {"n": 8}))
        assert spec_is_deterministic(GraphSpec("grid", {"rows": 3, "cols": 3}))
        assert not spec_is_deterministic(GraphSpec("gnp", {"n": 8, "p": 0.5}))
        assert not spec_is_deterministic(GraphSpec("nope", {}))

    def test_plan_builds_deterministic_topology_once(self, monkeypatch):
        import repro.experiments.runner as runner_module

        calls = []
        real_build = runner_module.build_network

        def counting_build(spec, *, rng=None):
            calls.append(spec.family)
            return real_build(spec, rng=rng)

        monkeypatch.setattr(runner_module, "build_network", counting_build)
        runs = repeat_job(
            GraphSpec("path", {"n": 24}),
            ProtocolSpec("decay", {}),
            repetitions=6,
            seed=5,
        )
        assert len(runs) == 6
        # One plan-level build; no per-job rebuilds.
        assert calls == ["path"]

    def test_random_specs_keep_per_trial_samples(self):
        job_template = GraphSpec("gnp", {"n": 32, "p": 0.2})
        plan = ExecutionPlan(
            jobs=tuple(
                Job(graph=job_template, protocol=ProtocolSpec("decay", {}), seed=s)
                for s in range(3)
            )
        )
        assert plan.shared_topology() is None

    def test_cached_topology_matches_serial_results(self):
        graph = GraphSpec("path", {"n": 32})
        protocol = ProtocolSpec("decay", {})
        plan = build_repetition_plan(graph, protocol, repetitions=4, seed=7)
        serial = [execute_job(j) for j in plan.jobs]
        batched = repeat_job(graph, protocol, repetitions=4, seed=7, batch_mode="exact")
        _assert_traces_identical(serial, batched)
        sharded = repeat_job(
            graph,
            protocol,
            repetitions=4,
            seed=7,
            batch_mode="exact",
            processes=2,
        )
        _assert_traces_identical(serial, sharded)
