"""Compiled-kernel layer: platform selection and exactness.

Two contracts are pinned here:

1. **Selection.**  The collision kernel follows the platform — compiled
   when numba imports, the bit-identical numpy path otherwise — and the
   whole package keeps importing (and running) when numba cannot be
   imported at all (subprocess test).
2. **Exactness.**  The fused kernel's outputs are bit-identical to the numpy
   collision rule, and engine-level sweeps with the model forced to the
   compiled kernel are bit-identical to the numpy kernel in exact mode for
   every registered protocol — with and without a faulty-world
   environment.  The kernel never enters a store key, pinned against
   hard-coded digests.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.protocols import ProtocolSpec
from repro.experiments.protocols import build_protocol
from repro.experiments.runner import (
    build_repetition_plan,
    execute_job,
    repeat_job,
)
from repro.graphs.builders import GraphSpec
from repro.graphs.random_digraph import random_digraph
from repro.radio import kernels
from repro.radio.batch import BatchEngine, NetworkBatch
from repro.radio.collision import BatchStandardCollisionModel
from repro.store import trial_digest

from test_batch_engine import _REGISTRY_CASES, _assert_traces_identical, _engine_sweep

_REGISTRY_IDS = [
    f"{case[0]}{'-q' if case[3] else ''}"
    f"{'-capped' if 'max_phases_active' in case[1] or 'active_window' in case[1] else ''}"
    for case in _REGISTRY_CASES
]


class TestSelection:
    def test_model_default_follows_numba_availability(self):
        expected = "compiled" if kernels.compiled_available() else "numpy"
        assert BatchStandardCollisionModel().kernel == expected

    def test_engine_leaves_a_forced_kernel_alone(self):
        model = BatchStandardCollisionModel()
        model.kernel = "numpy"
        BatchEngine(model).run(
            random_digraph(24, 0.3, rng=1),
            build_protocol(ProtocolSpec("decay", {})),
            trials=2,
            rng=1,
        )
        assert model.kernel == "numpy"


class TestFusedKernel:
    """The fused single-pass kernel against the numpy collision rule."""

    def _random_case(self, seed, n=48, p=0.2, trials=5):
        rng = np.random.default_rng(seed)
        nets = [random_digraph(n, p, rng=1000 + seed + t) for t in range(trials)]
        batch = NetworkBatch(nets)
        tx_mask = rng.random(batch.total_nodes) < 0.3
        return batch, np.flatnonzero(tx_mask)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fused_matches_numpy_rule_without_filter(self, seed):
        batch, tx_flat = self._random_case(seed)
        model = BatchStandardCollisionModel()
        reference = model._batch_exactly_one_rule(batch, tx_flat)
        fused = model._fused_rule(batch, tx_flat, None)
        assert np.array_equal(fused.receiver_flat, reference.receiver_flat)
        assert np.array_equal(fused.receiver_counts, reference.receiver_counts)
        assert np.array_equal(fused.sender_flat, reference.sender_flat)
        assert np.array_equal(fused.hear_counts, reference.hear_counts)
        assert np.array_equal(fused.collision_flags, reference.collision_flags)

    @pytest.mark.parametrize(
        "seed, n, p, trials, sparse",
        [(4, 48, 0.2, 5, True), (5, 48, 0.2, 5, True), (6, 400, 0.04, 6, False)],
    )
    def test_fused_matches_numpy_rule_with_filter(self, seed, n, p, trials, sparse):
        batch, tx_flat = self._random_case(seed, n=n, p=p, trials=trials)
        rng = np.random.default_rng(100 + seed)
        interest = rng.random(batch.total_nodes) < 0.5
        model = BatchStandardCollisionModel()
        model.kernel = "numpy"
        reference = model._batch_exactly_one_rule(
            batch, tx_flat, listener_filter=interest
        )
        fused = model._fused_rule(batch, tx_flat, interest)
        edges = int(reference.hear_counts.sum())
        assert (edges < model._SPARSE_EDGE_THRESHOLD) == sparse
        assert reference.receiver_flat.size > 0
        if sparse:
            # Both emit receivers in transmitter-major edge order.
            assert np.array_equal(fused.receiver_flat, reference.receiver_flat)
            assert np.array_equal(fused.sender_flat, reference.sender_flat)
        # The dense numpy path sorts its receivers; the delivered
        # (receiver, sender) pairs and all counts must agree either way.
        assert dict(zip(fused.receiver_flat.tolist(), fused.sender_flat.tolist())) == (
            dict(zip(reference.receiver_flat.tolist(), reference.sender_flat.tolist()))
        )
        assert fused.receiver_flat.size == reference.receiver_flat.size
        assert np.array_equal(fused.receiver_counts, reference.receiver_counts)
        assert np.array_equal(fused.hear_counts, reference.hear_counts)

    def test_fused_empty_transmitter_set(self):
        batch, _ = self._random_case(7, trials=2)
        model = BatchStandardCollisionModel()
        fused = model._fused_rule(batch, np.empty(0, dtype=np.int64), None)
        assert fused.receiver_flat.size == 0
        assert fused.sender_flat.size == 0

    def test_reference_impl_is_pure_python(self):
        # The undecorated reference stays callable without numba — it is the
        # oracle the compiled build is checked against.
        indptr = np.array([0, 2, 3, 3], dtype=np.int64)
        indices = np.array([1, 2, 2], dtype=np.int32)
        tx = np.array([0, 1], dtype=np.int64)
        out = kernels.exactly_one_fused_reference(
            indptr, indices, tx, 3, np.empty(0, dtype=np.bool_)
        )
        listeners, edge_ends, delivered, counts, receivers = out
        assert listeners.tolist() == [1, 2, 2]
        assert edge_ends.tolist() == [2, 3]
        # Node 2 hears both transmitters -> collision; node 1 hears exactly one.
        assert delivered.tolist() == [True, False, False]
        assert counts.tolist() == [0, 1, 2]
        assert receivers.tolist() == [1]


class TestEngineEquivalence:
    """The compiled kernel must be bit-identical to the numpy kernel in
    exact mode.

    Without numba a model forced to ``"compiled"`` runs the numpy path,
    making the assertions trivially true — the point of running them anyway
    is that the numba CI leg executes the same parametrisation with the
    real compiled kernels and must produce the same bits.
    """

    @pytest.mark.parametrize(
        "name,params,graph_params,options", _REGISTRY_CASES, ids=_REGISTRY_IDS
    )
    def test_registry_protocols_bit_identical(
        self, name, params, graph_params, options
    ):
        common = dict(repetitions=4, seed=17, **options)
        graph = GraphSpec("gnp", graph_params)
        protocol = ProtocolSpec(name, params)
        via_numpy = _engine_sweep(graph, protocol, kernel="numpy", **common)
        via_compiled = _engine_sweep(graph, protocol, kernel="compiled", **common)
        _assert_traces_identical(via_numpy, via_compiled, check_arrays=True)
        sweep = repeat_job(graph, protocol, batch_mode="exact", **common)
        _assert_traces_identical(via_numpy, sweep, check_arrays=True)

    @pytest.mark.parametrize(
        "environment",
        [
            {"name": "iid_loss", "params": {"rx_loss": 0.15}},
            {
                "name": "churn",
                "params": {"events": [{"round": 4, "crash_fraction": 0.2}]},
            },
        ],
        ids=["lossy", "churny"],
    )
    def test_environment_runs_bit_identical(self, environment):
        common = dict(repetitions=4, seed=23, environment=environment)
        graph = GraphSpec("gnp", {"n": 48, "p": 0.25})
        protocol = ProtocolSpec("decay", {})
        via_numpy = _engine_sweep(graph, protocol, kernel="numpy", **common)
        via_compiled = _engine_sweep(graph, protocol, kernel="compiled", **common)
        _assert_traces_identical(via_numpy, via_compiled, check_arrays=True)

    def test_fast_mode_numpy_and_compiled_identical(self):
        # Fast mode consumes the shared stream identically under both
        # kernels (the kernel changes how deliveries are computed, not which
        # draws are made), so even fast-mode runs agree bit for bit.
        networks = [random_digraph(48, 0.25, rng=40 + t) for t in range(6)]

        def run(kernel):
            model = BatchStandardCollisionModel()
            model.kernel = kernel
            return BatchEngine(model).run(
                networks, build_protocol(ProtocolSpec("decay", {})), rng=3
            )

        _assert_traces_identical(run("numpy"), run("compiled"), check_arrays=True)


class TestDigestStability:
    """Store keys never name the collision kernel or the node-set backend,
    so a store built before either was chosen by the code keeps hitting."""

    GRAPH = GraphSpec("gnp", {"n": 32, "p": 0.25})
    PROTOCOL = ProtocolSpec("decay", {})

    def _keys(self, **plan_kwargs):
        return build_repetition_plan(
            self.GRAPH, self.PROTOCOL, repetitions=2, seed=5, **plan_kwargs
        ).job_keys()

    @pytest.mark.parametrize("batch_mode", ["fast", "exact"])
    def test_context_names_no_kernel_and_a_constant_backend(self, batch_mode):
        context = build_repetition_plan(
            self.GRAPH,
            self.PROTOCOL,
            repetitions=2,
            seed=5,
            batch_mode=batch_mode,
        ).cache_context()
        assert "kernel" not in context
        assert context["state_backend"] == "auto"

    def test_pinned_digest(self):
        # Hard regression pin: this digest was computed before the kernel
        # field existed.  If it moves, every result store in the wild is
        # silently invalidated — bump ENGINE_VERSION instead of accepting a
        # new value here.
        keys = self._keys(batch_mode="exact")
        assert keys[0] == (
            "d884c5e90af1ae70ab5bd025b7378e68"
            "02af16b2369e53a14be3fc7fee3817b8"
        )

    def test_pinned_fast_digest(self):
        # Fast-mode keys also pin the cohort (fast-seed entropy, shard
        # layout); the same rule applies: a moved digest needs a bump.
        keys = self._keys(batch_mode="fast")
        assert keys[0] == (
            "bd72c381a565acffd13bf1c023bbafaa"
            "6d4d37a913f8e461227616995194ac74"
        )

    #: Digest of ``{"context": cache_context(), "keys": job_keys()}`` for a
    #: six-trial sweep, per ``(batch_mode, shards)``.  Process fan-out never
    #: enters the context once the shard count is fixed.
    PLAN_DIGESTS = {
        ("fast", 1): (
            "4057c8a80184594a1401df24f5e36831"
            "baf6fcfefc9373e8b71668c28821158e"
        ),
        ("fast", 3): (
            "22473a9000b94f09dd0c4473abffbe03"
            "438a052c5c20dd45fb71c36cfde00fb6"
        ),
        ("exact", 1): (
            "55840cd5ac42c0ccf7df4a8e46af17f9"
            "9e75aee2f2dc1991f6e85f63f50d2010"
        ),
        ("exact", 3): (
            "55840cd5ac42c0ccf7df4a8e46af17f9"
            "9e75aee2f2dc1991f6e85f63f50d2010"
        ),
    }

    @pytest.mark.parametrize("processes", [None, 2])
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("batch_mode", ["fast", "exact"])
    def test_pinned_plan_digests(self, batch_mode, shards, processes):
        plan = build_repetition_plan(
            self.GRAPH,
            self.PROTOCOL,
            repetitions=6,
            seed=5,
            batch_mode=batch_mode,
            shards=shards,
            processes=processes,
        )
        digest = trial_digest(
            {"context": plan.cache_context(), "keys": plan.job_keys()}
        )
        assert digest == self.PLAN_DIGESTS[(batch_mode, shards)]


class TestSharedBatchReuse:
    """Shard-level stacked-CSR reuse for shared-topology sweeps."""

    GRAPH = GraphSpec("path", {"n": 24})
    PROTOCOL = ProtocolSpec("decay", {})

    def test_in_process_shards_share_one_batch(self):
        plan = build_repetition_plan(
            self.GRAPH, self.PROTOCOL, repetitions=8, seed=2, shards=4
        )
        shards = plan.shards()
        assert len(shards) == 4
        batches = {id(shard.shared_batch) for shard in shards}
        assert None not in {shard.shared_batch for shard in shards}
        assert len(batches) == 1

    def test_fanout_shards_carry_no_batch(self):
        plan = build_repetition_plan(
            self.GRAPH, self.PROTOCOL, repetitions=8, seed=2, processes=2
        )
        assert all(shard.shared_batch is None for shard in plan.shards())
        assert all(shard.shared_network is not None for shard in plan.shards())

    def test_random_family_has_no_shared_batch(self):
        plan = build_repetition_plan(
            GraphSpec("gnp", {"n": 24, "p": 0.3}),
            self.PROTOCOL,
            repetitions=8,
            seed=2,
            shards=4,
        )
        assert all(shard.shared_batch is None for shard in plan.shards())

    def test_shared_batch_results_bit_identical(self):
        sharded = repeat_job(
            self.GRAPH,
            self.PROTOCOL,
            repetitions=8,
            seed=2,
            shards=4,
            batch_mode="exact",
        )
        plan = build_repetition_plan(self.GRAPH, self.PROTOCOL, repetitions=8, seed=2)
        one_by_one = [execute_job(j) for j in plan.jobs]
        _assert_traces_identical(one_by_one, sharded, check_arrays=True)

    def test_shared_tiling_matches_general_construction(self):
        net = random_digraph(40, 0.2, rng=3)
        tiled = NetworkBatch.shared(net, 6)
        looped = NetworkBatch([random_digraph(40, 0.2, rng=3) for _ in range(6)])
        assert np.array_equal(tiled.out_indptr, looped.out_indptr)
        assert np.array_equal(tiled.out_indices, looped.out_indices)
        assert np.array_equal(
            np.bincount(tiled.out_indices, minlength=tiled.total_nodes),
            np.bincount(looped.out_indices, minlength=looped.total_nodes),
        )


class TestStreamingBypass:
    """In-process execution streams traces one trial at a time."""

    def test_execute_streaming_matches_execute(self):
        plan = build_repetition_plan(
            GraphSpec("path", {"n": 24}),
            ProtocolSpec("decay", {}),
            repetitions=8,
            seed=2,
            shards=4,
            batch_mode="exact",
        )
        collected = plan.execute()
        seen = {}
        counts = plan.execute_streaming(
            lambda index, trace: seen.__setitem__(index, trace)
        )
        assert counts["executed"] == 8
        assert sorted(seen) == list(range(8))
        _assert_traces_identical(
            collected, [seen[i] for i in range(8)], check_arrays=True
        )
        for trace in seen.values():
            assert "job" in trace.metadata


class TestNoNumbaFallback:
    def test_package_runs_with_numba_blocked(self):
        """The package must import and sweep with numba unimportable.

        A meta-path blocker makes ``import numba`` raise inside a fresh
        interpreter — on the numba CI leg this exercises the real fallback;
        locally (no numba) it simply re-checks the default environment.
        """
        code = "\n".join(
            [
                "import sys",
                "class _Block:",
                "    def find_spec(self, name, path=None, target=None):",
                "        if name.split('.')[0] == 'numba':",
                "            raise ImportError('numba blocked for test')",
                "sys.meta_path.insert(0, _Block())",
                "from repro.radio.kernels import compiled_available, warm_kernels",
                "from repro.radio.collision import BatchStandardCollisionModel",
                "assert compiled_available() is False",
                "assert BatchStandardCollisionModel().kernel == 'numpy'",
                "warm_kernels()  # no-op without numba",
                "from repro.experiments.protocols import ProtocolSpec",
                "from repro.experiments.runner import repeat_job",
                "from repro.graphs.builders import GraphSpec",
                "results = repeat_job(",
                "    GraphSpec('gnp', {'n': 16, 'p': 0.4}),",
                "    ProtocolSpec('decay', {}),",
                "    repetitions=2, seed=1,",
                ")",
                "assert len(results) == 2",
                "from repro.graphs import random_digraph",
                "from repro.radio.batch import BatchEngine",
                "from repro.experiments.protocols import build_protocol",
                "model = BatchStandardCollisionModel()",
                "model.kernel = 'compiled'  # falls back to numpy",
                "forced = BatchEngine(model).run(",
                "    random_digraph(16, 0.4, rng=1),",
                "    build_protocol(ProtocolSpec('decay', {})),",
                "    trials=2, rng=1,",
                ")",
                "assert len(forced) == 2",
                "print('fallback-ok')",
            ]
        )
        src_dir = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fallback-ok" in proc.stdout
