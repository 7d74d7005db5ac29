"""Traced mode: per-layer self time and counts from wrapped library entry points.

Nothing under ``src/`` knows it is traced.  :func:`install` replaces the
public entry points of each ``repro`` layer with wrappers that record one
span per call — wrapper name, start, end, parent span and an optional
count — into an in-memory list.  :meth:`Tracer.fold` turns the spans into
per-layer totals once the run has ended:

* a layer's **self time** is its spans' durations minus the time their
  child spans cover;
* a **count** (graph samples, store puts, …) counts the outermost span of
  a nested run of same-named spans only, so a subclass method calling its
  base-class version counts once;
* ``experiments.E<k>_s`` are scopes: they report the experiment's whole
  time (children included) and are left out of the attribution sum;
* ``unattributed_s`` is the traced wall time that no layer's self time
  covers.

Wrapping happens at choke points rather than module attributes:
``build_network`` and the generators are imported by name into many
modules, so the graph layer is wrapped at the ``FAMILIES`` registry entries
and at every module-level name bound to a generator; CSR construction at
``RadioNetwork.__init__``; engines, protocols, collision models, store and
aggregation at their class methods.
"""

from __future__ import annotations

import sys
import time

#: ``wrapper name -> (time metric, count metric, value metric)``.  A value
#: metric sums a number each outermost call reports (edges built, trial
#: rounds run, samples ingested, store hits).
SPANS = {
    "graphs.sample": ("graphs.sample_s", "graphs.samples", "graphs.edges"),
    "network.csr": ("network.csr_s", "network.builds", None),
    "batch.stack": ("batch.stack_s", None, None),
    "batch.engine": ("batch.engine_self_s", None, "batch.trial_rounds"),
    "protocol.transmit": ("protocol.transmit_s", None, None),
    "protocol.observe": ("protocol.observe_s", None, None),
    "collision.resolve": ("collision.resolve_s", "collision.resolves", None),
    "serial.run": ("serial.run_s", "serial.runs", None),
    "serial.resolve": ("serial.resolve_s", None, None),
    "store.put": ("store.put_s", "store.puts", None),
    "store.encode": ("store.put_s", None, None),
    "store.get": ("store.get_s", "store.gets", "store.hits"),
    "store.decode": ("store.get_s", None, None),
    "store.keys": ("store.keys_s", None, None),
    "store.checkpoint": ("store.checkpoint_s", None, None),
    "aggregation.observe": ("aggregation.observe_s", None, "aggregation.samples"),
    "aggregation.extract": ("aggregation.extract_s", None, None),
    "queue.run": ("queue.self_s", None, None),
}

#: The graph generators bound by name in many modules.
GENERATORS = (
    "random_digraph",
    "random_undirected_radio_network",
    "geometric_digraph",
    "geometric_digraph_from_positions",
    "heterogeneous_geometric_digraph",
    "observation43_network",
    "theorem44_network",
    "path_network",
    "cycle_network",
    "star_network",
    "complete_network",
    "grid_network",
    "path_of_cliques",
    "layered_caterpillar",
)

#: Experiment ids whose scope metric every traced run reports.
EXPERIMENT_IDS = tuple(f"E{k}" for k in range(1, 18))


def metric_names():
    """Every metric :meth:`Tracer.fold` reports, in a stable order."""
    names = []
    for time_metric, count_metric, value_metric in SPANS.values():
        for name in (time_metric, count_metric, value_metric):
            if name is not None and name not in names:
                names.append(name)
    return names + [f"experiments.{eid}_s" for eid in EXPERIMENT_IDS]


class Tracer:
    """Records spans in memory; nothing is written while the run is live."""

    def __init__(self) -> None:
        # Each span is ``[name, start, end, parent index, value]``.
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, *, value=None, prepare=None):
        """``fn`` wrapped to record a span named ``name`` per call.

        ``value(args, kwargs, result, state)`` gives the span's count and
        ``prepare(args, kwargs)`` may rewrite the arguments before the call,
        returning ``(args, kwargs, state)``.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            state = None
            if prepare is not None:
                args, kwargs, state = prepare(args, kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if value is not None:
                record[4] = value(args, kwargs, result, state)
            return result

        return traced

    def wrap_method(self, cls, attribute, name, **options) -> None:
        setattr(cls, attribute, self.wrap(name, cls.__dict__[attribute], **options))

    # ------------------------------------------------------------------ #
    def fold(self, wall_s: float):
        """Per-layer totals of the recorded spans over a ``wall_s`` run."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = dict.fromkeys(metric_names(), 0)
        attributed = 0.0
        for index, (name, start, end, parent, value) in enumerate(spans):
            if name.startswith("experiments."):
                totals[f"{name}_s"] += end - start
                continue
            self_time = end - start - child_time[index]
            time_metric, count_metric, value_metric = SPANS[name]
            totals[time_metric] += self_time
            attributed += self_time
            if parent >= 0 and spans[parent][0] == name:
                continue
            if count_metric is not None:
                totals[count_metric] += 1
            if value_metric is not None and value is not None:
                totals[value_metric] += value
        gets = totals.pop("store.hits")
        totals["store.hit_ratio"] = gets / totals["store.gets"] if totals["store.gets"] else 0.0
        totals["unattributed_s"] = wall_s - attributed
        totals["trace.spans"] = len(spans)
        return totals


def _count_sink_rounds(args, kwargs):
    """Route the engine's ``result_sink`` through a trial-round counter."""
    counter = [0]
    sink = kwargs.get("result_sink")
    if sink is not None:

        def counting_sink(index, trace):
            counter[0] += trace.rounds_executed
            sink(index, trace)

        kwargs = dict(kwargs, result_sink=counting_sink)
    return args, kwargs, counter


def _subclasses(cls):
    """``cls`` and every subclass, each once."""
    found = {cls: None}
    for sub in cls.__subclasses__():
        found.update(dict.fromkeys(_subclasses(sub)))
    return list(found)


def _rebind_everywhere(original, replacement) -> None:
    """Point every ``repro`` module-level name bound to ``original`` at
    ``replacement`` (functions imported by name keep their own binding)."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attribute, bound in list(vars(module).items()):
            if bound is original:
                setattr(module, attribute, replacement)


def install(experiment_modules=()) -> Tracer:
    """Wrap every layer's entry points and return the recording tracer.

    Call after the workload's imports and set-up, so only the measured work
    is traced.  ``experiment_modules`` get a scope span around ``run``.
    """
    # Import every wrapped layer first, so each class and module exists.
    import repro.graphs as graphs
    from repro.analysis.streaming import AccumulatorSet
    from repro.experiments.runner import ExecutionPlan
    from repro.graphs.builders import FAMILIES
    from repro.jobs.queue import JobQueue
    from repro.radio.batch import BatchEngine, BatchProtocol, NetworkBatch
    from repro.radio.collision import BatchCollisionModel, CollisionModel
    from repro.radio.engine import SimulationEngine
    from repro.radio.network import RadioNetwork
    from repro.radio.trace import RunResultTrace
    import repro.scenarios.runtime as runtime
    from repro.store import ResultStore
    from repro.store.aggregates import AggregateStore

    tracer = Tracer()

    def edges(args, kwargs, result, state):
        # Some generators return ``(network, structure)``.
        network = result[0] if isinstance(result, tuple) else result
        return network.num_edges

    for family, builder in list(FAMILIES.items()):
        FAMILIES[family] = tracer.wrap("graphs.sample", builder, value=edges)
    for generator in GENERATORS:
        original = getattr(graphs, generator)
        _rebind_everywhere(
            original, tracer.wrap("graphs.sample", original, value=edges)
        )

    tracer.wrap_method(RadioNetwork, "__init__", "network.csr")
    tracer.wrap_method(NetworkBatch, "__init__", "batch.stack")

    def trial_rounds(args, kwargs, result, counter):
        # Without a sink the engine returns the traces instead.
        return counter[0] + sum(trace.rounds_executed for trace in result or ())

    for method in ("run", "run_continuous"):
        tracer.wrap_method(
            BatchEngine, method, "batch.engine",
            value=trial_rounds, prepare=_count_sink_rounds,
        )
    for cls in _subclasses(BatchProtocol):
        if "transmit_flat" in cls.__dict__:
            tracer.wrap_method(cls, "transmit_flat", "protocol.transmit")
        if "observe" in cls.__dict__:
            tracer.wrap_method(cls, "observe", "protocol.observe")
    for cls in _subclasses(BatchCollisionModel):
        if "resolve" in cls.__dict__:
            tracer.wrap_method(cls, "resolve", "collision.resolve")

    tracer.wrap_method(SimulationEngine, "run", "serial.run")
    for cls in _subclasses(CollisionModel):
        if "resolve" in cls.__dict__:
            tracer.wrap_method(cls, "resolve", "serial.resolve")

    def hit(args, kwargs, result, state):
        return 0 if result is None else 1

    tracer.wrap_method(ResultStore, "put", "store.put")
    tracer.wrap_method(ResultStore, "get", "store.get", value=hit)
    tracer.wrap_method(RunResultTrace, "to_payload", "store.encode")
    RunResultTrace.from_payload = classmethod(
        tracer.wrap("store.decode", RunResultTrace.__dict__["from_payload"].__func__)
    )
    tracer.wrap_method(ExecutionPlan, "job_keys", "store.keys")
    tracer.wrap_method(AggregateStore, "save", "store.checkpoint")
    tracer.wrap_method(AggregateStore, "load", "store.checkpoint")

    tracer.wrap_method(AccumulatorSet, "observe", "aggregation.observe",
                       value=lambda args, kwargs, result, state: 1)
    tracer.wrap_method(AccumulatorSet, "observe_many", "aggregation.observe",
                       value=lambda args, kwargs, result, state: len(args[1]))
    runtime.extract_sample = tracer.wrap("aggregation.extract", runtime.extract_sample)

    tracer.wrap_method(JobQueue, "run", "queue.run")

    for module in experiment_modules:
        module.run = tracer.wrap(f"experiments.{module.EXPERIMENT_ID}", module.run)
    return tracer
