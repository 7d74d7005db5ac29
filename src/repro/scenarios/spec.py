"""Declarative scenario specifications: sweeps as data.

Every experiment in this repository is, at heart, a *grid* — graph family ×
protocol × size/regime axes × repetitions × metric set — plus a little
claim-specific arithmetic on the aggregates.  This module gives the grid a
first-class, serialisable, content-addressable representation:

* :class:`SweepCell` — one cell of the grid: either a **jobs** cell (a
  ``(GraphSpec, ProtocolSpec, repetitions)`` repetition sweep that compiles
  to an :class:`~repro.experiments.runner.ExecutionPlan`) or a **probe**
  cell (a registered custom per-trial measurement, for workloads the job
  pipeline cannot express — phase-growth tracing, graph-property sampling,
  collision-free reference models);
* :class:`SweepGrid` — an ordered tuple of cells, buildable from named axes
  (:meth:`SweepGrid.from_axes`) and round-trippable through JSON;
* :class:`ScenarioSpec` — a grid plus identity (id/title/claim), the metric
  set to accumulate, and the sweep seed.

Specs are *pure data*: the same spec digests to the same address
(:meth:`ScenarioSpec.digest`), can be written to disk, shipped to another
machine, or fed to ``repro sweep --grid``.  Execution lives in
:mod:`repro.scenarios.runtime`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.graphs.builders import GraphSpec
from repro.experiments.protocols import ProtocolSpec
from repro.store.keys import canonical_dumps

__all__ = ["SweepCell", "SweepGrid", "ScenarioSpec"]


#: Engine options a jobs cell may carry (forwarded to Job construction).
_JOB_OPTION_KEYS = frozenset(
    {
        "run_to_quiescence",
        "record_rounds",
        "keep_arrays",
        "max_rounds",
        "collision_model",
        "erasure_probability",
        "environment",
    }
)


@dataclass(frozen=True)
class SweepCell:
    """One cell of a sweep grid.

    Attributes
    ----------
    coords:
        The cell's position on the grid axes (``{"n": 512, "regime":
        "threshold"}``) — display/derivation metadata, free-form but
        JSON-serialisable.
    kind:
        ``"jobs"`` (repetition sweep through the execution pipeline) or
        ``"probe"`` (registered custom measurement).
    graph / protocol / repetitions / job_options:
        The jobs-cell payload; ``job_options`` are engine options
        (``run_to_quiescence``, ``erasure_probability``, …).
    probe / params:
        The probe-cell payload: a name registered with
        :func:`repro.scenarios.probes.register_probe` plus its parameters.
    seed:
        Optional per-cell seed override (default: the scenario's seed).
    metrics:
        Optional per-cell metric-set override (default: the scenario's).
    """

    coords: Dict[str, object] = field(default_factory=dict)
    kind: str = "jobs"
    graph: Optional[GraphSpec] = None
    protocol: Optional[ProtocolSpec] = None
    repetitions: int = 1
    job_options: Dict[str, object] = field(default_factory=dict)
    probe: Optional[str] = None
    params: Dict[str, object] = field(default_factory=dict)
    seed: Optional[int] = None
    metrics: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("jobs", "probe"):
            raise ValueError(f"cell kind must be 'jobs' or 'probe', got {self.kind!r}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.kind == "jobs":
            if self.graph is None or self.protocol is None:
                raise ValueError("a jobs cell needs both a graph and a protocol spec")
            unknown = set(self.job_options) - _JOB_OPTION_KEYS
            if unknown:
                known = ", ".join(sorted(_JOB_OPTION_KEYS))
                raise ValueError(
                    f"unknown job options {sorted(unknown)}; known: {known}"
                )
        else:
            if not self.probe:
                raise ValueError("a probe cell needs a registered probe name")
        if self.metrics is not None:
            object.__setattr__(self, "metrics", tuple(self.metrics))

    def label(self) -> str:
        """Readable one-line cell description (coords, else specs)."""
        if self.coords:
            inner = ", ".join(f"{k}={v}" for k, v in self.coords.items())
            return f"[{inner}]"
        if self.kind == "jobs":
            return f"[{self.graph.describe()} × {self.protocol.describe()}]"
        return f"[probe {self.probe}]"

    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"coords": dict(self.coords), "kind": self.kind}
        if self.kind == "jobs":
            out["graph"] = self.graph.as_dict()
            out["protocol"] = self.protocol.as_dict()
            out["repetitions"] = self.repetitions
            if self.job_options:
                out["job_options"] = dict(self.job_options)
        else:
            out["probe"] = self.probe
            out["repetitions"] = self.repetitions
            if self.params:
                out["params"] = dict(self.params)
        if self.seed is not None:
            out["seed"] = self.seed
        if self.metrics is not None:
            out["metrics"] = list(self.metrics)
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SweepCell":
        kind = payload.get("kind", "jobs")
        metrics = payload.get("metrics")
        return cls(
            coords=dict(payload.get("coords", {})),
            kind=kind,
            graph=(
                GraphSpec.from_dict(payload["graph"])
                if payload.get("graph") is not None
                else None
            ),
            protocol=(
                ProtocolSpec.from_dict(payload["protocol"])
                if payload.get("protocol") is not None
                else None
            ),
            repetitions=int(payload.get("repetitions", 1)),
            job_options=dict(payload.get("job_options", {})),
            probe=payload.get("probe"),
            params=dict(payload.get("params", {})),
            seed=payload.get("seed"),
            metrics=tuple(metrics) if metrics is not None else None,
        )


@dataclass(frozen=True)
class SweepGrid:
    """An ordered collection of sweep cells (the expanded grid)."""

    cells: Tuple[SweepCell, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))
        if not self.cells:
            raise ValueError("a sweep grid needs at least one cell")

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    @property
    def total_trials(self) -> int:
        return sum(cell.repetitions for cell in self.cells)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_axes(
        cls,
        axes: Dict[str, Sequence[object]],
        bind: Callable[[Dict[str, object]], object],
    ) -> "SweepGrid":
        """Expand named axes into a grid.

        ``bind`` receives each coordinate assignment (the cartesian product
        of the axes, outermost axis first) and returns the
        :class:`SweepCell` for it, a list of cells, or ``None`` to skip the
        coordinate.  ``bind`` is a *build-time* convenience — the expanded
        grid is pure data and is what serialises.
        """
        assignments: List[Dict[str, object]] = [{}]
        for name, values in axes.items():
            assignments = [
                {**assignment, name: value}
                for assignment in assignments
                for value in values
            ]
        cells: List[SweepCell] = []
        for coords in assignments:
            bound = bind(dict(coords))
            if bound is None:
                continue
            if isinstance(bound, SweepCell):
                cells.append(bound)
            else:
                cells.extend(bound)
        return cls(cells=tuple(cells))

    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, object]:
        return {"cells": [cell.as_dict() for cell in self.cells]}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SweepGrid":
        return cls(
            cells=tuple(
                SweepCell.from_dict(cell) for cell in payload.get("cells", [])
            )
        )

    def digest(self) -> str:
        """Content address of the grid (order-sensitive, version-free)."""
        return hashlib.sha256(
            canonical_dumps(self.as_dict()).encode("utf-8")
        ).hexdigest()


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, claim-carrying sweep: the declarative form of an experiment.

    ``metrics`` is the default per-trial metric set accumulated for every
    cell (names registered in :mod:`repro.scenarios.metrics`); individual
    cells may override it.  ``parameters`` is display metadata (scale,
    sizes, …) recorded into results but excluded from the digest — two
    scenarios that run the same trials share an address regardless of how
    they were labelled.
    """

    scenario_id: str
    grid: SweepGrid
    metrics: Tuple[str, ...] = ()
    seed: int = 0
    title: str = ""
    claim: str = ""
    parameters: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "metrics", tuple(self.metrics))
        if not self.scenario_id:
            raise ValueError("scenario_id must be non-empty")

    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario_id": self.scenario_id,
            "title": self.title,
            "claim": self.claim,
            "seed": self.seed,
            "metrics": list(self.metrics),
            "grid": self.grid.as_dict(),
            "parameters": dict(self.parameters),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioSpec":
        return cls(
            scenario_id=str(payload["scenario_id"]),
            grid=SweepGrid.from_dict(payload["grid"]),
            metrics=tuple(payload.get("metrics", ())),
            seed=int(payload.get("seed", 0)),
            title=str(payload.get("title", "")),
            claim=str(payload.get("claim", "")),
            parameters=dict(payload.get("parameters", {})),
        )

    def digest(self) -> str:
        """Content address over the functional parts (grid, metrics, seed)."""
        body = {
            "grid": self.grid.as_dict(),
            "metrics": list(self.metrics),
            "seed": self.seed,
        }
        return hashlib.sha256(canonical_dumps(body).encode("utf-8")).hexdigest()
