"""The Dike scheduler: Observer -> Selector -> Predictor -> Decider ->
Migrator, with the Optimizer adapting the key parameters (Figure 3).

``DikeScheduler`` is a :class:`~repro.schedulers.pipeline.StagePipeline`:
the five per-quantum components (plus the Optimizer) are a *declared
stage list* (:data:`DIKE_STAGES`), each stage a thin adapter between the
shared :class:`~repro.schedulers.pipeline.StageState` dataflow and one
component.  Ablation variants replace individual stages —
:data:`NO_PREDICTOR_STAGES` swaps the closed-loop Predictor for
persistence predictions, :data:`NO_DECIDER_STAGES` accepts every selected
pair — and the `repro.policies` registry exposes them as policies without
forking the scheduler.

Beyond the stages the scheduler keeps the **closed loop's books**: every
accepted swap registers a predicted post-swap access rate, and the next
quantum's measurement back-fills the ground truth — producing the
prediction-error records behind Figures 7/8.

Build configured instances through the policy registry
(``repro.policies.REGISTRY.build("dike-af")``), the single resolution
point the runner, CLI, campaign and benchmark layers share.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.core.config import AdaptationGoal, DikeConfig
from repro.core.decider import Decider
from repro.core.migrator import Migrator
from repro.core.observer import Observer
from repro.core.optimizer import Optimizer
from repro.core.predictor import PairPrediction, Predictor
from repro.core.selector import Selector
from repro.schedulers.base import SchedulingContext
from repro.schedulers.pipeline import Stage, StagePipeline, StageState
from repro.sim.results import PredictionColumns

__all__ = [
    "DikeScheduler",
    "DIKE_STAGES",
    "NO_PREDICTOR_STAGES",
    "NO_DECIDER_STAGES",
    "ObserverStage",
    "OptimizerStage",
    "SelectorStage",
    "PredictorStage",
    "DeciderStage",
    "MigratorStage",
    "PersistencePredictorStage",
    "AcceptAllStage",
]


#: Empty prediction books (see ``DikeScheduler._pending``).
_NO_PENDING = (
    np.zeros(0, dtype=np.int64),
    np.zeros(0, dtype=np.int64),
    np.zeros(0, dtype=np.float64),
    np.zeros(0, dtype=np.float64),
)


# --------------------------------------------------------------- stages


class ObserverStage(Stage):
    """Digest the quantum's counters into an ``ObserverReport`` and
    back-fill the previous quantum's predictions with measurements."""

    name = "observer"

    def run(self, pipeline: "DikeScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            state.report = pipeline.observer.update(state.counters)
        pipeline._backfill_predictions(state.counters, state.report)


class OptimizerStage(Stage):
    """Periodically re-tune ⟨swapSize, quantaLength⟩ toward the goal
    (§III-F) and garbage-collect cooldown state of finished threads."""

    name = "optimizer"

    def run(self, pipeline: "DikeScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            new_cfg = pipeline.optimizer.maybe_update(state.report)
        if new_cfg is not pipeline.config:
            pipeline._set_config(new_cfg, state.counters.quantum_index)
        # Finished threads drop out of `placement`; forget their cooldowns.
        for tid in list(pipeline.decider._last_swap):
            if tid not in state.placement:
                pipeline.decider.forget_thread(tid)


class SelectorStage(Stage):
    """Form violator pairs via the placement rule (Algorithm 1)."""

    name = "selector"

    def run(self, pipeline: "DikeScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            state.pairs = pipeline.selector.select(state.report, state.placement)


class PredictorStage(Stage):
    """Estimate per-pair swap profits with the closed-loop model (Eqns 1-3)."""

    name = "predictor"

    def run(self, pipeline: "DikeScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            state.predictions = pipeline.predictor.predict(
                state.pairs, state.report, state.placement
            )


class DeciderStage(Stage):
    """Filter predictions by cooldown and profit (§III-D)."""

    name = "decider"

    def run(self, pipeline: "DikeScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            state.accepted = pipeline.decider.decide(
                state.predictions,
                state.counters.quantum_index,
                state.counters.time_s,
            )


class MigratorStage(Stage):
    """Turn accepted pairs into engine ``Swap`` actions (§III-E)."""

    name = "migrator"

    def run(self, pipeline: "DikeScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            state.actions = pipeline.migrator.build_actions(state.accepted)


class PersistencePredictorStage(Stage):
    """Ablation stand-in for the Predictor: persistence, no model.

    Every selected pair is predicted to keep its current access rates
    wherever it lands (zero profit either way), so the Decider degenerates
    to its cooldown rule — isolating how much of Dike's quality the
    closed-loop profit model (Eqns 1-3) contributes.  Emits no
    ``ProfitEvaluated`` events: there is no model to audit.
    """

    name = "predictor"

    def run(self, pipeline: "DikeScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            rates = state.report.access_rate
            state.predictions = [
                PairPrediction(
                    pair=pair,
                    profit_l=0.0,
                    profit_h=0.0,
                    predicted_rate_l=rates.get(pair.t_l, 0.0),
                    predicted_rate_h=rates.get(pair.t_h, 0.0),
                    current_rate_l=rates.get(pair.t_l, 0.0),
                    current_rate_h=rates.get(pair.t_h, 0.0),
                )
                for pair in state.pairs
            ]


class AcceptAllStage(Stage):
    """Ablation stand-in for the Decider: every predicted pair is swapped.

    Selector pairs are disjoint by construction, so accepting all of them
    is safe; what disappears is the cooldown rule and the profit veto —
    isolating how much churn the Decider's judgement avoids.  Without a
    decider no cooldown contract holds (see the policy's invariant
    contract in `repro.policies`).
    """

    name = "decider"

    def run(self, pipeline: "DikeScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            state.accepted = list(state.predictions)


#: The paper's pipeline (Figure 3), as a declared stage list.
DIKE_STAGES: tuple[Stage, ...] = (
    ObserverStage(),
    OptimizerStage(),
    SelectorStage(),
    PredictorStage(),
    DeciderStage(),
    MigratorStage(),
)

#: Fig6-style ablation: the closed-loop Predictor replaced by persistence.
NO_PREDICTOR_STAGES: tuple[Stage, ...] = tuple(
    PersistencePredictorStage() if isinstance(s, PredictorStage) else s
    for s in DIKE_STAGES
)

#: Fig6-style ablation: the Decider replaced by accept-everything.
NO_DECIDER_STAGES: tuple[Stage, ...] = tuple(
    AcceptAllStage() if isinstance(s, DeciderStage) else s for s in DIKE_STAGES
)


# ------------------------------------------------------------ scheduler


class DikeScheduler(StagePipeline):
    """Predictive, adaptive contention-aware scheduler (the paper's system)."""

    metric_prefix = "dike"

    def __init__(
        self,
        config: DikeConfig | None = None,
        name: str | None = None,
        stages: tuple[Stage, ...] | None = None,
    ) -> None:
        super().__init__(stages if stages is not None else DIKE_STAGES)
        self.config = config or DikeConfig()
        if name is not None:
            self.name = name
        elif self.config.goal is AdaptationGoal.FAIRNESS:
            self.name = "dike-af"
        elif self.config.goal is AdaptationGoal.PERFORMANCE:
            self.name = "dike-ap"
        else:
            self.name = "dike"
        self._initial_config = self.config

    # ----------------------------------------------------------- lifecycle

    def prepare(self, context: SchedulingContext) -> None:
        super().prepare(context)
        self.config = self._initial_config
        groups = {t.tid: t.group for t in context.threads}
        self.observer = Observer(self.config, context.topology.n_vcores, groups)
        self.selector = Selector(self.config)
        self.predictor = Predictor(self.config)
        self.decider = Decider(self.config)
        self.migrator = Migrator()
        self.optimizer = Optimizer(self.config)
        # Observability: every component shares the run's event bus.
        for component in (
            self.observer, self.selector, self.predictor,
            self.decider, self.migrator, self.optimizer,
        ):
            component.bus = context.bus
        #: registered next-quantum predictions as columns (tid,
        #: quantum_index_of_prediction, time_s, predicted_rate), one entry
        #: per tid in registration order.
        self._pending = _NO_PENDING
        #: retired predictions, one column chunk per quantum in
        #: ``PredictionColumns`` order; joined once when drained.
        self._record_chunks: list[tuple[np.ndarray, ...]] = []
        #: (quantum_index, swap_size, quanta_length_s) adaptation trajectory
        self._config_history: list[tuple[int, int, float]] = [
            (0, self.config.swap_size, self.config.quanta_length_s)
        ]

    def quantum_length_s(self) -> float:
        return self.config.quanta_length_s

    # ------------------------------------------------------------- decision
    #
    # `decide` itself is StagePipeline.decide: run the declared stages over
    # a fresh StageState, bracketed by the two hooks below.

    def begin_quantum(self, state: StageState) -> None:
        # Anchor this decision cycle's events to the quantum whose
        # counters drive it; stages stamp their events from `bus.now`.
        self.bus.at(state.counters.quantum_index, state.counters.time_s)

    def end_quantum(self, state: StageState) -> None:
        # Register next-quantum predictions for every live thread — the
        # quantity Figures 7/8 score.  The closed-loop model's stay-case is
        # persistence ("if thread t_l stays on the same core, we expect it
        # to keep the same access rate"); for swapped threads the moved-case
        # estimate applies: the destination core's bandwidth, capped by the
        # thread's own demand (a compute thread will not consume a fast
        # core's entire memory bandwidth no matter where it lands).
        counters, report, placement = state.counters, state.report, state.placement
        demand = report.demand_estimate or {}
        rates = report.access_rate
        # A dict first: a swapped thread keeps its place and takes the
        # moved-case registration.
        fresh = {t: r for t in placement if (r := rates.get(t, 0.0)) > 0.0}
        for pred in state.accepted:
            for tid, dest_bw in (
                (pred.pair.t_l, report.core_bw.get(placement[pred.pair.t_h])),
                (pred.pair.t_h, report.core_bw.get(placement[pred.pair.t_l])),
            ):
                moved_case = dest_bw if dest_bw is not None else float("nan")
                bound = demand.get(tid, float("inf"))
                predicted = min(moved_case, bound)
                if predicted == predicted:  # not NaN
                    fresh[tid] = max(
                        predicted - self.predictor.overhead(predicted), 0.0
                    )
        if not fresh:
            return
        n = len(fresh)
        tids = np.fromiter(fresh, np.int64, n)
        quantum = np.full(n, counters.quantum_index, dtype=np.int64)
        time_s = np.full(n, counters.time_s, dtype=np.float64)
        predicted = np.fromiter(fresh.values(), np.float64, n)
        old_tid, old_q, old_t, old_rate = self._pending
        if old_tid.size:
            # Dict semantics: a tid still pending keeps its place and takes
            # the new registration.
            all_tids = old_tid.tolist() + tids.tolist()
            latest = dict(zip(all_tids, range(len(all_tids))))
            rows = np.fromiter(latest.values(), np.int64, len(latest))
            tids = np.fromiter(latest, np.int64, len(latest))
            quantum = np.concatenate((old_q, quantum))[rows]
            time_s = np.concatenate((old_t, time_s))[rows]
            predicted = np.concatenate((old_rate, predicted))[rows]
        self._pending = (tids, quantum, time_s, predicted)

    # ------------------------------------------------------------ internals

    def _set_config(self, cfg: DikeConfig, quantum_index: int) -> None:
        self.config = cfg
        self.selector.config = cfg
        self.predictor.config = cfg
        self.decider.config = cfg
        self.observer.config = cfg
        self._config_history.append(
            (quantum_index, cfg.swap_size, cfg.quanta_length_s)
        )

    def _backfill_predictions(self, counters, report) -> None:
        """Match predictions from the previous quantum with measurements.

        Every pending prediction registered before this quantum is
        retired; those whose thread reports a positive rate become one
        column chunk of records, in registration order.
        """
        tid, q, t, predicted = self._pending
        if not tid.size:
            return
        due = q < counters.quantum_index
        actual = np.fromiter(
            map(report.access_rate.get, tid.tolist(), repeat(0.0)),
            np.float64,
            tid.size,
        )
        hit = due & (actual > 0.0)
        chunk = (t[hit], q[hit], tid[hit], predicted[hit], actual[hit])
        if hit.any():
            self._record_chunks.append(chunk)
        if self.metrics is not None:
            errors = self.metrics.histogram("dike.prediction_abs_rel_error")
            for e in (np.abs(chunk[3] - chunk[4]) / chunk[4]).tolist():
                errors.observe(e)
        if due.all():
            self._pending = _NO_PENDING
        else:
            self._pending = tuple(column[~due] for column in self._pending)

    def drain_prediction_records(self) -> PredictionColumns:
        records = PredictionColumns.concatenate(self._record_chunks)
        self._record_chunks = []
        return records

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info.update(self._initial_config.describe())
        history = getattr(self, "_config_history", None)
        if history is not None:
            info["config_history"] = tuple(history)
        return info
