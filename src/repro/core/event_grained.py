"""Event-grained aggregator: the finest granularity (GRETA's strategy).

The mixed-grained aggregator of Section 5 degenerates to *event* granularity
when every pattern variable appears on the predecessor side of some adjacent
predicate (``Tt = ∅``).  This module implements that extreme case as its own
aggregator so that

* the granularity selector can report :class:`~repro.analyzer.granularity.
  Granularity.EVENT` and dispatch to a dedicated implementation, and
* ablation studies can force a coarser-eligible query down to event
  granularity and measure exactly what the coarse-grained strategies save
  (see :mod:`repro.bench.ablation`).

One accumulator is kept per matched event binding -- the node set of the
GRETA graph.  The paper's bound is ``O(n^2)`` time and ``Θ(n)`` space per
sub-stream, the complexity it attributes to GRETA: each new event tests
every stored node of a predecessor variable.  Here the qualifying
predecessors are found through :mod:`repro.core.predecessor_index`: a pair
with one range predicate (``S.price < NEXT(S).price``) costs
``O(n / BLOCK + BLOCK)`` merges per event and no predicate call, so
``O(n^2 / BLOCK)`` per sub-stream.  Predicate-free pairs keep the scan --
they are GRETA's strategy, which the forced-EVENT ablation measures -- as do
``=``, ``!=``, opaque and multi-predicate pairs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analyzer.plan import CograPlan
from repro.core.aggregate_state import TrendAccumulator
from repro.core.base import SubstreamAggregator
from repro.core.predecessor_index import PredecessorIndex
from repro.events.event import Event


class EventGrainedAggregator(SubstreamAggregator):
    """Maintains one trend accumulator per matched event binding."""

    #: built on the first lookup against stored events, so sub-streams that
    #: never look one up pay nothing (restored aggregators start without)
    _index: Optional[PredecessorIndex] = None

    def __init__(self, plan: CograPlan):
        super().__init__(plan)
        #: variable -> list of (event, accumulator of trends ending at that event)
        self._nodes: Dict[str, List[Tuple[Event, TrendAccumulator]]] = {
            variable: [] for variable in plan.automaton.variables
        }
        #: accumulator of all finished trends seen so far
        self._final = TrendAccumulator.zero(plan.targets)

    # -- hot path -----------------------------------------------------------------

    def process(self, event: Event) -> None:
        """Insert ``event`` into the graph and update the affected accumulators."""
        plan = self.plan
        variables = plan.candidate_variables(event)
        if not variables:
            return  # irrelevant events are skipped under skip-till-any-match
        self.events_processed += 1

        staged: List[Tuple[str, TrendAccumulator]] = []
        for variable in variables:
            predecessor = TrendAccumulator.zero(plan.targets)
            for predecessor_variable, lookup in plan.predecessor_lookups[variable]:
                nodes = self._nodes[predecessor_variable]
                if not nodes:
                    continue
                if self._index is None:
                    self._index = PredecessorIndex(plan)
                self._index.fold(
                    predecessor, nodes, predecessor_variable, event, variable, lookup
                )
            cell = predecessor.extended(event, variable)
            if plan.is_start(variable):
                cell.merge(TrendAccumulator.singleton(event, variable, plan.targets))
            staged.append((variable, cell))

        # Staged updates are applied only after every binding has been
        # computed against the pre-event graph, so an event bound to several
        # variables is never its own predecessor (Section 8).
        for variable, cell in staged:
            self._nodes[variable].append((event, cell))
            if plan.is_end(variable):
                self._final.merge(cell)

    # -- results -------------------------------------------------------------------

    def final_accumulator(self) -> TrendAccumulator:
        return self._final.copy()

    def stored_nodes(self, variable: str) -> List[Tuple[Event, TrendAccumulator]]:
        """Stored (event, accumulator) pairs of ``variable`` (for inspection)."""
        return list(self._nodes[variable])

    # -- memory accounting -------------------------------------------------------------

    def storage_units(self) -> int:
        units = self._final.storage_units
        for entries in self._nodes.values():
            for _, cell in entries:
                # the stored event itself counts as one unit besides its cell
                units += 1 + cell.storage_units
        return units

    def stored_event_count(self) -> int:
        return sum(len(entries) for entries in self._nodes.values())
