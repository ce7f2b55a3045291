"""Mixed-grained aggregator: Algorithm 2 of the paper (Section 5).

Applicable to queries under skip-till-any-match *with* predicates on
adjacent events.  The pattern variables are split into

* ``Tt`` -- variables whose events never need to be re-examined: a single
  type-grained accumulator suffices, and
* ``Te`` -- variables that appear on the predecessor side of an adjacent
  predicate: their events must be kept (together with an event-grained
  accumulator each) so the predicate can be evaluated against future events.

In the extreme case ``Tt = ∅`` the aggregator degenerates to event-grained
(GRETA-like) aggregation, which is exactly what the granularity selector
reports as :class:`~repro.analyzer.granularity.Granularity.EVENT`.

The paper's bound is ``O(n * (t + n_e))`` time and ``Θ(t + n_e)`` space
where ``t`` is the number of type-grained variables and ``n_e`` the number
of stored events (Theorems 5.2 and 5.3): each event tests every stored
event of a ``Te`` predecessor.  Here the qualifying predecessors are found
through :mod:`repro.core.predecessor_index`: a predicate-free ``Te -> x``
pair costs one merge of a running total, and a pair with one range
predicate (``A.price > NEXT(A).price``) ``O(n_e / BLOCK + BLOCK)`` merges, so
``O(n * (t + n_e / BLOCK + BLOCK))`` time at unchanged space; other pairs
keep the scan.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analyzer.plan import CograPlan
from repro.core.aggregate_state import TrendAccumulator
from repro.core.base import SubstreamAggregator
from repro.core.predecessor_index import PredecessorIndex
from repro.events.event import Event


class MixedGrainedAggregator(SubstreamAggregator):
    """Maintains type-grained cells for ``Tt`` and per-event cells for ``Te``."""

    #: built on the first lookup against stored events, so sub-streams that
    #: never look one up pay nothing (restored aggregators start without)
    _index: Optional[PredecessorIndex] = None

    def __init__(self, plan: CograPlan):
        super().__init__(plan)
        targets = plan.targets
        self._type_grained = plan.type_grained
        self._event_grained = plan.event_grained
        #: Tt variable -> accumulator of all (partial) trends ending at it
        self._type_cells: Dict[str, TrendAccumulator] = {
            variable: TrendAccumulator.zero(targets)
            for variable in plan.automaton.variables
            if variable in self._type_grained
        }
        #: Te variable -> list of (event, accumulator of trends ending at event)
        self._event_cells: Dict[str, List[Tuple[Event, TrendAccumulator]]] = {
            variable: []
            for variable in plan.automaton.variables
            if variable in self._event_grained
        }
        #: accumulator of finished trends that end at an event of a Te variable
        self._final = TrendAccumulator.zero(targets)

    # -- hot path -----------------------------------------------------------------

    def process(self, event: Event) -> None:
        """Algorithm 2, lines 5-14 (generalised to all Table 8 aggregates)."""
        plan = self.plan
        variables = plan.candidate_variables(event)
        if not variables:
            return  # irrelevant events are skipped under skip-till-any-match
        self.events_processed += 1

        staged: List[Tuple[str, TrendAccumulator]] = []
        for variable in variables:
            predecessor = TrendAccumulator.zero(plan.targets)
            for predecessor_variable, lookup in plan.predecessor_lookups[variable]:
                if predecessor_variable in self._type_grained:
                    predecessor.merge(self._type_cells[predecessor_variable])
                    continue
                nodes = self._event_cells[predecessor_variable]
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

        # Apply the staged updates only after every binding has been computed
        # against the pre-event state (an event is never its own predecessor).
        for variable, cell in staged:
            if variable in self._type_grained:
                self._type_cells[variable].merge(cell)
            else:
                self._event_cells[variable].append((event, cell))
                if plan.is_end(variable):
                    self._final.merge(cell)

    # -- results -------------------------------------------------------------------

    def final_accumulator(self) -> TrendAccumulator:
        """Finished-trend summary: Te end events plus Tt end variables."""
        final = self._final.copy()
        for variable in self.plan.automaton.end_variables:
            if variable in self._type_grained:
                final.merge(self._type_cells[variable])
        return final

    def cell(self, variable: str) -> TrendAccumulator:
        """Type-grained accumulator of ``variable`` (must be in ``Tt``)."""
        return self._type_cells[variable]

    def stored_events(self, variable: str) -> List[Tuple[Event, TrendAccumulator]]:
        """Stored (event, accumulator) pairs of a ``Te`` variable."""
        return list(self._event_cells[variable])

    # -- memory accounting -------------------------------------------------------------

    def storage_units(self) -> int:
        units = self._final.storage_units
        units += sum(cell.storage_units for cell in self._type_cells.values())
        for entries in self._event_cells.values():
            for _, cell in entries:
                # the stored event itself counts as one unit besides its cell
                units += 1 + cell.storage_units
        return units

    def stored_event_count(self) -> int:
        return sum(len(entries) for entries in self._event_cells.values())
