"""GRETA baseline: graph-based online event trend aggregation.

GRETA (Poppe, Lei, Rundensteiner, Maier, VLDB 2017) computes trend
aggregates online -- it never constructs trends -- but it maintains the
aggregates at the *finest* granularity: every matched event becomes a node
of the GRETA graph, keeps its own intermediate aggregate, and edges connect
an event to all of its predecessor events.  Consequently

* every matched event of the window is stored for the lifetime of the
  window (memory grows linearly with the number of matched events), and
* processing a new event touches every compatible previous event
  (quadratic time), even when the query has no predicates on adjacent
  events and a per-type aggregate would have sufficed.

Per Table 9, GRETA supports Kleene closure and predicates on adjacent
events but only the skip-till-any-match semantics.

This baseline deliberately keeps the scan over every stored node: it
models the paper's competitor, so the indexed predecessor lookup of
:mod:`repro.core.predecessor_index` is not applied here.  That also makes
it the scan reference the index is tested against.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.analyzer.plan import CograPlan
from repro.baselines.base import ANY_ONLY, ApproachCapabilities, BaselineApproach
from repro.core.aggregate_state import TrendAccumulator
from repro.events.event import Event


class GretaApproach(BaselineApproach):
    """Event-grained online aggregation over the GRETA graph."""

    name = "greta"
    capabilities = ApproachCapabilities(
        kleene_closure=True,
        semantics=ANY_ONLY,
        adjacent_predicates=True,
        online_trend_aggregation=True,
    )

    def aggregate_substream(self, plan: CograPlan, events: List[Event]) -> TrendAccumulator:
        #: the GRETA graph: one node per matched event binding
        nodes: List[Tuple[Event, str, TrendAccumulator]] = []
        total = TrendAccumulator.zero(plan.targets)
        for event in events:
            bindings = plan.candidate_variables(event)
            if not bindings:
                continue
            new_nodes: List[Tuple[Event, str, TrendAccumulator]] = []
            for variable in bindings:
                predecessor_variables = plan.automaton.pred_types(variable)
                predecessor = TrendAccumulator.zero(plan.targets)
                for stored_event, stored_variable, stored_cell in nodes:
                    if stored_variable not in predecessor_variables:
                        continue
                    if plan.adjacency_satisfied(stored_event, stored_variable, event, variable):
                        predecessor.merge(stored_cell)
                cell = predecessor.extended(event, variable)
                if plan.is_start(variable):
                    cell.merge(TrendAccumulator.singleton(event, variable, plan.targets))
                new_nodes.append((event, variable, cell))
            nodes.extend(new_nodes)
            self._account_storage(
                sum(1 + cell.storage_units for _, _, cell in nodes)
            )
        for _, variable, cell in nodes:
            if plan.is_end(variable):
                total.merge(cell)
        return total
