"""The COGRA configuration produced by the static query analyzer (Section 3).

A :class:`CograPlan` bundles everything the runtime executor needs:

* the pattern automaton (predecessor-type relation, start/end variables),
* the predicate classification,
* the selected granularity together with the variable split ``Tt`` / ``Te``,
* the aggregation targets derived from the RETURN clause, and
* fast helpers used on the per-event hot path (variable binding, local
  predicate filtering, adjacency checks).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.analyzer.automaton import PatternAutomaton
from repro.analyzer.classifier import PredicateClassification, classify_predicates
from repro.analyzer.granularity import (
    Granularity,
    allowed_granularities,
    select_granularity,
    split_variables,
)
from repro.errors import PlanningError
from repro.events.event import Event
from repro.query.aggregates import AggregateSpec
from repro.query.query import Query
from repro.query.semantics import Semantics


#: predecessor lookup kinds, see :class:`PredecessorLookup`
SCAN, TOTAL, ORDERED = "scan", "total", "ordered"

#: operators whose qualifying predecessors form one range of sorted keys
_RANGE_OPERATORS = frozenset(("<", "<=", ">", ">="))


class PredecessorLookup(NamedTuple):
    """How the executor finds the qualifying stored events of one variable pair.

    * ``ORDERED`` -- the pair's only adjacent predicate is
      ``P.key op NEXT(S).probe`` with a range operator: the qualifying
      predecessors are one range of the stored events sorted by ``key``.
    * ``TOTAL`` -- no adjacent predicate under MIXED granularity: every
      earlier stored event qualifies.
    * ``SCAN`` -- everything else (``=``, ``!=``, opaque conditions, several
      predicates, and predicate-free pairs under EVENT granularity, which
      is GRETA's strategy): test every stored event.
    """

    kind: str
    #: ORDERED: predecessor attribute the stored events are sorted by
    key: Optional[str] = None
    #: ORDERED: one of ``<``, ``<=``, ``>``, ``>=``
    op: Optional[str] = None
    #: ORDERED: successor attribute compared with ``key``
    probe: Optional[str] = None

    def describe(self) -> str:
        if self.kind == ORDERED:
            return f"{self.kind} ({self.key} {self.op} NEXT.{self.probe})"
        return self.kind


class CograPlan:
    """Static analysis result used to configure the runtime executor.

    Parameters
    ----------
    query:
        The query to analyse.
    forced_granularity:
        Optional override of the granularity the selector would pick.  Only
        *finer* (still correct) granularities are accepted -- forcing a
        skip-till-any-match query without adjacent predicates to EVENT
        granularity reproduces GRETA's strategy for ablation studies, while
        forcing a contiguous query to TYPE granularity would be incorrect
        and raises :class:`~repro.errors.PlanningError`.
    """

    def __init__(self, query: Query, forced_granularity: Optional[Granularity] = None):
        self.query = query
        try:
            self.automaton = PatternAutomaton(query.pattern)
        except Exception as exc:
            raise PlanningError(f"cannot analyse pattern {query.pattern!r}: {exc}") from exc
        self.classification: PredicateClassification = classify_predicates(query)
        self.selected_granularity: Granularity = select_granularity(
            query.semantics, self.automaton, self.classification
        )
        self.granularity = self._resolve_granularity(forced_granularity)
        self.type_grained, self.event_grained = split_variables(
            self.automaton, self.classification
        )
        if not self.granularity.keeps_events:
            # TYPE and PATTERN granularities never store per-event aggregates.
            self.type_grained = frozenset(self.automaton.variables)
            self.event_grained = frozenset()
        elif self.granularity is Granularity.EVENT:
            # EVENT granularity stores every matched event (GRETA's strategy).
            self.type_grained = frozenset()
            self.event_grained = frozenset(self.automaton.variables)
        self.targets: Tuple[Tuple[str, Optional[str]], ...] = _aggregation_targets(
            query.aggregates
        )
        self.partition_attributes: Tuple[str, ...] = self.classification.partition_attributes

        # Pre-computed per-variable tables for the hot path.
        self._local_by_variable = {
            variable: tuple(self.classification.local_for(variable))
            for variable in self.automaton.variables
        }
        self._adjacent_by_pair = {
            (pred, succ): tuple(self.classification.adjacent_between(pred, succ))
            for succ in self.automaton.variables
            for pred in self.automaton.pred_types(succ)
        }
        #: successor variable -> ((predecessor variable, lookup), ...) in
        #: ``pred_types`` order
        self.predecessor_lookups = {
            succ: tuple(
                (pred, self._classify_pair(self._adjacent_by_pair[(pred, succ)]))
                for pred in self.automaton.pred_types(succ)
            )
            for succ in self.automaton.variables
        }
        # event types whose candidate variables are event-independent (no
        # local predicate on any variable of the type): the by far most
        # common case, answered with one dict lookup on the hot path
        self._unconditional_by_type = {}
        for event_type in set(self.automaton.variable_types.values()):
            variables = tuple(self.automaton.variables_for_type(event_type))
            if not any(self._local_by_variable.get(v) for v in variables):
                self._unconditional_by_type[event_type] = variables

    def _resolve_granularity(self, forced: Optional[Granularity]) -> Granularity:
        """Apply a forced granularity after checking it preserves correctness."""
        if forced is None:
            return self.selected_granularity
        if isinstance(forced, str):
            try:
                forced = Granularity(forced)
            except ValueError:
                raise PlanningError(
                    f"unknown granularity {forced!r}; valid values: "
                    f"{[g.value for g in Granularity]}"
                ) from None
        allowed = allowed_granularities(self.query.semantics, self.classification)
        if forced not in allowed:
            raise PlanningError(
                f"granularity {forced.value!r} is not correct for a "
                f"{self.query.semantics.value} query "
                f"{'with' if self.classification.has_adjacent_predicates else 'without'} "
                f"adjacent predicates; allowed: {[g.value for g in allowed]}"
            )
        return forced

    def _classify_pair(self, predicates: Tuple) -> PredecessorLookup:
        """The lookup kind of one (predecessor, successor) variable pair."""
        if not predicates:
            if self.granularity is Granularity.MIXED:
                return PredecessorLookup(TOTAL)
            return PredecessorLookup(SCAN)
        if len(predicates) == 1 and predicates[0].comparison_terms is not None:
            key, op, probe = predicates[0].comparison_terms
            if op in _RANGE_OPERATORS:
                return PredecessorLookup(ORDERED, key, op, probe)
        return PredecessorLookup(SCAN)

    # -- event binding -----------------------------------------------------------

    def candidate_variables(self, event: Event) -> Tuple[str, ...]:
        """Variables that ``event`` can be bound to, after local predicates.

        Under the paper's core assumption every event type occurs once, so
        the result has at most one element; with the multi-occurrence
        extension (Section 8) an event may be bound to several variables.
        """
        unconditional = self._unconditional_by_type.get(event.event_type)
        if unconditional is not None:
            return unconditional
        variables = self.automaton.variables_for_type(event.event_type)
        if not variables:
            return ()
        return tuple(
            variable for variable in variables if self.passes_local(event, variable)
        )

    def passes_local(self, event: Event, variable: str) -> bool:
        """True when ``event`` satisfies every local predicate of ``variable``."""
        for predicate in self._local_by_variable.get(variable, ()):
            if not predicate.evaluate(event):
                return False
        return True

    def is_relevant_type(self, event: Event) -> bool:
        """True when the event's type occurs in the pattern at all."""
        return self.automaton.is_relevant_type(event.event_type)

    # -- adjacency ---------------------------------------------------------------

    def adjacency_satisfied(
        self,
        predecessor: Event,
        predecessor_variable: str,
        event: Event,
        variable: str,
    ) -> bool:
        """Definition 7 conditions 1-3 for a candidate adjacent pair.

        Window membership and partition equality (conditions 4-5) are
        guaranteed by the executor, which runs one aggregator instance per
        (window, group) sub-stream.
        """
        if predecessor_variable not in self.automaton.pred_types(variable):
            return False
        if not predecessor.order_key < event.order_key:
            return False
        for predicate in self._adjacent_by_pair.get((predecessor_variable, variable), ()):
            if not predicate.evaluate(predecessor, event):
                return False
        return True

    def adjacent_predicates_between(
        self, predecessor_variable: str, successor_variable: str
    ) -> Tuple:
        """Adjacent predicates constraining the ordered variable pair."""
        return self._adjacent_by_pair.get((predecessor_variable, successor_variable), ())

    # -- convenience -------------------------------------------------------------

    @property
    def semantics(self) -> Semantics:
        """The query's event matching semantics."""
        return self.query.semantics

    def is_start(self, variable: str) -> bool:
        """True when ``variable`` is a start type of the pattern."""
        return self.automaton.is_start(variable)

    def is_end(self, variable: str) -> bool:
        """True when ``variable`` is an end type of the pattern."""
        return self.automaton.is_end(variable)

    def partition_key(self, event: Event) -> Tuple:
        """Grouping key of ``event`` (GROUP-BY plus ``[attr]`` predicates)."""
        return tuple(event.get(attribute) for attribute in self.partition_attributes)

    def describe(self) -> str:
        """Readable multi-line explanation of the plan (like EXPLAIN)."""
        granularity_note = self.granularity.value
        if self.granularity is not self.selected_granularity:
            granularity_note += f" (forced; selector would pick {self.selected_granularity.value})"
        lines = [
            f"query       : {self.query.name}",
            f"semantics   : {self.query.semantics.value}",
            f"granularity : {granularity_note}",
            f"Tt (type)   : {sorted(self.type_grained)}",
            f"Te (event)  : {sorted(self.event_grained)}",
            f"targets     : {[f'{v}.{a}' if a else v for v, a in self.targets] or ['COUNT(*) only']}",
            f"partitions  : {list(self.partition_attributes) or 'none'}",
            f"lookups     : {self._describe_lookups()}",
            self.automaton.describe(),
            self.classification.describe(),
        ]
        return "\n".join(lines)

    def _describe_lookups(self) -> str:
        lookups = [
            f"{pred}->{succ} {lookup.describe()}"
            for succ, pairs in self.predecessor_lookups.items()
            for pred, lookup in pairs
            if pred in self.event_grained
        ]
        return ", ".join(sorted(lookups)) or "none (no stored events)"

    def __repr__(self) -> str:
        return (
            f"CograPlan({self.query.name!r}, granularity={self.granularity.value}, "
            f"Tt={sorted(self.type_grained)}, Te={sorted(self.event_grained)})"
        )


def _aggregation_targets(
    aggregates: Tuple[AggregateSpec, ...]
) -> Tuple[Tuple[str, Optional[str]], ...]:
    """Distinct ``(variable, attribute)`` pairs the accumulators must track."""
    targets: List[Tuple[str, Optional[str]]] = []
    for spec in aggregates:
        target = spec.target
        if target is None:
            continue
        variable, attribute = target
        if spec.function.needs_attribute:
            pair = (variable, attribute)
        else:
            pair = (variable, None)
        if pair not in targets:
            targets.append(pair)
        # AVG needs the per-variable event count as well as the sum.
        if spec.function.value == "AVG" and (variable, None) not in targets:
            targets.append((variable, None))
    return tuple(targets)


def plan_query(query: Query, forced_granularity: Optional[Granularity] = None) -> CograPlan:
    """Run the static query analyzer and return the COGRA configuration.

    ``forced_granularity`` overrides the selector with a finer (still
    correct) granularity; see :class:`CograPlan`.
    """
    return CograPlan(query, forced_granularity=forced_granularity)
