"""Incremental aggregate cells (Table 8 of the paper) in a flat slot layout.

A :class:`TrendAccumulator` summarises a *multiset of (partial) trends*:
the trend count plus, per aggregation *target* -- a ``(variable,
attribute)`` pair, with attribute ``None`` for ``COUNT(E)`` -- only the
scalars the query's RETURN clause reads.  Which scalars those are is an
:class:`AccumulatorLayout`, built once per plan by :func:`layout_for`:

* the trend count, always (it is not a slot);
* one occurrence count per variable, at target ``(E, None)``, only for
  ``COUNT(E)`` or ``AVG(E.attr)``;
* a sum at ``(E, attr)``, only for ``SUM`` or ``AVG``;
* a min, only for ``MIN``, and a max, only for ``MAX``.

The layout numbers these scalars and every accumulator stores them as one
flat list of slots, so ``merge`` adds and compares two lists index by
index over precomputed index tuples.  Layouts are interned: one layout
object per distinct (targets, components) pair, so two cells can be
merged exactly when their layouts are the same object.  A layout is a
tuple of its targets, so code that only reads targets sees a tuple.
Accumulators built from a bare targets tuple get the *full* layout, all
four of count, sum, min and max per target (the trend-enumeration oracle
uses it, so it does not share the lean slot selection).

Every COGRA granularity attaches accumulators to different anchors -- a
whole pattern, an event type, or a single matched event -- but all of
them manipulate the accumulators through the same three operations:

``merge``
    Combine the summaries of two disjoint trend multisets (used to collect
    the trends ending at all predecessor types/events of a new event).

``extended``
    Derive the summary of the trends obtained by appending a new event to
    every trend of the multiset.  The trend count is unchanged; per-variable
    targets gain one occurrence of the new event per trend.

``singleton``
    The summary of the one-event trend ``(e)`` -- used when the new event is
    bound to a start type of the pattern and therefore begins a new trend.

From a final accumulator (the summary of all finished trends of a group)
:meth:`TrendAccumulator.result_value` extracts the value of any RETURN
clause aggregate the layout was built for.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import InvalidQueryError
from repro.events.event import Event
from repro.query.aggregates import AggregateFunction, AggregateSpec

#: A target is a (variable, attribute) pair; attribute is None for COUNT(E).
Target = Tuple[str, Optional[str]]

#: the scalars a target can keep, in the order a checkpoint lists them
COUNT, SUM, MIN, MAX = "count", "sum", "min", "max"
FULL = (COUNT, SUM, MIN, MAX)

#: the value of each scalar in the summary of the empty trend multiset
_EMPTY = {COUNT: 0, SUM: 0, MIN: None, MAX: None}

#: the scalar each attribute aggregate reads at its ``(E, attr)`` target
_READS = {
    AggregateFunction.SUM: SUM,
    AggregateFunction.AVG: SUM,
    AggregateFunction.MIN: MIN,
    AggregateFunction.MAX: MAX,
}

_INFINITY = float("inf")

_new_accumulator = object.__new__


class AccumulatorLayout(tuple):
    """The targets of an accumulator and the slot of each scalar kept for them.

    Build layouts with :func:`layout_for` or :func:`full_layout`, which
    intern them; the tuple elements are the targets.
    """

    def __new__(cls, targets: Tuple[Target, ...], components: Tuple[tuple, ...]):
        layout = super().__new__(cls, targets)
        #: per target, the kept scalars (a subsequence of :data:`FULL`)
        layout.components = components
        index_of: Dict[Tuple[Target, str], int] = {}
        for target, kept in zip(targets, components):
            for component in kept:
                index_of[(target, component)] = len(index_of)
        layout._index = index_of
        #: number of slots, the scalars besides the trend count
        layout.width = len(index_of)
        #: slot values of the empty trend multiset
        layout.initial = tuple(_EMPTY[component] for _, component in index_of)
        by_component: Dict[str, List[int]] = {c: [] for c in FULL}
        for (_, component), index in index_of.items():
            by_component[component].append(index)
        #: slots merged by addition, by minimum and by maximum
        layout.merge_slots = (
            tuple(by_component[COUNT] + by_component[SUM]),
            tuple(by_component[MIN]),
            tuple(by_component[MAX]),
        )
        #: variable -> the slots an event bound to it updates: (count slots,
        #: one (attribute, sum, min, max slot or None) per attribute target)
        updates: Dict[str, Tuple[list, list]] = {}
        for target, kept in zip(targets, components):
            variable, attribute = target
            counts, attributes = updates.setdefault(variable, ([], []))
            if COUNT in kept:
                counts.append(index_of[(target, COUNT)])
            values = tuple(index_of.get((target, c)) for c in (SUM, MIN, MAX))
            if attribute is not None and values != (None, None, None):
                attributes.append((attribute,) + values)
        layout.updates = {
            variable: (tuple(counts), tuple(attributes))
            for variable, (counts, attributes) in updates.items()
            if counts or attributes
        }
        #: variable -> its occurrence count slot, preferring ``(E, None)``
        count_slots: Dict[str, int] = {}
        for (target, component), index in index_of.items():
            if component == COUNT and (
                target[1] is None or target[0] not in count_slots
            ):
                count_slots[target[0]] = index
        layout._count_slots = count_slots
        return layout

    def __reduce__(self):
        # unpickling and copying must return the interned layout
        return (_intern, (tuple(self), self.components))

    def slot(self, target: Target, component: str) -> Optional[int]:
        """Index of ``component`` of ``target``, or None when not kept."""
        return self._index.get((target, component))

    def count_slot(self, variable: str) -> int:
        """Index of the occurrence count of ``variable``."""
        index = self._count_slots.get(variable)
        if index is None:
            raise InvalidQueryError(f"COUNT({variable}) was not planned for this query")
        return index

    def value_slot(self, target: Target, component: str) -> int:
        """Index of ``component`` of ``target``; raises when not planned."""
        index = self._index.get((target, component))
        if index is None:
            variable, attribute = target
            raise InvalidQueryError(
                f"{component} over {variable}.{attribute} was not planned "
                "for this query"
            )
        return index


_LAYOUTS: Dict[tuple, AccumulatorLayout] = {}


def _intern(
    targets: Tuple[Target, ...], components: Tuple[tuple, ...]
) -> AccumulatorLayout:
    key = (targets, components)
    layout = _LAYOUTS.get(key)
    if layout is None:
        layout = _LAYOUTS[key] = AccumulatorLayout(targets, components)
    return layout


def full_layout(targets: Iterable[Target]) -> AccumulatorLayout:
    """The layout keeping count, sum, min and max of every target."""
    targets = tuple((variable, attribute) for variable, attribute in targets)
    return _intern(targets, (FULL,) * len(targets))


def layout_for(aggregates: Iterable[AggregateSpec]) -> AccumulatorLayout:
    """The lean layout of a RETURN clause: only the scalars it reads.

    Targets keep the order in which the aggregates first name them, with
    ``AVG(E.attr)`` adding ``(E, None)`` after ``(E, attr)``.
    """
    kept: Dict[Target, set] = {}
    for spec in aggregates:
        if spec.is_count_star:
            continue
        function = spec.function
        if function is AggregateFunction.COUNT:
            kept.setdefault((spec.variable, None), set()).add(COUNT)
            continue
        kept.setdefault((spec.variable, spec.attribute), set()).add(_READS[function])
        if function is AggregateFunction.AVG:
            kept.setdefault((spec.variable, None), set()).add(COUNT)
    return _intern(
        tuple(kept),
        tuple(tuple(c for c in FULL if c in wanted) for wanted in kept.values()),
    )


class TrendAccumulator:
    """Summary of a multiset of (partial) event trends.

    Parameters
    ----------
    targets:
        The accumulator's :class:`AccumulatorLayout` (the planner derives
        one from the RETURN clause), or a bare tuple of ``(variable,
        attribute)`` pairs, which selects their full layout.
    """

    __slots__ = ("layout", "trend_count", "_slots")

    def __init__(self, targets: Tuple[Target, ...]):
        if targets.__class__ is AccumulatorLayout:
            layout = targets
        else:
            layout = full_layout(targets)
        self.layout = layout
        self.trend_count = 0
        self._slots = list(layout.initial)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, targets: Tuple[Target, ...]) -> "TrendAccumulator":
        """The summary of the empty trend multiset."""
        return cls(targets)

    @classmethod
    def singleton(
        cls, event: Event, variable: str, targets: Tuple[Target, ...]
    ) -> "TrendAccumulator":
        """The summary of the one trend ``(event)``, ``event`` bound to ``variable``."""
        accumulator = cls(targets)
        accumulator.trend_count = 1
        accumulator._apply_event(event, variable, 1)
        return accumulator

    @classmethod
    def from_target_states(
        cls, targets, trend_count: int, states: Sequence[Sequence]
    ) -> "TrendAccumulator":
        """Inverse of :meth:`target_states` in the layout ``targets``.

        Reads only the scalars the layout keeps, so states written in any
        layout over the same targets load.
        """
        accumulator = cls(targets)
        accumulator.trend_count = trend_count
        layout = accumulator.layout
        slots = accumulator._slots
        for target, kept, state in zip(layout, layout.components, states):
            for component in kept:
                slots[layout.slot(target, component)] = state[FULL.index(component)]
        return accumulator

    def copy(self) -> "TrendAccumulator":
        """An independent copy of this accumulator."""
        duplicate = _new_accumulator(TrendAccumulator)
        duplicate.layout = self.layout
        duplicate.trend_count = self.trend_count
        duplicate._slots = self._slots[:]
        return duplicate

    # -- predicates ----------------------------------------------------------

    @property
    def targets(self) -> AccumulatorLayout:
        """The tracked ``(variable, attribute)`` pairs (the layout itself)."""
        return self.layout

    @property
    def is_empty(self) -> bool:
        """True when the accumulator summarises no trend at all."""
        return self.trend_count == 0

    # -- the three incremental operations -------------------------------------

    def merge(self, other: "TrendAccumulator") -> None:
        """Add the trends summarised by ``other`` to this accumulator."""
        layout = self.layout
        if other.layout is not layout:
            raise ValueError(
                "cannot merge accumulators of different layouts: "
                f"{other.layout.components} into {layout.components}"
            )
        count = other.trend_count
        if not count:
            return
        self.trend_count += count
        additive, minima, maxima = layout.merge_slots
        mine = self._slots
        theirs = other._slots
        if additive:
            for index in additive:
                mine[index] += theirs[index]
        # ``current <= value`` keeps the earlier of tied extrema (1 vs 1.0)
        # and lets a NaN on either side behave as in ``min(a, b)`` written
        # ``a if a <= b else b``
        for index in minima:
            value = theirs[index]
            if value is not None:
                current = mine[index]
                if current is None or not current <= value:
                    mine[index] = value
        for index in maxima:
            value = theirs[index]
            if value is not None:
                current = mine[index]
                if current is None or not current >= value:
                    mine[index] = value

    def merged(self, other: "TrendAccumulator") -> "TrendAccumulator":
        """Non-destructive :meth:`merge`."""
        result = self.copy()
        result.merge(other)
        return result

    def extended(self, event: Event, variable: str) -> "TrendAccumulator":
        """Summary of the trends obtained by appending ``event`` to every trend.

        The trend count is preserved; targets on ``variable`` gain one
        occurrence of the event per extended trend.  Extending an empty
        accumulator yields an empty accumulator (there is nothing to extend).
        """
        result = self.copy()
        if result.trend_count == 0:
            return result
        result._apply_event(event, variable, result.trend_count)
        return result

    def extend(self, event: Event, variable: str) -> None:
        """In-place :meth:`extended`: append ``event`` to every trend.

        For callers that own a scratch accumulator (the type-grained batch
        path builds a fresh predecessor merge per event) this skips the
        defensive copy; the resulting state is identical.
        """
        if self.trend_count == 0:
            return
        self._apply_event(event, variable, self.trend_count)

    def include_singleton(self, event: Event, variable: str) -> None:
        """In-place ``merge(singleton(event, variable, self.layout))``.

        Skips building the intermediate one-trend accumulator.  The state
        updates are identical: merging a fresh singleton adds a trend count
        of 1 and the event's own count/sum/min/max contributions, which is
        exactly one multiplicity-1 application of the event.
        """
        self.trend_count += 1
        self._apply_event(event, variable, 1)

    def extend_batch(
        self, events: Iterable[Event], variable: str
    ) -> "TrendAccumulator":
        """Summary after appending each of ``events`` (in order) to every trend.

        Equivalent to folding :meth:`extended` over ``events`` but with a
        single copy up front.  The trend count is a loop invariant
        (``extended`` never changes it), so every event applies at the same
        multiplicity, and the per-event application order is preserved --
        including the OverflowError saturation behaviour of repeated
        ``extended`` calls.
        """
        result = self.copy()
        trend_count = result.trend_count
        if trend_count == 0:
            return result
        apply_event = result._apply_event
        for event in events:
            apply_event(event, variable, trend_count)
        return result

    def _apply_event(self, event: Event, variable: str, multiplicity: int) -> None:
        """Account for ``event`` occurring once in ``multiplicity`` trends."""
        updates = self.layout.updates.get(variable)
        if updates is None:
            return
        counts, attributes = updates
        slots = self._slots
        for index in counts:
            slots[index] += multiplicity
        values = event.attributes
        for attribute, total, low, high in attributes:
            value = values.get(attribute)
            if value is None:
                continue
            if total is not None:
                try:
                    slots[total] += value * multiplicity
                except OverflowError:
                    # Under skip-till-any-match the trend count is exponential
                    # in the number of events, so SUM/AVG over enormous
                    # windows can exceed the float range; saturate instead.
                    slots[total] = _INFINITY if value >= 0 else -_INFINITY
            if low is not None:
                current = slots[low]
                if current is None or not current <= value:
                    slots[low] = value
            if high is not None:
                current = slots[high]
                if current is None or not current >= value:
                    slots[high] = value

    # -- result extraction ------------------------------------------------------

    def occurrence_count(self, variable: str, attribute: Optional[str] = None) -> int:
        """Total occurrences of ``variable`` over all summarised trends."""
        return self._slots[self.layout.count_slot(variable)]

    def result_value(self, spec: AggregateSpec):
        """Value of the RETURN-clause aggregate ``spec`` for this accumulator.

        MIN/MAX/AVG return ``None`` when no event contributes (for instance
        when the group matched no trend).
        """
        if spec.is_count_star:
            return self.trend_count
        function = spec.function
        layout = self.layout
        slots = self._slots
        if function is AggregateFunction.COUNT:
            return slots[layout.count_slot(spec.variable)]
        component = _READS.get(function)
        if component is None:  # pragma: no cover
            raise InvalidQueryError(f"unsupported aggregation function {function}")
        value = slots[layout.value_slot((spec.variable, spec.attribute), component)]
        if function is AggregateFunction.AVG:
            count = slots[layout.count_slot(spec.variable)]
            if count == 0:
                return None
            return value / count
        return value

    def results(self, specs: Iterable[AggregateSpec]) -> Dict[str, object]:
        """Mapping from column name to value for all requested aggregates."""
        return {spec.name: self.result_value(spec) for spec in specs}

    def target_states(self) -> List[list]:
        """Per target, ``[count, sum, min, max]``; scalars not kept read empty."""
        layout = self.layout
        slots = self._slots
        states = []
        for target in layout:
            state = []
            for component in FULL:
                index = layout.slot(target, component)
                state.append(_EMPTY[component] if index is None else slots[index])
            states.append(state)
        return states

    # -- memory accounting ---------------------------------------------------------

    @property
    def storage_units(self) -> int:
        """Number of scalar values held by the accumulator.

        The trend count plus one per slot: the paper's "number of
        maintained aggregates", which the benchmark harness sums.
        """
        return 1 + self.layout.width

    def __repr__(self) -> str:
        parts = [f"trends={self.trend_count}"]
        layout = self.layout
        for target, kept in zip(layout, layout.components):
            variable, attribute = target
            label = variable if attribute is None else f"{variable}.{attribute}"
            values = " ".join(
                f"{component}={self._slots[layout.slot(target, component)]}"
                for component in kept
            )
            parts.append(f"{label}: {values}")
        return f"TrendAccumulator({', '.join(parts)})"
