"""Runtime executor: windows, grouping and result emission (Section 7).

The executor consumes a time-ordered event stream and routes every event to
one sub-stream aggregator per (window, group) combination.  Aggregator
instances are created lazily on the first event of a sub-stream and torn
down as soon as their window expires, at which point the aggregation result
of every group in the window is emitted.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analyzer.plan import CograPlan, plan_query
from repro.core.base import SubstreamAggregator, create_aggregator
from repro.core.partitioner import window_bounds
from repro.core.results import GroupResult
from repro.errors import StreamOrderError
from repro.events.event import Event
from repro.query.query import Query

_NO_SEQUENCE = float("-inf")


class QueryExecutor:
    """Evaluates one event trend aggregation query over a stream.

    Parameters
    ----------
    query:
        The query to evaluate, or an already-computed :class:`CograPlan`.
    emit_empty_groups:
        When True, groups whose final trend count is zero are still emitted
        (with ``COUNT(*) = 0`` and ``None`` extrema).  Defaults to False,
        matching the usual CEP behaviour of reporting only matched groups.
    aggregator_factory:
        Callable mapping a plan to a fresh sub-stream aggregator.  Defaults
        to :func:`~repro.core.base.create_aggregator`; the negation
        extension substitutes negation-aware aggregators here.
    """

    def __init__(self, query, emit_empty_groups: bool = False, aggregator_factory=None):
        if isinstance(query, CograPlan):
            self.plan = query
        elif isinstance(query, Query):
            self.plan = plan_query(query)
        else:
            raise TypeError(f"expected a Query or CograPlan, got {type(query).__name__}")
        self.query = self.plan.query
        self.emit_empty_groups = emit_empty_groups
        self._aggregator_factory = aggregator_factory or create_aggregator

        window = self.query.window
        #: set for count-based tumbling windows, which place events by
        #: arrival ordinal (``events_seen``) instead of timestamp and close
        #: on arrival of the next window's first event, never on watermarks
        self._count_window = (
            window if window is not None and window.is_count_based else None
        )
        self._aggregators: Dict[Tuple[int, Tuple], SubstreamAggregator] = {}
        self._window_groups: Dict[int, Set[Tuple]] = {}
        #: smallest open window id, or None; window ends grow with the id,
        #: so expiry checks can bail out in O(1) when nothing can close
        self._min_open_window: Optional[int] = None
        self._last_time: Optional[float] = None
        #: sequence number of the last event processed at ``_last_time``;
        #: ``-inf`` when none was (after ``advance_time`` or a restore)
        self._last_sequence: float = _NO_SEQUENCE
        self._events_seen = 0
        self._relevant_types = frozenset(
            self.plan.automaton.variable_types[variable]
            for variable in self.plan.automaton.variables
        )

    # -- streaming interface -------------------------------------------------------

    def process(self, event: Event, partition_key: Optional[Tuple] = None) -> List[GroupResult]:
        """Feed one event; return the results of windows that just closed.

        ``partition_key`` lets a caller that already computed the event's
        grouping key (the streaming runtime routes one event to several
        executors sharing the same partition attributes) skip recomputing it.
        """
        self._check_order(event)
        self._last_time = event.time
        self._last_sequence = event.sequence
        self._events_seen += 1

        count_window = self._count_window
        if count_window is not None:
            window_ids = [count_window.window_of_ordinal(self._events_seen - 1)]
            emitted = self._close_count_windows(window_ids[0])
        else:
            emitted = self._close_expired_windows(event.time)

        if self._is_filtered_out(event):
            return emitted

        key = partition_key if partition_key is not None else self.plan.partition_key(event)
        if count_window is None:
            window = self.query.window
            window_ids = [0] if window is None else window.windows_of(event.time)
        for window_id in window_ids:
            aggregator = self._aggregators.get((window_id, key))
            if aggregator is None:
                aggregator = self._aggregator_factory(self.plan)
                self._aggregators[(window_id, key)] = aggregator
                self._window_groups.setdefault(window_id, set()).add(key)
                if self._min_open_window is None or window_id < self._min_open_window:
                    self._min_open_window = window_id
            aggregator.process(event)
        return emitted

    def batch_is_quiet(self, start_time: float, end_time: float) -> bool:
        """True when an ordered run over ``[start_time, end_time]`` cannot emit.

        "Quiet" means no open window closes during the run and every event
        falls into the same window set, so :meth:`process_batch` may skip
        the per-event expiry checks and feed whole runs to one aggregator.
        Queries without a WITHIN clause never emit mid-stream, so they are
        always quiet.
        """
        window = self.query.window
        if window is None:
            return True
        if window.is_count_based:
            # the run's time span says nothing about ordinal boundaries, so
            # count windows always take the per-event path
            return False
        if (
            self._min_open_window is not None
            and window.window_end(self._min_open_window) <= end_time
        ):
            return False
        return window.windows_of(start_time) == window.windows_of(end_time)

    def process_batch(
        self, events: List[Event], partition_key: Optional[Tuple] = None
    ) -> List[GroupResult]:
        """Feed an ordered run of events; ≡ per-event :meth:`process`.

        When the run is quiet (see :meth:`batch_is_quiet`) the per-event
        order/expiry/window bookkeeping is hoisted out of the loop, the run
        is grouped by partition key, and each target aggregator sees its
        whole group in a single call -- aggregators that expose
        ``process_run`` fold it in one frame.  Grouping non-consecutive
        same-key events together is safe *because* the run is quiet: no
        window closes mid-run, each (window, key) aggregator only ever sees
        its own key's events in their original relative order, and window
        emission sorts group keys -- so state and output are byte-identical
        to the per-event path.  Non-quiet runs fall back to per-event
        processing.

        ``partition_key``, when given, asserts that every event in the run
        shares that key (the caller already grouped), skipping the per-event
        key computation.
        """
        count = len(events)
        if count == 0:
            return []
        if count == 1:
            return self.process(events[0], partition_key=partition_key)
        first_time = events[0].time
        last_time = events[-1].time
        if not self.batch_is_quiet(first_time, last_time):
            emitted: List[GroupResult] = []
            for event in events:
                emitted.extend(self.process(event, partition_key=partition_key))
            return emitted
        self._check_order(events[0])
        previous = events[0].order_key
        for event in events:
            order = event.order_key
            if order < previous:
                raise StreamOrderError(
                    f"event at {order} (time, sequence) arrived after {previous}"
                )
            previous = order
        self._last_time = last_time
        self._last_sequence = events[-1].sequence
        self._events_seen += count
        live = [event for event in events if not self._is_filtered_out(event)]
        if not live:
            return []
        if partition_key is not None:
            groups: Iterable[Tuple[Tuple, List[Event]]] = ((partition_key, live),)
        else:
            key_of = self.plan.partition_key
            grouped: Dict[Tuple, List[Event]] = {}
            for event in live:
                key = key_of(event)
                bucket = grouped.get(key)
                if bucket is None:
                    grouped[key] = [event]
                else:
                    bucket.append(event)
            groups = grouped.items()
        window = self.query.window
        window_ids = [0] if window is None else window.windows_of(first_time)
        aggregators = self._aggregators
        for key, group in groups:
            for window_id in window_ids:
                aggregator = aggregators.get((window_id, key))
                if aggregator is None:
                    aggregator = self._aggregator_factory(self.plan)
                    aggregators[(window_id, key)] = aggregator
                    self._window_groups.setdefault(window_id, set()).add(key)
                    if self._min_open_window is None or window_id < self._min_open_window:
                        self._min_open_window = window_id
                process_run = getattr(aggregator, "process_run", None)
                if process_run is not None:
                    process_run(group)
                elif len(group) == 1:
                    aggregator.process(group[0])
                else:
                    aggregator_process = aggregator.process
                    for event in group:
                        aggregator_process(event)
        return []

    def run(self, events: Iterable[Event]) -> List[GroupResult]:
        """Process a whole stream and return every emitted result."""
        collected: List[GroupResult] = []
        for event in events:
            collected.extend(self.process(event))
        collected.extend(self.flush())
        return collected

    def flush(self) -> List[GroupResult]:
        """Close every remaining window and return its results."""
        emitted: List[GroupResult] = []
        for window_id in sorted(self._window_groups):
            emitted.extend(self._emit_window(window_id))
        self._min_open_window = None
        return emitted

    def advance_time(self, time: float) -> List[GroupResult]:
        """Declare that no event before ``time`` will arrive any more.

        Emits (and evicts) every window whose end lies at or before ``time``
        without processing an event -- the hook the streaming runtime uses to
        drive window emission from watermarks instead of event arrivals.
        Events processed afterwards must carry timestamps ``>= time``.
        """
        if self._last_time is None or time > self._last_time:
            self._last_time = time
            self._last_sequence = _NO_SEQUENCE
        return self._close_expired_windows(time)

    # -- inspection ------------------------------------------------------------------

    @property
    def events_seen(self) -> int:
        """Number of events fed into the executor so far."""
        return self._events_seen

    def open_window_count(self) -> int:
        """Number of windows currently maintained."""
        return len(self._window_groups)

    def open_group_count(self) -> int:
        """Number of (window, group) aggregators currently maintained."""
        return len(self._aggregators)

    def storage_units(self) -> int:
        """Scalar values currently stored across every open aggregator.

        This is the machine-independent memory metric used by the
        benchmark harness to reproduce the paper's memory charts.
        """
        return sum(aggregator.storage_units() for aggregator in self._aggregators.values())

    def stored_event_count(self) -> int:
        """Matched events currently stored across every open aggregator."""
        return sum(
            aggregator.stored_event_count() for aggregator in self._aggregators.values()
        )

    # -- internals ---------------------------------------------------------------------

    def _check_order(self, event: Event) -> None:
        """Reject ``event`` when its ``(time, sequence)`` precedes the last one."""
        last_time = self._last_time
        if last_time is None:
            return
        time = event.time
        if time < last_time or (
            time == last_time and event.sequence < self._last_sequence
        ):
            raise StreamOrderError(
                f"event at {event.order_key} (time, sequence) arrived after "
                f"{(last_time, self._last_sequence)}"
            )

    def _is_filtered_out(self, event: Event) -> bool:
        """Local predicates filter events of pattern types (Section 7).

        Events of types that do not occur in the pattern are never filtered
        here: they are invisible to the skip-till semantics but must still
        reach the pattern-grained aggregator to break contiguity.
        """
        if event.event_type not in self._relevant_types:
            return False
        return not self.plan.candidate_variables(event)

    def _close_count_windows(self, current_window: int) -> List[GroupResult]:
        """Emit every open count window that precedes ``current_window``."""
        if self._min_open_window is None or self._min_open_window >= current_window:
            return []
        emitted: List[GroupResult] = []
        expired = [
            window_id
            for window_id in self._window_groups
            if window_id < current_window
        ]
        for window_id in sorted(expired):
            emitted.extend(self._emit_window(window_id))
        self._min_open_window = (
            min(self._window_groups) if self._window_groups else None
        )
        return emitted

    def _close_expired_windows(self, time: float) -> List[GroupResult]:
        window = self.query.window
        if window is None or window.is_count_based:
            # count windows close on event arrival, not on watermarks
            return []
        if (
            self._min_open_window is None
            or window.window_end(self._min_open_window) > time
        ):
            return []  # the earliest open window is still live
        emitted: List[GroupResult] = []
        expired = [
            window_id
            for window_id in self._window_groups
            if window.window_end(window_id) <= time
        ]
        for window_id in sorted(expired):
            emitted.extend(self._emit_window(window_id))
        self._min_open_window = (
            min(self._window_groups) if self._window_groups else None
        )
        return emitted

    def _emit_window(self, window_id: int) -> List[GroupResult]:
        keys = self._window_groups.pop(window_id, set())
        start, end = window_bounds(self.query.window, window_id)
        emitted: List[GroupResult] = []
        for key in sorted(keys, key=repr):
            aggregator = self._aggregators.pop((window_id, key))
            accumulator = aggregator.final_accumulator()
            if accumulator.trend_count == 0 and not self.emit_empty_groups:
                continue
            group = dict(zip(self.plan.partition_attributes, key))
            emitted.append(
                GroupResult(
                    window_id=window_id,
                    window_start=start,
                    window_end=end,
                    group=group,
                    values=accumulator.results(self.query.aggregates),
                    trend_count=accumulator.trend_count,
                )
            )
        return emitted
