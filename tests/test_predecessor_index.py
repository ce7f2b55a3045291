"""Tests for the indexed predecessor lookup (:mod:`repro.core.predecessor_index`).

The index must be invisible in the results: the event- and mixed-grained
aggregators, which fold qualifying predecessors through it, must agree with
the GRETA baseline (which keeps the scan over every stored event) and with
the enumeration oracle, over every comparison operator and over keys the
index cannot order (missing, NaN, bool, str) or order keys it cannot trust
(equal timestamps with equal sequence numbers).  The guard tests make sure
the event-trends queries really take the index and that what cannot be
indexed still scans.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyzer.granularity import Granularity
from repro.analyzer.plan import ORDERED, SCAN, TOTAL, CograPlan, plan_query
from repro.baselines import CograApproach, GretaApproach, TrendOracle
from repro.core.base import create_aggregator
from repro.core.engine import CograEngine
from repro.core.event_grained import EventGrainedAggregator
from repro.core.mixed_grained import MixedGrainedAggregator
from repro.core.predecessor_index import BLOCK
from repro.datasets.stock import StockConfig, generate_stock_stream
from repro.events.event import Event
from repro.extensions.negation import (
    NegationEventGrainedAggregator,
    create_negation_aggregator,
    plan_negated_query,
)
from repro.query.aggregates import avg, count_star, count_type, max_of, min_of, sum_of
from repro.query.ast import KleenePlus, atom, kleene_plus, sequence
from repro.query.builder import QueryBuilder
from repro.query.parser import parse_query
from repro.query.predicates import AdjacentPredicate, comparison
from repro.query.windows import WindowSpec
from repro.streaming.runtime import StreamingRuntime

from helpers import assert_results_equal

WINDOW = "GROUP-BY company WITHIN 10 seconds SLIDE 5 seconds"
#: the two queries of the benchmark's event-trends workload
EVENT_QUERY = (
    "RETURN company, COUNT(*), MIN(S.price), MAX(S.price) PATTERN Stock S+ "
    f"WHERE S.price < NEXT(S).price SEMANTICS skip-till-any-match {WINDOW}"
)
MIXED_QUERY = (
    "RETURN company, COUNT(*), MIN(A.price), MAX(B.price) "
    "PATTERN SEQ(Stock A+, Stock B+) WHERE A.price > NEXT(A).price "
    f"SEMANTICS skip-till-any-match {WINDOW}"
)

OPERATORS = ["<", "<=", ">", ">=", "=", "!="]
RANGE_OPERATORS = ["<", "<=", ">", ">="]

#: aggregates over a clean float attribute ``v``; the predicate keys are ``x``
AGGREGATES = [
    count_star(),
    count_type("A"),
    min_of("A", "v"),
    max_of("A", "v"),
    sum_of("A", "v"),
    avg("A", "v"),
]


def build_query(pattern, predicates, aggregates=AGGREGATES, window=None, group_by=()):
    builder = QueryBuilder().pattern(pattern).semantics("skip-till-any-match")
    builder.window(window)
    for spec in aggregates:
        builder.aggregate(spec)
    for predicate in predicates:
        builder.where(predicate)
    if group_by:
        builder.group_by(*group_by)
    return builder.build()


def agree(query, events, oracle=True):
    """Indexed COGRA (selected and forced-EVENT plans) == GRETA (== oracle)."""
    reference = GretaApproach().run(query, events)
    if oracle:
        assert_results_equal(reference, TrendOracle(query).run(events))
    assert_results_equal(CograApproach().run(query, events), reference)
    forced = CograApproach(granularity=Granularity.EVENT).run(query, events)
    assert_results_equal(forced, reference)


# -- streams -----------------------------------------------------------------------

NUMERIC_KEYS = st.one_of(
    st.integers(min_value=-2, max_value=3),
    st.sampled_from([-1.5, 0.5, 1.0, 2.5]),
)
#: keys the index cannot order: missing, NaN, bool -- mixed with numbers
ODD_KEYS = st.one_of(
    NUMERIC_KEYS, st.none(), st.just(math.nan), st.booleans()
)
STRING_KEYS = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
VALUES = st.sampled_from([-0.7, 0.1, 0.25, 1.5, 2.2])


@st.composite
def streams(draw, max_events=8, keys=NUMERIC_KEYS, types="AB", ties=False):
    """A small time-ordered stream: predicate keys ``x``, ``y``, values ``v``.

    A ``None`` key leaves the attribute out.  With ``ties`` timestamps
    repeat and sequence numbers may stay equal (as for events built without
    one), so a stored event need not precede a new one in ``order_key``;
    the order key never decreases.
    """
    count = draw(st.integers(min_value=0, max_value=max_events))
    events = []
    time = 0.0
    sequence_number = -1
    for _ in range(count):
        if ties:
            time += draw(st.sampled_from([0.0, 0.0, 1.0]))
            sequence_number += draw(st.integers(min_value=0, max_value=1))
        else:
            time += 1.0
            sequence_number += 1
        attributes = {"v": draw(VALUES), "g": draw(st.integers(0, 1))}
        for name in ("x", "y"):
            key = draw(keys)
            if key is not None:
                attributes[name] = key
        events.append(Event(draw(st.sampled_from(types)), time, attributes, sequence_number))
    return events


KLEENE_A = kleene_plus("A")
SEQ_AB = sequence(kleene_plus("A"), atom("B"))
RUNNING_EXAMPLE = KleenePlus(sequence(kleene_plus("A"), atom("B")))


# -- plan-time classification ----------------------------------------------------------


def lookup_of(plan: CograPlan, predecessor: str, successor: str):
    return dict(plan.predecessor_lookups[successor])[predecessor]


class TestPairClassification:
    def test_event_trends_queries(self):
        event_plan = plan_query(parse_query(EVENT_QUERY))
        assert event_plan.granularity is Granularity.EVENT
        assert tuple(lookup_of(event_plan, "S", "S")) == (ORDERED, "price", "<", "price")

        mixed_plan = plan_query(parse_query(MIXED_QUERY))
        assert mixed_plan.granularity is Granularity.MIXED
        assert tuple(lookup_of(mixed_plan, "A", "A")) == (ORDERED, "price", ">", "price")
        assert lookup_of(mixed_plan, "A", "B").kind == TOTAL
        assert "A->B total" in mixed_plan.describe()

    def test_next_on_the_left_is_flipped(self):
        query = parse_query(
            "RETURN COUNT(*) PATTERN SEQ(A+, B) WHERE NEXT(B).y >= A.x "
            "SEMANTICS skip-till-any-match"
        )
        assert tuple(lookup_of(plan_query(query), "A", "B")) == (ORDERED, "x", "<=", "y")

    @pytest.mark.parametrize("op", ["=", "!="])
    def test_equality_operators_scan(self, op):
        plan = plan_query(build_query(KLEENE_A, [comparison("A", "x", op, "A")]))
        assert lookup_of(plan, "A", "A").kind == SCAN

    def test_opaque_and_multiple_predicates_scan(self):
        opaque = AdjacentPredicate("A", "A", lambda a, b: a.time < b.time)
        assert lookup_of(plan_query(build_query(KLEENE_A, [opaque])), "A", "A").kind == SCAN
        both = [comparison("A", "x", "<", "A"), comparison("A", "y", ">", "A")]
        assert lookup_of(plan_query(build_query(KLEENE_A, both)), "A", "A").kind == SCAN

    def test_predicate_free_pairs_scan_under_event_granularity(self):
        query = build_query(SEQ_AB, [comparison("A", "x", "<", "A")])
        assert lookup_of(plan_query(query), "A", "B").kind == TOTAL
        forced = plan_query(query, forced_granularity=Granularity.EVENT)
        assert lookup_of(forced, "A", "B").kind == SCAN
        assert lookup_of(forced, "A", "A").kind == ORDERED


# -- indexed == GRETA scan == oracle ---------------------------------------------------


class TestAgreesWithScanAndOracle:
    @settings(max_examples=25, deadline=None)
    @given(events=streams(types="A"), op=st.sampled_from(OPERATORS))
    def test_every_operator_on_one_kleene_variable(self, events, op):
        agree(build_query(KLEENE_A, [comparison("A", "x", op, "A")]), events)

    @settings(max_examples=25, deadline=None)
    @given(events=streams(), op=st.sampled_from(OPERATORS))
    def test_cross_variable_different_attributes(self, events, op):
        query = build_query(
            RUNNING_EXAMPLE,
            [comparison("A", "x", op, "B", "y")],
            aggregates=AGGREGATES + [sum_of("B", "v"), max_of("B", "v")],
        )
        agree(query, events)

    @settings(max_examples=25, deadline=None)
    @given(events=streams(keys=ODD_KEYS), op=st.sampled_from(RANGE_OPERATORS))
    def test_missing_nan_and_bool_keys(self, events, op):
        query = build_query(
            RUNNING_EXAMPLE,
            [comparison("A", "x", op, "A"), comparison("A", "y", op, "B", "x")],
        )
        agree(query, events)

    @pytest.mark.parametrize("op", RANGE_OPERATORS)
    @pytest.mark.parametrize("keys", [[0, 2, True, 1.5, False], [True, 0, 2, 1.5]])
    def test_bool_probe_or_key_among_numbers(self, op, keys):
        events = [
            Event("A", float(index + 1), {"x": key, "v": 0.5}, index)
            for index, key in enumerate(keys)
        ]
        events.append(Event("B", 9.0, {"v": 1.0}, len(keys)))
        agree(build_query(SEQ_AB, [comparison("A", "x", op, "A")]), events)

    @settings(max_examples=20, deadline=None)
    @given(events=streams(keys=STRING_KEYS), op=st.sampled_from(RANGE_OPERATORS))
    def test_string_keys(self, events, op):
        agree(build_query(SEQ_AB, [comparison("A", "x", op, "A")]), events)

    @settings(max_examples=25, deadline=None)
    @given(events=streams(ties=True), op=st.sampled_from(RANGE_OPERATORS))
    def test_equal_timestamps_and_sequence_numbers(self, events, op):
        agree(build_query(SEQ_AB, [comparison("A", "x", op, "A")]), events)

    @settings(max_examples=20, deadline=None)
    @given(events=streams(max_events=9), op=st.sampled_from(RANGE_OPERATORS))
    def test_group_by_with_sliding_windows(self, events, op):
        query = build_query(
            SEQ_AB,
            [comparison("A", "x", op, "A")],
            window=WindowSpec(4.0, 2.0),
            group_by=("g",),
        )
        agree(query, events)

    @settings(max_examples=10, deadline=None)
    @given(
        events=streams(max_events=6 * BLOCK, keys=st.integers(0, 12)),
        op=st.sampled_from(RANGE_OPERATORS),
    )
    def test_many_blocks_with_duplicate_keys(self, events, op):
        # too many trends for the oracle; the scan is the reference
        query = build_query(SEQ_AB, [comparison("A", "x", op, "A")])
        agree(query, events, oracle=False)


# -- the index is taken where it can be, and only there ---------------------------------


@pytest.fixture
def adjacency_calls(monkeypatch):
    """Counts :meth:`CograPlan.adjacency_satisfied` calls."""
    calls = []
    original = CograPlan.adjacency_satisfied

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(CograPlan, "adjacency_satisfied", counted)
    return calls


class TestNoSilentScan:
    @pytest.mark.parametrize(
        "text, aggregator_class",
        [(EVENT_QUERY, EventGrainedAggregator), (MIXED_QUERY, MixedGrainedAggregator)],
    )
    def test_event_trends_queries_never_scan(self, adjacency_calls, text, aggregator_class):
        events = list(generate_stock_stream(StockConfig(event_count=1500, seed=1)))
        engine = CograEngine(parse_query(text))
        assert isinstance(create_aggregator(engine.plan), aggregator_class)
        results = engine.run(events)
        assert adjacency_calls == []
        assert sum(result.trend_count for result in results) > 0

    def test_opaque_table6_predicate_still_scans(self, adjacency_calls, figure2_stream):
        table6 = AdjacentPredicate(
            "B", "A", lambda b, a: not (b.time == 6.0 and a.time == 7.0), "Table 6 restriction"
        )
        aggregator = MixedGrainedAggregator(
            plan_query(build_query(RUNNING_EXAMPLE, [table6], aggregates=[count_star()]))
        )
        for event in figure2_stream:
            aggregator.process(event)
        assert aggregator.final_accumulator().trend_count == 33
        assert adjacency_calls

    def test_negation_aggregator_keeps_its_positional_scan(self, adjacency_calls):
        query = parse_query(
            "RETURN COUNT(*) PATTERN SEQ(A+, NOT C, B) WHERE A.x < NEXT(A).x "
            "SEMANTICS skip-till-any-match"
        )
        plan, analysis = plan_negated_query(query)
        aggregator = create_negation_aggregator(plan, analysis.components)
        assert isinstance(aggregator, NegationEventGrainedAggregator)
        for index, kind in enumerate("AACABAAB"):
            aggregator.process(Event(kind, float(index), {"x": index % 4}, index))
        assert aggregator._index is None
        assert adjacency_calls

    def test_sub_streams_that_never_look_up_build_nothing(self):
        plan = plan_query(build_query(SEQ_AB, [comparison("A", "x", "<", "A")]))
        aggregator = MixedGrainedAggregator(plan)
        aggregator.process(Event("B", 1.0, {"x": 1}, 0))
        aggregator.process(Event("A", 2.0, {"x": 1}, 1))
        assert aggregator._index is None
        aggregator.process(Event("A", 3.0, {"x": 2}, 2))
        assert aggregator._index is not None


# -- restore ----------------------------------------------------------------------------

RESTORE_QUERY = """
    RETURN g, COUNT(*), SUM(A.v), AVG(A.v), MAX(B.v)
    PATTERN SEQ(A+, B+)
    SEMANTICS skip-till-any-match
    WHERE A.x > NEXT(A).x
    GROUP-BY g
    WITHIN 20 seconds SLIDE 10 seconds
"""


def restore_stream():
    return [
        Event(
            "AB"[index % 3 == 2],
            index * 0.25,
            {"g": index % 2, "x": (index * 7) % 11, "v": 0.1 * ((index * 5) % 9)},
            index,
        )
        for index in range(400)
    ]


def record_bytes(records):
    return [json.dumps(record.as_dict(), sort_keys=True) for record in records]


class TestRestore:
    def test_mid_window_restore_is_byte_identical(self):
        events = restore_stream()
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(RESTORE_QUERY, name="q")
        uninterrupted = record_bytes(runtime.run(events))

        cut = 150  # 37.5 s: inside the open windows [20, 40) and [30, 50)
        first = StreamingRuntime(lateness=0.0)
        first.register(RESTORE_QUERY, name="q")
        records = list(first.process_batch(events[:cut]))
        executor = first.engine("q").executor
        materialised = [
            aggregator
            for aggregator in executor._aggregators.values()
            if aggregator._index is not None
        ]
        assert materialised, "the cut must fall after the index materialised"
        state = json.loads(json.dumps(first.checkpoint()))

        # the snapshot holds no index state: the same keys as the scan's
        for _, _, snapshot in state["executors"]["q"]["aggregators"]:
            assert snapshot["class"] == "MixedGrainedAggregator"
            assert sorted(snapshot) == ["class", "events_processed", "state"]
            assert sorted(snapshot["state"]) == ["event_cells", "final", "type_cells"]

        resumed = StreamingRuntime(lateness=0.0)
        resumed.register(RESTORE_QUERY, name="q")
        resumed.restore(state)
        records.extend(resumed.process_batch(events[cut:]))
        records.extend(resumed.flush())
        assert record_bytes(records) == uninterrupted
