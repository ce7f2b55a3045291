"""Tests for the lean accumulator layout (:mod:`repro.core.aggregate_state`).

A plan's accumulators keep only the scalars its RETURN clause reads.  The
arithmetic and its order are those of the full four-scalar layout, so
results must be *byte*-identical to it -- ``repr`` tells ``1`` from ``1.0``
and ``True``, NaN and the infinities -- under every granularity, with
negation, in the GRETA baseline, and against the enumeration oracle (which
keeps the full layout).  The guard tests pin the slot count of the
benchmark's queries.
"""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyzer.granularity import Granularity, allowed_granularities
from repro.analyzer.plan import plan_query
from repro.baselines import GretaApproach, TrendOracle
from repro.baselines.trend_enumeration import aggregate_trends, enumerate_trends
from repro.core.aggregate_state import (
    COUNT,
    MAX,
    MIN,
    SUM,
    TrendAccumulator,
    full_layout,
    layout_for,
)
from repro.core.engine import CograEngine
from repro.core.executor import QueryExecutor
from repro.datasets.stock import StockConfig, generate_stock_stream
from repro.errors import InvalidQueryError
from repro.events.event import Event
from repro.extensions.negation import (
    create_negation_aggregator,
    filter_trends_with_negations,
    plan_negated_query,
    positive_query,
)
from repro.query.aggregates import avg, count_star, count_type, max_of, min_of, sum_of
from repro.query.ast import KleenePlus, Negation, atom, kleene_plus, sequence
from repro.query.builder import QueryBuilder
from repro.query.parser import parse_query
from repro.query.predicates import comparison

WINDOW = "GROUP-BY company WITHIN 10 seconds SLIDE 5 seconds"
#: the queries of the benchmark's event-trends and ingest workloads that
#: aggregate more than the trend count
EVENT_QUERY = (
    "RETURN company, COUNT(*), MIN(S.price), MAX(S.price) PATTERN Stock S+ "
    f"WHERE S.price < NEXT(S).price SEMANTICS skip-till-any-match {WINDOW}"
)
MIXED_QUERY = (
    "RETURN company, COUNT(*), MIN(A.price), MAX(B.price) "
    "PATTERN SEQ(Stock A+, Stock B+) WHERE A.price > NEXT(A).price "
    f"SEMANTICS skip-till-any-match {WINDOW}"
)
PATTERN_QUERY = (
    "RETURN company, COUNT(*), MIN(S.price), MAX(S.price) PATTERN Stock S+ "
    f"SEMANTICS contiguous {WINDOW}"
)

FIGURE2 = KleenePlus(sequence(kleene_plus("A"), atom("B")))
NEGATED = KleenePlus(sequence(kleene_plus("A"), Negation(atom("C")), atom("B")))

#: RETURN clause material: several aggregates share the targets (A, v),
#: (A, None) and (B, v)
AGGREGATE_POOL = [
    count_type("A"),
    count_type("B"),
    sum_of("A", "v"),
    avg("A", "v"),
    min_of("A", "v"),
    max_of("A", "v"),
    sum_of("B", "v"),
    min_of("B", "v"),
    max_of("B", "v"),
    avg("B", "w"),
]
return_clauses = st.lists(
    st.sampled_from(AGGREGATE_POOL), unique=True, max_size=6
).map(lambda specs: [count_star()] + specs)

#: values whose MIN/MAX ties (1, 1.0, True), NaN and SUM overflow depend on
#: the order of the comparisons and additions: lean == full layout only
ODD_VALUES = st.sampled_from(
    [None, math.nan, True, False, 1, 1.0, 0, -2, 2.5, 1e308, -1e308]
)
#: values whose aggregates do not depend on that order: no two values of
#: different types compare equal, no NaN, and every sum is exact
EXACT_VALUES = st.sampled_from([None, True, False, -2, 3, 5, 0.5, -1.5, 2.25])

#: (pattern, semantics, adjacent predicates): type, mixed and pattern plans
SHAPES = [
    (FIGURE2, "skip-till-any-match", ()),
    (FIGURE2, "skip-till-any-match", (comparison("A", "x", "<", "A"),)),
    (FIGURE2, "skip-till-next-match", ()),
    (FIGURE2, "contiguous", ()),
    (NEGATED, "skip-till-any-match", ()),
    (NEGATED, "skip-till-any-match", (comparison("A", "x", "<=", "A"),)),
]


@st.composite
def streams(draw, values, max_events=7, types="ABC"):
    """A time-ordered stream with value attributes ``v``/``w`` and key ``x``."""
    events = []
    for index in range(draw(st.integers(min_value=0, max_value=max_events))):
        attributes = {"x": draw(st.integers(-1, 2)), "g": draw(st.integers(0, 1))}
        for name in ("v", "w"):
            value = draw(values)
            if value is not None:
                attributes[name] = value
        event_type = draw(st.sampled_from(types))
        events.append(Event(event_type, float(index), attributes, index))
    return events


def build_query(shape, aggregates, group_by=("g",)):
    pattern, semantics, predicates = shape
    builder = QueryBuilder().pattern(pattern).semantics(semantics)
    for spec in aggregates:
        builder.aggregate(spec)
    for predicate in predicates:
        builder.where(predicate)
    if group_by:
        builder.group_by(*group_by)
    return builder.build()


def exact(results):
    """Results as text that tells apart ``1``, ``1.0``, ``True`` and NaN."""
    return sorted(
        repr((r.window_id, sorted(r.group.items()), sorted(r.values.items())))
        for r in results
    )


def granularities(query):
    if query.pattern.has_negation:
        plan, _ = plan_negated_query(query)
        candidates = allowed_granularities(plan.semantics, plan.classification)
        return [g for g in candidates if g is not Granularity.MIXED]
    plan = plan_query(query)
    return allowed_granularities(plan.semantics, plan.classification)


def run_engine(query, events, granularity, full=False):
    engine = CograEngine(query, granularity=granularity)
    if full:
        # the same plan with every accumulator in the full layout
        engine.plan.layout = engine.plan.targets = full_layout(engine.plan.targets)
        engine.reset()
    return engine.run(events)


def stored_cells(aggregator):
    """Every accumulator an aggregator currently stores."""
    cells = [aggregator.final_accumulator()]
    variables = aggregator.plan.automaton.variables
    if hasattr(aggregator, "stored_nodes"):
        for variable in variables:
            cells.extend(cell for _, cell in aggregator.stored_nodes(variable))
    if hasattr(aggregator, "stored_events"):
        for variable in variables:
            if variable in aggregator.plan.event_grained:
                cells.extend(cell for _, cell in aggregator.stored_events(variable))
            else:
                cells.append(aggregator.cell(variable))
    if hasattr(aggregator, "last_cell"):
        cells.append(aggregator.last_cell)
    return cells


class TestLayout:
    def test_keeps_only_what_the_return_clause_reads(self):
        layout = layout_for(
            [
                count_star(),
                min_of("A", "x"),
                avg("B", "y"),
                max_of("A", "x"),
                count_type("C"),
                sum_of("A", "x"),
            ]
        )
        # target order is the planner's: first mention, AVG adds (E, None)
        assert tuple(layout) == (("A", "x"), ("B", "y"), ("B", None), ("C", None))
        assert layout.components == ((SUM, MIN, MAX), (SUM,), (COUNT,), (COUNT,))
        assert layout.width == 6
        assert layout_for([count_star()]).width == 0

    def test_bare_targets_keep_all_four_scalars(self):
        targets = (("A", "x"), ("B", None))
        accumulator = TrendAccumulator.zero(targets)
        assert accumulator.layout is full_layout(targets)
        assert accumulator.storage_units == 1 + 4 * len(targets)

    def test_layouts_are_interned(self):
        query = parse_query(MIXED_QUERY)
        layout = plan_query(query).layout
        assert layout is layout_for(query.aggregates)
        forced = plan_query(query, forced_granularity=Granularity.EVENT)
        assert forced.layout is layout
        assert pickle.loads(pickle.dumps(layout)) is layout
        assert copy.deepcopy(layout) is layout
        assert layout == (("A", "price"), ("B", "price"))

    def test_merge_rejects_a_cell_of_another_layout(self):
        targets = (("A", "x"),)
        lean = TrendAccumulator.zero(layout_for([min_of("A", "x")]))
        full = TrendAccumulator.singleton(Event("A", 1.0, {"x": 2}), "A", targets)
        with pytest.raises(ValueError):
            lean.merge(full)
        with pytest.raises(ValueError):
            full.merge(lean)

    def test_an_unplanned_aggregate_is_rejected(self):
        layout = layout_for([min_of("A", "x")])
        accumulator = TrendAccumulator.singleton(Event("A", 1.0, {"x": 2}), "A", layout)
        assert accumulator.result_value(min_of("A", "x")) == 2
        for spec in (max_of("A", "x"), sum_of("A", "x"), count_type("A")):
            with pytest.raises(InvalidQueryError):
                accumulator.result_value(spec)

    @pytest.mark.parametrize(
        "layout",
        [layout_for([min_of("A", "x"), max_of("A", "x")]), full_layout([("A", "x")])],
    )
    def test_extrema_keep_the_held_tie_and_the_nan_rule(self, layout):
        """``held if held <= new else new``: ties keep the held value, a
        held NaN gives way, an arriving NaN takes over."""

        def merged(*values):
            accumulator = TrendAccumulator.zero(layout)
            for value in values:
                event = Event("A", 1.0, {"x": value})
                accumulator.merge(TrendAccumulator.singleton(event, "A", layout))
            return accumulator

        def extrema(accumulator):
            return repr(
                (
                    accumulator.result_value(min_of("A", "x")),
                    accumulator.result_value(max_of("A", "x")),
                )
            )

        assert extrema(merged(1, 1.0)) == "(1, 1)"
        assert extrema(merged(1.0, True)) == "(1.0, 1.0)"
        assert extrema(merged(math.nan, 3)) == "(3, 3)"
        assert extrema(merged(3, math.nan)) == "(nan, nan)"
        accumulator = merged(2.0)
        accumulator.extend(Event("A", 2.0, {"x": 2}), "A")
        assert extrema(accumulator) == "(2.0, 2.0)"
        accumulator.extend(Event("A", 3.0, {"x": math.nan}), "A")
        assert extrema(accumulator) == "(nan, nan)"

    def test_sum_saturates_like_the_full_layout(self):
        # a trend count beyond the float range: value * count overflows
        for value, expected in ((1.5, math.inf), (-1.5, -math.inf)):
            event = Event("A", 1.0, {"x": value})
            states = []
            for layout in (layout_for([sum_of("A", "x")]), full_layout([("A", "x")])):
                accumulator = TrendAccumulator.zero(layout)
                accumulator.trend_count = 2**1100
                accumulator.extend(event, "A")
                assert accumulator.result_value(sum_of("A", "x")) == expected
                states.append(repr(accumulator.target_states()[0][1]))
            assert states[0] == states[1]


class TestSlotCount:
    @pytest.mark.parametrize("text", [EVENT_QUERY, MIXED_QUERY, PATTERN_QUERY])
    def test_benchmark_cells_hold_three_scalars(self, text):
        """Trend count, MIN and MAX: the full layout held 5 or 9."""
        executor = QueryExecutor(parse_query(text))
        config = StockConfig(event_count=800, seed=3)
        for event in generate_stock_stream(config):
            executor.process(event)
        cells = [
            cell
            for aggregator in executor._aggregators.values()
            for cell in stored_cells(aggregator)
        ]
        assert len(cells) > len(executor._aggregators)
        assert {cell.storage_units for cell in cells} == {3}


class TestExactness:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        aggregates=return_clauses,
        events=streams(ODD_VALUES),
    )
    def test_lean_equals_full_layout_byte_for_byte(self, shape, aggregates, events):
        query = build_query(shape, aggregates)
        for granularity in granularities(query):
            lean = run_engine(query, events, granularity)
            full = run_engine(query, events, granularity, full=True)
            assert exact(lean) == exact(full), granularity
        if shape[1] == "skip-till-any-match" and not query.pattern.has_negation:
            assert exact(GretaApproach().run(query, events)) == exact(
                run_engine(query, events, Granularity.EVENT, full=True)
            )

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES[:4]),
        aggregates=return_clauses,
        events=streams(EXACT_VALUES, types="AB"),
    )
    def test_cogra_greta_and_oracle_agree_byte_for_byte(
        self, shape, aggregates, events
    ):
        query = build_query(shape, aggregates)
        oracle = exact(TrendOracle(query).run(events))
        for granularity in granularities(query):
            assert exact(run_engine(query, events, granularity)) == oracle, granularity
        if shape[1] == "skip-till-any-match":
            assert exact(GretaApproach().run(query, events)) == oracle

    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES[4:]),
        aggregates=return_clauses,
        events=streams(EXACT_VALUES),
    )
    def test_negation_agrees_with_filtered_enumeration(self, shape, aggregates, events):
        query = build_query(shape, aggregates, group_by=())
        for granularity in granularities(query):
            plan, analysis = plan_negated_query(query, forced_granularity=granularity)
            aggregator = create_negation_aggregator(plan, analysis.components)
            for event in events:
                aggregator.process(event)
            trends = enumerate_trends(positive_query(query, analysis), events)
            kept = filter_trends_with_negations(analysis.components, events, trends)
            expected = aggregate_trends(plan, events, kept)
            assert aggregator.final_accumulator().layout is plan.layout
            assert repr(aggregator.final_accumulator().results(aggregates)) == repr(
                expected.results(aggregates)
            ), granularity

    def test_sum_overflow_saturates_in_the_engine(self):
        """2^1030 - 1 trends of ``A+``: SUM exceeds the float range."""
        shape = (kleene_plus("A"), "skip-till-any-match", ())
        aggregates = [count_star(), sum_of("A", "v"), sum_of("A", "w")]
        query = build_query(shape, aggregates, group_by=())
        events = [Event("A", float(i), {"v": 1.5, "w": -0.5}, i) for i in range(1030)]
        lean = run_engine(query, events, Granularity.TYPE)
        full = run_engine(query, events, Granularity.TYPE, full=True)
        assert exact(lean) == exact(full)
        values = lean[0].values
        assert values["SUM(A.v)"] == math.inf and values["SUM(A.w)"] == -math.inf
