"""Indexed predecessor lookup for the event-grained variables ``Te``.

The mixed- and event-grained aggregators keep one accumulator per stored
event of a ``Te`` variable.  For each new event they need the merge of the
cells of every stored predecessor that satisfies the pair's adjacency
condition (Definition 7).  Testing every stored event costs ``O(n_e)``
predicate evaluations per event; this module answers the same question
from structures maintained under inserts, using that ``merge`` is a
commutative monoid:

* ``ORDERED`` pairs (one ``P.key op NEXT(S).probe`` predicate with a range
  operator) keep the stored cells sorted by ``key`` in blocks of at most
  :data:`BLOCK` entries, each block carrying the merge of its cells.  A
  lookup merges whole-block aggregates plus the qualifying part of one
  partial block: ``O(n_e / BLOCK + BLOCK)`` merges and no predicate call.
* ``TOTAL`` pairs (no predicate under MIXED granularity) keep one running
  merge of all stored cells: one merge per lookup.
* ``SCAN`` pairs, and every lookup the structures cannot answer exactly,
  test each stored event with :meth:`CograPlan.adjacency_satisfied`.

The structures are derived state.  A structure materialises on the first
lookup against a non-empty node list by replaying the stored nodes in
arrival order through the same ``insert`` that later catches up with new
nodes, so it depends only on the node list: checkpoints carry none of it,
and a restored, migrated or rebalanced aggregator rebuilds it on demand.

Exactness: a structure answers only when the new event's ``order_key`` is
strictly greater than that of every node it holds (so the order condition
of Definition 7 holds for all of them), and only over numeric keys.
``None`` and ``NaN`` keys or probes never qualify, as in
:func:`repro.query.predicates.comparison`; any other non-numeric key or
probe falls back to the scan.  COUNT, MIN, MAX and integer SUM equal the
scan's; float SUM and AVG may differ in the last bits because the cells
are merged in a different order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

from repro.analyzer.plan import ORDERED, SCAN, CograPlan, PredecessorLookup
from repro.core.aggregate_state import TrendAccumulator
from repro.events.event import Event

#: most cells one sorted block holds before it is split in two
BLOCK = 32

#: an order key below every event's ``(time, sequence)``
_BEFORE_ALL = (float("-inf"),)

# what a key or probe value is to a sorted structure (see _key_class)
_NUMBER, _NEVER, _UNORDERED = 0, 1, 2

Node = Tuple[Event, TrendAccumulator]


class PredecessorIndex:
    """Lookup structures over one aggregator's stored ``(event, cell)`` lists.

    The aggregator passes its node list with every call; a structure built
    over a different list object (after a restore) is rebuilt.
    """

    __slots__ = ("_plan", "_structures")

    def __init__(self, plan: CograPlan):
        self._plan = plan
        #: (predecessor variable, sort attribute or None) -> structure
        self._structures: Dict[Tuple[str, Optional[str]], _Structure] = {}

    def fold(
        self,
        into: TrendAccumulator,
        nodes: List[Node],
        predecessor_variable: str,
        event: Event,
        variable: str,
        lookup: PredecessorLookup,
    ) -> None:
        """Merge the cells of the qualifying predecessors in ``nodes`` into ``into``.

        ``nodes`` is the non-empty stored list of ``predecessor_variable``
        and ``event`` is about to be bound to ``variable``.
        """
        kind = lookup.kind
        if kind != SCAN:
            key = (predecessor_variable, lookup.key)
            structure = self._structures.get(key)
            if structure is None or structure.source is not nodes:
                if kind == ORDERED:
                    structure = _SortedCells(nodes, self._plan.targets, lookup.key)
                else:
                    structure = _RunningTotal(nodes, self._plan.targets)
                self._structures[key] = structure
            structure.catch_up()
            # the order condition must hold for every inserted node
            if event.order_key > structure.newest:
                if structure.fold(into, event, lookup):
                    return
        satisfied = self._plan.adjacency_satisfied
        for stored_event, stored_cell in nodes:
            if satisfied(stored_event, predecessor_variable, event, variable):
                into.merge(stored_cell)


def _key_class(value) -> int:
    """How a sorted structure treats ``value`` as a key or probe.

    ``int`` and ``float`` are ordered; ``None`` and ``NaN`` never qualify,
    as in :func:`repro.query.predicates.comparison`; anything else (``bool``
    and ``str`` included) is left to the scan.
    """
    kind = value.__class__
    if kind is float:
        return _NEVER if value != value else _NUMBER
    if kind is int:
        return _NUMBER
    return _NEVER if value is None else _UNORDERED


class _Structure:
    """Derived state over one node list, caught up with it before each lookup."""

    __slots__ = ("source", "consumed", "newest", "targets")

    def __init__(self, nodes: List[Node], targets):
        self.source = nodes
        #: how many nodes of ``source`` have been inserted
        self.consumed = 0
        #: the largest ``order_key`` inserted
        self.newest = _BEFORE_ALL
        self.targets = targets

    def catch_up(self) -> None:
        """Insert the nodes appended since the last lookup, in arrival order."""
        nodes = self.source
        if self.consumed == len(nodes):
            return
        insert = self.insert
        for stored_event, stored_cell in nodes[self.consumed :]:
            order = stored_event.order_key
            if order > self.newest:
                self.newest = order
            insert(stored_event, stored_cell)
        self.consumed = len(nodes)

    def insert(self, event: Event, cell: TrendAccumulator) -> None:
        raise NotImplementedError

    def fold(
        self, into: TrendAccumulator, event: Event, lookup: PredecessorLookup
    ) -> bool:
        """Merge the qualifying cells into ``into``; False asks for the scan.

        Called only when ``event`` follows every inserted node.
        """
        raise NotImplementedError


class _RunningTotal(_Structure):
    """The merge of every stored cell of a ``TOTAL`` pair's predecessor."""

    __slots__ = ("total",)

    def __init__(self, nodes: List[Node], targets):
        super().__init__(nodes, targets)
        self.total = TrendAccumulator.zero(targets)

    def insert(self, event: Event, cell: TrendAccumulator) -> None:
        self.total.merge(cell)

    def fold(
        self, into: TrendAccumulator, event: Event, lookup: PredecessorLookup
    ) -> bool:
        into.merge(self.total)
        return True


class _SortedCells(_Structure):
    """Stored cells sorted by one numeric attribute, in aggregated blocks.

    Blocks partition the sorted sequence: every key of block ``i`` is at
    most every key of block ``i + 1``.  ``mins``/``maxes`` hold each
    block's first and last key for bisecting across blocks.
    """

    __slots__ = ("attribute", "ordered", "keys", "cells", "aggregates", "mins", "maxes")

    def __init__(self, nodes: List[Node], targets, attribute: str):
        super().__init__(nodes, targets)
        self.attribute = attribute
        #: False once a stored key is neither a number, None nor NaN
        self.ordered = True
        self.keys: List[list] = []
        self.cells: List[list] = []
        self.aggregates: List[TrendAccumulator] = []
        self.mins: list = []
        self.maxes: list = []

    def insert(self, event: Event, cell: TrendAccumulator) -> None:
        key = event.get(self.attribute)
        key_class = _key_class(key)
        if key_class != _NUMBER:
            if key_class == _UNORDERED:
                self.ordered = False
            return
        maxes = self.maxes
        if not maxes:
            self.keys.append([])
            self.cells.append([])
            self.aggregates.append(TrendAccumulator.zero(self.targets))
            self.mins.append(key)
            maxes.append(key)
        block = min(bisect_right(maxes, key), len(maxes) - 1)
        keys = self.keys[block]
        cells = self.cells[block]
        position = bisect_right(keys, key)
        keys.insert(position, key)
        cells.insert(position, cell)
        if len(keys) > BLOCK:
            self._split(block)
            return
        self.aggregates[block].merge(cell)
        self.mins[block] = keys[0]
        maxes[block] = keys[-1]

    def _split(self, block: int) -> None:
        keys = self.keys[block]
        cells = self.cells[block]
        half = len(keys) // 2
        upper_keys, upper_cells = keys[half:], cells[half:]
        del keys[half:], cells[half:]
        self.keys.insert(block + 1, upper_keys)
        self.cells.insert(block + 1, upper_cells)
        self.aggregates[block] = self._merged(cells)
        self.aggregates.insert(block + 1, self._merged(upper_cells))
        self.mins[block] = keys[0]
        self.maxes[block] = keys[-1]
        self.mins.insert(block + 1, upper_keys[0])
        self.maxes.insert(block + 1, upper_keys[-1])

    def _merged(self, cells: list) -> TrendAccumulator:
        aggregate = TrendAccumulator.zero(self.targets)
        for cell in cells:
            aggregate.merge(cell)
        return aggregate

    def fold(
        self, into: TrendAccumulator, event: Event, lookup: PredecessorLookup
    ) -> bool:
        if not self.ordered:
            return False
        probe = event.get(lookup.probe)
        probe_class = _key_class(probe)
        if probe_class != _NUMBER:
            return probe_class == _NEVER  # nothing qualifies, or scan
        if not self.maxes:
            return True
        op = lookup.op
        aggregates = self.aggregates
        if op == "<" or op == "<=":
            # qualifying keys: a prefix (key < probe, or key <= probe)
            find = bisect_left if op == "<" else bisect_right
            block = find(self.maxes, probe)
            for index in range(block):
                into.merge(aggregates[index])
            if block < len(aggregates):
                cells = self.cells[block]
                for index in range(find(self.keys[block], probe)):
                    into.merge(cells[index])
        else:
            # qualifying keys: a suffix (key > probe, or key >= probe)
            find = bisect_right if op == ">" else bisect_left
            block = find(self.mins, probe)
            if block:
                cells = self.cells[block - 1]
                for index in range(find(self.keys[block - 1], probe), len(cells)):
                    into.merge(cells[index])
            for index in range(block, len(aggregates)):
                into.merge(aggregates[index])
        return True
