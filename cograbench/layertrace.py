"""Layer timing from the benchmark's side of each layer's public API.

:class:`LayerTrace` replaces a method on one *instance* with a timing
wrapper.  Every call opens a span; when a wrapped call runs inside another
(the runtime calling an executor), the inner span's duration is charged to
the outer span as child time, so a layer's self time is its spans' total
minus the time their children cover.  Nothing in the program under test is
reconfigured: its own observability and tracer stay at their defaults, so
the traced run executes the same code path as the untraced one.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional


class LayerTrace:
    """Self time, call counts and result counts per layer."""

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        #: layer -> seconds inside the layer's spans, minus child spans
        self.self_s: Dict[str, float] = defaultdict(float)
        #: layer -> calls entered from outside the layer
        self.calls: Dict[str, int] = defaultdict(int)
        #: layer -> items returned by calls entered from outside the layer
        self.results: Dict[str, int] = defaultdict(int)
        # open spans, innermost last: [layer, seconds covered by children]
        self._stack: List[list] = []

    def wrap(
        self,
        target: object,
        method: str,
        layer: str,
        after: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Time every call of ``target.method`` as a span of ``layer``.

        ``after`` is called with each top-level call's return value, outside
        the span (for sampling state sizes).
        """
        original = getattr(target, method)
        clock = self._clock
        stack = self._stack
        self_s, calls, results = self.self_s, self.calls, self.results

        def timed(*args, **kwargs):
            outer = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                value = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if outer != layer:
                calls[layer] += 1
                if isinstance(value, list):
                    results[layer] += len(value)
            if after is not None and not stack:
                after(value)
            return value

        setattr(target, method, timed)
