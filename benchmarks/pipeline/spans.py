"""In-memory spans around calls into the pipeline's public functions.

The benchmark measures every layer from outside: the harness opens a span
around each public call, keeps the spans in memory, and writes them out as
JSONL when the run ends.  A layer's number is built from *self* times (a
span's duration minus what its child spans cover), so nested calls are never
counted twice and the layers of one item add up to the item.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import DefaultDict, Dict, Hashable, Iterable, List, NamedTuple, Optional

#: Name of the span that wraps one whole work item.
ITEM = "item"


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    #: The work item this span belongs to (spans of one request share it).
    item: Hashable
    pass_no: int
    start: float
    end: float


class _OpenSpan:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_OpenSpan":
        tracer = self.tracer
        self.id = len(tracer.spans) + len(tracer.open)
        self.parent = tracer.open[-1] if tracer.open else None
        tracer.open.append(self.id)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = perf_counter()
        tracer = self.tracer
        tracer.open.pop()
        tracer.spans.append(
            Span(self.id, self.parent, self.name, tracer.item, tracer.pass_no, self.start, end)
        )


class Tracer:
    """Records spans; the harness sets :attr:`item` / :attr:`pass_no` as it goes."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.open: List[int] = []
        self.item: Hashable = None
        self.pass_no = 0
        #: Counts taken at the same boundaries as the spans (graph sizes).
        self.counts: DefaultDict[str, float] = defaultdict(float)

    def span(self, name: str) -> _OpenSpan:
        return _OpenSpan(self, name)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


class NullTracer:
    """Tracing off: ``span()`` hands back one shared do-nothing context."""

    enabled = False
    item: Hashable = None
    pass_no = 0
    _NULL = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._NULL


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    spans = list(spans)
    own = {span.id: span.end - span.start for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


def layer_quiet(spans: Iterable[Span], *, own: bool = True) -> Dict[str, float]:
    """Span name -> sum over items of the minimum (over passes) time.

    ``own=True`` uses self times, so the names of one item add up to the
    item; ``own=False`` uses whole durations.  Several spans of one name
    inside one item execution (an epoch loaded per refresh entry, say) are
    added up before the minimum is taken.
    """
    spans = list(spans)
    seconds_of = self_times(spans) if own else {s.id: s.end - s.start for s in spans}
    per_execution: Dict[tuple, float] = defaultdict(float)
    for span in spans:
        per_execution[(span.name, span.item, span.pass_no)] += seconds_of[span.id]
    quiet: Dict[tuple, float] = {}
    for (name, item, _), seconds in per_execution.items():
        key = (name, item)
        if key not in quiet or seconds < quiet[key]:
            quiet[key] = seconds
    totals: Dict[str, float] = defaultdict(float)
    for (name, _), seconds in quiet.items():
        totals[name] += seconds
    return dict(totals)


def quiet_item_total(spans: Iterable[Span]) -> float:
    """Sum over items of the minimum (over passes) duration of the item span."""
    return layer_quiet((span for span in spans if span.name == ITEM), own=False)[ITEM]


def unattributed_share(spans: Iterable[Span]) -> float:
    """Share of the traced quiet total that no layer span accounts for."""
    spans = list(spans)
    in_items = [span for span in spans if span.name == ITEM or span.parent is not None]
    layers = layer_quiet(in_items)
    attributed = sum(seconds for name, seconds in layers.items() if name != ITEM)
    return 1.0 - attributed / quiet_item_total(spans)


def write_jsonl(path, spans: Iterable[Span]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span._asdict(), separators=(",", ":")) + "\n")
