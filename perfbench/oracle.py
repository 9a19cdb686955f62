"""Brute-force point-in-box matching over the raw generated bounds.

This is the benchmark's independent answer to "who should receive this
event": it keeps each subscriber's box as the plain ``(lower, upper)`` float
tuples the input generator produced and tests every box against the event
point.  It deliberately imports nothing from the program under test (no
``repro.spatial``, no ``repro.pubsub``), so a fault in the program's own
matching or geometry cannot hide itself by agreeing with the check.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Sequence, Tuple

Box = Tuple[Tuple[float, ...], Tuple[float, ...]]


class BoxOracle:
    """The live subscribers' boxes, keyed by subscriber id."""

    def __init__(self, boxes: Iterable[Tuple[str, Box]] = ()) -> None:
        self._boxes: Dict[str, Box] = dict(boxes)

    def add(self, name: str, box: Box) -> None:
        if name in self._boxes:
            raise ValueError(f"duplicate subscriber {name!r}")
        self._boxes[name] = box

    def remove(self, name: str) -> None:
        del self._boxes[name]

    def box(self, name: str) -> Box:
        return self._boxes[name]

    def names(self) -> FrozenSet[str]:
        return frozenset(self._boxes)

    def matching(self, point: Sequence[float]) -> FrozenSet[str]:
        """Every subscriber whose closed box contains ``point``."""
        hits = []
        for name, (lower, upper) in self._boxes.items():
            for coord, low, high in zip(point, lower, upper):
                if coord < low or coord > high:
                    break
            else:
                hits.append(name)
        return frozenset(hits)

    def count_pairs(self, points: Iterable[Sequence[float]]) -> int:
        """Number of (point, subscriber) pairs that match."""
        return sum(len(self.matching(point)) for point in points)
