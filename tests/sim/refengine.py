"""Plain-``heapq`` reference for the event-core fuzzes: no pool, no fast paths."""

import math
from heapq import heappop, heappush

from repro.sim.engine import Event, _coerce_delay


class HeapqEngine:
    def __init__(self):
        # _live is also decremented by Event.cancel (through ev._engine)
        self.now = self.fired = self._seq = self._live = 0
        self._heap = []

    def schedule(self, delay, fn, *args):
        ev = Event(self.now + _coerce_delay(delay), self._seq, fn, args)
        ev._engine = self
        self._seq += 1
        self._live += 1
        heappush(self._heap, (ev.time, ev.seq, ev))
        return ev

    def post_at(self, time, fn, *args):
        return self.schedule(time - self.now, fn, *args)  # past: ValueError

    def post_soon(self, fn, *args):
        return self.schedule(0, fn, *args)

    post = schedule  # the post family only drops the handle

    def pending(self):
        return self._live

    def peek_time(self):
        while self._heap and not self._heap[0][2].alive:
            heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def run(self, until=None):
        hi = until
        if hi is not None:
            if type(hi) is not int:
                if not math.isfinite(hi):
                    raise ValueError(f"cannot run until {until!r} ns: not a finite time")
                hi = math.floor(hi)
            if hi < self.now:
                raise ValueError(f"cannot run until {until} ns: the clock is at {self.now} ns")
        heap = self._heap
        while heap:
            # the raw head, dead or alive: a bounded run ends at ``until``
            # even when only cancelled entries lie past it
            if hi is not None and heap[0][0] > hi:
                self.now = hi
                break
            t, _, ev = heappop(heap)
            if not ev.alive:
                continue
            self.now = t
            self.fired += 1
            self._live -= 1
            ev._engine = None
            ev.fn(*ev.args)
        return self.now

    def next_external_time(self, carriers):
        live = [t for t, _, ev in self._heap if ev.alive and ev not in carriers]
        return min(live) if live else None
