"""Plain-``heapq`` reference for the event-core fuzzes: no pool, no fast paths."""

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

    def schedule_at(self, time, fn, *args):
        return self.schedule(time - self.now, fn, *args)  # past: ValueError

    def call_soon(self, fn, *args):
        return self.schedule(0, fn, *args)

    post, post_at, post_soon = schedule, schedule_at, call_soon  # handle dropped

    def pending(self):
        return self._live

    def peek_time(self):
        while self._heap and not self._heap[0][2].alive:
            heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def step(self):
        if self.peek_time() is None:
            return False
        self.now, _, ev = heappop(self._heap)
        self.fired += 1
        self._live -= 1
        ev._engine = None
        ev.fn(*ev.args)
        return True

    def run(self, until=None, max_events=None):
        if until is not None and until < self.now:
            raise ValueError(f"cannot run until {until} ns: the clock is at {self.now} ns")
        n = 0
        while (max_events is None or n < max_events) and self.peek_time() is not None:
            if until is not None and self.peek_time() > until:
                self.now = until
                break
            self.step()
            n += 1
        return self.now

    def next_external_time(self, carriers):
        live = [t for t, _, ev in self._heap if ev.alive and ev not in carriers]
        return min(live) if live else None
