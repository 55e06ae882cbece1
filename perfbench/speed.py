"""Reference probe: how fast the machine is while a pass runs.

On a shared machine the same work runs at different speeds from minute to
minute; on a 2-vCPU host, identical passes took anywhere from 1 to 2 times
their fastest time, in spells of seconds to minutes. A fixed piece of
reference work (``chunk``), timed about every ``INTERVAL_S`` while the
program runs, says how fast the machine is in that stretch. A measured time
divided by the typical probe time of the same stretch no longer depends on
the machine's speed; multiplied by ``REF_S`` it is stated in reference
seconds, that is, seconds on a machine where one probe takes ``REF_S``.

The probe never runs inside a program call. It runs at points the benchmark
sees: when the program takes the next unit from a list made by ``units``,
between the benchmark's own calls (``tick``), and after each return of a
function hooked with ``hook``. The caller subtracts ``spent``, the time the
probes took, from what it measures.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

import spans

REF_S = 0.0005       # one probe, in reference seconds
INTERVAL_S = 0.05    # a probe at the first point after this much time

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((48, 32))
_X = _rng.standard_normal((40, 32))
_WORDS = ("$x", "=", "htmlspecialchars", "(", "$_GET", "[", "'q'", "]", ")",
          ";") * 20


def chunk() -> None:
    """The reference work, a mix like the program's: small matrix-vector
    products with ``tanh`` as in the GRU, and dict updates keyed by short
    strings as in the lexer. About 0.45 ms on an idle 2-vCPU host."""
    for _ in range(3):
        h = np.zeros(_W.shape[0])
        for x in _X:
            h = np.tanh(_W @ x + 0.5 * h)
        counts: dict[str, int] = {}
        for word in _WORDS:
            counts[word] = counts.get(word, 0) + len(word)


class Probe:
    """Probe times of one stretch of work, and the time they took.

    ``tick`` probes once ``interval_s`` has passed since the last probe; with
    an infinite interval the probe runs only where ``sample`` is called.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.times: list[float] = []
        self.spent = 0.0
        self._last = time.perf_counter()

    def sample(self) -> None:
        start = time.perf_counter()
        chunk()
        self._last = time.perf_counter()
        self.times.append(self._last - start)
        self.spent += self._last - start

    def tick(self) -> None:
        if time.perf_counter() - self._last >= self.interval_s:
            self.sample()

    def units(self, items) -> "_ProbedList":
        return _ProbedList(items, self.tick)

    def hook(self, targets: dict) -> list[tuple[object, str, object]]:
        """Tick after each call of the target functions; ``spans.restore``
        undoes it. ``targets`` is shaped like ``spans.SPANS``; a target the
        program no longer has is left out."""
        tick = self.tick
        targets = {name: (module, attr)
                   for name, (module, attr) in targets.items()
                   if hasattr(sys.modules.get(module), attr)}

        def wrap(_name, fn):
            @functools.wraps(fn)
            def probed(*args, **kwargs):
                result = fn(*args, **kwargs)
                tick()
                return result
            return probed

        return spans.rebind(targets, wrap)

    def typical(self) -> float:
        """Mean probe time without the slowest tenth.

        The mean follows the machine's speed through the whole stretch, as
        the measured time does; a median would miss slow spells that cover
        less than half of it. The slowest tenth are mostly probes the
        operating system interrupted, which a 0.5 ms probe meets far more
        rarely than the stretch around it does.
        """
        times = sorted(self.times)
        kept = times[:len(times) - len(times) // 10]
        return sum(kept) / len(kept)

    def reference_seconds(self, seconds: float) -> float:
        """``seconds`` measured in this stretch, in reference seconds."""
        return seconds * REF_S / self.typical()


class Stopwatch:
    """Wall time since the start, less the time the probe took since then."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.start = time.perf_counter()
        self.spent = probe.spent

    def seconds(self) -> float:
        return (time.perf_counter() - self.start
                - (self.probe.spent - self.spent))


class _ProbedList(list):
    """A list that gives the probe a chance to run as each item is taken."""

    def __init__(self, items, tick):
        super().__init__(items)
        self._tick = tick

    def __iter__(self):
        for item in list.__iter__(self):
            self._tick()
            yield item
