"""Self-similar injection process.

The paper's fifth synthetic workload is *self-similar* traffic.  Long-range
dependent arrivals are generated the standard way: each node is an ON/OFF
source whose ON and OFF period lengths are Pareto-distributed (heavy
tailed, 1 < alpha < 2); aggregating many such sources yields self-similar
traffic (Willinger et al.).  During an ON period the node injects with a
fixed per-cycle probability; during OFF it is silent.  The ON probability
is chosen so the long-run average injection rate matches the requested
load.
"""

from __future__ import annotations

import random


class ParetoOnOffSource:
    """One node's ON/OFF state machine with Pareto dwell times."""

    def __init__(
        self,
        rate: float,
        alpha_on: float = 1.9,
        alpha_off: float = 1.25,
        mean_on: float = 20.0,
        rng: random.Random = None,
    ) -> None:
        if not 0.0 < rate < 1.0:
            raise ValueError(f"rate must be in (0, 1), got {rate}")
        if not (1.0 < alpha_on < 2.0 and 1.0 < alpha_off < 2.0):
            raise ValueError("Pareto shapes must lie in (1, 2)")
        self.rng = rng or random.Random()
        self.alpha_on = alpha_on
        self.alpha_off = alpha_off
        self.mean_on = mean_on
        # duty cycle needed so that duty * p_on == rate; pick p_on high
        # enough to reach the requested average but capped at 1.
        self.p_on = min(1.0, rate * 3.0)
        duty = rate / self.p_on
        if duty >= 1.0:
            duty = 0.999
        self.mean_off = mean_on * (1.0 - duty) / duty
        self.on = self.rng.random() < duty
        self.remaining = self._draw_period()

    def _pareto(self, alpha: float, mean: float) -> float:
        # Pareto with shape alpha has mean xm * alpha / (alpha - 1);
        # solve for the scale xm that yields the requested mean.
        xm = mean * (alpha - 1.0) / alpha
        return xm / (self.rng.random() ** (1.0 / alpha))

    def span_constants(self):
        """``(p_on, xm_on, 1/alpha_on, xm_off, 1/alpha_off)``: the
        constants of :meth:`fires` and :meth:`_pareto`, computed with the
        very same expressions, for the compiled twin of this source."""
        return (
            self.p_on,
            self.mean_on * (self.alpha_on - 1.0) / self.alpha_on,
            1.0 / self.alpha_on,
            self.mean_off * (self.alpha_off - 1.0) / self.alpha_off,
            1.0 / self.alpha_off,
        )

    def _draw_period(self) -> int:
        mean = self.mean_on if self.on else self.mean_off
        alpha = self.alpha_on if self.on else self.alpha_off
        return max(1, int(round(self._pareto(alpha, mean))))

    def fires(self) -> bool:
        """Advance one cycle; True when a packet should be injected."""
        if self.remaining <= 0:
            self.on = not self.on
            self.remaining = self._draw_period()
        self.remaining -= 1
        return self.on and self.rng.random() < self.p_on


class SelfSimilarInjector:
    """Per-node bank of Pareto ON/OFF sources.

    Drop-in replacement for the Bernoulli injection decision in
    :func:`repro.traffic.runner.run_synthetic` (pass as ``injector``).
    """

    name = "self_similar"

    def __init__(
        self, num_nodes: int, rate: float, seed: int = 0
    ) -> None:
        self.sources = [
            ParetoOnOffSource(rate, rng=random.Random(seed * 1_000_003 + node))
            for node in range(num_nodes)
        ]

    def fires(self, node: int, rng: random.Random) -> bool:
        return self.sources[node].fires()


class BernoulliInjector:
    """Memoryless injection: each node fires with probability ``rate``."""

    name = "bernoulli"

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.rate = rate

    def fires(self, node: int, rng: random.Random) -> bool:
        return rng.random() < self.rate


def span_twin(injector, num_nodes: int):
    """``injector`` as plain data the compiled span driver
    (:meth:`repro.noc.ckernel.CKernel.run`) replays, or ``None``.

    ``(kind, rate, sources)``: ``"bernoulli"`` fires on
    ``rng.random() < rate``; ``"pareto"`` steps the ``num_nodes``
    :class:`ParetoOnOffSource` machines in ``sources``, whose ``on`` /
    ``remaining`` / ``rng`` the driver borrows at its first span and
    writes back when the kernel syncs or the run ends (see
    :class:`repro.noc.ckernel.SpanSource`).  Only the exact built-in
    classes on plain
    ``random.Random`` streams have a twin, and only while the longest
    possible Pareto period (a 53-bit draw of 2**-53) fits an int64;
    anything else stays on the per-cycle loop.
    """
    if type(injector) is BernoulliInjector:
        return ("bernoulli", injector.rate, None)
    if type(injector) is not SelfSimilarInjector:
        return None
    sources = injector.sources
    if len(sources) != num_nodes:
        return None
    for source in sources:
        if (
            type(source) is not ParetoOnOffSource
            or type(source.rng) is not random.Random
        ):
            return None
        _, xm_on, inv_on, xm_off, inv_off = source.span_constants()
        for xm, inv_alpha in ((xm_on, inv_on), (xm_off, inv_off)):
            if not (
                xm > 0.0
                and 0.0 < inv_alpha <= 1.0
                and xm * 2.0 ** (53 * inv_alpha) < 2.0 ** 62
            ):
                return None
    return ("pareto", 0.0, sources)
