"""Elastic load-aware sharding: variable-width stripes, epoch-versioned.

At version 0 :class:`~repro.core.sharded.RegionPartition` slices the
world into K equal vertical stripes; a flash crowd in one stripe
leaves the other K-1 shards idle.  This module holds the *data plane*
of the elastic rebalancer (docs/elasticity.md):

* :class:`ElasticConfig` — the operator-facing knobs (`--elastic`,
  sampling interval, imbalance threshold, hysteresis window, minimum
  stripe width).
* :func:`plan_boundaries` — the pure load-density quantile planner the
  controller (the sequencer, shard 0) runs over one round of per-shard
  ``LoadReport`` samples.
* :func:`stripes_touching` — classification against a superseded (but
  not yet committed) set of interior cuts, used for the
  union-of-epochs span classification during a rebalance.

The versioned partition itself
(:class:`~repro.core.sharded.RegionPartition`, flipped by its
``apply``) lives in :mod:`repro.core.sharded`; the control-plane
protocol (load rounds, fences, region syncs, drain barrier) lives on
:class:`~repro.core.sharded.ShardServer`; the messages live in
:mod:`repro.core.messages`.

A deployment without an :class:`ElasticConfig` never uses any of this
— its one shared partition stays at version 0, and the classification
and handoff paths are untouched, which is what keeps ``--elastic`` off
byte-identical to the static engine (the differential tests pin this
down).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ElasticConfig:
    """Tuning knobs of the elastic rebalancer (docs/elasticity.md)."""

    #: Load-sampling period: every shard reports a (cpu, serialized)
    #: delta to the controller once per interval.
    interval_ms: float = 2000.0
    #: Imbalance trigger: max(shard load) / mean(shard load) must reach
    #: this for a round to count towards the hysteresis window.
    threshold: float = 2.0
    #: Consecutive over-threshold rounds required before a rebalance
    #: fires (suppresses reactions to transient spikes).
    hysteresis: int = 2
    #: Narrowest stripe a rebalance may produce, in world units.
    #: ``None`` lets the engine derive it from the span-classification
    #: slack (stripes narrower than the slack make every action span).
    min_stripe: Optional[float] = None

    def __post_init__(self) -> None:
        if self.interval_ms <= 0:
            raise ConfigurationError(
                f"elastic interval_ms must be positive, got {self.interval_ms}"
            )
        if self.threshold <= 1.0:
            raise ConfigurationError(
                f"elastic threshold must be > 1 (max/mean ratio), "
                f"got {self.threshold}"
            )
        if self.hysteresis < 1:
            raise ConfigurationError(
                f"elastic hysteresis must be >= 1 round, got {self.hysteresis}"
            )
        if self.min_stripe is not None and self.min_stripe <= 0:
            raise ConfigurationError(
                f"elastic min_stripe must be positive, got {self.min_stripe}"
            )


def stripes_touching(
    boundaries: Sequence[float], x: float, radius: float
) -> Tuple[int, ...]:
    """Ascending stripe indices (under interior cuts ``boundaries``)
    intersecting [x - radius, x + radius].

    >>> stripes_touching([25.0, 50.0, 75.0], 24.0, 3.0)
    (0, 1)
    >>> stripes_touching([25.0, 50.0, 75.0], 60.0, 0.0)
    (2,)
    """
    lo = bisect_right(boundaries, x - radius)
    hi = bisect_right(boundaries, x + radius)
    return tuple(range(lo, hi + 1))


def plan_boundaries(
    loads: Sequence[float],
    bounds: Sequence[Tuple[float, float]],
    world_width: float,
    min_stripe: float,
) -> List[float]:
    """Quantile cuts equalising per-stripe load.

    Models the load of each *current* stripe as uniformly distributed
    over its x-interval, then cuts the cumulative density at k/K for
    k = 1..K-1.  The model is deliberately crude — a tight crowd inside
    a wide stripe looks uniform over the whole stripe — but repeated
    rounds converge geometrically: each round's stripes narrow around
    the crowd, so the next round's density estimate sharpens.

    Cuts are clamped so no stripe falls below ``min_stripe``.

    >>> plan_boundaries([0.0, 6.0, 6.0, 0.0],
    ...                 [(0, 25), (25, 50), (50, 75), (75, 100)],
    ...                 100.0, 1.0)
    [37.5, 50.0, 62.5]
    >>> plan_boundaries([8.0, 0.0, 0.0, 0.0],
    ...                 [(0, 25), (25, 50), (50, 75), (75, 100)],
    ...                 100.0, 10.0)
    [10.0, 20.0, 30.0]
    """
    shards = len(loads)
    total = float(sum(loads))
    cuts: List[float] = []
    for k in range(1, shards):
        target = total * k / shards
        acc = 0.0
        x = world_width
        for (lo, hi), load in zip(bounds, loads):
            if acc + load >= target:
                x = lo + ((hi - lo) * (target - acc) / load if load > 0 else 0.0)
                break
            acc += load
        cuts.append(x)
    # Enforce the minimum stripe width: forward pass pushes cuts right,
    # backward pass pulls them left of the world edge.
    prev = 0.0
    for k in range(len(cuts)):
        cuts[k] = max(cuts[k], prev + min_stripe)
        prev = cuts[k]
    ceiling = world_width
    for k in range(len(cuts) - 1, -1, -1):
        ceiling -= min_stripe
        cuts[k] = min(cuts[k], ceiling)
    return cuts
