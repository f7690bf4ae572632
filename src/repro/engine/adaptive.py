"""Adaptive sweep scheduling: stop sampling once the report is resolved.

Replicated statistical scenarios expand every sweep point into a
``configuration x replication`` grid of seed blocks.  Exhaustive expansion
pays for every cell; most cells only confirm what the first few already
established.  This module supplies the *decision layer* that stops sampling
early, in three modes:

``run_ci``  (stopping mode ``"ci"``)
    Per-configuration estimation: stream replication values into a
    :class:`Welford` accumulator and stop once the Student-t confidence
    interval is tight enough for the reported precision.

``run_race``  (stopping mode ``"race"``)
    Ranking: only the best configuration is reported, so configurations are
    *raced*.  Every replication is a seed block shared by all racers
    (common random numbers), so decisions use **paired** per-replication
    differences against the current leader -- seed noise cancels in the
    pairing, which separates configurations far faster than comparing raw
    means.  A racer retires when its paired CI lies entirely above zero
    (significantly worse) or entirely within the tie margin
    (indistinguishable from the leader, which then represents it).

``run_bisection``  (stopping mode ``"bisect"``)
    Crossover location: when a sweep axis is consumed only to find where one
    configuration overtakes another, binary-search the sign change instead
    of evaluating the whole grid.

Determinism contract
--------------------
Every driver is a **pure function of the sampled values**: it consumes
samples through a caller-supplied callback at explicit round barriers
(replication ``r`` of every active configuration, then a decision), and
nothing about arrival timing, worker count or substrate can influence a
decision.  Two consequences, both load-bearing:

* The *set of runs executed* by an adaptive campaign is bit-identical
  across serial / parallel / shm / cache-replay execution -- the decision
  sequence depends only on metric values, and those are bit-identical by
  the engine's contract.
* An exhaustive campaign (``--no-adaptive``) can run the full grid and then
  **replay** the same decision functions over the prefix of values the
  adaptive schedule would have sampled -- producing byte-identical report
  tables.  Adaptive execution changes only what is *paid for*, never what
  is printed.

The drivers know nothing about engines or scenarios;
:mod:`repro.scenarios.adaptive` supplies the sampling callbacks and report
formatting, and :class:`~repro.engine.parallel.ParallelRunner` hosts the
``adaptive_stats`` counters behind the CLI ``[adaptive]`` footer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

#: Confidence levels with committed critical-value tables (two-sided).
SUPPORTED_CONFIDENCE = (0.90, 0.95, 0.99)

#: Two-sided Student-t critical values, df 1..30, then the normal asymptote.
#: A fixed table keeps the decision layer dependency-free (no scipy) and --
#: more importantly -- *stable*: a library upgrade can never nudge a
#: stopping decision.
_T_TABLE: Dict[float, Tuple[float, ...]] = {
    0.90: (
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
        1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
        1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
    ),
    0.95: (
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
        2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
        2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ),
    0.99: (
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
        3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
        2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750,
    ),
}

_T_ASYMPTOTE: Dict[float, float] = {0.90: 1.645, 0.95: 1.960, 0.99: 2.576}


def t_critical(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value at ``confidence`` for ``df`` >= 1."""
    table = _T_TABLE.get(confidence)
    if table is None:
        raise ValueError(
            f"confidence {confidence!r} has no committed critical-value table; "
            f"supported: {SUPPORTED_CONFIDENCE}"
        )
    if df < 1:
        raise ValueError("t_critical needs at least one degree of freedom")
    if df <= len(table):
        return table[df - 1]
    return _T_ASYMPTOTE[confidence]


class Welford:
    """Streaming mean/variance accumulator (Welford's online algorithm).

    Numerically stable for incremental use: each :meth:`add` updates the
    running mean and the sum of squared deviations without ever forming a
    catastrophic large-minus-large difference.
    """

    __slots__ = ("count", "mean", "_m2")

    def __init__(self, values: Sequence[float] = ()) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        for value in values:
            self.add(value)

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); ``inf`` below two samples."""
        if self.count < 2:
            return math.inf
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation; ``inf`` below two samples."""
        variance = self.variance
        return math.sqrt(variance) if math.isfinite(variance) else math.inf


def ci_halfwidth(stats: Welford, confidence: float) -> float:
    """Half-width of the two-sided ``confidence`` CI around ``stats.mean``.

    ``inf`` below two samples (no variance estimate -> nothing is resolved),
    ``0`` for a degenerate zero-variance sample.
    """
    if stats.count < 2:
        return math.inf
    return t_critical(confidence, stats.count - 1) * stats.std / math.sqrt(stats.count)


#: A sampling barrier: ``sample_round(rep, active_names) -> {name: value}``.
#: Called once per replication round with the configurations still sampling;
#: must return one value per requested name.  The call is the round barrier:
#: the driver does not decide anything until it returns.
SampleRound = Callable[[int, Tuple[str, ...]], Mapping[str, float]]


@dataclass(frozen=True)
class ConfigOutcome:
    """Terminal state of one configuration in an adaptive campaign."""

    name: str
    reps: int          #: replications actually sampled
    reason: str        #: "resolved" | "retired" | "tied" | "won" | "capped"
    mean: float        #: mean of the sampled replications
    halfwidth: float   #: CI half-width of the *decision* statistic


@dataclass(frozen=True)
class CIOutcome:
    """Result of :func:`run_ci`: per-configuration resolved estimates."""

    configs: Tuple[ConfigOutcome, ...]
    rounds: int
    samples: Mapping[str, Tuple[float, ...]]


@dataclass(frozen=True)
class RaceOutcome:
    """Result of :func:`run_race`: a winner plus every racer's terminal state."""

    winner: str
    configs: Tuple[ConfigOutcome, ...]
    rounds: int
    samples: Mapping[str, Tuple[float, ...]]


@dataclass(frozen=True)
class BisectOutcome:
    """Result of :func:`run_bisection` over axis indices ``0..num_points-1``.

    ``path`` lists the evaluated ``(index, probe value)`` pairs in evaluation
    order; ``bracket`` is the adjacent index pair enclosing the sign change
    (``None`` when the probe never changes sign across the axis).
    """

    path: Tuple[Tuple[int, float], ...]
    bracket: Tuple[int, int] | None
    num_points: int

    @property
    def skipped(self) -> int:
        return self.num_points - len(self.path)


def _validate_common(names: Sequence[str], min_reps: int, max_reps: int,
                     confidence: float) -> None:
    if not names:
        raise ValueError("an adaptive campaign needs at least one configuration")
    if len(set(names)) != len(names):
        raise ValueError("configuration names must be unique")
    if min_reps < 2:
        raise ValueError("min_replications must be at least 2 (a CI needs variance)")
    if max_reps < min_reps:
        raise ValueError("replications must be >= min_replications")
    t_critical(confidence, 1)  # validates the confidence level


def run_ci(
    names: Sequence[str],
    sample_round: SampleRound,
    *,
    confidence: float,
    min_reps: int,
    max_reps: int,
    rel_precision: float,
) -> CIOutcome:
    """Estimate every configuration's mean to the requested precision.

    Round ``r`` samples replication ``r`` of every unresolved configuration;
    a configuration resolves once it has ``min_reps`` samples and its CI
    half-width is at most ``rel_precision * |mean|``.  Pure function of the
    sampled values (see the module docstring).
    """
    _validate_common(names, min_reps, max_reps, confidence)
    if rel_precision <= 0:
        raise ValueError("rel_precision must be positive")
    stats: Dict[str, Welford] = {name: Welford() for name in names}
    samples: Dict[str, List[float]] = {name: [] for name in names}
    reasons: Dict[str, str] = {}
    active = list(names)
    rounds = 0
    for rep in range(max_reps):
        values = sample_round(rep, tuple(active))
        rounds = rep + 1
        for name in active:
            value = float(values[name])
            samples[name].append(value)
            stats[name].add(value)
        still = []
        for name in active:
            halfwidth = ci_halfwidth(stats[name], confidence)
            if rounds >= min_reps and halfwidth <= rel_precision * abs(stats[name].mean):
                reasons[name] = "resolved"
            else:
                still.append(name)
        active = still
        if not active:
            break
    for name in active:
        reasons[name] = "capped"
    configs = tuple(
        ConfigOutcome(
            name=name,
            reps=len(samples[name]),
            reason=reasons[name],
            mean=stats[name].mean,
            halfwidth=ci_halfwidth(stats[name], confidence),
        )
        for name in names
    )
    return CIOutcome(
        configs=configs,
        rounds=rounds,
        samples={name: tuple(values) for name, values in samples.items()},
    )


def _paired_stats(subject: Sequence[float], leader: Sequence[float]) -> Welford:
    """Welford stats of the per-replication differences ``subject - leader``.

    Both sequences index the same seed blocks (replication ``r`` of every
    racer runs the same traces), so the difference cancels the shared seed
    noise -- the common-random-numbers pairing that makes racing converge.
    """
    return Welford([a - b for a, b in zip(subject, leader)])


def run_race(
    names: Sequence[str],
    sample_round: SampleRound,
    *,
    confidence: float,
    min_reps: int,
    max_reps: int,
    tie_margin: float = 0.0,
) -> RaceOutcome:
    """Race configurations for the lowest mean; return the winner.

    Every round samples one replication (a shared seed block) of every racer
    still standing, then decides against the current leader -- the racer
    with the lowest running mean, ties broken by position in ``names``:

    * a racer whose paired-difference CI lies entirely above zero is
      **retired** (significantly worse than the leader at ``confidence``),
    * with ``tie_margin > 0``, a racer whose paired-difference CI lies
      entirely inside ``(-margin, +margin)`` -- margin being ``tie_margin *
      |leader mean|`` -- is **tied**: statistically indistinguishable from
      the leader at the margin, so the leader represents it from here on,
    * when one racer remains it has **won**; when the replication cap is
      reached the surviving racers are **capped** and the winner is the
      final leader.

    Pure function of the sampled values; exhaustive mode replays it over the
    full grid and reports identically (see the module docstring).
    """
    _validate_common(names, min_reps, max_reps, confidence)
    if len(names) < 2:
        raise ValueError("a race needs at least two configurations")
    if tie_margin < 0:
        raise ValueError("tie_margin must be non-negative")
    samples: Dict[str, List[float]] = {name: [] for name in names}
    reasons: Dict[str, str] = {}
    halfwidths: Dict[str, float] = {name: math.inf for name in names}
    active = list(names)
    rounds = 0
    for rep in range(max_reps):
        values = sample_round(rep, tuple(active))
        rounds = rep + 1
        for name in active:
            samples[name].append(float(values[name]))
        if rounds < min_reps:
            continue
        means = {name: sum(samples[name]) / rounds for name in active}
        # min() keeps the first minimum in iteration order, and `active`
        # preserves the caller's configuration order -- deterministic ties.
        leader = min(active, key=lambda name: means[name])
        margin = tie_margin * abs(means[leader])
        eliminated = []
        for name in active:
            if name == leader:
                continue
            diff = _paired_stats(samples[name], samples[leader])
            halfwidth = ci_halfwidth(diff, confidence)
            halfwidths[name] = halfwidth
            if diff.mean - halfwidth > 0:
                reasons[name] = "retired"
                eliminated.append(name)
            elif margin > 0 and math.isfinite(halfwidth) and (
                -margin < diff.mean - halfwidth and diff.mean + halfwidth < margin
            ):
                reasons[name] = "tied"
                eliminated.append(name)
        if eliminated:
            active = [name for name in active if name not in eliminated]
        if len(active) == 1:
            reasons[active[0]] = "won"
            halfwidths[active[0]] = 0.0
            break
    else:
        for name in active:
            reasons[name] = "capped"
    final_means = {name: sum(samples[name]) / len(samples[name]) for name in active}
    winner = min(active, key=lambda name: final_means[name])
    configs = tuple(
        ConfigOutcome(
            name=name,
            reps=len(samples[name]),
            reason=reasons[name],
            mean=sum(samples[name]) / len(samples[name]),
            halfwidth=halfwidths[name],
        )
        for name in names
    )
    return RaceOutcome(
        winner=winner,
        configs=configs,
        rounds=rounds,
        samples={name: tuple(values) for name, values in samples.items()},
    )


def run_bisection(num_points: int, probe: Callable[[int], float]) -> BisectOutcome:
    """Locate the sign change of ``probe`` over axis indices ``0..num_points-1``.

    ``probe(i)`` evaluates axis point ``i`` and returns a signed statistic
    (here: subject-minus-baseline cycles; positive = subject behind).  The
    endpoints are always evaluated; when their signs differ, the adjacent
    pair bracketing the change is found by bisection -- ``2 + O(log n)``
    evaluations instead of ``n``.  Assumes the underlying response is
    monotone in the axis (the caller's modelling responsibility; with
    multiple crossings, one bracket is still found deterministically).
    """
    if num_points < 1:
        raise ValueError("bisection needs at least one axis point")
    path: List[Tuple[int, float]] = []

    def evaluate(index: int) -> float:
        value = float(probe(index))
        path.append((index, value))
        return value

    lo, hi = 0, num_points - 1
    f_lo = evaluate(lo)
    if num_points == 1:
        return BisectOutcome(path=tuple(path), bracket=None, num_points=num_points)
    f_hi = evaluate(hi)
    positive = (f_lo > 0, f_hi > 0)
    if positive[0] == positive[1]:
        return BisectOutcome(path=tuple(path), bracket=None, num_points=num_points)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        f_mid = evaluate(mid)
        if (f_mid > 0) == positive[0]:
            lo = mid
        else:
            hi = mid
    return BisectOutcome(path=tuple(path), bracket=(lo, hi), num_points=num_points)
