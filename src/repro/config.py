"""Simulation configuration.

All knobs the paper varies (plus the ablation knobs we add) live here, as
frozen dataclasses with validation.  The defaults reproduce the paper's
*baseline* architecture (§4.1 / §5.1):

* 4 instructions issued per cycle;
* decoupled 64-entry 4-way BTB + 512-entry gshare PHT;
* 2-cycle decode, 4-cycle conditional-branch resolution
  (=> 8-slot misfetch penalty, 16-slot mispredict penalty);
* 8K direct-mapped I-cache, 32-byte lines, 5-cycle miss penalty;
* up to 4 unresolved conditional branches;
* no next-line prefetching.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError


class FetchPolicy(enum.Enum):
    """The five I-cache fetch policies of the paper's Table 1."""

    #: Service a miss only when on the correct path (unrealizable yardstick).
    ORACLE = "oracle"
    #: Service every miss; the blocking fetch unit waits for each fill.
    OPTIMISTIC = "optimistic"
    #: Like Optimistic, but redirect immediately on mispredict/misfetch
    #: detection; the in-flight wrong-path fill lands in a resume buffer.
    RESUME = "resume"
    #: Wait until all outstanding branches resolve (and previous
    #: instructions decode); fetch only if still on the correct path.
    PESSIMISTIC = "pessimistic"
    #: Wait only until previous instructions decode (guards against
    #: misfetches but not mispredicts).
    DECODE = "decode"

    @property
    def label(self) -> str:
        """Short display label used in tables (paper style)."""
        return {
            FetchPolicy.ORACLE: "Oracle",
            FetchPolicy.OPTIMISTIC: "Opt",
            FetchPolicy.RESUME: "Res",
            FetchPolicy.PESSIMISTIC: "Pess",
            FetchPolicy.DECODE: "Dec",
        }[self]


#: Policy order used throughout the paper's tables.
ALL_POLICIES = (
    FetchPolicy.ORACLE,
    FetchPolicy.OPTIMISTIC,
    FetchPolicy.RESUME,
    FetchPolicy.PESSIMISTIC,
    FetchPolicy.DECODE,
)

#: The policies a real machine could implement — everything except the
#: Oracle yardstick (which needs future knowledge of branch outcomes).
#: The default candidate set for the adaptive schedules.
REALIZABLE_POLICIES = (
    FetchPolicy.OPTIMISTIC,
    FetchPolicy.RESUME,
    FetchPolicy.PESSIMISTIC,
    FetchPolicy.DECODE,
)

#: Recognised ``SimConfig.policy_schedule`` values.
POLICY_SCHEDULES = ("static", "script", "tournament", "oracle")


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """I-cache geometry (paper baseline: 8K direct-mapped, 32-byte lines)."""

    size_bytes: int = 8192
    line_size: int = 32
    assoc: int = 1

    def __post_init__(self) -> None:
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ConfigError(f"line_size must be a power of two: {self.line_size}")
        if self.size_bytes <= 0 or self.size_bytes % self.line_size:
            raise ConfigError(
                f"size_bytes {self.size_bytes} must be a positive multiple "
                f"of line_size {self.line_size}"
            )
        if self.assoc < 1:
            raise ConfigError(f"assoc must be >= 1: {self.assoc}")
        n_lines = self.size_bytes // self.line_size
        if n_lines % self.assoc:
            raise ConfigError(
                f"{n_lines} lines not divisible into {self.assoc}-way sets"
            )
        n_sets = n_lines // self.assoc
        if n_sets & (n_sets - 1):
            raise ConfigError(f"set count {n_sets} must be a power of two")


@dataclass(frozen=True, slots=True)
class BranchConfig:
    """Branch architecture (paper baseline: decoupled BTB + gshare PHT)."""

    btb_entries: int = 64
    btb_assoc: int = 4
    pht_kind: str = "gshare"
    pht_entries: int = 512
    history_bits: int | None = None  # default: log2(pht_entries)
    coupled: bool = False
    speculative_btb_update: bool = True
    use_ras: bool = False
    ras_depth: int = 8

    def __post_init__(self) -> None:
        if self.pht_entries <= 0 or self.pht_entries & (self.pht_entries - 1):
            raise ConfigError(
                f"pht_entries must be a power of two: {self.pht_entries}"
            )
        if self.pht_kind not in ("gshare", "bimodal", "gag"):
            raise ConfigError(f"unknown pht_kind {self.pht_kind!r}")
        if self.history_bits is not None and self.history_bits < 1:
            raise ConfigError("history_bits must be >= 1 when given")

    @property
    def effective_history_bits(self) -> int:
        """History width: explicit, or the natural gshare sizing."""
        if self.history_bits is not None:
            return self.history_bits
        return max(1, self.pht_entries.bit_length() - 1)


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Complete front-end simulation configuration."""

    policy: FetchPolicy = FetchPolicy.RESUME
    cache: CacheConfig = field(default_factory=CacheConfig)
    branch: BranchConfig = field(default_factory=BranchConfig)
    #: Instructions issued per cycle (the paper's machine is 4-wide).
    issue_width: int = 4
    #: I-cache miss penalty in cycles (paper: 5 "low", 20 "high").
    miss_penalty_cycles: int = 5
    #: Cycles from fetch to decode of an instruction.
    decode_cycles: int = 2
    #: Cycles from fetch to resolution of a conditional branch.
    resolve_cycles: int = 4
    #: Maximum unresolved conditional branches (paper: 1, 2, or 4).
    max_unresolved: int = 4
    #: Enable next-line prefetching ("maximal fetchahead, first-time-ref").
    prefetch: bool = False
    #: Next-line trigger variant: "tagged" (the paper's first-time-
    #: referenced policy), "always" / "on-miss" (Smith 82's options), or
    #: "fetchahead" (Smith & Hsu 92: trigger near the end of each line).
    prefetch_variant: str = "tagged"
    #: Instructions before a line's end at which the "fetchahead" variant
    #: triggers (Smith & Hsu's critical parameter).
    fetchahead_distance: int = 4
    #: Also prefetch the not-followed arm of conditional branches
    #: (Smith & Hsu / Pierce & Mudge-style target prefetching; extension).
    target_prefetch: bool = False
    #: Background fill buffers (1 = the paper's single resume buffer;
    #: more models the §6 future-work non-blocking I-cache).
    fill_buffers: int = 1
    #: Pipelined miss requests: a new line request may start every this
    #: many cycles while each still takes the full miss penalty
    #: (None = the paper's serial channel; §6 future work).
    bus_interleave_cycles: int | None = None
    #: Jouppi-style stream buffers between the I-cache and memory
    #: (0 = none, the paper's configuration; §2.2 extension).
    stream_buffers: int = 0
    #: FIFO depth of each stream buffer (Jouppi evaluates 4 entries).
    stream_buffer_depth: int = 4
    #: Unified second-level cache size (None = the paper's flat memory;
    #: extension).  With an L2, an L1 miss costs ``l2_hit_cycles`` when it
    #: hits the L2 and ``miss_penalty_cycles`` when it goes to memory.
    l2_size_bytes: int | None = None
    l2_assoc: int = 4
    l2_hit_cycles: int = 5
    #: Model a perfect I-cache (all hits): isolates branch penalties
    #: (used for the paper's Table 3 branch characterisation).
    perfect_cache: bool = False
    #: When the branch predictor trains: ``"timing"`` (the historical
    #: default — PHT/history updates land on the fetch-engine clock, so
    #: cache stalls can reorder resolutions against predictions) or
    #: ``"architectural"`` (updates land on the perfect-cache fetch
    #: clock, making the per-branch outcome stream identical across
    #: every policy and cache geometry).  A real-cache architectural
    #: cell therefore always replays a recorded prediction stream,
    #: recording its own when it is given none (see
    #: docs/performance.md).  With a perfect cache the two schedules
    #: coincide.
    branch_schedule: str = "timing"
    #: Run the shadow-Oracle miss classifier (paper's Table 4; only
    #: meaningful with the OPTIMISTIC policy).
    classify: bool = False
    #: Engine backend: ``"auto"`` (the NumPy batch backend when a
    #: prediction stream is supplied, the cell is vector-eligible and no
    #: event sink listens, else the event loop; see docs/performance.md)
    #: or ``"event"`` (always the exact per-instruction event loop).
    engine_backend: str = "auto"
    #: How the fetch policy evolves over the run (docs/adaptive-policy.md):
    #: ``"static"`` (``policy`` for the whole run — the paper's regime),
    #: ``"script"`` (``policy_script[k]`` for interval ``k``),
    #: ``"tournament"`` (shadow-estimator meta-controller switching at
    #: interval boundaries with hysteresis), or ``"oracle"`` (re-simulate
    #: every interval under each candidate from the same warm state and
    #: keep the best — the adaptive upper bound).
    policy_schedule: str = "static"
    #: Interval length in correct-path instructions for the per-interval
    #: schedules.  Required for every non-static schedule; with a static
    #: schedule it merely turns on per-interval measurement
    #: (``SimulationResult.intervals``) without changing any timing.
    adaptive_interval: int | None = None
    #: Per-interval policy sequence for ``policy_schedule="script"``
    #: (interval ``k`` runs ``policy_script[min(k, len - 1)]``).
    policy_script: tuple[FetchPolicy, ...] = ()
    #: Candidate policies the tournament/oracle schedules choose among.
    adaptive_policies: tuple[FetchPolicy, ...] = REALIZABLE_POLICIES
    #: Tournament controller: EWMA history weight expressed as the number
    #: of intervals over which past estimates decay to ~1/e.
    tournament_history: int = 4
    #: Consecutive interval boundaries a challenger must win before the
    #: tournament controller actually switches (hysteresis).
    tournament_hysteresis: int = 2
    #: Minimum relative ISPI advantage (fraction) a challenger needs for
    #: one of those wins to count.
    tournament_margin: float = 0.02

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ConfigError(f"issue_width must be >= 1: {self.issue_width}")
        if self.miss_penalty_cycles < 0:
            raise ConfigError(
                f"miss_penalty_cycles must be >= 0: {self.miss_penalty_cycles}"
            )
        if self.decode_cycles < 1:
            raise ConfigError(f"decode_cycles must be >= 1: {self.decode_cycles}")
        if self.resolve_cycles < self.decode_cycles:
            raise ConfigError(
                "resolve_cycles must be >= decode_cycles "
                f"({self.resolve_cycles} < {self.decode_cycles})"
            )
        if self.max_unresolved < 1:
            raise ConfigError(f"max_unresolved must be >= 1: {self.max_unresolved}")
        if self.prefetch_variant not in (
            "tagged", "always", "on-miss", "fetchahead"
        ):
            raise ConfigError(
                f"unknown prefetch_variant {self.prefetch_variant!r}"
            )
        if self.fetchahead_distance < 1:
            raise ConfigError(
                f"fetchahead_distance must be >= 1: {self.fetchahead_distance}"
            )
        if self.fill_buffers < 1:
            raise ConfigError(f"fill_buffers must be >= 1: {self.fill_buffers}")
        if self.bus_interleave_cycles is not None and self.bus_interleave_cycles < 1:
            raise ConfigError(
                f"bus_interleave_cycles must be >= 1: {self.bus_interleave_cycles}"
            )
        if self.stream_buffers < 0:
            raise ConfigError(f"stream_buffers must be >= 0: {self.stream_buffers}")
        if self.stream_buffer_depth < 1:
            raise ConfigError(
                f"stream_buffer_depth must be >= 1: {self.stream_buffer_depth}"
            )
        if self.l2_size_bytes is not None:
            if self.l2_size_bytes <= self.cache.size_bytes:
                raise ConfigError(
                    f"L2 ({self.l2_size_bytes}B) must be larger than the "
                    f"I-cache ({self.cache.size_bytes}B)"
                )
            if self.l2_hit_cycles < 1:
                raise ConfigError(
                    f"l2_hit_cycles must be >= 1: {self.l2_hit_cycles}"
                )
            if self.miss_penalty_cycles < self.l2_hit_cycles:
                raise ConfigError(
                    f"miss_penalty_cycles ({self.miss_penalty_cycles}) must "
                    f"be >= l2_hit_cycles ({self.l2_hit_cycles})"
                )
            if self.l2_assoc < 1:
                raise ConfigError(f"l2_assoc must be >= 1: {self.l2_assoc}")
        if self.branch_schedule not in ("timing", "architectural"):
            raise ConfigError(
                f"unknown branch_schedule {self.branch_schedule!r} "
                "(expected 'timing' or 'architectural')"
            )
        if self.classify and self.policy is not FetchPolicy.OPTIMISTIC:
            raise ConfigError(
                "miss classification requires the OPTIMISTIC policy "
                "(it compares Optimistic against a shadow Oracle)"
            )
        if self.engine_backend not in ("auto", "event"):
            raise ConfigError(
                f"unknown engine_backend {self.engine_backend!r} "
                "(expected 'auto' or 'event')"
            )
        if self.policy_schedule not in POLICY_SCHEDULES:
            raise ConfigError(
                f"unknown policy_schedule {self.policy_schedule!r} "
                f"(expected one of {', '.join(POLICY_SCHEDULES)})"
            )
        if self.adaptive_interval is not None and self.adaptive_interval <= 0:
            raise ConfigError(
                f"adaptive_interval must be a positive instruction count, "
                f"got {self.adaptive_interval}"
            )
        if self.policy_schedule != "static":
            if self.adaptive_interval is None:
                raise ConfigError(
                    f"policy_schedule={self.policy_schedule!r} needs an "
                    "interval length: set adaptive_interval to the number "
                    "of instructions per interval"
                )
            if self.classify:
                raise ConfigError(
                    "miss classification assumes one policy for the whole "
                    "run (it shadows Optimistic against Oracle); drop "
                    "classify=True or use policy_schedule='static'"
                )
        if self.policy_schedule == "script":
            if not self.policy_script:
                raise ConfigError(
                    "policy_schedule='script' needs a non-empty "
                    "policy_script (one FetchPolicy per interval)"
                )
        elif self.policy_script:
            raise ConfigError(
                "policy_script is only read by policy_schedule='script'; "
                f"it would be silently ignored under "
                f"{self.policy_schedule!r}"
            )
        if self.policy_schedule in ("tournament", "oracle"):
            if len(self.adaptive_policies) < 2:
                raise ConfigError(
                    f"policy_schedule={self.policy_schedule!r} needs at "
                    "least two adaptive_policies to choose between, got "
                    f"{len(self.adaptive_policies)}"
                )
            if len(set(self.adaptive_policies)) != len(self.adaptive_policies):
                raise ConfigError(
                    f"adaptive_policies contains duplicates: "
                    f"{[p.value for p in self.adaptive_policies]}"
                )
        if self.tournament_history < 1:
            raise ConfigError(
                f"tournament_history must be >= 1: {self.tournament_history}"
            )
        if self.tournament_hysteresis < 1:
            raise ConfigError(
                f"tournament_hysteresis must be >= 1: "
                f"{self.tournament_hysteresis}"
            )
        if self.tournament_margin < 0.0:
            raise ConfigError(
                f"tournament_margin must be >= 0: {self.tournament_margin}"
            )

    # -- derived slot quantities (1 cycle = issue_width slots) -------------

    @property
    def miss_penalty_slots(self) -> int:
        """Miss penalty in issue slots."""
        return self.miss_penalty_cycles * self.issue_width

    @property
    def decode_latency_slots(self) -> int:
        """Fetch-to-decode latency in issue slots."""
        return self.decode_cycles * self.issue_width

    @property
    def resolve_latency_slots(self) -> int:
        """Fetch-to-resolution latency in issue slots."""
        return self.resolve_cycles * self.issue_width

    @property
    def misfetch_penalty_slots(self) -> int:
        """Issue slots lost to a misfetch (redirect at decode)."""
        return self.decode_cycles * self.issue_width

    @property
    def mispredict_penalty_slots(self) -> int:
        """Issue slots lost to a mispredict (redirect at resolution)."""
        return self.resolve_cycles * self.issue_width

    def with_policy(self, policy: FetchPolicy) -> SimConfig:
        """A copy of this config running a different fetch policy."""
        return replace(self, policy=policy)

    def describe(self) -> str:
        """One-line human summary, used in reports."""
        cache = (
            "perfect"
            if self.perfect_cache
            else f"{self.cache.size_bytes // 1024}K/"
            f"{self.cache.assoc}-way/{self.cache.line_size}B"
        )
        schedule = (
            ""
            if self.policy_schedule == "static"
            else f" policy-sched={self.policy_schedule}@{self.adaptive_interval}"
        )
        return (
            f"{self.policy.label} cache={cache} "
            f"penalty={self.miss_penalty_cycles}cyc depth={self.max_unresolved}"
            f"{' +prefetch' if self.prefetch else ''}"
            f"{' sched=arch' if self.branch_schedule == 'architectural' else ''}"
            f"{schedule}"
        )


def paper_baseline(policy: FetchPolicy = FetchPolicy.RESUME) -> SimConfig:
    """The paper's §5.1 baseline configuration with the given policy."""
    return SimConfig(policy=policy)
