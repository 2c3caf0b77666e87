"""Configuration validation and derived quantities."""

import pytest

from repro.config import (
    ALL_POLICIES,
    BranchConfig,
    CacheConfig,
    FetchPolicy,
    SimConfig,
    paper_baseline,
)
from repro.errors import ConfigError


class TestCacheConfig:
    def test_paper_default(self):
        config = CacheConfig()
        assert config.size_bytes == 8192
        assert config.line_size == 32
        assert config.assoc == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"size_bytes": 1000},
            {"line_size": 24},
            {"assoc": 0},
            {"size_bytes": 384, "assoc": 2},  # 6 sets: not a power of two
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            CacheConfig(**kwargs)


class TestBranchConfig:
    def test_paper_default(self):
        config = BranchConfig()
        assert config.btb_entries == 64
        assert config.btb_assoc == 4
        assert config.pht_entries == 512
        assert config.pht_kind == "gshare"
        assert not config.coupled
        assert config.speculative_btb_update

    def test_natural_history_bits(self):
        assert BranchConfig().effective_history_bits == 9
        assert BranchConfig(pht_entries=1024).effective_history_bits == 10
        assert BranchConfig(history_bits=4).effective_history_bits == 4

    def test_invalid(self):
        with pytest.raises(ConfigError):
            BranchConfig(pht_entries=500)
        with pytest.raises(ConfigError):
            BranchConfig(pht_kind="neural")
        with pytest.raises(ConfigError):
            BranchConfig(history_bits=0)


class TestSimConfig:
    def test_paper_baseline(self):
        config = paper_baseline()
        assert config.policy is FetchPolicy.RESUME
        assert config.issue_width == 4
        assert config.miss_penalty_cycles == 5
        assert config.max_unresolved == 4
        assert not config.prefetch

    def test_derived_slots(self):
        config = SimConfig()
        assert config.miss_penalty_slots == 20
        assert config.decode_latency_slots == 8
        assert config.resolve_latency_slots == 16
        assert config.misfetch_penalty_slots == 8
        assert config.mispredict_penalty_slots == 16

    def test_with_policy(self):
        base = SimConfig()
        other = base.with_policy(FetchPolicy.ORACLE)
        assert other.policy is FetchPolicy.ORACLE
        assert other.cache == base.cache
        assert base.policy is FetchPolicy.RESUME  # original untouched

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"issue_width": 0},
            {"miss_penalty_cycles": -1},
            {"decode_cycles": 0},
            {"resolve_cycles": 1},  # < decode_cycles
            {"max_unresolved": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)

    def test_classify_requires_optimistic(self):
        with pytest.raises(ConfigError):
            SimConfig(policy=FetchPolicy.ORACLE, classify=True)
        SimConfig(policy=FetchPolicy.OPTIMISTIC, classify=True)

    def test_describe(self):
        text = SimConfig(prefetch=True).describe()
        assert "Res" in text
        assert "8K" in text
        assert "+prefetch" in text
        assert "perfect" in SimConfig(perfect_cache=True).describe()

    def test_frozen(self):
        config = SimConfig()
        with pytest.raises(AttributeError):
            config.policy = FetchPolicy.ORACLE


class TestPolicyEnum:
    def test_all_policies_order(self):
        assert [p.value for p in ALL_POLICIES] == [
            "oracle", "optimistic", "resume", "pessimistic", "decode",
        ]

    def test_labels_unique(self):
        labels = [p.label for p in ALL_POLICIES]
        assert len(set(labels)) == len(labels)


class TestPolicyScheduleConfig:
    """PR 7 scheduling knobs: every invalid combination is rejected with
    an actionable message, whether built directly or via replace()."""

    def test_static_default(self):
        config = SimConfig()
        assert config.policy_schedule == "static"
        assert config.adaptive_interval is None
        assert config.policy_script == ()

    def test_valid_schedules(self):
        SimConfig(policy_schedule="tournament", adaptive_interval=1000)
        SimConfig(policy_schedule="oracle", adaptive_interval=1000)
        SimConfig(
            policy_schedule="script",
            adaptive_interval=1000,
            policy_script=(FetchPolicy.RESUME, FetchPolicy.OPTIMISTIC),
        )
        SimConfig(adaptive_interval=1000)  # static + interval accounting

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policy_schedule": "greedy"},
            {"adaptive_interval": 0},
            {"adaptive_interval": -100},
            {"policy_schedule": "tournament"},  # no interval
            {"policy_schedule": "script", "adaptive_interval": 500},  # no script
            {"policy_script": (FetchPolicy.RESUME,)},  # script without schedule
            {
                "policy_schedule": "tournament",
                "adaptive_interval": 500,
                "adaptive_policies": (FetchPolicy.RESUME,),  # < 2 candidates
            },
            {
                "policy_schedule": "tournament",
                "adaptive_interval": 500,
                "tournament_history": 0,
            },
            {
                "policy_schedule": "tournament",
                "adaptive_interval": 500,
                "tournament_hysteresis": 0,
            },
            {
                "policy_schedule": "tournament",
                "adaptive_interval": 500,
                "tournament_margin": -0.1,
            },
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)

    def test_controller_schedules_reject_classify(self):
        with pytest.raises(ConfigError) as excinfo:
            SimConfig(
                policy=FetchPolicy.OPTIMISTIC,
                classify=True,
                policy_schedule="tournament",
                adaptive_interval=500,
            )
        assert "classif" in str(excinfo.value)

    def test_vector_backend_rejects_scheduling(self):
        # The vector backend cannot be requested at all: "auto" picks it
        # for eligible cells only, and per-interval schedules never are.
        with pytest.raises(ConfigError) as excinfo:
            SimConfig(
                engine_backend="vector",
                policy_schedule="tournament",
                adaptive_interval=500,
            )
        assert "unknown engine_backend 'vector'" in str(excinfo.value)
        for backend in ("auto", "event"):
            SimConfig(
                engine_backend=backend,
                policy_schedule="tournament",
                adaptive_interval=500,
            )

    def test_replace_built_configs_are_validated(self):
        from dataclasses import replace

        base = SimConfig()
        with pytest.raises(ConfigError):
            replace(base, policy_schedule="tournament")  # no interval
        with pytest.raises(ConfigError):
            replace(base, adaptive_interval=-1)
        with pytest.raises(ConfigError):
            replace(base, engine_backend="vector")

    def test_describe_static_unchanged(self):
        assert "policy-sched" not in SimConfig().describe()
        assert "policy-sched" not in SimConfig(adaptive_interval=500).describe()

    def test_describe_names_schedule(self):
        text = SimConfig(
            policy_schedule="tournament", adaptive_interval=500
        ).describe()
        assert "policy-sched=tournament@500" in text
