"""Unit tests for repro.core.config."""

import pytest

from repro.core.config import (
    GraphBuildConfig,
    HashTableConfig,
    SearchConfig,
    choose_algo,
)


class TestGraphBuildConfig:
    def test_defaults_valid(self):
        config = GraphBuildConfig()
        assert config.graph_degree == 32
        assert config.resolved_intermediate_degree == 64

    def test_intermediate_degree_default_is_2d(self):
        assert GraphBuildConfig(graph_degree=48).resolved_intermediate_degree == 96

    def test_explicit_intermediate_degree(self):
        config = GraphBuildConfig(graph_degree=32, intermediate_degree=96)
        assert config.resolved_intermediate_degree == 96

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError, match="even"):
            GraphBuildConfig(graph_degree=33)

    def test_degree_too_small_rejected(self):
        with pytest.raises(ValueError):
            GraphBuildConfig(graph_degree=0)

    def test_intermediate_below_final_rejected(self):
        with pytest.raises(ValueError, match="intermediate_degree"):
            GraphBuildConfig(graph_degree=32, intermediate_degree=16)

    @pytest.mark.parametrize("flavour", ["rank", "distance", "none"])
    def test_reordering_flavours(self, flavour):
        assert GraphBuildConfig(reordering=flavour).reordering == flavour

    def test_bad_reordering_rejected(self):
        with pytest.raises(ValueError, match="reordering"):
            GraphBuildConfig(reordering="angular")

    def test_bad_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            GraphBuildConfig(metric="hamming")

    def test_bad_sample_rate_rejected(self):
        with pytest.raises(ValueError, match="sample_rate"):
            GraphBuildConfig(nn_descent_sample_rate=0.0)

    @pytest.mark.parametrize("delta", [-0.01, float("nan"), float("-inf")])
    def test_bad_termination_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="nn_descent_termination_delta.*" + repr(delta)):
            GraphBuildConfig(nn_descent_termination_delta=delta)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            GraphBuildConfig(seed=-3)

    def test_frozen(self):
        config = GraphBuildConfig()
        with pytest.raises(Exception):
            config.graph_degree = 64


class TestHashTableConfig:
    def test_defaults(self):
        config = HashTableConfig()
        assert config.kind == "forgettable"
        assert 4 <= config.log2_size <= 26

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            HashTableConfig(kind="lru")

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            HashTableConfig(log2_size=2)
        with pytest.raises(ValueError):
            HashTableConfig(log2_size=30)

    def test_reset_interval_positive(self):
        with pytest.raises(ValueError, match="reset_interval"):
            HashTableConfig(reset_interval=0)


class TestSearchConfig:
    def test_defaults(self):
        config = SearchConfig()
        assert config.itopk == 64
        assert config.algo == "auto"

    def test_bad_algo_rejected(self):
        with pytest.raises(ValueError, match="algo"):
            SearchConfig(algo="mega_cta")

    @pytest.mark.parametrize("team", [0, 2, 4, 8, 16, 32])
    def test_valid_team_sizes(self, team):
        assert SearchConfig(team_size=team).team_size == team

    @pytest.mark.parametrize("team", [1, 3, 64])
    def test_invalid_team_sizes(self, team):
        with pytest.raises(ValueError, match="team_size"):
            SearchConfig(team_size=team)

    def test_negative_seed_rejected(self):
        """At construction, typed — not deep inside the first search."""
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SearchConfig(seed=-1)
        assert SearchConfig(seed=0).seed == 0

    def test_search_width_above_itopk_rejected(self):
        """A step picks ``search_width`` parents from the ``itopk`` list, so
        a wider step is refused at construction, naming both values (the
        fast path used to fail deep in the gather reshape)."""
        with pytest.raises(ValueError, match="search_width=2 exceeds itopk=1"):
            SearchConfig(itopk=1, search_width=2)
        assert SearchConfig(itopk=4, search_width=4).search_width == 4

    def test_resolved_max_iterations_explicit(self):
        assert SearchConfig(max_iterations=7).resolved_max_iterations() == 7

    def test_resolved_max_iterations_heuristic_scales_with_itopk(self):
        small = SearchConfig(itopk=16).resolved_max_iterations()
        large = SearchConfig(itopk=512).resolved_max_iterations()
        assert large > small

    def test_with_overrides_returns_new(self):
        base = SearchConfig(itopk=64)
        other = base.with_overrides(itopk=128)
        assert base.itopk == 64
        assert other.itopk == 128


class TestChooseAlgo:
    """The Fig. 7 implementation-choice rule."""

    def test_small_batch_uses_multi_cta(self):
        assert choose_algo(SearchConfig(), batch_size=1, num_sms=108) == "multi_cta"

    def test_large_batch_uses_single_cta(self):
        assert choose_algo(SearchConfig(), batch_size=10000, num_sms=108) == "single_cta"

    def test_batch_threshold_is_sm_count(self):
        assert choose_algo(SearchConfig(), batch_size=107, num_sms=108) == "multi_cta"
        assert choose_algo(SearchConfig(), batch_size=108, num_sms=108) == "single_cta"

    def test_large_itopk_forces_multi_cta(self):
        config = SearchConfig(itopk=1024)
        assert choose_algo(config, batch_size=10000, num_sms=108) == "multi_cta"

    def test_itopk_threshold_boundary(self):
        at = SearchConfig(itopk=512)
        above = SearchConfig(itopk=513)
        assert choose_algo(at, 10000) == "single_cta"
        assert choose_algo(above, 10000) == "multi_cta"

    def test_explicit_algo_wins(self):
        config = SearchConfig(algo="single_cta")
        assert choose_algo(config, batch_size=1) == "single_cta"

    def test_custom_batch_threshold(self):
        config = SearchConfig(batch_threshold=10)
        assert choose_algo(config, batch_size=20, num_sms=108) == "single_cta"
        assert choose_algo(config, batch_size=5, num_sms=108) == "multi_cta"


class TestSearchConfigFromMapping:
    def test_unknown_keys_ignored(self):
        config = SearchConfig.from_mapping(
            {"itopk": 32, "future_knob": 7, "recall": 0.9}
        )
        assert config.itopk == 32

    def test_base_preserved(self):
        base = SearchConfig(seed=4, team_size=8)
        config = SearchConfig.from_mapping({"itopk": 96}, base=base)
        assert config.itopk == 96
        assert config.seed == 4 and config.team_size == 8

    def test_overrides_beat_mapping(self):
        config = SearchConfig.from_mapping(
            {"itopk": 96, "search_width": 4}, itopk=16
        )
        assert config.itopk == 16
        assert config.search_width == 4

    def test_none_mapping(self):
        assert SearchConfig.from_mapping(None) == SearchConfig()

    def test_validation_still_applies(self):
        with pytest.raises(ValueError):
            SearchConfig.from_mapping({"itopk": 0})
