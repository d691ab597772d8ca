"""Configuration dataclasses for graph construction and search.

These mirror the knobs exposed by the paper:

* :class:`GraphBuildConfig` — final degree ``d``, initial NN-descent degree
  ``d_init`` (Sec. III-B: "typically 2d or 3d"), the reordering flavour
  (rank-based is CAGRA's contribution; distance-based is the ablation
  baseline), and whether reverse edges are merged.
* :class:`SearchConfig` — internal top-M size (``itopk``), search width ``p``
  (parents expanded per iteration), iteration bounds, the CTA mapping
  (``auto``/``single``/``multi``), team size, and the hash-table policy.
* :class:`HashTableConfig` — open-addressing table sizing and the
  *forgettable* reset interval (Sec. IV-B3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.core.distances import METRICS

__all__ = ["GraphBuildConfig", "SearchConfig", "HashTableConfig", "choose_algo"]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class GraphBuildConfig:
    """Parameters of CAGRA graph construction.

    Attributes:
        graph_degree: out-degree ``d`` of the final graph (fixed for all
            nodes).  Paper Table I uses 32–80 depending on the dataset.
        intermediate_degree: degree ``d_init`` of the initial NN-descent
            k-NN graph; ``0`` means ``2 * graph_degree``.
        reordering: ``"rank"`` (CAGRA default), ``"distance"`` (ablation
            baseline that computes real detour distances), or ``"none"``
            (skip reordering; prune by distance rank only).
        add_reverse_edges: merge the reversed graph (Sec. III-B2).  Disabled
            only for the Fig. 3 ablations.
        nn_descent_iterations: maximum NN-descent rounds.
        nn_descent_sample_rate: fraction (rho) of each neighbor list sampled
            per local-join round.
        nn_descent_termination_delta: stop when fewer than
            ``delta * N * d_init`` list updates happen in a round.
        metric: one of :data:`repro.core.distances.METRICS`.
        seed: RNG seed for NN-descent initialization.
    """

    graph_degree: int = 32
    intermediate_degree: int = 0
    reordering: str = "rank"
    add_reverse_edges: bool = True
    nn_descent_iterations: int = 20
    nn_descent_sample_rate: float = 0.5
    nn_descent_termination_delta: float = 0.01
    metric: str = "sqeuclidean"
    seed: int = 0

    def __post_init__(self) -> None:
        _require(self.graph_degree >= 2, "graph_degree must be >= 2")
        _require(
            self.graph_degree % 2 == 0,
            "graph_degree must be even (d/2 forward + d/2 reverse merge)",
        )
        _require(
            self.reordering in ("rank", "distance", "none"),
            f"reordering must be 'rank', 'distance' or 'none', got {self.reordering!r}",
        )
        _require(self.metric in METRICS, f"metric must be one of {METRICS}")
        _require(self.nn_descent_iterations >= 1, "need at least one NN-descent round")
        _require(
            0.0 < self.nn_descent_sample_rate <= 1.0,
            "nn_descent_sample_rate must be in (0, 1]",
        )
        # ``>= 0`` is False for NaN, which would disable early termination.
        _require(
            self.nn_descent_termination_delta >= 0.0,
            "nn_descent_termination_delta must be >= 0, got "
            f"{self.nn_descent_termination_delta!r}",
        )
        _require(self.seed >= 0, f"seed must be >= 0, got {self.seed!r}")
        if self.intermediate_degree:
            _require(
                self.intermediate_degree >= self.graph_degree,
                "intermediate_degree must be >= graph_degree",
            )

    @property
    def resolved_intermediate_degree(self) -> int:
        """``d_init``; defaults to ``2 * d`` as recommended by the paper."""
        return self.intermediate_degree or 2 * self.graph_degree


@dataclass(frozen=True)
class HashTableConfig:
    """Visited-node hash table policy (Sec. IV-B3).

    ``kind="standard"`` is a device-memory table sized for the whole search
    (``>= 2 * I_max * p * d`` entries).  ``kind="forgettable"`` is the small
    shared-memory table (paper: 2^8–2^13 entries) that is wiped every
    ``reset_interval`` iterations and re-seeded with the current top-M list.
    """

    kind: str = "forgettable"
    log2_size: int = 11
    reset_interval: int = 2

    def __post_init__(self) -> None:
        _require(
            self.kind in ("standard", "forgettable"),
            f"hash table kind must be 'standard' or 'forgettable', got {self.kind!r}",
        )
        _require(4 <= self.log2_size <= 26, "log2_size out of range [4, 26]")
        _require(self.reset_interval >= 1, "reset_interval must be >= 1")


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of the CAGRA search (Sec. IV).

    Attributes:
        itopk: internal top-M list length ``M`` (>= k).
        search_width: ``p``, the number of parent nodes expanded per
            iteration (single-CTA; multi-CTA always uses ``p=1`` per CTA).
        max_iterations: hard iteration cap ``I_max``; ``0`` picks a bound
            from ``itopk`` and ``search_width``.
        min_iterations: lower bound on iterations before convergence exit.
        algo: ``"auto"`` (paper's Fig. 7 rule), ``"single_cta"`` or
            ``"multi_cta"``.
        team_size: threads per distance computation (0 = auto from dim).
        cta_per_query: CTAs per query in multi-CTA mode (0 = auto).
        hash_table: hash policy; ``None`` picks per-algo defaults
            (forgettable/shared for single-CTA, standard/device for multi).
        itopk_threshold: ``M_T`` of Fig. 7 (multi-CTA above it).
        batch_threshold: ``b_T`` of Fig. 7; 0 = "number of SMs on the GPU".
        seed: RNG seed for the random initialization step.
        precision: dataset storage precision the traversal engine searches
            at — ``"fp32"`` (the caller's array as-is) or ``"fp16"``
            (half-precision storage, fp32 distance accumulation; the
            paper's half mode, halving simulated DRAM traffic).
    """

    itopk: int = 64
    search_width: int = 1
    max_iterations: int = 0
    min_iterations: int = 0
    algo: str = "auto"
    team_size: int = 0
    cta_per_query: int = 0
    hash_table: HashTableConfig | None = None
    itopk_threshold: int = 512
    batch_threshold: int = 0
    seed: int = 0
    precision: str = "fp32"

    def __post_init__(self) -> None:
        _require(
            self.precision in ("fp32", "fp16"),
            f"precision must be 'fp32' or 'fp16', got {self.precision!r}",
        )
        _require(self.itopk >= 1, "itopk must be >= 1")
        _require(self.search_width >= 1, "search_width must be >= 1")
        _require(
            self.search_width <= self.itopk,
            f"search_width={self.search_width} exceeds itopk={self.itopk}: "
            "each step picks its parents from the itopk list",
        )
        _require(
            self.algo in ("auto", "single_cta", "multi_cta"),
            f"algo must be 'auto', 'single_cta' or 'multi_cta', got {self.algo!r}",
        )
        _require(
            self.team_size in (0, 2, 4, 8, 16, 32),
            "team_size must be 0 (auto) or a power of two in [2, 32]",
        )
        _require(self.max_iterations >= 0, "max_iterations must be >= 0")
        _require(self.min_iterations >= 0, "min_iterations must be >= 0")
        _require(self.cta_per_query >= 0, "cta_per_query must be >= 0")
        _require(self.seed >= 0, "seed must be >= 0")

    def resolved_max_iterations(self) -> int:
        """``I_max``: explicit value, or a heuristic bound like cuVS uses."""
        if self.max_iterations:
            return self.max_iterations
        # Enough iterations to let every itopk entry become a parent, with
        # some slack for re-ranking churn.
        return max(32, (self.itopk + self.search_width - 1) // self.search_width + 16)

    def with_overrides(self, **kwargs) -> "SearchConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def from_mapping(
        cls, mapping: "dict | None", base: "SearchConfig | None" = None, **overrides
    ) -> "SearchConfig":
        """Build a config from a loose mapping (e.g. a tuned-profile JSON).

        Unknown keys are ignored so profile schemas can grow without
        breaking older readers; ``base`` supplies the starting values
        (default-constructed otherwise) and ``overrides`` win over both.
        This is how :mod:`repro.tune` profiles become ``SearchConfig``
        defaults without the core depending on the tuner.
        """
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in dict(mapping or {}).items() if k in known}
        kwargs.update({k: v for k, v in overrides.items() if k in known})
        return replace(base, **kwargs) if base is not None else cls(**kwargs)


def choose_algo(
    config: SearchConfig, batch_size: int, num_sms: int = 108
) -> str:
    """The implementation-choice rule of Fig. 7.

    Multi-CTA is used when the batch is smaller than ``b_T`` (default: the
    SM count) *or* the internal top-M exceeds ``M_T`` (default 512);
    otherwise single-CTA.
    """
    if config.algo != "auto":
        return config.algo
    batch_threshold = config.batch_threshold or num_sms
    if batch_size < batch_threshold or config.itopk > config.itopk_threshold:
        return "multi_cta"
    return "single_cta"
