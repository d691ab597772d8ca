"""Build any index kind through one factory: ``build_index``.

The CLI's ``--index-kind {cagra,hnsw,ggnn,ganns,nssg,bruteforce}`` routes
here; programmatic callers can use a :class:`BuildSpec` value object or
the keyword form directly::

    from repro.api import build_index

    index = build_index("hnsw", data, metric="sqeuclidean", degree=32)
    result = index.search(queries, k=10)

The kind's builder (its :data:`repro.api.kinds.KINDS` entry) makes the
native index and :func:`~repro.api.adapters.as_ann_index` wraps it in an
:class:`~repro.api.adapters.AnnIndexAdapter`; the native index
stays reachable as ``.inner`` for paper-figure code.  Kind-specific
parameters pass through ``params`` (e.g. ``ef_construction`` for HNSW,
``shard_size`` for GGNN); ``degree`` maps onto each kind's degree-like
knob (HNSW's ``m`` is ``degree // 2`` since its base layer keeps ``2M``
links).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.api.adapters import as_ann_index
from repro.api.kinds import INDEX_KINDS, KINDS

__all__ = ["INDEX_KINDS", "BuildSpec", "build_from_spec", "build_index"]


@dataclass(frozen=True)
class BuildSpec:
    """Declarative description of one index build.

    Attributes:
        kind: one of :data:`INDEX_KINDS`.
        metric: distance metric name.
        degree: degree-like knob (0 = the kind's default).
        seed: build RNG seed.
        shards: sub-index count (> 1 is CAGRA-only sharding).
        dataset_dtype: ``float32`` or ``float16`` storage (CAGRA only).
        params: kind-specific extra build parameters.
    """

    kind: str
    metric: str = "sqeuclidean"
    degree: int = 0
    seed: int = 0
    shards: int = 1
    dataset_dtype: str = "float32"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in INDEX_KINDS:
            raise ValueError(f"kind must be one of {INDEX_KINDS}, got {self.kind!r}")
        if self.degree < 0:
            raise ValueError("degree must be >= 0 (0 = default)")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shards > 1 and self.kind != "cagra":
            raise ValueError("sharding is only supported for kind='cagra'")


def build_from_spec(
    spec: BuildSpec,
    dataset: np.ndarray,
    *,
    parallel=None,
    num_sms: int = 108,
    on_shard_failure: str = "raise",
    min_shard_quorum: int = 1,
    on_stage=None,
):
    """Build the index described by ``spec`` over ``dataset``.

    Returns an adapter conforming to :class:`repro.api.AnnIndex`.  When
    ``on_stage`` is given, one ``build.<kind>`` stage event is emitted
    with the wall time and basic size counters.
    """
    dataset = np.asarray(dataset)
    started = time.perf_counter()
    adapter = as_ann_index(
        KINDS[spec.kind].build(spec, dataset, parallel),
        num_sms=num_sms,
        on_shard_failure=on_shard_failure,
        min_shard_quorum=min_shard_quorum,
        seed=spec.seed,
    )
    if on_stage is not None:
        on_stage(
            f"build.{spec.kind}",
            time.perf_counter() - started,
            {
                "size": int(dataset.shape[0]),
                "dim": int(dataset.shape[1]),
                "shards": spec.shards,
            },
        )
    return adapter


def build_index(
    kind: str,
    dataset: np.ndarray,
    *,
    metric: str = "sqeuclidean",
    degree: int = 0,
    seed: int = 0,
    shards: int = 1,
    dataset_dtype: str = "float32",
    parallel=None,
    num_sms: int = 108,
    on_shard_failure: str = "raise",
    min_shard_quorum: int = 1,
    on_stage=None,
    **params,
):
    """Keyword-form factory: ``build_index("hnsw", data, degree=32)``.

    See :class:`BuildSpec` for the shared knobs and
    :func:`build_from_spec` for execution semantics; any extra keyword
    argument lands in ``BuildSpec.params`` and is forwarded to the
    kind's native constructor.
    """
    spec = BuildSpec(
        kind=kind,
        metric=metric,
        degree=degree,
        seed=seed,
        shards=shards,
        dataset_dtype=dataset_dtype,
        params=params,
    )
    return build_from_spec(
        spec,
        dataset,
        parallel=parallel,
        num_sms=num_sms,
        on_shard_failure=on_shard_failure,
        min_shard_quorum=min_shard_quorum,
        on_stage=on_stage,
    )
