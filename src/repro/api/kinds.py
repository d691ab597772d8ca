"""One declaration per index kind: how it is built, wrapped, saved and loaded.

:data:`KINDS` holds one :class:`IndexKind` per kind — ``sharded-cagra``,
``cagra``, ``hnsw``, ``ggnn``, ``ganns``, ``nssg`` and ``bruteforce`` —
and every other surface reads it: :data:`INDEX_KINDS` (the
``--index-kind`` vocabulary), :func:`repro.api.build_index`,
:func:`repro.api.as_ann_index` and the ``.npz`` persistence below.

Archives: :func:`save_index` writes one ``.npz`` at exactly the path it
is given.  Every kind but CAGRA tags its archive with a ``format=<kind>``
key; monolithic and sharded CAGRA archives predate the tag and are told
apart by their key sets (``dataset``/``neighbors``/``metric`` vs
``num_shards``).  :func:`load_index` / :func:`sniff_format` raise
:class:`UnknownIndexFormatError` — naming the path and chaining the
cause — for a file that is not such an archive or is damaged; a missing
file stays :class:`FileNotFoundError`.  The ``index.load`` fault point
(:mod:`repro.resilience.faults`) fires once per :func:`load_index` call.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.api.adapters import (
    AnnIndexAdapter,
    BruteForceIndex,
    CagraAnnIndex,
    GannsAnnIndex,
    GgnnAnnIndex,
    HnswAnnIndex,
    NssgAnnIndex,
    ShardedCagraAnnIndex,
    as_ann_index,
)
from repro.baselines.ganns import GannsIndex
from repro.baselines.ggnn import GgnnIndex
from repro.baselines.hnsw import HnswIndex
from repro.baselines.nssg import NssgIndex
from repro.core.config import GraphBuildConfig
from repro.core.graph import FixedDegreeGraph
from repro.core.index import CagraIndex
from repro.core.nn_descent import build_knn_graph

__all__ = [
    "INDEX_KINDS",
    "KINDS",
    "IndexKind",
    "UnknownIndexFormatError",
    "kind_of",
    "load_ann_index",
    "load_index",
    "save_index",
    "sniff_format",
]


class UnknownIndexFormatError(ValueError):
    """The file is not an archive of any index kind, or is damaged."""


def _read(path) -> dict[str, np.ndarray]:
    """Every array in the ``.npz`` at ``path``."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            return {key: archive[key] for key in archive.files}
    except OSError:
        raise
    except Exception as exc:  # BadZipFile, EOFError, a pickle refusal, …
        raise UnknownIndexFormatError(
            f"{str(path)!r} is not an index archive: {exc}"
        ) from exc


@dataclass(frozen=True)
class IndexKind:
    """One index kind.

    Attributes:
        name: the kind's name (``--index-kind`` value, ``format`` tag).
        native: dotted path of the native class the kind wraps, imported
            on first use (``repro.core.sharding`` imports ``repro.api``).
        adapter: the :class:`AnnIndexAdapter` subclass wrapping it.
        policies: the :func:`repro.api.as_ann_index` keywords the
            adapter takes.
        build: ``build(spec, dataset, parallel) -> native``; ``None``
            when another kind's builder makes it (sharded CAGRA is
            ``cagra`` with ``shards > 1``).
        encode: ``encode(native) -> {key: array}``, the archive payload.
        decode: ``decode(arrays, parallel) -> native``.
        legacy_keys: keys naming an untagged archive of this kind;
            ``None`` for kinds whose archives carry ``format=<name>``.
    """

    name: str
    native: str
    adapter: type
    policies: tuple[str, ...]
    build: Callable | None
    encode: Callable
    decode: Callable
    legacy_keys: frozenset | None = None

    def owns(self, index) -> bool:
        module, _, cls = self.native.rpartition(".")
        return isinstance(index, getattr(importlib.import_module(module), cls))

    def save(self, index, path) -> None:
        payload = self.encode(index)
        if self.legacy_keys is None:
            payload = {"format": np.array(self.name), **payload}
        # Through a handle: numpy appends ".npz" to a path lacking it.
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **payload)

    def load(self, path, parallel=None):
        return self.decode(_read(path), parallel)


def _pack_ragged(rows) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate variable-length id rows into (values, offsets)."""
    lengths = [len(row) for row in rows]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    if rows:
        values = np.concatenate(
            [np.asarray(row, dtype=np.int64) for row in rows]
        )
    else:
        values = np.zeros(0, dtype=np.int64)
    return values, offsets


def _unpack_ragged(values: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    return [
        values[offsets[i] : offsets[i + 1]].astype(np.int64)
        for i in range(offsets.size - 1)
    ]


def _even(degree: int) -> int:
    """CAGRA/NN-descent graph degrees must be even; round odd ones up."""
    return degree + (degree % 2)


# ----------------------------------------------------------------------
# cagra and sharded-cagra (untagged archives)
# ----------------------------------------------------------------------
def _build_cagra(spec, dataset, parallel):
    config = GraphBuildConfig(
        graph_degree=_even(spec.degree) or 32,
        metric=spec.metric,
        seed=spec.seed,
        **spec.params,
    )
    if spec.shards > 1:
        from repro.core.sharding import ShardedCagraIndex

        return ShardedCagraIndex.build(
            dataset,
            spec.shards,
            config,
            dataset_dtype=spec.dataset_dtype,
            parallel=parallel,
        )
    return CagraIndex.build(dataset, config, dataset_dtype=spec.dataset_dtype)


def _encode_cagra(index) -> dict:
    return {
        "dataset": index.dataset,
        "neighbors": index.graph.neighbors,
        "metric": np.array(index.metric),
    }


def _decode_cagra(arrays, parallel) -> CagraIndex:
    return CagraIndex(
        arrays["dataset"],
        FixedDegreeGraph(arrays["neighbors"]),
        metric=str(arrays["metric"]),
    )


def _encode_sharded(index) -> dict:
    payload = {
        "num_shards": np.array(index.num_shards),
        "metric": np.array(index.shards[0].metric),
    }
    for s, (shard, ids) in enumerate(zip(index.shards, index.assignments)):
        payload[f"dataset_{s}"] = shard.dataset
        payload[f"neighbors_{s}"] = shard.graph.neighbors
        payload[f"assignment_{s}"] = ids
    return payload


def _decode_sharded(arrays, parallel):
    from repro.core.sharding import ShardedCagraIndex

    metric = str(arrays["metric"])
    shards = range(int(arrays["num_shards"]))
    return ShardedCagraIndex(
        [
            CagraIndex(
                arrays[f"dataset_{s}"],
                FixedDegreeGraph(arrays[f"neighbors_{s}"]),
                metric=metric,
            )
            for s in shards
        ],
        [arrays[f"assignment_{s}"] for s in shards],
        parallel=parallel,
    )


# ----------------------------------------------------------------------
# hnsw
# ----------------------------------------------------------------------
def _build_hnsw(spec, dataset, parallel) -> HnswIndex:
    params = dict(spec.params)
    m = params.pop("m", max(2, spec.degree // 2) if spec.degree else 16)
    return HnswIndex(
        dataset, m=m, metric=spec.metric, seed=spec.seed, **params
    ).build()


def _encode_hnsw(index: HnswIndex) -> dict:
    payload = {
        "data": index.data,
        "m": np.array(index.m),
        "ef_construction": np.array(index.ef_construction),
        "metric": np.array(index.metric),
        "entry_point": np.array(index.entry_point),
        "max_level": np.array(index.max_level),
        "num_layers": np.array(len(index.layers)),
    }
    for level, layer in enumerate(index.layers):
        nodes = np.fromiter(layer.keys(), dtype=np.int64, count=len(layer))
        values, offsets = _pack_ragged([layer[int(n)] for n in nodes])
        payload[f"layer{level}_nodes"] = nodes
        payload[f"layer{level}_values"] = values
        payload[f"layer{level}_offsets"] = offsets
    return payload


def _decode_hnsw(arrays, parallel) -> HnswIndex:
    index = HnswIndex(
        arrays["data"],
        m=int(arrays["m"]),
        ef_construction=int(arrays["ef_construction"]),
        metric=str(arrays["metric"]),
    )
    index.entry_point = int(arrays["entry_point"])
    index.max_level = int(arrays["max_level"])
    index.layers = []
    for level in range(int(arrays["num_layers"])):
        rows = _unpack_ragged(
            arrays[f"layer{level}_values"], arrays[f"layer{level}_offsets"]
        )
        nodes = arrays[f"layer{level}_nodes"]
        index.layers.append({int(node): row for node, row in zip(nodes, rows)})
    index._built = True
    return index


# ----------------------------------------------------------------------
# ggnn
# ----------------------------------------------------------------------
def _build_ggnn(spec, dataset, parallel) -> GgnnIndex:
    return GgnnIndex(
        dataset,
        degree=spec.degree or 24,
        metric=spec.metric,
        seed=spec.seed,
        **spec.params,
    ).build()


def _encode_ggnn(index: GgnnIndex) -> dict:
    return {
        "data": index.data,
        "neighbors": index.graph.neighbors,
        "coarse_ids": index.coarse_ids,
        "degree": np.array(index.degree),
        "metric": np.array(index.metric),
    }


def _decode_ggnn(arrays, parallel) -> GgnnIndex:
    index = GgnnIndex(
        arrays["data"], degree=int(arrays["degree"]), metric=str(arrays["metric"])
    )
    index.graph = FixedDegreeGraph(arrays["neighbors"])
    index.coarse_ids = arrays["coarse_ids"].astype(np.int64)
    return index


# ----------------------------------------------------------------------
# ganns
# ----------------------------------------------------------------------
def _build_ganns(spec, dataset, parallel) -> GannsIndex:
    return GannsIndex(
        dataset,
        degree=spec.degree or 24,
        metric=spec.metric,
        seed=spec.seed,
        **spec.params,
    ).build()


def _encode_ganns(index: GannsIndex) -> dict:
    values, offsets = _pack_ragged(index.adjacency)
    return {
        "data": index.data,
        "adjacency_values": values,
        "adjacency_offsets": offsets,
        "entry_point": np.array(index.entry_point),
        "degree": np.array(index.degree),
        "metric": np.array(index.metric),
    }


def _decode_ganns(arrays, parallel) -> GannsIndex:
    index = GannsIndex(
        arrays["data"], degree=int(arrays["degree"]), metric=str(arrays["metric"])
    )
    index.adjacency = _unpack_ragged(
        arrays["adjacency_values"], arrays["adjacency_offsets"]
    )
    index.entry_point = int(arrays["entry_point"])
    index._built = True
    return index


# ----------------------------------------------------------------------
# nssg
# ----------------------------------------------------------------------
def _build_nssg(spec, dataset, parallel) -> NssgIndex:
    degree = spec.degree or 32
    knn_config = GraphBuildConfig(
        graph_degree=_even(degree), metric=spec.metric, seed=spec.seed
    )
    knn = build_knn_graph(
        dataset, knn_config.resolved_intermediate_degree, knn_config
    )
    return NssgIndex(
        dataset,
        knn,
        degree_bound=degree,
        metric=spec.metric,
        seed=spec.seed,
        **spec.params,
    ).build()


def _encode_nssg(index: NssgIndex) -> dict:
    values, offsets = _pack_ragged(index.adjacency)
    return {
        "data": index.data,
        "adjacency_values": values,
        "adjacency_offsets": offsets,
        "degree_bound": np.array(index.degree_bound),
        "metric": np.array(index.metric),
    }


def _decode_nssg(arrays, parallel) -> NssgIndex:
    # knn=None: the initial k-NN graph is build-time-only state.
    index = NssgIndex(
        arrays["data"],
        None,
        degree_bound=int(arrays["degree_bound"]),
        metric=str(arrays["metric"]),
    )
    index.adjacency = _unpack_ragged(
        arrays["adjacency_values"], arrays["adjacency_offsets"]
    )
    index._built = True
    return index


# ----------------------------------------------------------------------
# bruteforce (the adapter is its own native index)
# ----------------------------------------------------------------------
def _build_bruteforce(spec, dataset, parallel) -> BruteForceIndex:
    return BruteForceIndex(dataset, metric=spec.metric)


def _encode_bruteforce(index: BruteForceIndex) -> dict:
    return {"data": index.dataset, "metric": np.array(index.metric)}


def _decode_bruteforce(arrays, parallel) -> BruteForceIndex:
    return BruteForceIndex(arrays["data"], metric=str(arrays["metric"]))


_BEAM = ("seed",)

#: Every index kind, by name.  Untagged archives are probed in this
#: order, so ``sharded-cagra`` (any ``num_shards`` key) comes first.
KINDS: dict[str, IndexKind] = {
    kind.name: kind
    for kind in (
        IndexKind(
            "sharded-cagra", "repro.core.sharding.ShardedCagraIndex",
            ShardedCagraAnnIndex,
            ("num_sms", "on_shard_failure", "min_shard_quorum"),
            None, _encode_sharded, _decode_sharded,
            legacy_keys=frozenset({"num_shards"}),
        ),
        IndexKind(
            "cagra", "repro.core.index.CagraIndex", CagraAnnIndex, ("num_sms",),
            _build_cagra, _encode_cagra, _decode_cagra,
            legacy_keys=frozenset({"dataset", "neighbors", "metric"}),
        ),
        IndexKind(
            "hnsw", "repro.baselines.hnsw.HnswIndex", HnswAnnIndex, _BEAM,
            _build_hnsw, _encode_hnsw, _decode_hnsw,
        ),
        IndexKind(
            "ggnn", "repro.baselines.ggnn.GgnnIndex", GgnnAnnIndex, _BEAM,
            _build_ggnn, _encode_ggnn, _decode_ggnn,
        ),
        IndexKind(
            "ganns", "repro.baselines.ganns.GannsIndex", GannsAnnIndex, _BEAM,
            _build_ganns, _encode_ganns, _decode_ganns,
        ),
        IndexKind(
            "nssg", "repro.baselines.nssg.NssgIndex", NssgAnnIndex, _BEAM,
            _build_nssg, _encode_nssg, _decode_nssg,
        ),
        IndexKind(
            "bruteforce", "repro.api.adapters.BruteForceIndex", BruteForceIndex, (),
            _build_bruteforce, _encode_bruteforce, _decode_bruteforce,
        ),
    )
}

#: The ``--index-kind`` vocabulary: every kind with a builder, in
#: paper-figure order.
INDEX_KINDS = tuple(name for name, kind in KINDS.items() if kind.build is not None)


def kind_of(index) -> IndexKind | None:
    """The kind whose native class ``index`` is an instance of."""
    return next((kind for kind in KINDS.values() if kind.owns(index)), None)


def _sniff(path, arrays: dict) -> IndexKind:
    if "format" in arrays:
        kind = KINDS.get(str(arrays["format"]))
    else:
        kind = next(
            (
                kind
                for kind in KINDS.values()
                if kind.legacy_keys is not None and kind.legacy_keys <= arrays.keys()
            ),
            None,
        )
    if kind is None:
        raise UnknownIndexFormatError(
            f"{str(path)!r} matches no index kind (known: {list(KINDS)})"
        )
    return kind


def sniff_format(path) -> str:
    """Name of the index kind whose archive ``path`` holds."""
    return _sniff(path, _read(path)).name


def load_index(path, *, parallel=None, fault_plan: str = ""):
    """Load a saved index of any kind, returning the *native* object.

    ``parallel`` is forwarded to sharded loads; ``fault_plan`` (JSON or
    ``@path``; empty defers to ``REPRO_FAULT_PLAN``) drives the
    ``index.load`` fault point, which fires once per call.
    """
    from repro.resilience import FaultInjector, resolve_fault_plan

    plan = resolve_fault_plan(fault_plan)
    if plan is not None:
        FaultInjector(plan).fire("index.load", path=path)
    arrays = _read(path)
    kind = _sniff(path, arrays)
    try:
        return kind.decode(arrays, parallel)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise UnknownIndexFormatError(
            f"{str(path)!r} is a damaged {kind.name} archive: {exc!r}"
        ) from exc


def load_ann_index(path, *, parallel=None, fault_plan: str = "", **policies):
    """:func:`load_index` + :func:`~repro.api.adapters.as_ann_index`.

    ``policies`` (``num_sms``, ``on_shard_failure``, ``min_shard_quorum``,
    ``seed``) configure the returned adapter.
    """
    raw = load_index(path, parallel=parallel, fault_plan=fault_plan)
    return as_ann_index(raw, **policies)


def save_index(index, path) -> None:
    """Save a native index or adapter to the ``.npz`` at exactly ``path``."""
    raw = index.inner if isinstance(index, AnnIndexAdapter) else index
    kind = kind_of(raw)
    if kind is None:
        raise UnknownIndexFormatError(f"no index kind can save {type(raw).__name__}")
    kind.save(raw, path)
