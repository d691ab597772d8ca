"""Bitwise regression fixture for the four graph baselines.

``fixtures/baselines_regression.npz`` pins, for HNSW, NSSG, GGNN and GANNS
on one squared-L2 and one inner-product synthetic set, the built graph,
the build stats, and the search ids, distances and ``BeamCounters`` at
two beam widths — plus NSSG's searcher over a CAGRA graph (Fig. 12's
configuration).  Any change to how the baselines build or search must
leave every array equal.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro import CagraIndex, GraphBuildConfig
from repro.baselines import GannsIndex, GgnnIndex, HnswIndex, NssgIndex, nssg_search
from repro.core.nn_descent import build_knn_graph
from repro.datasets.synthetic import clustered_gaussian, hard_heavy_tailed, make_queries

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "baselines_regression.npz"
)
BEAMS = (16, 64)
K = 10


def _cases() -> dict[str, tuple[str, np.ndarray, np.ndarray]]:
    l2 = clustered_gaussian(600, 24, seed=21)
    ip = hard_heavy_tailed(600, 24, seed=22)
    return {
        "l2": ("sqeuclidean", l2, make_queries(l2, 40, seed=23)),
        "ip": ("inner_product", ip, make_queries(ip, 40, seed=24)),
    }


def _ragged(rows) -> dict[str, np.ndarray]:
    rows = [np.asarray(row, dtype=np.int64) for row in rows]
    lengths = np.array([len(row) for row in rows], dtype=np.int64)
    return {
        "values": np.concatenate(rows) if rows else np.empty(0, dtype=np.int64),
        "offsets": np.concatenate([[0], np.cumsum(lengths)]),
    }


def _stats(stats) -> np.ndarray:
    values = []
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        values.extend(value if isinstance(value, list) else [value])
    return np.array(values, dtype=np.float64)


def _baselines_regression_outputs() -> dict[str, np.ndarray]:
    """Graphs, build stats and two-width searches of every baseline.

    Re-record (only ever from a commit whose baselines are trusted) with
    ``np.savez_compressed(FIXTURE, **_baselines_regression_outputs())``.
    """
    out: dict[str, np.ndarray] = {}
    for case, (metric, data, queries) in _cases().items():
        knn = build_knn_graph(data, 24, GraphBuildConfig(graph_degree=12, metric=metric, seed=0))
        indexes = {
            "hnsw": HnswIndex(data, m=6, ef_construction=32, metric=metric, seed=0).build(),
            "nssg": NssgIndex(
                data, knn, degree_bound=12, pool_size=36, metric=metric, seed=0
            ).build(),
            "ggnn": GgnnIndex(data, degree=12, shard_size=200, metric=metric, seed=0).build(),
            "ganns": GannsIndex(
                data, degree=12, ef_construction=32, batch_size=128, metric=metric, seed=0
            ).build(),
        }
        hnsw = indexes["hnsw"]
        out[f"{case}_hnsw_entry"] = np.array([hnsw.entry_point, hnsw.max_level])
        for level, layer in enumerate(hnsw.layers):
            nodes = sorted(layer)
            out[f"{case}_hnsw_layer{level}_nodes"] = np.array(nodes, dtype=np.int64)
            for part, array in _ragged([layer[n] for n in nodes]).items():
                out[f"{case}_hnsw_layer{level}_{part}"] = array
        for name in ("nssg", "ganns"):
            for part, array in _ragged(indexes[name].adjacency).items():
                out[f"{case}_{name}_{part}"] = array
        out[f"{case}_ggnn_neighbors"] = indexes["ggnn"].graph.neighbors
        out[f"{case}_ggnn_coarse"] = indexes["ggnn"].coarse_ids
        searches = {}
        cagra = CagraIndex.build(data, GraphBuildConfig(graph_degree=12, metric=metric, seed=0))
        for width in BEAMS:
            searches[f"hnsw_{width}"] = hnsw.search(queries, K, ef=width)
            searches[f"nssg_{width}"] = indexes["nssg"].search(
                queries, K, beam_width=width, num_seeds=8, seed=1
            )
            searches[f"ggnn_{width}"] = indexes["ggnn"].search(queries, K, beam_width=width)
            searches[f"ganns_{width}"] = indexes["ganns"].search(
                queries, K, beam_width=width, seed=1
            )
            searches[f"cagra-graph_{width}"] = nssg_search(
                data, cagra.graph, queries, K, beam_width=width, metric=metric, seed=2
            )
        for name, index in indexes.items():
            out[f"{case}_{name}_stats"] = _stats(index.build_stats)
        for name, (ids, dists, counters) in searches.items():
            out[f"{case}_{name}_ids"] = ids
            out[f"{case}_{name}_distances"] = dists
            out[f"{case}_{name}_counters"] = np.array(
                [counters.distance_computations, counters.hops, counters.queries]
            )
    return out


@pytest.fixture(scope="module")
def live_and_pinned():
    with np.load(FIXTURE) as archive:
        pinned = {key: archive[key] for key in archive.files}
    return _baselines_regression_outputs(), pinned


def test_every_array_equals_the_fixture(live_and_pinned):
    live, pinned = live_and_pinned
    assert live.keys() == pinned.keys()
    drift = [
        key
        for key in sorted(pinned)
        if live[key].dtype != pinned[key].dtype or not np.array_equal(live[key], pinned[key])
    ]
    assert not drift, drift


def test_fixture_covers_both_metrics_and_every_baseline(live_and_pinned):
    _, pinned = live_and_pinned
    for case in ("l2", "ip"):
        for name in ("hnsw", "nssg", "ggnn", "ganns", "cagra-graph"):
            for width in BEAMS:
                ids = pinned[f"{case}_{name}_{width}_ids"]
                assert ids.shape == (40, K)
                assert pinned[f"{case}_{name}_{width}_counters"][0] > 0
