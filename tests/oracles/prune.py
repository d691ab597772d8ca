"""The two per-candidate occlusion filters the baselines pruned with before
``repro.core.graph.occlusion_prune``: NSSG's angle test and HNSW's
Algorithm 4 neighbour heuristic.

Each is kept verbatim (``self`` fields became arguments) as the oracle
for its rule of the block filter: the properties in
``tests/test_properties.py`` hold kept ids, their order and the charged
distance computations equal.
"""

from __future__ import annotations

import numpy as np

from repro.core.distances import distances_to_query


def angular_prune(
    data: np.ndarray, node: int, pool: np.ndarray, degree_bound: int,
    cos_threshold: float, stats,
) -> list[int]:
    """Keep candidates whose pairwise angles at ``node`` exceed the
    threshold; nearest-first (satellite-system spreading)."""
    origin = data[node].astype(np.float64)
    kept: list[int] = []
    kept_dirs: list[np.ndarray] = []
    for cand in pool:
        if len(kept) >= degree_bound:
            break
        direction = data[int(cand)].astype(np.float64) - origin
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            continue
        direction /= norm
        ok = True
        for kd in kept_dirs:
            stats.distance_computations += 1
            if float(direction @ kd) > cos_threshold:
                ok = False
                break
        if ok:
            kept.append(int(cand))
            kept_dirs.append(direction)
    return kept


def select_heuristic(
    data: np.ndarray,
    query: np.ndarray,
    pool: list[tuple[float, int]],
    m: int,
    stats,
    metric: str = "sqeuclidean",
    fill: bool = True,
) -> list[tuple[float, int]]:
    """Algorithm 4: keep a candidate only if it is closer to the query
    than to every already-kept neighbor (edge diversity).  ``fill=False``
    stops before the nearest-first fallback, which HNSW now applies after
    the block filter."""
    chosen: list[tuple[float, int]] = []
    for dist, cand in sorted(pool):
        if len(chosen) >= m:
            break
        keep = True
        if chosen:
            kept_ids = np.array([c for _, c in chosen], dtype=np.int64)
            to_kept = distances_to_query(data, data[cand], kept_ids, metric)
            if stats is not None:
                stats.distance_computations += len(kept_ids)
            keep = bool(np.all(to_kept >= dist))
        if keep:
            chosen.append((dist, cand))
    # Fall back to nearest-first if the heuristic was too aggressive.
    if fill and len(chosen) < min(m, len(pool)):
        have = {c for _, c in chosen}
        for dist, cand in sorted(pool):
            if len(chosen) >= m:
                break
            if cand not in have:
                chosen.append((dist, cand))
                have.add(cand)
    return chosen
