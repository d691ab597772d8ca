"""Request and index validation.

``validate_request`` is the one copy of the request checks: the engine,
the adapters, the sharded and mutable indexes, ``CagraServer.submit`` and
``ShardRouter.search`` all call it before doing any work, so the same bad
input draws the same ``ValueError`` wherever it enters.

``validate_index`` audits a :class:`~repro.core.index.CagraIndex` the way
an operator would before shipping it to serving: structural invariants
(shape agreement, id ranges, fixed degree, duplicates, self-loops) plus
the reachability statistics the paper optimizes (strong CC count, 2-hop
node counts).  Returns a :class:`ValidationReport`; nothing raises, so it
can run on intentionally degraded indexes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.graph import INDEX_MASK, PARENT_FLAG
from repro.core.index import CagraIndex
from repro.core.metrics import average_two_hop_count, strong_connected_components

__all__ = ["ValidationReport", "validate_index", "validate_request"]


def validate_request(
    queries,
    k: int,
    dim: int,
    *,
    size: int | None = None,
    filter_mask=None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Reject a malformed search request; return it in canonical form.

    Returns ``(queries, filter_mask)`` — the queries as a ``(batch, dim)``
    array, the mask as a bool array (``None`` when none was given).  Raises
    ``ValueError`` when ``k < 1``; when ``queries`` has more than two axes
    or rows that are not ``dim`` wide; when a row holds NaN or inf (the
    first such row is named); when the mask's length is not ``size`` (the
    index's row count — only read when a mask is given); or when the mask
    admits no row.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    queries = np.atleast_2d(np.asarray(queries))
    if queries.ndim != 2:
        raise ValueError(f"queries must be 1-D or 2-D, got shape {queries.shape}")
    if queries.shape[1] != dim:
        raise ValueError(
            f"query dim {queries.shape[1]} does not match index dim {dim}"
        )
    if not np.isfinite(queries).all():
        bad = int(np.flatnonzero(~np.isfinite(queries).all(axis=1))[0])
        raise ValueError(f"query row {bad} contains NaN or inf")
    if filter_mask is None:
        return queries, None
    filter_mask = np.asarray(filter_mask, dtype=bool)
    if filter_mask.shape != (size,):
        raise ValueError("filter_mask must have one entry per dataset row")
    if not filter_mask.any():
        raise ValueError("filter_mask excludes every node")
    return queries, filter_mask


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_index`.

    ``ok`` aggregates the structural checks; reachability statistics are
    informational (a valid index can still have poor reachability).
    """

    ok: bool
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    num_nodes: int = 0
    degree: int = 0
    parent_flag_bits: int = 0
    unfilled_edges: int = 0
    self_loops: int = 0
    duplicate_edges: int = 0
    min_in_degree: int = 0
    strong_components: int = 0
    avg_two_hop: float = 0.0
    two_hop_fraction_of_max: float = 0.0

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        status = "OK" if self.ok else "INVALID"
        lines = [
            f"index {status}: {self.num_nodes} nodes, degree {self.degree}",
            f"  self-loops: {self.self_loops}, duplicate edges: "
            f"{self.duplicate_edges}, min in-degree: {self.min_in_degree}",
            f"  strong CC: {self.strong_components}, avg 2-hop: "
            f"{self.avg_two_hop:.1f} ({self.two_hop_fraction_of_max:.0%} of max)",
        ]
        lines.extend(f"  ERROR: {e}" for e in self.errors)
        lines.extend(f"  warning: {w}" for w in self.warnings)
        return "\n".join(lines)


def validate_index(
    index: CagraIndex,
    sample: int = 1000,
    seed: int = 0,
    expected_degree: int | None = None,
) -> ValidationReport:
    """Audit an index's structural invariants and reachability stats.

    Args:
        index: the index to audit.
        sample: node sample size for the 2-hop statistic (0 = all nodes).
        seed: sampling seed.
        expected_degree: required out-degree; defaults to the build
            config's ``graph_degree`` when the index carries one.
    """
    report = ValidationReport(ok=True)
    neighbors = index.graph.neighbors
    n, d = neighbors.shape
    report.num_nodes = n
    report.degree = d

    if expected_degree is None and index.build_config is not None:
        expected_degree = index.build_config.graph_degree
    if expected_degree is not None and d != expected_degree:
        report.errors.append(
            f"graph degree ({d}) != expected degree ({expected_degree})"
        )

    if index.dataset.shape[0] != n:
        report.errors.append(
            f"dataset rows ({index.dataset.shape[0]}) != graph nodes ({n})"
        )
    if not np.isfinite(index.dataset.astype(np.float64)).all():
        report.errors.append("dataset contains non-finite values")

    # The parented MSB is transient search state (Sec. IV-B4): a stored
    # graph must hold bare node ids only.  A stray flag bit would both
    # corrupt traversal (id >= 2^31 reads the wrong row) and make the
    # range check below fire, so report it as its own distinct finding.
    report.parent_flag_bits = int(((neighbors & PARENT_FLAG) != 0).sum())
    if report.parent_flag_bits:
        report.errors.append(
            f"{report.parent_flag_bits} stored neighbor id(s) carry the "
            f"PARENT_FLAG bit — stored graphs must hold bare node ids"
        )
    # INDEX_MASK is the search's "unfilled slot" sentinel, never a valid
    # node id; one stored as an out-edge is a dangling edge to a
    # nonexistent node (the failure mode of an unrepaired ``extend`` that
    # copied unfilled search slots into the graph).
    report.unfilled_edges = int((neighbors == INDEX_MASK).sum())
    if report.unfilled_edges:
        report.errors.append(
            f"{report.unfilled_edges} out-edge slot(s) hold the INDEX_MASK "
            f"unfilled-slot sentinel (dangling edges, e.g. from unrepaired "
            f"extend results)"
        )
    bare = neighbors & INDEX_MASK
    real = bare[neighbors != INDEX_MASK]
    if real.size and real.max() >= n:
        report.errors.append("neighbor id out of range")

    node_ids = np.arange(n, dtype=np.uint32)[:, None]
    report.self_loops = int((neighbors == node_ids).sum())
    if report.self_loops:
        report.warnings.append(f"{report.self_loops} self-loop edges")

    sorted_rows = np.sort(neighbors, axis=1)
    report.duplicate_edges = int(
        (sorted_rows[:, 1:] == sorted_rows[:, :-1]).sum()
    )
    if report.duplicate_edges:
        report.warnings.append(
            f"{report.duplicate_edges} duplicate edges across rows"
        )

    # Reachability statistics traverse the graph, so they are only safe
    # when every stored id is a bare in-range node id; skip them (instead
    # of crashing) on a corrupt graph — the errors above already tell the
    # operator why.
    ids_traversable = report.parent_flag_bits == 0 and (
        not neighbors.size or int(neighbors.max()) < n
    )
    if ids_traversable:
        in_degrees = index.graph.in_degrees()
        report.min_in_degree = int(in_degrees.min()) if n else 0
        if report.min_in_degree == 0:
            unreachable = int((in_degrees == 0).sum())
            report.warnings.append(
                f"{unreachable} nodes have no incoming edges (unreachable "
                "except by random initialization)"
            )

        report.strong_components = strong_connected_components(index.graph)
        if report.strong_components > max(1, n // 100):
            report.warnings.append(
                f"{report.strong_components} strong components — poor reachability"
            )
        report.avg_two_hop = average_two_hop_count(
            index.graph, sample=sample, seed=seed
        )
        report.two_hop_fraction_of_max = report.avg_two_hop / (d + d * d)
    else:
        report.warnings.append(
            "reachability statistics skipped: graph contains invalid ids"
        )

    report.ok = not report.errors
    return report
