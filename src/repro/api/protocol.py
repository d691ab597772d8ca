"""The :class:`AnnIndex` protocol — the one contract every index obeys.

Anything that exposes ``dim`` / ``metric`` / ``size`` and a
``search(queries, k, *, filter_mask=None) -> SearchResult`` method is an
``AnnIndex`` and can be served by :class:`repro.serve.CagraServer`,
driven from the CLI, persisted through :mod:`repro.api.kinds`, and
benchmarked side by side.

The protocol is ``runtime_checkable``, so conformance tests (and user
code) can assert ``isinstance(index, AnnIndex)``.  Note the usual
:mod:`typing` caveat: the runtime check verifies member *presence*, not
signatures — the dtype/shape contract is specified by
:class:`repro.api.results.SearchResult` and enforced by the adapters in
:mod:`repro.api.adapters`.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.api.results import SearchResult

__all__ = ["AnnIndex"]


@runtime_checkable
class AnnIndex(Protocol):
    """Unified ANN index surface (see the module docstring).

    Implementations may accept extra keyword-only arguments on
    ``search`` (``config``, ``mode``, ``on_stage`` ... — see
    :class:`repro.api.adapters.AnnIndexAdapter`), but the positional
    core and the :class:`SearchResult` contract are fixed.
    """

    @property
    def dim(self) -> int:
        """Vector dimensionality the index was built over."""
        ...

    @property
    def metric(self) -> str:
        """Distance metric name (see :data:`repro.core.distances.METRICS`)."""
        ...

    @property
    def size(self) -> int:
        """Number of indexed vectors."""
        ...

    def search(
        self,
        queries: np.ndarray,
        k: int = 10,
        *,
        filter_mask: np.ndarray | None = None,
    ) -> SearchResult:
        """Batched k-ANN search returning the unified result shape."""
        ...
