"""Extension bench: the vectorized fast path's real Python wall time.

Unlike the figure benches (whose time axis is the simulated testbed),
this one measures *actual* Python wall time with pytest-benchmark: the
traversal engine's ``mode="fast"`` (dense visited backend,
:mod:`repro.core.traversal`) versus its hash-faithful ``mode="reference"``
— the speedup a downstream user of this library actually experiences.
"""

import pytest
from conftest import emit

from repro import SearchConfig
from repro.bench import format_table
from repro.core.metrics import recall

DATASET = "deep-1m"


@pytest.fixture(scope="module")
def setup(ctx):
    return ctx.cagra(DATASET), ctx.bundle(DATASET), ctx.truth(DATASET)


def test_fast_path_wall_time(setup, benchmark):
    index, bundle, truth = setup
    config = SearchConfig(itopk=64, algo="single_cta")

    result = benchmark(lambda: index.search_fast(bundle.queries, 10, config))
    assert recall(result.indices, truth) > 0.9


def test_reference_wall_time(setup, benchmark):
    index, bundle, truth = setup
    config = SearchConfig(itopk=64, algo="single_cta")

    result = benchmark.pedantic(
        lambda: index.search(bundle.queries, 10, config), rounds=2, iterations=1
    )
    assert recall(result.indices, truth) > 0.9


def test_fast_path_summary(setup, benchmark):
    """One-shot comparison table persisted to results/."""
    import time

    index, bundle, truth = setup
    config = SearchConfig(itopk=64, algo="single_cta")

    def run():
        rows = []
        t0 = time.perf_counter()
        ref = index.search(bundle.queries, 10, config)
        ref_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        fast = index.search_fast(bundle.queries, 10, config)
        fast_s = time.perf_counter() - t0
        rows.append(["reference (per-query)", f"{ref_s:.3f} s",
                     f"{recall(ref.indices, truth):.4f}"])
        rows.append(["fast (lockstep)", f"{fast_s:.3f} s",
                     f"{recall(fast.indices, truth):.4f}"])
        rows.append(["speedup", f"{ref_s / fast_s:.1f}x", ""])
        return rows, ref_s, fast_s

    rows, ref_s, fast_s = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ext_fast_path",
        format_table(
            ["implementation", "python wall time", "recall@10"],
            rows,
            title=f"Extension: lockstep fast path on {DATASET} "
            f"({len(setup[1].queries)} queries, itopk 64)",
        ),
    )
    assert fast_s < ref_s
