"""Online serving: micro-batching, caching, backpressure, hot index swap.

Run:  python examples/online_serving.py

The offline entry points (`search`, `search_fast`) assume the whole query
batch exists up front.  Real traffic arrives one query at a time, so
`repro.serve.CagraServer` coalesces single-query submissions into
micro-batches (flushed on `max_batch` or `max_wait_ms`) for the
single-CTA fast path, and routes batch-of-1 flushes through the
multi-CTA reference path — the Table II dispatch rule, applied online.
This example walks the full serving surface:

1. a seeded Poisson (open-loop) load, with the batch-size histogram the
   scheduler produced;
2. the LRU result cache answering a repeated query without a search;
3. a hot `swap_index` to a grown (`extend`-ed) index with zero dropped
   requests;
4. the metrics surface (`server.stats().summary()`).
"""

from repro import CagraIndex, GraphBuildConfig, SearchConfig
from repro.baselines import exact_search
from repro.core.metrics import recall
from repro.datasets import load_dataset, make_queries
from repro.serve import CagraServer, ServeConfig, run_open_loop


def main(scale: int = 2000, num_queries: int = 30) -> None:
    bundle = load_dataset("deep-1m", scale=scale, num_queries=num_queries)
    data, queries = bundle.data, bundle.queries
    metric = bundle.spec.metric

    print("building the index...")
    index = CagraIndex.build(data, GraphBuildConfig(graph_degree=16, metric=metric))

    config = ServeConfig(
        max_batch=32, max_wait_ms=2.0, queue_capacity=1024, cache_capacity=256
    )
    server = CagraServer(index, config, search_config=SearchConfig(itopk=64, seed=0))

    with server:
        # 1. seeded Poisson load
        report = run_open_loop(
            server, queries, rate_qps=400.0, num_requests=6 * num_queries, seed=7
        )
        print(f"\n{report.summary()}")
        truth, _ = exact_search(data, queries, 10, metric=metric)
        rows, found = report.answers()
        print(f"served recall@10: {recall(found, truth[rows]):.4f}")

        # 2. the result cache: identical query, no second search
        first = server.search(queries[0], k=10)
        again = server.search(queries[0], k=10)
        print(f"\nrepeat query served from cache: {again.from_cache} "
              f"(first time: {first.from_cache})")

        # 3. hot swap: extend the dataset and publish without downtime
        extra = make_queries(data, 64, seed=99)
        grown = server.index.extend(extra)
        server.swap_index(grown)
        hit = server.search(extra[0], k=1)
        print(f"after swap_index: server now has {server.index.size} vectors; "
              f"a brand-new vector finds itself: "
              f"{int(hit.indices[0]) >= len(data)}")

        # 4. the metrics surface
        print(f"\n{server.stats().summary()}")

    print("\nserver drained and stopped cleanly.")


if __name__ == "__main__":
    main()
