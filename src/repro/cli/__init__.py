"""Command-line interface: ``repro-cagra`` (or ``python -m repro.cli``).

Subcommands::

    repro-cagra info                          # list registered datasets
    repro-cagra build  --dataset deep-1m --scale 4000 --out idx.npz
    repro-cagra search --index idx.npz --dataset deep-1m --scale 4000 -k 10
    repro-cagra bench  --dataset deep-1m --scale 3000 --batch 10000
    repro-cagra serve  --dataset deep-1m --scale 2000 --rate 500 --duration 2
    repro-cagra route  --dataset deep-1m --scale 2000 --replicas 3 --quota-rate 200
    repro-cagra stream --dataset deep-1m --scale 2000 --ops 500
    repro-cagra tune   --dataset deep-1m --scale 2000 --recall-target 0.95
    repro-cagra validate --index idx.npz      # integrity + reachability audit
    repro-cagra lint --strict                 # repo invariant linter
    repro-cagra report                        # aggregate benchmarks/results/

``repro-cagra <cmd> --help`` lists each command's flags; every flag is
declared once, in :mod:`repro.cli.flags`, bound to the config dataclass
that owns its type and default.  What the flags *do* is documented with
the layer they drive: ``docs/serving.md`` (``serve``), ``docs/router.md``
(``route``), ``docs/streaming.md`` (``stream``, ``serve --mutable``),
``docs/resilience.md`` (``--fault-plan``, ``--on-shard-failure``, the
breakers) and ``docs/API.md`` (index kinds, tuned profiles, ``--format
json``).
"""

from __future__ import annotations

import sys

from repro.cli import devtools, offline, serving
from repro.cli.flags import build_parser

__all__ = ["build_parser", "main"]

_HANDLERS = {
    "info": offline.cmd_info,
    "build": offline.cmd_build,
    "search": offline.cmd_search,
    "bench": offline.cmd_bench,
    "serve": serving.cmd_serve,
    "route": serving.cmd_route,
    "stream": serving.cmd_stream,
    "tune": offline.cmd_tune,
    "validate": offline.cmd_validate,
    "lint": devtools.cmd_lint,
    "report": devtools.cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve" and args.replicas > 1:
        # A replica fleet is the router's job: the same flags parsed as
        # `route`, so its defaults apply and what only one server can
        # honour (--mutable, --wal-dir, --mode, …) is refused by name.
        args, rest = parser.parse_known_args(["route", *argv[1:]])
        if rest:
            parser.error(f"serve --replicas {args.replicas} runs the route command, "
                         f"which cannot honour: {' '.join(rest)}")
    return _HANDLERS[args.command](args)
