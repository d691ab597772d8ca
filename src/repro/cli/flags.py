"""The flag table: every ``repro-cagra`` flag is declared once, here.

A config-backed :class:`Flag` sits in the group of the dataclass that
owns it (naming the field when the flag is spelled differently) and
takes its type and default from ``dataclasses.fields()``; a plain flag
states its default.  Subcommands are tuples of flag names
(:data:`COMMANDS`), and the per-subcommand defaults that are *meant* to
differ live in :data:`OVERRIDES` — nowhere else.
:func:`config_from_args` is the way back: parsed namespace → dataclass.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import typing

from repro.api import INDEX_KINDS, BuildSpec
from repro.core.config import GraphBuildConfig, SearchConfig
from repro.parallel import BACKENDS, ParallelConfig
from repro.router import DISPATCH_POLICIES, RouterConfig
from repro.serve import ServeConfig

__all__ = ["COMMANDS", "DERIVED", "FLAGS", "OVERRIDES", "REQUIRED", "TABLE", "Flag",
           "build_parser", "config_from_args", "field_default"]

#: ``Flag.default`` of a config-backed flag: use the dataclass default.
DERIVED = object()
#: An :data:`OVERRIDES` value: the flag must be given.
REQUIRED = object()


# build_parser resolves each flag once per subcommand that exposes it.
_type_hints = functools.cache(typing.get_type_hints)


def field_default(config: type, name: str) -> object:
    """Default of dataclass ``config``'s field ``name`` (``MISSING`` if none)."""
    return next(f.default for f in dataclasses.fields(config) if f.name == name)


@dataclasses.dataclass(frozen=True)
class Flag:
    """One CLI flag.

    Attributes:
        name: option string (``--max-batch``, ``-k``) or positional name.
        help: the ``--help`` text; ``{default}`` prints the dataclass default.
        field: the owning dataclass's field name when it is not ``dest``.
        default: a plain flag's default, which also fixes its type
            (``bool`` = ``store_true``, ``None`` = ``str``).  A config-backed
            flag states one only as the ``None`` sentinel ("resolved later":
            explicit flag > tuned profile > dataclass default) or when the
            field has none.
        choices: allowed values.
        negate: the flag switches a default-on ``bool`` field *off*.
        argparse: ``add_argument`` keywords the columns above cannot express
            (``dest``/``action`` of ``--no-rebuild``, positional ``nargs``).
        config: dataclass owning the flag's type and default, set by the
            :func:`_owned` group the flag is declared in (None = plain).
    """

    name: str
    help: str
    field: str = ""
    default: object = DERIVED
    choices: tuple | None = None
    negate: bool = False
    argparse: tuple = ()
    config: type | None = None

    @property
    def dest(self) -> str:
        return dict(self.argparse).get("dest") or self.name.lstrip("-").replace("-", "_")

    def resolved(self) -> tuple[type, object]:
        """``(value type, default)`` before any per-subcommand override."""
        if self.config is None:
            return (str if self.default is None else type(self.default)), self.default
        default = self.default
        if default is DERIVED:
            default = field_default(self.config, self.field)
        kind = _type_hints(self.config)[self.field]
        return kind, (not default) if self.negate else default


def _owned(config: type, *flags: Flag) -> tuple[Flag, ...]:
    """Bind ``flags`` to the dataclass that owns their types and defaults."""
    return tuple(
        dataclasses.replace(flag, config=config, field=flag.field or flag.dest)
        for flag in flags
    )


_PROFILE_OR = "(default: tuned profile if loaded, else {default})"

TABLE: tuple[Flag, ...] = (
    *_owned(
        BuildSpec,
        Flag("--seed", "seed of the dataset, the index build, the search and the "
             "load schedule"),
        Flag("--index-kind", "index family to build (repro.api factory)", "kind",
             default="cagra", choices=INDEX_KINDS),
        Flag("--degree", "graph degree of a fresh build (0 = the dataset's Table I "
             "degree for CAGRA, the kind's own default for a baseline)"),
        Flag("--shards", "split into N independent sub-indexes (multi-GPU sharding)"),
        Flag("--dtype", "dataset storage precision of the built index",
             "dataset_dtype", choices=("float32", "float16")),
    ),
    *_owned(
        GraphBuildConfig,
        Flag("--reordering", "graph optimisation: CAGRA's rank-based reordering, "
             "the distance-based ablation, or none",
             choices=("rank", "distance", "none")),
    ),
    *_owned(
        SearchConfig,
        Flag("--itopk", "internal top-M list size " + _PROFILE_OR, default=None),
        Flag("--search-width", "parents expanded per iteration " + _PROFILE_OR,
             default=None),
        Flag("--max-iterations", "iteration cap, 0 = auto bound " + _PROFILE_OR,
             default=None),
        Flag("--team-size", "threads per distance computation, 0 = auto from dim "
             + _PROFILE_OR, default=None, choices=(0, 2, 4, 8, 16, 32)),
        Flag("--precision", "dataset storage precision searched by the traversal "
             "engine (fp16 halves simulated DRAM traffic; distances accumulate in "
             "fp32)", default=None, choices=("fp32", "fp16")),
        Flag("--algo", "CTA mapping (auto = the paper's Fig. 7 rule)",
             choices=("auto", "single_cta", "multi_cta")),
    ),
    *_owned(
        ParallelConfig,
        Flag("--num-workers", "shard worker-pool size (0 = one per available CPU)"),
        Flag("--backend", "shard execution backend", choices=BACKENDS),
        Flag("--fault-plan", "deterministic fault-injection plan, JSON or @path "
             "(default: the REPRO_FAULT_PLAN environment variable)"),
    ),
    *_owned(
        ServeConfig,
        Flag("-k", "neighbours returned per query", "default_k"),
        Flag("--max-batch", "flush a forming micro-batch at this many requests"),
        Flag("--max-wait-ms", "flush a forming micro-batch this long after its "
             "first request"),
        Flag("--queue-capacity", "bounded request queue; a full queue rejects"),
        Flag("--timeout-ms", "per-request deadline (0 = none)", "default_timeout_ms"),
        Flag("--cache-capacity", "LRU result-cache entries per server (0 disables)"),
        Flag("--on-shard-failure", "sharded-index failure policy: fail the query or "
             "merge the surviving shards (degraded result)",
             choices=("raise", "partial")),
        Flag("--min-quorum", "minimum shards that must answer before a degraded "
             "result is acceptable", "min_shard_quorum"),
        Flag("--auto-rebuild", "with --mutable: run the background rebuilder "
             "(staleness policy + atomic promotion)"),
        Flag("--no-rebuild", "disable the background rebuilder (memtable and "
             "tombstones only grow)", "auto_rebuild",
             argparse=(("dest", "auto_rebuild"), ("action", "store_false"))),
        Flag("--rebuild-interval-s", "staleness-policy evaluation period"),
        Flag("--rebuild-min-rows", "memtable rows below which the policy never "
             "acts (churn floor)", "rebuild_min_memtable_rows"),
        Flag("--rebuild-calibrate", "seed the rebuild cost model with micro-probes"),
    ),
    *_owned(
        RouterConfig,
        Flag("--dispatch", "replica-selection policy", choices=DISPATCH_POLICIES),
        Flag("--no-hedge", "disable hedged (backup) requests", "hedge", negate=True),
        Flag("--hedge-delay-ms", "fixed hedge delay (0 = derive from the primary's "
             "latency EWMA)"),
        Flag("--hedge-factor", "EWMA multiplier for derived hedge delays",
             "hedge_latency_factor"),
        Flag("--hedge-jitter-ms", "seeded deterministic jitter added to every "
             "hedge delay"),
        Flag("--max-attempts", "sequential dispatch attempts per request (primary "
             "+ failovers)"),
        Flag("--quota-rate", "per-tenant token-bucket refill rate in qps (0 "
             "disables admission quotas)", "quota_rate_qps"),
        Flag("--quota-burst", "per-tenant token-bucket capacity"),
        Flag("--breaker-threshold", "consecutive failures that open a circuit "
             "breaker — per shard under serve, per replica under route (0 "
             "disables)", "breaker_failure_threshold"),
        Flag("--breaker-cooldown-s", "open-breaker cooldown before the single "
             "half-open probe"),
    ),
    # --- plain flags: dataset and index files -------------------------
    Flag("--dataset", "registry dataset name", default="deep-1m"),
    Flag("--scale", "vectors to generate (0 = dataset default)", default=0),
    Flag("--fvecs", "load the dataset from an .fvecs file instead", default=""),
    Flag("--queries", "query count", default=100),
    Flag("--index", "saved index .npz to load (default: build one from the "
         "dataset)", default=""),
    Flag("--out", "output path (build: index .npz; tune: profile JSON, default "
         "the canonical name under REPRO_PROFILE_DIR or ./profiles)", default=""),
    Flag("--profile", "tuned profile: 'auto' (scan REPRO_PROFILE_DIR or "
         "./profiles for this dataset/kind/k) or a profile JSON path", default=""),
    Flag("--fast", "use the vectorized lockstep batch search", default=False),
    Flag("--format", "output format", default="text", choices=("text", "json")),
    # --- bench / tune -------------------------------------------------
    Flag("--batch", "simulated batch size for QPS pricing", default=10000),
    Flag("--hnsw-m", "HNSW comparator: connections per node", default=16),
    Flag("--hnsw-efc", "HNSW comparator: ef_construction", default=100),
    Flag("--recall-target", "recall@k the tuned point must reach", default=0.95),
    Flag("--itopk-grid", "comma-separated itopk values to sweep (default "
         "16,32,64,96,128; values < k dropped)", default=""),
    Flag("--width-grid", "comma-separated search_width values (default 1,2,4)",
         default=""),
    # --- load generators ----------------------------------------------
    Flag("--rate", "arrival rate in qps (serve: open-loop Poisson; route: the "
         "Zipf schedule)", default=500.0),
    Flag("--duration", "load duration in seconds (rate * duration requests)",
         default=2.0),
    Flag("--requests", "explicit request count (overrides --duration)", default=0),
    Flag("--mode", "load generator: open-loop arrivals or closed-loop clients",
         default="open", choices=("open", "closed")),
    Flag("--clients", "closed-loop client threads (route partitions tenants onto "
         "them, preserving each tenant's arrival order)", default=4),
    Flag("--tenants", "tenant count for the Zipfian schedule", default=4),
    Flag("--zipf-s", "Zipf skew of tenant traffic (0 = uniform)", default=1.1),
    Flag("--pace", "sleep clients to the scheduled arrival times (default: submit "
         "back-to-back, virtual time only for quotas)", default=False),
    # --- mutable index ------------------------------------------------
    Flag("--mutable", "wrap the index in repro.stream.MutableIndex so the server "
         "accepts insert/delete", default=False),
    Flag("--wal-dir", "write-ahead-log directory of the mutable index (empty = no "
         "durability)", default=""),
    Flag("--ops", "total mixed operations across all clients", default=500),
    Flag("--write-fraction", "probability an op is a write", default=0.3),
    Flag("--delete-fraction", "probability a write deletes one of the client's "
         "own inserts", default=0.3),
    Flag("--insert-pool", "dataset rows reserved as fresh insert vectors",
         default=256),
    # --- replica fleet and its chaos knobs ----------------------------
    Flag("--replicas", "replica servers behind the shard router (serve: > 1 runs "
         "the route command's closed-loop fleet)", default=1),
    Flag("--kill-replica", "chaos: kill this replica id mid-load (-1 disables)",
         default=-1),
    Flag("--rolling-swap", "chaos: rolling-upgrade the fleet mid-load to a second "
         "copy of the index (rebuilt, or reloaded from --index)", default=False),
    Flag("--chaos-after-s", "delay before --kill-replica / --rolling-swap fire",
         default=0.2),
    # --- validate / lint / report -------------------------------------
    Flag("--sample", "node sample for 2-hop statistics", default=1000),
    Flag("paths", "files/directories to lint (default: the repro source tree); "
         "with --sanitize: pytest paths", default=None,
         argparse=(("nargs", "*"), ("metavar", "PATH"))),
    Flag("--strict", "exit non-zero if any violation is found", default=False),
    Flag("--sanitize", "run pytest over PATH args under the thread-sanitizer-lite "
         "(RL301 lock-order cycles, RL302 write races); always strict",
         default=False),
    Flag("--results", "results directory", default="benchmarks/results"),
)
FLAGS: dict[str, Flag] = {flag.name: flag for flag in TABLE}

_DATASET = ("--dataset", "--scale", "--fvecs", "--queries", "--seed")
_SEARCH = ("-k", "--itopk", "--search-width", "--max-iterations", "--team-size",
           "--precision")
_PARALLEL = ("--num-workers", "--backend", "--fault-plan")
_DEGRADE = ("--on-shard-failure", "--min-quorum")
_BATCHING = ("--max-batch", "--max-wait-ms", "--cache-capacity")
_REBUILD = ("--wal-dir", "--rebuild-interval-s", "--rebuild-calibrate")
#: What ``serve`` and ``route`` share: one index behind one or N servers.
_SERVED = (*_DATASET, "--index", "--index-kind", "--degree", *_SEARCH, "--profile",
           "--shards", *_PARALLEL, *_DEGRADE, "--rate", "--duration", "--requests",
           "--clients", *_BATCHING, "--queue-capacity", "--timeout-ms",
           "--breaker-threshold", "--breaker-cooldown-s", "--replicas", "--format")

#: subcommand → (``--help`` summary, flag names).
COMMANDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "info": ("list registered datasets", ()),
    "build": ("build an ANN index", (
        *_DATASET, "--out", "--index-kind", "--degree", "--reordering", "--dtype",
        "--shards", *_PARALLEL)),
    "search": ("search a saved (or freshly built) index", (
        *_DATASET, "--index", "--index-kind", "--degree", *_SEARCH, "--profile",
        "--algo", "--fast", "--format", *_PARALLEL, *_DEGRADE)),
    "bench": ("recall/QPS sweep of any index kind vs HNSW", (
        *_DATASET, "--index-kind", "--degree", *_SEARCH, "--profile", "--batch",
        "--hnsw-m", "--hnsw-efc", "--format")),
    "serve": ("run the online serving layer under a seeded load generator", (
        *_SERVED, "--mode", "--mutable", "--auto-rebuild", *_REBUILD)),
    "route": ("replicated shard router: hedged requests, per-tenant quotas, fleet "
              "health, rolling upgrades (docs/router.md)", (
        *_SERVED, "--dispatch", "--no-hedge", "--hedge-delay-ms", "--hedge-factor",
        "--hedge-jitter-ms", "--max-attempts", "--tenants", "--zipf-s",
        "--quota-rate", "--quota-burst", "--pace", "--kill-replica",
        "--rolling-swap", "--chaos-after-s")),
    "stream": ("drive mixed insert/delete/search load at a mutable index with "
               "background rebuild (docs/streaming.md)", (
        *_DATASET, "--degree", *_SEARCH, "--ops", "--clients", "--write-fraction",
        "--delete-fraction", "--insert-pool", "--no-rebuild", *_REBUILD,
        "--rebuild-min-rows", *_BATCHING, "--fault-plan", "--format")),
    "tune": ("auto-tune search parameters to a recall target and save a tuned "
             "profile (loadable via --profile on search/serve/bench)", (
        *_DATASET, "--index", "--degree", "-k", "--recall-target", "--batch",
        "--itopk-grid", "--width-grid", "--out", "--format")),
    "validate": ("audit a saved index", ("--index", "--sample")),
    "lint": ("run the repro invariant linter (RL001-RL007, RL101-RL104, "
             "RL201-RL202; --sanitize for RL301/RL302)",
             ("paths", "--format", "--strict", "--sanitize")),
    "report": ("print all regenerated bench tables", ("--results",)),
}

#: The per-subcommand defaults that are *meant* to differ from the table
#: (``{subcommand: {dest: default}}``); anything not listed here is the
#: dataclass's (or the plain flag's) one default in every subcommand.
OVERRIDES: dict[str, dict[str, object]] = {
    "build": {"out": REQUIRED},
    "validate": {"index": REQUIRED},
    # "" = not given: search needs either --index or --index-kind.
    "search": {"index_kind": ""},
    # One server load-tests with more clients than a fleet member sees, and
    # its breakers guard shards (ServeConfig: off unless asked for), where
    # the table binds the pair to the fleet's per-replica breakers.
    "serve": {
        "clients": 8,
        "breaker_threshold": field_default(ServeConfig, "breaker_failure_threshold"),
        "breaker_cooldown_s": field_default(ServeConfig, "breaker_cooldown_s"),
    },
    "route": {"replicas": 3},
    # A write-heavy demo: batch sooner, rebuild on by default and eagerly.
    "stream": {"max_wait_ms": 1.0, "auto_rebuild": True, "rebuild_interval_s": 0.2,
               "rebuild_min_rows": 32},
}


def _add_flag(parser: argparse.ArgumentParser, command: str, flag: Flag) -> None:
    kind, default = flag.resolved()
    default = OVERRIDES.get(command, {}).get(flag.dest, default)
    kwargs: dict = {"help": flag.help}
    if flag.config is not None:
        kwargs["help"] = flag.help.format(default=field_default(flag.config, flag.field))
    if default is REQUIRED:
        kwargs["required"] = True
    elif flag.name.startswith("-"):  # a bare positional default would un-require it
        kwargs["default"] = default
    if kind is bool:
        kwargs["action"] = "store_true"
    else:
        if kind is not str:
            kwargs["type"] = kind
        if flag.choices is not None:
            kwargs["choices"] = flag.choices
    parser.add_argument(flag.name, **{**kwargs, **dict(flag.argparse)})


def build_parser() -> argparse.ArgumentParser:
    """Assemble the parser from :data:`TABLE` / :data:`COMMANDS`.

    Every parsed namespace carries *every* dest of the table: a flag a
    subcommand does not expose sits at its table default, so handlers
    and :func:`config_from_args` read ``args.<dest>`` unconditionally.
    """
    parser = argparse.ArgumentParser(
        prog="repro-cagra",
        description="CAGRA reproduction: build, search, and benchmark ANN graph indexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    table_defaults: dict[str, object] = {}
    for flag in TABLE:
        table_defaults.setdefault(flag.dest, flag.resolved()[1])
    for command, (summary, names) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name in names:
            _add_flag(p, command, FLAGS[name])
        exposed = {FLAGS[name].dest for name in names}
        p.set_defaults(**{d: v for d, v in table_defaults.items() if d not in exposed})
    return parser


def config_from_args(cls, args: argparse.Namespace, base=None, **extra):
    """Build config dataclass ``cls`` from the flags it owns.

    ``extra`` supplies (or overrides) fields from flags owned by another
    dataclass; ``base`` is the instance to start from instead of the
    defaults.  ``None`` — an unset sentinel — never reaches ``cls``, so
    the layer below (``base``, then the dataclass default) applies.
    """
    values = {}
    for flag in TABLE:
        if flag.config is cls:
            value = getattr(args, flag.dest)
            values[flag.field] = (not value) if flag.negate else value
    values.update(extra)
    values = {name: value for name, value in values.items() if value is not None}
    return cls(**values) if base is None else dataclasses.replace(base, **values)
