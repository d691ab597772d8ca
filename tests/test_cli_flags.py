"""The CLI flag table (repro.cli.flags) cannot drift from the config
dataclasses, from itself, or from the pinned parent surface."""

import argparse
import dataclasses
import json
import os
import pathlib
import re

import pytest

import repro.cli
from repro.cli import build_parser
from repro.cli.flags import (
    COMMANDS,
    DERIVED,
    FLAGS,
    OVERRIDES,
    REQUIRED,
    TABLE,
    config_from_args,
    field_default,
)
from repro.router import RouterConfig
from repro.serve import ServeConfig

SURFACE = os.path.join(os.path.dirname(__file__), "fixtures", "cli_surface.json")


def command_parsers() -> dict:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def parser_surface() -> dict:
    """``{subcommand: {dest: [option strings, default, type name, choices,
    required, action class]}}`` — the format of ``cli_surface.json``."""
    return {
        name: {
            a.dest: [
                list(a.option_strings), a.default, getattr(a.type, "__name__", None),
                list(a.choices) if a.choices is not None else None,
                bool(a.required), type(a).__name__.strip("_"),
            ]
            for a in command._actions if not isinstance(a, argparse._HelpAction)
        }
        for name, command in command_parsers().items()
    }


class TestTable:
    def test_each_flag_declared_once(self):
        assert len(TABLE) == len(FLAGS) == len({flag.name for flag in TABLE})
        by_dest: dict = {}
        for flag in TABLE:
            by_dest.setdefault(flag.dest, []).append(flag.name)
        shared = {dest: names for dest, names in by_dest.items() if len(names) > 1}
        # One dest has two spellings: stream's --no-rebuild switches off what
        # serve's --auto-rebuild switches on.
        assert shared == {"auto_rebuild": ["--auto-rebuild", "--no-rebuild"]}

    def test_every_flag_and_override_is_used(self):
        used = {name for _, names in COMMANDS.values() for name in names}
        assert used == set(FLAGS)
        for command, overrides in OVERRIDES.items():
            dests = {FLAGS[name].dest for name in COMMANDS[command][1]}
            assert set(overrides) <= dests, command

    def test_handlers_cover_commands(self):
        assert set(repro.cli._HANDLERS) == set(COMMANDS)

    def test_config_backed_flags_name_real_fields(self):
        for flag in TABLE:
            if flag.config is not None:
                names = {f.name for f in dataclasses.fields(flag.config)}
                assert flag.field in names, flag.name

    def test_parser_defaults_are_the_dataclass_defaults(self):
        """Unless the subcommand says otherwise in OVERRIDES."""
        for command, parser in command_parsers().items():
            for name in COMMANDS[command][1]:
                flag = FLAGS[name]
                if flag.config is None:
                    continue
                expected = field_default(flag.config, flag.field)
                if flag.default is not DERIVED:
                    # Stated only as the None sentinel or for a default-less field.
                    assert flag.default is None or expected is dataclasses.MISSING
                    expected = flag.default
                elif flag.negate:
                    expected = not expected
                expected = OVERRIDES.get(command, {}).get(flag.dest, expected)
                if expected is not REQUIRED:
                    assert parser.get_default(flag.dest) == expected, (command, name)

    def test_namespace_carries_every_dest(self):
        args = build_parser().parse_args(["info"])
        assert {flag.dest for flag in TABLE} <= set(vars(args))
        assert args.max_wait_ms == ServeConfig().max_wait_ms  # not stream's 1.0

    def test_no_getattr_fallback_defaults(self):
        """A three-argument ``getattr(args, name, default)`` is a default
        declared outside the table."""
        for path in pathlib.Path(repro.cli.__file__).parent.glob("*.py"):
            assert not re.search(r"getattr\(\s*args\s*,[^,()]+,", path.read_text()), path


class TestSurface:
    def test_surface_matches_parent(self):
        """All 191 actions, no exceptions: the two CLI bugfixes of the PR
        that introduced the table (`serve --replicas N` re-parsed as
        `route`; `--seed` reaching every build) changed no flag's
        spelling, type, choices or default.  A later PR that changes an
        entry on purpose edits the fixture and says why."""
        with open(SURFACE) as handle:
            pinned = json.load(handle)
        assert sum(len(flags) for flags in pinned.values()) == 191
        assert json.loads(json.dumps(parser_surface())) == pinned


class TestConfigFromArgs:
    def test_renamed_and_negated_fields(self):
        args = build_parser().parse_args([
            "route", "--no-hedge", "--hedge-factor", "3.5", "--quota-rate", "50",
            "--breaker-threshold", "7", "--timeout-ms", "12", "--min-quorum", "2",
            "-k", "4",
        ])
        router = config_from_args(RouterConfig, args, seed=args.seed)
        assert router == RouterConfig(
            hedge=False, hedge_latency_factor=3.5, quota_rate_qps=50.0,
            breaker_failure_threshold=7,
        )
        serve = config_from_args(ServeConfig, args)
        assert serve == ServeConfig(
            default_timeout_ms=12.0, min_shard_quorum=2, default_k=4
        )

    def test_none_sentinels_fall_through_to_base(self):
        from repro.core.config import SearchConfig

        args = build_parser().parse_args(["search", "--search-width", "2"])
        base = SearchConfig(itopk=96, search_width=4)
        merged = config_from_args(SearchConfig, args, base=base)
        assert (merged.itopk, merged.search_width) == (96, 2)

    def test_unknown_field_is_an_error(self):
        args = build_parser().parse_args(["serve"])
        with pytest.raises(TypeError):
            config_from_args(ServeConfig, args, no_such_field=1)
