"""The checks every served answer goes through."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np

import sizing
from harness import Context
from spans import Tracer


def _context():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((50, 8)).astype(np.float32)
    ctx = Context(
        profile=sizing.SMOKE, workload="online", seed=5, trace=False, seconds={},
        out_dir=Path("."), tracer=Tracer(enabled=False),
    )
    ctx.index = SimpleNamespace(dataset=data, size=50)
    ctx.queries = rng.standard_normal((4, 8)).astype(np.float32)
    return ctx


def _answer(ctx, row, k=3):
    distances = ((ctx.index.dataset - ctx.queries[row]) ** 2).sum(axis=1)
    ids = np.argsort(distances)[:k]
    return SimpleNamespace(indices=ids, distances=distances[ids])


def test_an_answer_must_carry_its_own_querys_distances():
    ctx = _context()
    answers = [_answer(ctx, row) for row in range(4)]
    ctx.check_answers(range(4), answers, what="served")
    assert (ctx.checks.attempted, ctx.checks.failed) == (4, 0)
    # Two requests handed each other's answers: valid ids, wrong queries.
    ctx.check_answers([0, 1, 2, 3], [answers[1], answers[0], *answers[2:]], what="served")
    assert ctx.checks.failed == 2
    assert "not its own query's" in ctx.checks.messages[0]
