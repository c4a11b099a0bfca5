"""Shared fixtures: the heavy training runs are computed once per session."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from dypo.policy import KeyedBlocks, KeyIndex, PolicyParams, RowBlock, keyed_score
from dypo.trainer import TrainConfig, train

ACCEPTANCE_SEED = 1


@pytest.fixture(scope="session")
def acceptance_config() -> TrainConfig:
    return TrainConfig(seed=ACCEPTANCE_SEED)


@pytest.fixture(scope="session")
def dypo_run(acceptance_config):
    """Full default 500-step routed run."""
    return train(acceptance_config)


@pytest.fixture(scope="session")
def snapshots(acceptance_config, dypo_run):
    """The routed run's (policy, reference), frozen, at steps 40, 120 and 500:
    every step draws from substreams named by its index alone, so an s-step
    run is the full run's first s steps."""
    runs = {step: train(replace(acceptance_config, steps=step)) for step in (40, 120)}
    runs[500] = dypo_run
    return {step: (run.checkpoint.params.snapshot(), run.checkpoint.ref.snapshot())
            for step, run in runs.items()}


@pytest.fixture(scope="session")
def baseline_runs(acceptance_config):
    """sft_only and grpo_only trained on the identical seeded stream."""
    return {variant: train(replace(acceptance_config, variant=variant))
            for variant in ("sft_only", "grpo_only")}


def tables_equal(a: PolicyParams, b: PolicyParams) -> bool:
    """Same written contexts, bit-identical logits and default logits."""
    written = a.written_contexts()
    return (set(written) == set(b.written_contexts())
            and np.array_equal(a.default_logits, b.default_logits)
            and all(np.array_equal(a.logits(c), b.logits(c)) for c in written))


def block_dict(params: PolicyParams, block: RowBlock) -> dict:
    """A row block keyed by context instead of row."""
    return {params.interner.contexts[r]: v for r, v in zip(block.rows, block.values)}


def traj_log_prob(params: PolicyParams, query_id: int, tokens) -> float:
    """log pi(tokens | query) as the losses read it: logp_at over trajectory_rows."""
    rows, toks = params.trajectory_rows(query_id, tokens)
    return float(params.logp_at(rows, toks).sum())


def traj_score(params: PolicyParams, query_id: int, tokens) -> RowBlock:
    """Gradient of traj_log_prob as the losses form it: keyed_score with unit
    weights, over an index whose keys are the trajectory's rows."""
    rows, toks = params.trajectory_rows(query_id, tokens)
    index = KeyIndex(np.zeros_like(rows), rows, toks, 1, params.vocab_size)
    return keyed_score(params, index, np.ones(len(rows))).blocks()[0]


def stacked(blocks) -> list[KeyedBlocks]:
    """Row blocks as the chunks of one variance estimate, one owner each:
    block i is sample i, its keys its rows."""
    return [KeyedBlocks(b.rows, b.values, 1 + int(b.rows.max(initial=0)), 1) for b in blocks]
