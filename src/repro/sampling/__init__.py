"""Rooted spanning-forest sampling and importance-weighted forest pools."""

from repro.sampling.wilson import sample_rooted_forest, sample_many_forests
from repro.sampling.forest import Forest
from repro.sampling.batch import (
    ForestBatch,
    LOCKSTEP_STATE_LIMIT,
    sample_forest_batch_vectorized,
)
from repro.sampling.pool import (
    WeightedForestPool,
    edge_inclusion_prior,
    node_internal_prior,
)

__all__ = [
    "WeightedForestPool",
    "edge_inclusion_prior",
    "node_internal_prior",
    "sample_rooted_forest",
    "sample_many_forests",
    "Forest",
    "ForestBatch",
    "LOCKSTEP_STATE_LIMIT",
    "sample_forest_batch_vectorized",
]
