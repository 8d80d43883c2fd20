"""Comparison models: feature-only boosted trees and walk-embedding features."""

from .gbdt import GBDTConfig, GBDTModel, gbdt_fit, gbdt_predict_batch
from .node2vec import (
    Embeddings,
    Node2vecConfig,
    biased_walks,
    embed_concat_fit,
    train_embeddings,
)

__all__ = [
    "GBDTConfig",
    "GBDTModel",
    "gbdt_fit",
    "gbdt_predict_batch",
    "Embeddings",
    "Node2vecConfig",
    "biased_walks",
    "embed_concat_fit",
    "train_embeddings",
]
