"""Multimodal recommendation with topology-pruned item graphs.

The pipeline: build kNN item-item graphs from visual and textual
features, fuse them, denoise the fused graph by mutual-information
ranking of neighborhoods, encode modalities with small MLPs aligned to
the pruned graph, aggregate with LightGCN over the interaction graph,
and train jointly with BPR.

Only the functions that build a scipy sparse matrix import scipy, when
first called: it takes longer to import than the rest of the package,
and `synth`, `prepare`, `build-graph` and `corrupt` never use it.
"""

__version__ = "0.1.0"

from .autograd import Tensor
from .data import FeatureMatrix, InteractionTable, TripleBatch
from .itemgraph import SparseGraph
from .model import ModelConfig, MultimodalRecommender
from .config import TrainConfig
from .trainer import RunManifest, fit

__all__ = [
    "Tensor",
    "FeatureMatrix",
    "InteractionTable",
    "TripleBatch",
    "SparseGraph",
    "ModelConfig",
    "MultimodalRecommender",
    "TrainConfig",
    "RunManifest",
    "fit",
    "__version__",
]
