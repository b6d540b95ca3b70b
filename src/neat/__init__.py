"""Unsupervised generative feature transformation for tabular data.

Built so far: score feature sets without labels (mdcg), collect exploration
records with reinforcement-learning agents, and pretrain a graph contrastive
encoder over them. Still to come (ROADMAP items 6-7): fine-tune an
encoder/decoder/evaluator jointly, then gradient-search the embedding space
and decode an improved feature set.
"""

__version__ = "0.1.0"

from .expr import CrossSequence, FeatureCross
from .tabular import DataTable, load_csv
from .utility import UtilityConfig, feature_importance, mdcg, redundancy_utility

__all__ = [
    "__version__",
    "CrossSequence",
    "FeatureCross",
    "DataTable",
    "load_csv",
    "UtilityConfig",
    "feature_importance",
    "mdcg",
    "redundancy_utility",
]
