"""ConCH: the paper's primary contribution (§IV).

Pipeline (Fig. 2):

1. :func:`~repro.core.trainer.prepare_conch_data` — preprocessing: PathSim
   top-k neighbor filtering, context enumeration, metapath2vec-based
   context features, and the per-meta-path object/context bipartite
   graphs.  This mirrors the paper's offline steps x–z.
2. :class:`~repro.core.model.ConCH` — the neural model: per-meta-path
   mutual object/context updates (:class:`~repro.core.bipartite_conv.BipartiteConv`,
   Eqs. 4–5), semantic attention fusion
   (:class:`~repro.core.semantic_attention.SemanticAttention`, Eqs. 6–8),
   a 2-layer MLP classifier (Eq. 9) and a DGI-style discriminator
   (:class:`~repro.core.discriminator.Discriminator`, Eqs. 12–13).
3. :class:`~repro.core.trainer.ConCHTrainer` — multi-task optimization
   ``L = L_sup + λ·L_ss`` (Eq. 14) with Adam, ℓ2 regularization and
   patience-based early stopping on validation accuracy.

Ablation variants (§V-E) live in :mod:`~repro.core.variants`:
``nc`` (no contexts), ``rd`` (random-k neighbors), ``su`` (supervised
only), ``ft`` (pretrain + finetune), ``ew`` (equal meta-path weights).
"""

from repro.core.config import ConCHConfig
from repro.core.context_features import build_context_features, path_instance_embedding
from repro.core.bipartite_conv import BipartiteConv, NeighborConv
from repro.core.semantic_attention import SemanticAttention
from repro.core.discriminator import Discriminator, shuffle_features
from repro.core.model import ConCH
from repro.core.trainer import ConCHTrainer, ConCHData, MetaPathData, prepare_conch_data
from repro.core.variants import VARIANTS, variant_config
from repro.core.explain import Explanation, explain_node
from repro.core.serialize import load_model, save_model
from repro.core.minibatch import MiniBatchConCHTrainer
from repro.core.calibration import (
    TemperatureScaler,
    expected_calibration_error,
    max_calibration_error,
    reliability_table,
)

__all__ = [
    "ConCHConfig",
    "build_context_features",
    "path_instance_embedding",
    "BipartiteConv",
    "NeighborConv",
    "SemanticAttention",
    "Discriminator",
    "shuffle_features",
    "ConCH",
    "ConCHTrainer",
    "ConCHData",
    "MetaPathData",
    "prepare_conch_data",
    "VARIANTS",
    "variant_config",
    "Explanation",
    "explain_node",
    "save_model",
    "load_model",
    "MiniBatchConCHTrainer",
    "TemperatureScaler",
    "expected_calibration_error",
    "max_calibration_error",
    "reliability_table",
]
