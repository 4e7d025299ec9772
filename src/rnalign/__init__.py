"""rnalign: relative norm alignment losses and two-stream audio-visual
training experiments (domain generalization and unsupervised adaptation) on
a desk-scale numpy stack."""

__version__ = "0.1.0"

from .data import (BenchmarkSpec, DomainData, MultiModalBatch,
                   generate_benchmark, load_feature_file, make_dg_split,
                   make_uda_split, save_feature_file)
from .errors import (ConfigurationError, DegenerateInputError, NumericalError,
                     ParseError, RnalignError)
from .losses import (FeatureBatch, LossResult, NormStats,
                     cosine_alignment_loss, dot_product_decomposition,
                     feature_norms, hna_loss, norm_stats, orthogonality_loss,
                     rna_loss, rna_loss_uda, top_k_norm_share)
from .model import (BatchNormState, ModelConfig, TwoStreamModel, encode_pair,
                    eval_logits, init_model, load_checkpoint, predict,
                    save_checkpoint)
from .training import (ExperimentConfig, NormTelemetry,
                       average_checkpoint_scores, evaluate,
                       run_experiment, run_experiment_matrix)
