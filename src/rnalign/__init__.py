"""rnalign: relative norm alignment losses and two-stream audio-visual
training experiments (domain generalization and unsupervised adaptation) on
a desk-scale numpy stack."""

__version__ = "0.1.0"

from .data import (BenchmarkSpec, DomainData, MultiModalBatch,
                   generate_benchmark, load_feature_file, save_feature_file,
                   split_domains)
from .errors import (ConfigurationError, DegenerateInputError, NumericalError,
                     ParseError, RnalignError)
from .losses import (LossResult, NormStats, cosine_alignment_loss,
                     dot_product_decomposition, hna_loss, norm_stats,
                     orthogonality_loss, rna_loss, rna_loss_uda)
from .model import (ModelConfig, TwoStreamModel, encode_pair, eval_logits,
                    init_model, load_checkpoint, save_checkpoint)
from .training import (ExperimentConfig, NormTelemetry, run_experiment,
                       run_experiment_matrix, snapshot_accuracies)
