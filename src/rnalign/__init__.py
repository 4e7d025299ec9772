"""rnalign: relative norm alignment losses and two-stream audio-visual
training experiments (domain generalization and unsupervised adaptation) on
a desk-scale numpy stack."""

__version__ = "0.1.0"

from .data import (BenchmarkSpec, DomainData, MultiModalBatch,
                   generate_benchmark, load_feature_file, save_feature_file,
                   split_domains)
from .errors import (ConfigurationError, DegenerateInputError, NumericalError,
                     ParseError, RnalignError)
from .losses import LossResult, NormStats, hna_loss, norm_stats, rna_loss
from .model import (ModelConfig, TwoStreamModel, encode_pair, eval_logits,
                    init_model, load_checkpoint, save_checkpoint)
from .training import (ExperimentConfig, NormTelemetry, run_experiment,
                       run_experiment_matrix, snapshot_accuracies)
