"""Unit tests for the training loops, evaluation, telemetry, and the
experiment matrix."""

import dataclasses
import itertools
import pathlib
import re
import string
import tracemalloc
import typing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rnalign.model
import rnalign.training

from rnalign.config import METHODS, apply_method
from rnalign.data import (BenchmarkSpec, MultiModalBatch, generate_benchmark,
                          load_feature_file, save_feature_file, split_domains)
from rnalign.errors import (ConfigurationError, DegenerateInputError,
                            NumericalError, ParseError)
from rnalign.model import (EVAL_MODES, ModelConfig, TwoStreamModel,
                           encode_pair, eval_logits, init_model,
                           model_backward, model_forward)
from rnalign.numerics import softmax, softmax_cross_entropy
from rnalign.training import (
    AUX_LOSSES,
    TELEMETRY_HEADER,
    ExperimentConfig,
    IterationRecord,
    MatrixCell,
    MatrixResult,
    NormTelemetry,
    default_pairs,
    domain_ids,
    headline_accuracy,
    pair_label,
    read_results_csv,
    resolve_domains,
    run_experiment,
    run_experiment_matrix,
    snapshot_accuracies,
    write_results_csv,
)


def small_benchmark(**overrides):
    base = dict(num_domains=3, num_classes=4, input_dim_visual=6,
                input_dim_audio=5, samples_per_class=12, seed=7)
    base.update(overrides)
    return BenchmarkSpec(**base)


def short_config(**overrides):
    base = dict(benchmark=small_benchmark(), iterations=60, batch_size=8,
                hidden_dim=16, feature_dim=8, source_index=0, target_index=1,
                seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


def models_equal(a, b):
    pa, pb = a.parameters(), b.parameters()
    if pa.keys() != pb.keys():
        return False
    return all(np.array_equal(pa[k], pb[k]) for k in pa)


# ---------------------------------------------------------------------------
# config validation


def test_config_validation_errors():
    with pytest.raises(ConfigurationError):
        short_config(setting="dg-quadruple")
    with pytest.raises(ConfigurationError):
        short_config(aux_loss="mmd")
    with pytest.raises(ConfigurationError):
        short_config(lambda_weight=-0.5)
    with pytest.raises(ConfigurationError):
        short_config(iterations=-1)
    with pytest.raises(ConfigurationError):
        short_config(checkpoint_average=0)


def test_config_rejects_non_finite_floats_naming_the_field():
    for name in ("lambda_weight", "learning_rate", "momentum",
                 "weight_decay"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match=name):
                short_config(**{name: value})


# the three config types are values: frozen, cast and checked on
# construction, and so again by dataclasses.replace
CONFIG_TYPES = {"BenchmarkSpec": BenchmarkSpec,
                "ModelConfig": lambda: ModelConfig(4, 3),
                "ExperimentConfig": ExperimentConfig}


@pytest.mark.parametrize("name", list(CONFIG_TYPES))
def test_config_fields_cannot_be_assigned(name):
    config = CONFIG_TYPES[name]()
    for f in dataclasses.fields(config):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, f.name, getattr(config, f.name))


@pytest.mark.parametrize("name, key, value, message", [
    ("BenchmarkSpec", "num_domains", 1, "num_domains must be >= 2, got 1"),
    ("BenchmarkSpec", "noise_sigma", float("nan"),
     "noise_sigma must be finite, got nan"),
    ("BenchmarkSpec", "seed", -1, "seed must be >= 0, got -1"),
    ("ModelConfig", "hidden_dim", 0, "hidden_dim must be >= 1, got 0"),
    ("ModelConfig", "num_classes", 1, "num_classes must be >= 2, got 1"),
    ("ModelConfig", "fusion_mode", "early", "unknown fusion mode: 'early'"),
    ("ExperimentConfig", "setting", "dg-quadruple",
     "unknown setting: 'dg-quadruple'"),
    ("ExperimentConfig", "aux_loss", "cosine-align",
     "unknown aux loss: 'cosine-align'"),
    ("ExperimentConfig", "aux_loss", "orthogonality",
     "unknown aux loss: 'orthogonality'"),
    ("ExperimentConfig", "momentum", 1.0, "momentum must be in [0, 1)"),
    ("ExperimentConfig", "source_index", None,
     "setting dg-single needs a source_index"),
    # a value that does not cast names the field
    ("ExperimentConfig", "iterations", 5.5,
     "iterations: expected an integer, got 5.5"),
    ("ExperimentConfig", "batch_size", "x",
     "batch_size: invalid literal for int() with base 10: 'x'"),
    ("ExperimentConfig", "seed", 1.5, "seed: expected an integer, got 1.5"),
    ("ExperimentConfig", "source_index", 0.5,
     "source_index: expected an integer, got 0.5"),
    ("ExperimentConfig", "learning_rate", "fast",
     "learning_rate: could not convert string to float: 'fast'"),
    ("BenchmarkSpec", "num_domains", 3.7,
     "num_domains: expected an integer, got 3.7"),
    ("ModelConfig", "input_dim_visual", 4.9,
     "input_dim_visual: expected an integer, got 4.9"),
    ("BenchmarkSpec", "num_classes", 1, "num_classes must be >= 2, got 1"),
    ("BenchmarkSpec", "input_dim_visual", 1,
     "input_dim_visual must be >= 2, got 1"),
    ("BenchmarkSpec", "input_dim_audio", 1,
     "input_dim_audio must be >= 2, got 1"),
    ("BenchmarkSpec", "samples_per_class", 3,
     "samples_per_class must be >= 4, got 3"),
    ("BenchmarkSpec", "transform_strength", -0.1,
     "transform_strength must be >= 0, got -0.1"),
    ("BenchmarkSpec", "noise_sigma", -0.1,
     "noise_sigma must be >= 0, got -0.1"),
    ("BenchmarkSpec", "audio_norm_scale", 0.0,
     "audio_norm_scale must be positive"),
    ("ExperimentConfig", "fusion_mode", "early",
     "unknown fusion mode: 'early'"),
    ("ExperimentConfig", "batch_size", 0, "batch_size must be >= 1, got 0"),
    ("ExperimentConfig", "learning_rate", -0.1,
     "learning_rate must be >= 0, got -0.1"),
    ("ExperimentConfig", "weight_decay", -0.1,
     "weight_decay must be >= 0, got -0.1"),
    ("ExperimentConfig", "hidden_dim", 0, "hidden_dim must be >= 1, got 0"),
    ("ExperimentConfig", "feature_dim", -3,
     "feature_dim must be >= 1, got -3"),
    ("ExperimentConfig", "source_index", -1,
     "source_index must be >= 0, got -1"),
    ("ExperimentConfig", "target_index", -1,
     "target_index must be >= 0, got -1"),
    # a run needs a BenchmarkSpec, and a bool is not a number
    ("ExperimentConfig", "benchmark", None,
     "benchmark: expected a BenchmarkSpec, got None"),
    ("ExperimentConfig", "benchmark", {"num_domains": 3},
     "benchmark: expected a BenchmarkSpec, got {'num_domains': 3}"),
    ("ExperimentConfig", "seed", True, "seed: expected a number, got True"),
    ("ExperimentConfig", "source_index", True,
     "source_index: expected a number, got True"),
    ("ExperimentConfig", "target_index", False,
     "target_index: expected a number, got False"),
    ("ExperimentConfig", "lambda_weight", True,
     "lambda_weight: expected a number, got True"),
    ("ModelConfig", "hidden_dim", True,
     "hidden_dim: expected a number, got True"),
    ("BenchmarkSpec", "noise_sigma", False,
     "noise_sigma: expected a number, got False"),
])
def test_invalid_config_cannot_be_built_or_replaced(name, key, value,
                                                    message):
    valid = CONFIG_TYPES[name]()
    values = {f.name: getattr(valid, f.name)
              for f in dataclasses.fields(valid)}
    with pytest.raises(ConfigurationError) as built:
        type(valid)(**dict(values, **{key: value}))
    with pytest.raises(ConfigurationError) as replaced:
        dataclasses.replace(valid, **{key: value})
    assert str(built.value) == str(replaced.value) == message


def test_every_number_field_declares_a_lower_bound():
    # audio_norm_scale's rule is strict (> 0), so __post_init__ keeps it
    unbounded = [f"{name}.{f.name}" for name, make in CONFIG_TYPES.items()
                 for f in dataclasses.fields(make())
                 if {f.type, *typing.get_args(f.type)} & {int, float}
                 and "at_least" not in f.metadata]
    assert unbounded == ["BenchmarkSpec.audio_norm_scale"]


def test_spec_and_model_config_cast_their_numbers():
    spec = dataclasses.replace(BenchmarkSpec(num_domains=4.0, noise_sigma=1),
                               seed=9.0)
    assert [type(v) for v in (spec.num_domains, spec.noise_sigma,
                              spec.seed)] == [int, float, int]
    assert (spec.num_domains, spec.noise_sigma, spec.seed) == (4, 1.0, 9)
    model = ModelConfig(4.0, 3, batchnorm=1)
    assert type(model.input_dim_visual) is int and model.batchnorm is True


def test_experiment_config_casts_its_fields():
    config = short_config(iterations=40.0, lambda_weight=1, seed="3",
                          source_index=2.0, data_dir=pathlib.Path("some", "dir"))
    assert (config.iterations, config.seed, config.source_index) == (40, 3, 2)
    assert [type(v) for v in (config.iterations, config.seed,
                              config.source_index, config.lambda_weight,
                              config.data_dir)] == [int, int, int, float, str]
    assert config.data_dir == "some/dir"
    assert dataclasses.replace(config, setting="dg-multi",
                               source_index=None).source_index is None


# ---------------------------------------------------------------------------
# telemetry object


def test_telemetry_header_string():
    assert TELEMETRY_HEADER == \
        "iter,mean_norm_v,mean_norm_a,delta,rho,ce_loss,aux_loss"


def write_telemetry(tmp_path, *rows):
    path = tmp_path / "t.csv"
    path.write_text("\n".join((TELEMETRY_HEADER,) + rows) + "\n",
                    encoding="ascii")
    return path


GOOD_ROW = "0,2.0,1.0,1.0,2.0,0.5,0.1"


def test_telemetry_rejects_out_of_order_iterations(tmp_path):
    path = write_telemetry(tmp_path, GOOD_ROW, GOOD_ROW)
    with pytest.raises(ParseError, match="line 3: iteration records must be "
                                         "strictly increasing"):
        NormTelemetry.from_csv(path)


def test_telemetry_rejects_inconsistent_delta(tmp_path):
    path = write_telemetry(tmp_path, "0,2.0,1.0,0.5,2.0,0.5,0.1")
    with pytest.raises(ParseError,
                       match="line 2: delta inconsistent with mean norms"):
        NormTelemetry.from_csv(path)


def test_telemetry_rejects_inconsistent_rho(tmp_path):
    path = write_telemetry(tmp_path, GOOD_ROW, "1,2.0,1.0,1.0,3.0,0.5,0.1")
    with pytest.raises(ParseError,
                       match="line 3: rho inconsistent with mean norms"):
        NormTelemetry.from_csv(path)


@pytest.mark.parametrize("row, message", [
    ("0,2.0,1.0,nan,nan,0.5,0.1", "delta is not finite"),
    ("0,2.0,-1.0,77.0,5.0,0.5,0.1", "mean norms must be >= 0"),
    ("0,2.0,1.0,1.0,2.0,nan,0.1", "ce_loss is not finite"),
    ("0,inf,1.0,inf,inf,0.5,0.1", "mean_norm_v is not finite"),
], ids=["nan-delta-rho", "negative-norm", "nan-ce", "inf-norm"])
def test_telemetry_rejects_a_row_that_contradicts_itself(tmp_path, row,
                                                         message):
    path = write_telemetry(tmp_path, row)
    with pytest.raises(ParseError, match=f"line 2: {message}"):
        NormTelemetry.from_csv(path)


def test_telemetry_reads_a_nan_rho_where_the_audio_norm_is_zero(tmp_path):
    path = write_telemetry(tmp_path, "0,2.0,0.0,2.0,nan,0.5,0.1")
    assert np.isnan(NormTelemetry.from_csv(path).iterations[0].rho)
    path = write_telemetry(tmp_path, "0,2.0,0.0,2.0,1.0,0.5,0.1")
    with pytest.raises(ParseError, match="line 2: rho must be nan"):
        NormTelemetry.from_csv(path)


def test_telemetry_rejects_a_digit_group_in_a_row_naming_its_line(tmp_path):
    # int() and float() read "1_0" as 10; the header's "_" are names
    path = write_telemetry(tmp_path, GOOD_ROW,
                           "1_0,1_0.0,1.0,9.0,10.0,0.5,0.1")
    with pytest.raises(ParseError) as excinfo:
        NormTelemetry.from_csv(path)
    assert str(excinfo.value) == f"{path}: line 3: unexpected '_'"


def test_telemetry_errors_name_the_physical_line_of_their_row(tmp_path):
    # a quoted two-line iteration cell: the row after it starts on line 4
    path = write_telemetry(tmp_path, '"1\n",2.0,1.0,1.0,2.0,0.5,0.1',
                           "1,2.0,1.0,1.0,2.0,0.5,0.1")
    with pytest.raises(ParseError) as excinfo:
        NormTelemetry.from_csv(path)
    assert str(excinfo.value) == \
        f"{path}: line 4: iteration records must be strictly increasing"


def test_telemetry_rejects_a_wrong_field_count(tmp_path):
    path = write_telemetry(tmp_path, GOOD_ROW, "1,2.0,1.0,1.0,2.0,0.5")
    with pytest.raises(ParseError, match="line 3: expected 7 fields, got 6"):
        NormTelemetry.from_csv(path)


@pytest.mark.parametrize("text, message", [
    ("", "line 1: empty telemetry file"),
    (TELEMETRY_HEADER + "\n0," + "1" * 131073 + ",1,0,1,0,0\n",
     "line 2: field larger than field limit (131072)"),
], ids=["empty", "csv-error"])
def test_telemetry_reader_names_the_line_of_an_empty_or_malformed_file(
        tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="ascii")
    with pytest.raises(ParseError) as excinfo:
        NormTelemetry.from_csv(path)
    assert str(excinfo.value) == f"{path}: {message}"


def test_telemetry_csv_round_trip(tmp_path):
    _, telemetry = run_experiment(short_config(iterations=20))
    path = tmp_path / "telemetry.csv"
    telemetry.to_csv(str(path))
    assert path.read_text().splitlines()[0] == TELEMETRY_HEADER
    loaded = NormTelemetry.from_csv(str(path))
    assert len(loaded.iterations) == len(telemetry.iterations)
    for a, b in zip(loaded.iterations, telemetry.iterations):
        assert a.iteration == b.iteration
        assert a.mean_norm_v == b.mean_norm_v
        assert a.rho == b.rho
        assert a.ce_loss == b.ce_loss


def test_telemetry_delta_identity_on_real_run():
    _, telemetry = run_experiment(short_config(iterations=40))
    assert len(telemetry.iterations) == 40
    for rec in telemetry.iterations:
        assert abs(rec.delta - (rec.mean_norm_v - rec.mean_norm_a)) < 1e-12


# ---------------------------------------------------------------------------
# dg training loop


def test_train_dg_is_deterministic():
    cfg = short_config()
    a, _ = run_experiment(cfg)
    b, _ = run_experiment(cfg)
    assert models_equal(a, b)


def test_train_dg_seed_changes_model():
    a, _ = run_experiment(short_config(seed=0))
    b, _ = run_experiment(short_config(seed=1))
    assert not models_equal(a, b)


def test_train_dg_zero_iterations_returns_initialized_model():
    cfg = short_config(iterations=0)
    model, telemetry = run_experiment(cfg)
    assert telemetry.iterations == []
    # weights still at their init scale, biases untouched
    for name, p in model.parameters().items():
        if name.endswith(".bias"):
            assert np.array_equal(p, np.zeros_like(p))
    # evaluation records still produced
    assert 0.0 <= telemetry.eval_accuracy("fused") <= 1.0


def test_train_dg_lambda_zero_equals_aux_none():
    base = short_config(aux_loss="none")
    zeroed = short_config(aux_loss="rna", lambda_weight=0.0)
    model_a, tel_a = run_experiment(base)
    model_b, tel_b = run_experiment(zeroed)
    assert models_equal(model_a, model_b)
    assert tel_a.eval_accuracy("fused") == tel_b.eval_accuracy("fused")


def test_train_dg_multi_source_pools_remaining_domains():
    cfg = short_config(setting="dg-multi", source_index=None, target_index=2)
    model, telemetry = run_experiment(cfg)
    assert 0.0 <= telemetry.eval_accuracy("fused") <= 1.0


def test_train_dg_aborts_on_divergence_with_numerical_error():
    cfg = short_config(learning_rate=1e12, iterations=200)
    with pytest.raises(NumericalError):
        run_experiment(cfg)


def test_divergence_error_names_iteration_and_last_record():
    # the encoder output overflows to inf before the loss does; the loop's
    # loss check still reports where the run was
    cfg = short_config(learning_rate=1e3, momentum=0.0, iterations=200)
    with pytest.raises(NumericalError,
                       match=r"iteration \d+.*last record: IterationRecord"):
        run_experiment(cfg)


def test_non_finite_gradient_error_names_iteration_array_and_last_record(
        monkeypatch):
    # the losses and norms stay finite; only the gradient goes bad
    original = rnalign.training.model_backward
    calls = []

    def poisoned(*args):
        grads = original(*args)
        if len(calls) == 2:
            grads["encoder_audio.1.bias"][1] = np.inf
        calls.append(None)
        return grads

    monkeypatch.setattr(rnalign.training, "model_backward", poisoned)
    with pytest.raises(NumericalError) as excinfo:
        run_experiment(short_config(iterations=10))
    message = str(excinfo.value)
    assert message.startswith("iteration 2: ")
    assert "(first at 'encoder_audio.1.bias')" in message
    assert "last record: IterationRecord(iteration=1," in message


def test_train_dg_rna_improves_norm_ratio():
    cfg = short_config(aux_loss="rna", iterations=300,
                       benchmark=small_benchmark(samples_per_class=30))
    _, telemetry = run_experiment(cfg)
    first = abs(telemetry.iterations[0].rho - 1.0)
    last = abs(telemetry.iterations[-1].rho - 1.0)
    assert last < first


def test_headline_accuracy_matches_fused_eval():
    _, telemetry = run_experiment(short_config(iterations=30))
    assert headline_accuracy(telemetry) == \
        telemetry.eval_accuracy("fused")


# ---------------------------------------------------------------------------
# uda training loop


def test_train_uda_lambda_zero_is_target_independent():
    cfg = short_config(setting="uda", aux_loss="rna", lambda_weight=0.0)
    model_a, _ = run_experiment(cfg)
    # changing the target domain entirely cannot matter at lambda 0
    cfg_other_target = dataclasses.replace(cfg, target_index=2)
    model_b, _ = run_experiment(cfg_other_target)
    pa, pb = model_a.parameters(), model_b.parameters()
    assert all(np.array_equal(pa[k], pb[k]) for k in pa)


def test_train_uda_converges_target_rho(tmp_path):
    cfg = short_config(setting="uda", aux_loss="rna", iterations=300,
                       benchmark=small_benchmark(samples_per_class=30))
    model, telemetry = run_experiment(cfg)
    # telemetry tracks the source batch; the run must complete and evaluate
    assert len(telemetry.iterations) == 300
    assert 0.0 <= headline_accuracy(telemetry) <= 1.0


def test_train_uda_baseline_aux_applies_symmetrically():
    cfg = apply_method(short_config(setting="uda", iterations=40), "hna")
    model, telemetry = run_experiment(cfg)
    assert len(telemetry.iterations) == 40


def test_run_experiment_dispatches_on_setting():
    dg_model, _ = run_experiment(short_config(iterations=10))
    uda_model, _ = run_experiment(short_config(setting="uda", iterations=10))
    assert dg_model is not None and uda_model is not None


# ---------------------------------------------------------------------------
# evaluation


def rigged_probability_model(probs):
    """A model whose fused softmax equals ``probs`` for every input."""
    cfg = ModelConfig(input_dim_visual=2, input_dim_audio=2, hidden_dim=2,
                      feature_dim=2, num_classes=len(probs))
    model = init_model(cfg, seed=0)
    for name, p in model.parameters().items():
        p[...] = 0.0
    model.parameters()["classifier_visual.bias"][...] = np.log(probs)
    return model


def balanced_batch(n_per_class=5, num_classes=2):
    labels = np.repeat(np.arange(num_classes), n_per_class)
    n = labels.size
    rng = np.random.default_rng(0)
    return MultiModalBatch(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)),
                           labels=labels)


def logit_accuracy(model, batch, mode):
    """Reference accuracy of one model: the argmax of its ``mode`` logits
    against the labels, with no softmax and no averaging."""
    logits = eval_logits(model, batch.visual, batch.audio)
    pred = np.argmax(logits[EVAL_MODES.index(mode)], axis=1)
    return float(np.mean(pred == batch.labels))


def test_evaluate_uniform_zero_model_hits_tie_class_frequency():
    cfg = ModelConfig(input_dim_visual=2, input_dim_audio=2, hidden_dim=2,
                      feature_dim=2, num_classes=4)
    model = init_model(cfg, seed=0)
    for name, p in model.parameters().items():
        p[...] = 0.0
    batch = MultiModalBatch(np.ones((8, 2)), np.ones((8, 2)),
                            labels=np.repeat(np.arange(4), 2))
    # all-zero logits predict class 0 everywhere; accuracy = freq(class 0)
    assert snapshot_accuracies([model], batch) == [0.25, 0.25, 0.25]


def test_evaluate_modes_differ_for_asymmetric_model():
    model = rigged_probability_model([0.9, 0.1])
    model.parameters()["classifier_audio.bias"][...] = np.log([0.1, 0.9])
    batch = balanced_batch()
    # visual stream says class 0, audio stream says class 1
    _, visual, audio = snapshot_accuracies([model], batch)
    assert visual == 0.5
    assert audio == 0.5


def test_evaluate_rejects_unlabeled_or_empty():
    model = rigged_probability_model([0.5, 0.5])
    with pytest.raises(ConfigurationError):
        snapshot_accuracies(
            [model], MultiModalBatch(np.ones((2, 2)), np.ones((2, 2))))
    with pytest.raises(ConfigurationError):
        snapshot_accuracies(
            [model], MultiModalBatch(np.zeros((0, 2)), np.zeros((0, 2)),
                                     labels=np.zeros(0, int)))


def test_checkpoint_average_single_snapshot_equals_evaluate():
    model = rigged_probability_model([0.7, 0.3])
    batch = balanced_batch()
    assert snapshot_accuracies([model], batch) == \
        [logit_accuracy(model, batch, mode) for mode in EVAL_MODES]


def test_checkpoint_average_identical_snapshots_equals_evaluate():
    model = rigged_probability_model([0.7, 0.3])
    batch = balanced_batch()
    acc = snapshot_accuracies([model, model, model], batch)[0]
    assert acc == logit_accuracy(model, batch, "fused")


def test_checkpoint_average_blends_scores():
    # softmaxes [0.6, 0.4] and [0.2, 0.8] average to [0.4, 0.6] -> class 1
    snap_a = rigged_probability_model([0.6, 0.4])
    snap_b = rigged_probability_model([0.2, 0.8])
    labels_one = MultiModalBatch(np.ones((4, 2)), np.ones((4, 2)),
                                 labels=np.ones(4, int))
    labels_zero = MultiModalBatch(np.ones((4, 2)), np.ones((4, 2)),
                                  labels=np.zeros(4, int))
    assert snapshot_accuracies([snap_a, snap_b], labels_one)[0] == 1.0
    assert snapshot_accuracies([snap_a, snap_b], labels_zero)[0] == 0.0
    # while each snapshot alone disagrees about one of them
    assert snapshot_accuracies([snap_a], labels_one)[0] == 0.0
    assert snapshot_accuracies([snap_b], labels_one)[0] == 1.0


def test_checkpoint_average_rejects_zero_snapshots():
    with pytest.raises(ConfigurationError):
        snapshot_accuracies([], balanced_batch())


def test_finish_encodes_each_snapshot_once(monkeypatch):
    calls = []

    def counting(model, visual, audio):
        calls.append(model)
        return encode_pair(model, visual, audio)

    for module in (rnalign.model, rnalign.training):
        monkeypatch.setattr(module, "encode_pair", counting)
    model = init_model(ModelConfig(6, 5, 16, 8, 4), seed=0)
    snapshots = []
    for i in range(9):
        snapshots.append(model.clone())
        model.flat += 0.05 * np.sin(np.arange(model.flat.size) + i)
    batch = generate_benchmark(small_benchmark())[1].test
    accuracies = snapshot_accuracies(snapshots, batch)
    assert len(calls) == 9
    monkeypatch.undo()
    # fused: the argmax of the snapshots' mean softmax scores; each stream
    # alone: the last snapshot's logits
    scores = [softmax(eval_logits(s, batch.visual, batch.audio)[0])
              for s in snapshots]
    fused = np.argmax(sum(scores) / len(scores), axis=1)
    assert accuracies[0] == float(np.mean(fused == batch.labels))
    for mode, accuracy in zip(EVAL_MODES[1:], accuracies[1:]):
        assert accuracy == logit_accuracy(snapshots[-1], batch, mode)


def test_snapshot_accuracies_reads_an_iterator_lazily():
    model = rigged_probability_model([0.7, 0.3])
    batch = balanced_batch()
    assert snapshot_accuracies(iter([model, model]), batch) == \
        snapshot_accuracies([model, model], batch)
    with pytest.raises(ConfigurationError, match="at least one snapshot"):
        snapshot_accuracies(iter([]), batch)
    # the batch is checked before the first model is asked for
    drawn = []
    with pytest.raises(ConfigurationError, match="labeled"):
        snapshot_accuracies(
            (drawn.append(model) or model for _ in range(2)),
            MultiModalBatch(np.ones((2, 2)), np.ones((2, 2))))
    assert drawn == []


def record_scored_models(monkeypatch):
    """The (flat, running) copies of each model ``run_experiment`` scores,
    taken as it is scored."""
    scored = []

    def recording(model, visual, audio):
        scored.append((model.flat.copy(), None if model.running is None
                       else model.running.copy()))
        return eval_logits(model, visual, audio)

    monkeypatch.setattr(rnalign.training, "eval_logits", recording)
    return scored


@pytest.mark.parametrize("overrides", [
    {}, {"fusion_mode": "mid"}, {"aux_loss": "batchnorm-only"},
], ids=["late", "mid", "batchnorm"])
@pytest.mark.parametrize("iterations", [0, 1, 2, 3, 6])  # 0, 1, k-1, k, k+3
def test_scoring_during_training_equals_scoring_stored_snapshots(
        monkeypatch, overrides, iterations):
    k = 3
    config = short_config(iterations=iterations, checkpoint_average=k,
                          **overrides)
    scored = record_scored_models(monkeypatch)
    _, telemetry = run_experiment(config)
    monkeypatch.undo()
    # one seed trains one prefix, so the final model of a run n steps long
    # is the longer run's model after step n
    snapshots = [run_experiment(dataclasses.replace(config, iterations=n))[0]
                 for n in range(max(iterations - k, 0) + 1, iterations + 1)
                 ] or [run_experiment(config)[0]]
    assert len(scored) == len(snapshots) == max(1, min(k, iterations))
    for (flat, running), snap in zip(scored, snapshots):
        assert np.array_equal(flat, snap.flat)
        assert (running is None and snap.running is None
                or np.array_equal(running, snap.running))
    target_test = split_domains(resolve_domains(config), config.setting,
                                config.source_index, config.target_index)[2]
    assert telemetry.evals == list(zip(
        EVAL_MODES, snapshot_accuracies(snapshots, target_test)))


def test_scoring_keeps_the_callers_numpy_error_state(monkeypatch):
    scored_under = []

    def recording(*args):
        scored_under.append(np.geterr())
        return eval_logits(*args)

    monkeypatch.setattr(rnalign.training, "eval_logits", recording)
    # the training step silences over and invalid; the caller raises on them
    with np.errstate(over="raise", invalid="raise"):
        expected = np.geterr()
        run_experiment(short_config(iterations=5, checkpoint_average=3))
    assert scored_under == [expected] * 3


def test_snapshot_averaging_holds_no_model_copy(monkeypatch):
    config = short_config(iterations=12, hidden_dim=64, feature_dim=32)
    flat_bytes = run_experiment(config)[0].flat.nbytes  # warms the data

    def peak(k):
        tracemalloc.start()
        try:
            run_experiment(dataclasses.replace(config, checkpoint_average=k))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(9) - peak(1) < flat_bytes

    def refuse(model):
        raise AssertionError("the run copied its model")

    monkeypatch.setattr(TwoStreamModel, "clone", refuse)
    _, telemetry = run_experiment(config)
    assert len(telemetry.evals) == len(EVAL_MODES)


def test_returned_model_holds_no_gradient_buffer():
    config = short_config(iterations=12, hidden_dim=64, feature_dim=32,
                          aux_loss="batchnorm-only")
    run_experiment(config)  # warms the data
    tracemalloc.start()
    try:
        model, _ = run_experiment(config)
        held = tracemalloc.get_traced_memory()[0]
        # the first call allocates a fresh zero vector
        vector, grads, _ = model.gradient()
        allocated = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    # the parameters, the running statistics and the telemetry, but no
    # second vector of the parameters' size
    assert held < 2 * model.flat.nbytes
    assert allocated >= vector.nbytes and not vector.any()
    batch = split_domains(resolve_domains(config), config.setting,
                          config.source_index, config.target_index)[2]
    fused, cache = model_forward(model, batch.visual, batch.audio)
    _, grad_logits = softmax_cross_entropy(fused, batch.labels)
    assert model_backward(cache, grad_logits) is grads
    assert np.isfinite(vector).all() and vector.any()


# ---------------------------------------------------------------------------
# experiment matrix


def test_default_pairs_layout():
    singles = default_pairs("dg-single", 3)
    assert len(singles) == 6
    assert (0, 1) in singles and (2, 1) in singles
    assert default_pairs("uda", 3) == singles
    multis = default_pairs("dg-multi", 3)
    assert len(multis) == 3


@pytest.mark.parametrize("setting, num_domains, message", [
    ("dg-single", 1, "need at least 2 domains"),
    ("dg-double", 3, "unknown setting: 'dg-double'"),
])
def test_default_pairs_checks_name_what_is_wrong(setting, num_domains,
                                                 message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        default_pairs(setting, num_domains)


def test_eval_accuracy_of_an_unknown_mode_names_it():
    with pytest.raises(ConfigurationError,
                       match="no evaluation record for mode 'x'"):
        NormTelemetry().eval_accuracy("x")


def test_every_accepted_aux_loss_backs_a_method_row():
    # a feature loss that no row runs would be trained and never reported
    used = {row.get("aux_loss", ExperimentConfig().aux_loss)
            for row in METHODS.values()}
    assert used == set(AUX_LOSSES)


def test_apply_method_names_an_unknown_method():
    with pytest.raises(ConfigurationError, match="unknown method: 'x'"):
        apply_method(short_config(), "x")


def test_pair_labels():
    ids = ["D1", "D2", "D3"]
    assert pair_label("dg-single", (0, 1), ids) == "D1->D2"
    assert pair_label("uda", (2, 0), ids) == "D3->D1"
    assert pair_label("dg-multi", (2,), ids) == "D1,D2->D3"
    for bad in ((0, 3), (-1, 0), (3,)):
        with pytest.raises(ConfigurationError):
            pair_label("uda" if len(bad) == 2 else "dg-multi", bad, ids)


@pytest.mark.parametrize("num_domains", [2, 3, 4])
def test_every_pair_reader_accepts_exactly_the_default_pairs(num_domains):
    ids = [f"D{i + 1}" for i in range(num_domains)]
    domains = generate_benchmark(small_benchmark(num_domains=num_domains))
    indices = range(-1, num_domains + 1)
    for setting in ("dg-single", "dg-multi", "uda"):
        accepted = default_pairs(setting, num_domains)
        for pair in (p for k in (1, 2, 3)
                     for p in itertools.product(indices, repeat=k)):
            try:
                pair_label(setting, pair, ids)
                labelled = True
            except ConfigurationError:
                labelled = False
            assert labelled == (pair in accepted), (setting, pair)
            if len(pair) == len(accepted[0]):
                try:
                    split_domains(domains, setting, *(
                        pair if len(pair) == 2 else (None, *pair)))
                    split = True
                except ConfigurationError:
                    split = False
                assert split == labelled, (setting, pair)


@pytest.mark.parametrize("grid, message", [
    (dict(pairs=[(0, 1), (1, 1)], seeds=[0]),
     "source and target domains must differ"),
    (dict(pairs=[(0, 1), (0, 7)], seeds=[0]),
     "domain index 7 out of range for 3 domains"),
    (dict(pairs=[(0, 1)], seeds=[0, -1]), "seed must be >= 0, got -1"),
    (dict(pairs=[(0, 1)], seeds=[0, 1.5]),
     "seed: expected an integer, got 1.5"),
], ids=["same-domain", "out-of-range", "negative-seed", "fractional-seed"])
def test_matrix_checks_every_cell_before_the_first_run(monkeypatch, grid,
                                                        message):
    trained = []
    original = rnalign.training.run_experiment

    def recording(config):
        trained.append(config)
        return original(config)

    monkeypatch.setattr(rnalign.training, "run_experiment", recording)
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        run_experiment_matrix(short_config(iterations=2), **grid)
    assert trained == []


@pytest.mark.parametrize("setting, pair", [
    ("dg-single", (1,)), ("dg-multi", (0, 1)), ("uda", (0, 1, 2))])
def test_matrix_pair_of_the_wrong_arity_is_a_configuration_error(setting,
                                                                 pair):
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"domain pair {pair!r} does not fit "
                                       f"{setting}")):
        run_experiment_matrix(short_config(setting=setting), [pair])


def test_matrix_single_cell_matches_single_run():
    cfg = short_config(iterations=40)
    matrix = run_experiment_matrix(cfg, pairs=[(0, 1)], seeds=[5])
    single = dataclasses.replace(cfg, source_index=0, target_index=1, seed=5)
    _, telemetry = run_experiment(single)
    assert matrix.cells[0].accuracies == [headline_accuracy(telemetry)]
    assert matrix.cells[0].mean == headline_accuracy(telemetry)


def test_matrix_mean_column_is_arithmetic_mean():
    cfg = short_config(iterations=20)
    matrix = run_experiment_matrix(cfg, seeds=[0, 1])
    assert len(matrix.cells) == 6
    assert abs(matrix.mean - np.mean(matrix.means)) < 1e-12
    for cell in matrix.cells:
        assert abs(cell.mean - np.mean(cell.accuracies)) < 1e-12


def test_matrix_failed_cell_recorded_as_nan():
    cfg = short_config(learning_rate=1e12, iterations=100)
    matrix = run_experiment_matrix(cfg, pairs=[(0, 1)], seeds=[0])
    assert np.isnan(matrix.cells[0].mean)
    assert matrix.failures
    assert "D1->D2" in matrix.failures[0]


def test_a_degenerate_auxiliary_loss_names_its_iteration_and_batch(
        tmp_path):
    # D2's audio is all zeros, so its audio features are too (zero biases
    # at init) and the norm ratio is undefined on any batch drawn from it
    spec = small_benchmark(num_domains=2)
    domains = generate_benchmark(spec)
    for split in ("train", "test"):
        batch = getattr(domains[1], split)
        setattr(domains[1], split, MultiModalBatch(
            batch.visual, np.zeros_like(batch.audio), batch.labels))
    save_domains(domains, tmp_path, ["D1", "D2"])
    config = short_config(benchmark=spec, data_dir=str(tmp_path))
    undefined = "mean audio norm is 0; norm ratio undefined"

    uda = run_experiment_matrix(dataclasses.replace(config, setting="uda"),
                                pairs=[(0, 1)], seeds=[0, 1])
    assert np.all(np.isnan(uda.cells[0].accuracies))
    assert uda.failures == [
        ("D1->D2", seed, f"iteration 0: target batch: {undefined}")
        for seed in (0, 1)]

    # the matrix records the failed cell and goes on to the next pair
    dg = run_experiment_matrix(config, pairs=[(1, 0), (0, 1)], seeds=[0])
    assert np.isnan(dg.cells[0].mean) and 0.0 <= dg.cells[1].mean <= 1.0
    assert dg.failures == [
        ("D2->D1", 0, f"iteration 0: source batch: {undefined}")]
    with pytest.raises(DegenerateInputError,
                       match="^iteration 0: source batch: mean audio"):
        run_experiment(dataclasses.replace(config, source_index=1,
                                           target_index=0))


# dg-multi, whose pairs are one-index tuples: a bare target index is not one
@pytest.mark.parametrize("pair, given", [
    ((0.5, 1), "(0.5, 1)"), ((True, 1), "(True, 1)"), ([0, 1], "[0, 1]"),
    (2, "2")])
def test_matrix_pair_of_non_integer_indices_is_named_as_given(pair, given):
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"domain pair {given} must be a tuple "
                                       f"of integer indices")):
        run_experiment_matrix(
            ExperimentConfig(iterations=2, setting="dg-multi"), [pair])


@pytest.mark.parametrize("grid", [dict(pairs=[(0, 1)], seeds=()),
                                  dict(pairs=[], seeds=[0])])
def test_matrix_rejects_an_empty_grid(grid):
    with pytest.raises(ConfigurationError, match="at least one domain pair"):
        run_experiment_matrix(short_config(iterations=1), **grid)


@pytest.mark.parametrize("grid, named", [
    (dict(pairs=[(0, 1), (0, 1)], seeds=[0]), "the matrix's pairs names "
     "(0, 1) twice"),
    (dict(pairs=[(0, 1)], seeds=[0, 0]), "the matrix's seeds names 0 twice"),
    (dict(pairs=[(0, 1)], seeds=[3, 3.0]), "the matrix's seeds names 3.0 "
     "twice")], ids=["pair", "seed", "seed-cast"])
def test_matrix_rejects_a_repeated_pair_or_seed_before_any_run(
        grid, named, monkeypatch):
    # a repeated pair gives two cells of one label, which the results table
    # cannot hold; a repeated seed trains the same run twice
    trained = []
    monkeypatch.setattr(rnalign.training, "run_experiment", trained.append)
    with pytest.raises(ConfigurationError, match=f"^{re.escape(named)}$"):
        run_experiment_matrix(short_config(iterations=1), **grid)
    assert trained == []


def test_results_csv_writer_refuses_a_repeated_label(tmp_path):
    # read_results_csv refuses such a header, so the writer does not write it
    path = tmp_path / "results.csv"
    cells = [MatrixCell("D1->D2", [0.5], 0.5)] * 2
    with pytest.raises(ConfigurationError, match=re.escape(
            f"{path}: the header names 'D1->D2' twice")):
        write_results_csv(path, {"rna": MatrixResult(cells)})
    assert list(tmp_path.iterdir()) == []


def test_results_csv_writer_needs_rows_that_agree(tmp_path):
    path = tmp_path / "results.csv"
    with pytest.raises(ConfigurationError, match="no results to write"):
        write_results_csv(path, {})
    results = {"source-only": MatrixResult([MatrixCell("D1->D2", [0.5], 0.5)]),
               "rna": MatrixResult([MatrixCell("D2->D1", [0.5], 0.5)])}
    with pytest.raises(ConfigurationError,
                       match=re.escape("result rows disagree on pair labels "
                                       "(rna)")):
        write_results_csv(path, results)
    assert not path.exists()


def test_results_csv_with_a_non_ascii_method_leaves_no_file(tmp_path):
    cells = [MatrixCell("D1->D2", [0.5], 0.5)]
    results = {"rna": MatrixResult(cells), "rn\u00e4": MatrixResult(cells)}
    with pytest.raises(UnicodeEncodeError):
        write_results_csv(tmp_path / "results.csv", results)
    assert list(tmp_path.iterdir()) == []


def test_results_csv_round_trip(tmp_path):
    cfg = short_config(iterations=20)
    results = {
        "source-only": run_experiment_matrix(
            dataclasses.replace(cfg, aux_loss="none"), seeds=[0]),
        "rna": run_experiment_matrix(cfg, seeds=[0]),
    }
    path = tmp_path / "results.csv"
    write_results_csv(str(path), results)
    header = path.read_text().splitlines()[0].split(",")
    assert header[0] == "method" and header[-1] == "mean"
    assert len(header) == 1 + 6 + 1
    labels, rows = read_results_csv(str(path))
    assert list(rows) == ["source-only", "rna"]
    assert labels == results["rna"].labels
    for method, matrix in results.items():
        got = rows[method]
        assert np.allclose(got[:-1], matrix.means)
        assert abs(got[-1] - matrix.mean) < 1e-15


def test_data_dir_domains_are_ordered_by_number(tmp_path):
    spec = small_benchmark(num_domains=11, samples_per_class=4)
    for domain in generate_benchmark(spec):
        for split in ("train", "test"):
            save_feature_file(getattr(domain, split),
                              tmp_path / f"{domain.domain_id}_{split}.rnafeat")
    config = short_config(benchmark=spec, data_dir=str(tmp_path),
                          source_index=0, target_index=10, iterations=3)
    domains = resolve_domains(config)
    assert [d.domain_id for d in domains] == [f"D{i}" for i in range(1, 12)]
    assert domain_ids(config) == [f"D{i}" for i in range(1, 12)]
    # source 0 is D1, so a run from the files equals the in-memory run
    from_files, _ = run_experiment(config)
    in_memory, _ = run_experiment(dataclasses.replace(config, data_dir=None))
    assert models_equal(from_files, in_memory)


def save_domains(domains, data_dir, ids):
    """Write each domain's splits as ``<id>_train/test.rnafeat`` files."""
    for domain, domain_id in zip(domains, ids):
        for split in ("train", "test"):
            save_feature_file(getattr(domain, split),
                              data_dir / f"{domain_id}_{split}.rnafeat")


def test_matrix_labels_are_the_data_dir_domain_ids(tmp_path):
    spec = small_benchmark(num_domains=2, samples_per_class=4)
    save_domains(generate_benchmark(spec), tmp_path, ["kitchen", "office"])
    config = short_config(benchmark=spec, data_dir=str(tmp_path),
                          iterations=3)
    assert domain_ids(config) == ["kitchen", "office"]
    matrix = run_experiment_matrix(config, seeds=[0])
    assert matrix.labels == ["kitchen->office", "office->kitchen"]
    multi = run_experiment_matrix(
        dataclasses.replace(config, setting="dg-multi", source_index=None),
        seeds=[0])
    assert multi.labels == ["office->kitchen", "kitchen->office"]


def test_data_dir_domain_order_does_not_depend_on_the_listing(tmp_path,
                                                              monkeypatch):
    spec = small_benchmark(num_domains=3, samples_per_class=4)
    save_domains(generate_benchmark(spec), tmp_path, ["D2", "D01", "D1"])
    config = short_config(benchmark=spec, data_dir=str(tmp_path))
    # D01 and D1 share the number 1; the tie goes to the name
    assert domain_ids(config) == ["D01", "D1", "D2"]
    listed = pathlib.Path.glob
    monkeypatch.setattr(pathlib.Path, "glob",
                        lambda self, pattern: reversed(list(listed(self,
                                                                   pattern))))
    assert domain_ids(config) == ["D01", "D1", "D2"]


def test_data_dir_negative_label_in_a_target_split_exits_early(tmp_path):
    spec = small_benchmark(num_domains=2, num_classes=3, samples_per_class=4)
    domains = generate_benchmark(spec)
    test = domains[1].test
    labels = test.labels.copy()
    labels[0] = -3
    domains[1].test = MultiModalBatch(test.visual, test.audio, labels)
    save_domains(domains, tmp_path, ["D1", "D2"])
    config = short_config(benchmark=spec, data_dir=str(tmp_path),
                          iterations=2)
    with pytest.raises(ConfigurationError,
                       match="domain D2 test split has a negative label -3"):
        run_experiment(config)


def test_data_dir_domain_without_a_test_split_is_named(tmp_path):
    spec = small_benchmark(num_domains=2, samples_per_class=4)
    save_domains(generate_benchmark(spec), tmp_path, ["D1", "D2"])
    (tmp_path / "D2_test.rnafeat").unlink()
    config = short_config(benchmark=spec, data_dir=str(tmp_path))
    with pytest.raises(ConfigurationError, match=re.escape(
            f"missing test split file: {tmp_path / 'D2_test.rnafeat'}")):
        domain_ids(config)


def test_data_dir_domain_without_a_train_split_is_named(tmp_path):
    spec = small_benchmark(samples_per_class=4)
    save_domains(generate_benchmark(spec), tmp_path, ["D1", "D2", "D3"])
    (tmp_path / "D3_train.rnafeat").unlink()
    config = short_config(benchmark=spec, data_dir=str(tmp_path))
    with pytest.raises(ConfigurationError, match=re.escape(
            f"missing train split file: {tmp_path / 'D3_train.rnafeat'}")):
        domain_ids(config)


def test_data_dir_domain_files_must_be_labeled(tmp_path):
    spec = small_benchmark(num_domains=2, samples_per_class=4)
    domains = generate_benchmark(spec)
    domains[0].test = domains[0].test.without_labels()
    save_domains(domains, tmp_path, ["D1", "D2"])
    config = short_config(benchmark=spec, data_dir=str(tmp_path))
    with pytest.raises(ConfigurationError,
                       match="domain files for D1 must be labeled"):
        resolve_domains(config)


def test_data_dir_class_count_covers_test_labels(tmp_path):
    spec = small_benchmark(num_domains=2, num_classes=3, samples_per_class=4)
    domains = generate_benchmark(spec)
    test = domains[1].test
    labels = test.labels.copy()
    labels[0] = 5  # above every train label
    domains[1].test = MultiModalBatch(test.visual, test.audio, labels)
    save_domains(domains, tmp_path, ["D1", "D2"])
    config = short_config(benchmark=spec, data_dir=str(tmp_path),
                          iterations=2)
    model, _ = run_experiment(config)
    assert 5 < model.config.num_classes


def run_artifacts(config, out_dir):
    """The checkpoint and telemetry bytes of one run."""
    out_dir.mkdir()
    model, telemetry = run_experiment(config)
    rnalign.model.save_checkpoint(model, out_dir / "checkpoint.rna")
    telemetry.to_csv(out_dir / "telemetry.csv")
    return ((out_dir / "checkpoint.rna").read_bytes(),
            (out_dir / "telemetry.csv").read_bytes())


@pytest.mark.parametrize("setting, unseen", [
    ("uda", ["D2_train"]),
    ("dg-single", ["D3_train", "D3_test"]),
], ids=["uda-target-train", "dg-single-unused-domain"])
def test_labels_a_run_must_not_see_leave_its_artifacts_unchanged(
        tmp_path, setting, unseen):
    spec = small_benchmark(num_classes=3, samples_per_class=8)
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    save_domains(generate_benchmark(spec), data_dir, ["D1", "D2", "D3"])
    config = short_config(benchmark=spec, data_dir=str(data_dir),
                          setting=setting, iterations=20)
    clean = run_artifacts(config, tmp_path / "clean")
    for name in unseen:
        path = data_dir / f"{name}.rnafeat"
        batch = load_feature_file(path)
        save_feature_file(MultiModalBatch(batch.visual, batch.audio,
                                          batch.labels + 1), path)
    assert run_artifacts(config, tmp_path / "raised") == clean


# ---------------------------------------------------------------------------
# the last generated domain set is kept


def domain_arrays(domains):
    return [array for d in domains for batch in (d.train, d.test)
            for array in (batch.visual, batch.audio, batch.labels)]


def same_data(domains, expected):
    return ([d.domain_id for d in domains]
            == [d.domain_id for d in expected]
            and all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                    for a, b in zip(domain_arrays(domains),
                                    domain_arrays(expected))))


def test_resolved_arrays_are_read_only_behind_fresh_wrappers():
    config = short_config()
    first, second = resolve_domains(config), resolve_domains(config)
    for array in domain_arrays(first):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    for a, b in zip(first, second):
        assert a is not b and a.train is not b.train and a.test is not b.test
    assert all(x is y for x, y in zip(domain_arrays(first),
                                      domain_arrays(second)))
    # rebinding a wrapper's split does not reach the next call's domains
    first[1].test = first[0].test
    assert resolve_domains(config)[1].test.visual is second[1].test.visual


def test_resolved_arrays_are_shared_by_an_equal_spec_only():
    config = short_config()
    first = resolve_domains(config)
    equal = resolve_domains(dataclasses.replace(config,
                                                benchmark=small_benchmark()))
    assert equal[0].train.visual is first[0].train.visual
    for changed in (small_benchmark(seed=8), small_benchmark(noise_sigma=0.25),
                    small_benchmark(num_domains=4)):
        domains = resolve_domains(dataclasses.replace(config,
                                                      benchmark=changed))
        assert domains[0].train.visual is not first[0].train.visual
        assert same_data(domains, generate_benchmark(changed))
    # a spec replaced field by field is keyed by its new values
    spec = small_benchmark()
    resolve_domains(dataclasses.replace(config, benchmark=spec))
    reseeded = dataclasses.replace(spec, seed=9)
    assert same_data(resolve_domains(dataclasses.replace(config,
                                                         benchmark=reseeded)),
                     generate_benchmark(small_benchmark(seed=9)))


def test_data_dir_domains_are_parsed_on_every_call(tmp_path, monkeypatch):
    spec = small_benchmark(num_domains=2, samples_per_class=4)
    save_domains(generate_benchmark(spec), tmp_path, ["D1", "D2"])
    parsed = []

    def counting(path):
        parsed.append(path.name)
        return load_feature_file(path)

    monkeypatch.setattr(rnalign.training, "load_feature_file", counting)
    config = short_config(benchmark=spec, data_dir=str(tmp_path))
    first = resolve_domains(config)
    other = generate_benchmark(small_benchmark(num_domains=2,
                                               samples_per_class=4, seed=8))
    save_feature_file(other[1].test, tmp_path / "D2_test.rnafeat")
    again = resolve_domains(config)
    assert len(parsed) == 8
    assert all(array.flags.writeable for array in domain_arrays(first))
    assert again[1].test.visual.tobytes() == other[1].test.visual.tobytes()


def test_generated_and_loaded_arrays_stay_writable(tmp_path):
    config = short_config()
    resolve_domains(config)
    domains = generate_benchmark(config.benchmark)
    save_feature_file(domains[0].test, tmp_path / "D1_test.rnafeat")
    loaded = load_feature_file(tmp_path / "D1_test.rnafeat")
    for array in domain_arrays(domains) + [loaded.visual, loaded.audio,
                                           loaded.labels]:
        assert array.flags.writeable
        array[0] = 1


def test_telemetry_and_results_readers_report_bad_bytes_and_rows(tmp_path):
    path = tmp_path / "t.csv"
    head = TELEMETRY_HEADER.encode() + b"\n0,1.0,1.0,0.0,1.0,"
    path.write_bytes(head + b"\xff,0\n")
    with pytest.raises(ParseError, match=f"byte {len(head)}"):
        NormTelemetry.from_csv(path)
    path.write_text(TELEMETRY_HEADER + "\n1,1,1,0,1,0,0\n0,1,1,0,1,0,0\n")
    with pytest.raises(ParseError, match="line 3"):
        NormTelemetry.from_csv(path)
    head = b"method,D1->D2,mean\nrna,0.5,"
    path.write_bytes(head + b"\x80\n")
    with pytest.raises(ParseError, match=f"byte {len(head)}"):
        read_results_csv(path)


def test_results_reader_rejects_an_empty_file(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("")
    with pytest.raises(ParseError) as excinfo:
        read_results_csv(path)
    assert str(excinfo.value) == f"{path}: line 1: empty results file"


def test_results_reader_rejects_a_pair_named_twice(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("method,D1->D2,D1->D2,mean\nrna,0.5,0.5,0.5\n")
    with pytest.raises(ParseError, match="line 1: header names 'D1->D2' twice"):
        read_results_csv(path)


def test_results_reader_rejects_a_duplicate_method(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("method,D1->D2,mean\nrna,0.5,0.5\nrna,0.9,0.9\n")
    with pytest.raises(ParseError, match="line 3: duplicate method 'rna'"):
        read_results_csv(path)


# ---------------------------------------------------------------------------
# fuzzing the telemetry and results readers

# a reader's error names where the input went wrong
LOCATION = re.compile(r"line \d+|byte \d+")


# inserted text: raw bytes, or printable text that decodes and parses further
CHUNKS = st.one_of(st.binary(min_size=1, max_size=3),
                   st.text(string.printable, min_size=1,
                           max_size=3).map(str.encode))

def corrupt(blob, edits):
    blob = bytearray(blob)
    for kind, at, chunk in edits:
        at = min(at, len(blob))
        if kind == "replace":
            blob[at:at + len(chunk)] = chunk
        elif kind == "insert":
            blob[at:at] = chunk
        else:
            del blob[at:at + len(chunk)]
    return bytes(blob)


def edits_within(blob):
    return st.lists(
        st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                  st.integers(min_value=0, max_value=len(blob) - 1),
                  CHUNKS),
        min_size=1, max_size=4)


FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

VALID_TELEMETRY_BYTES = (TELEMETRY_HEADER.encode() + b"\n"
                         b"0,2.0,1.0,1.0,2.0,0.5,0.25\n"
                         b"1,1.5,0.5,1.0,3.0,0.125,0.0\n"
                         b"2,0.75,1.5,-0.75,0.5,1e-07,2.5\n")


def telemetry_bytes(telemetry, path):
    telemetry.to_csv(path)
    return path.read_bytes()


@FUZZ
@given(edits=edits_within(VALID_TELEMETRY_BYTES))
def test_telemetry_corruption_loads_or_is_a_located_parse_error(tmp_path,
                                                                edits):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(corrupt(VALID_TELEMETRY_BYTES, edits))
    try:
        telemetry = NormTelemetry.from_csv(path)
    except ParseError as exc:
        assert LOCATION.search(str(exc)), exc
        return
    # whatever loads re-saves to a file that reads back to the same bytes
    saved = telemetry_bytes(telemetry, tmp_path / "saved.csv")
    again = NormTelemetry.from_csv(tmp_path / "saved.csv")
    assert telemetry_bytes(again, tmp_path / "again.csv") == saved


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def telemetry_records(draw):
    steps = draw(st.lists(st.integers(1, 10 ** 6), max_size=6))
    records = []
    it = draw(st.integers(-5, 5))
    for step in steps:
        it += step
        v = draw(st.floats(0.0, 1e6))
        a = draw(st.floats(1e-6, 1e6))
        records.append(IterationRecord(it, v, a, v - a, v / a,
                                       draw(finite), draw(finite)))
    return records


@FUZZ
@given(records=telemetry_records())
def test_telemetry_round_trip_is_bitwise(tmp_path, records):
    telemetry = NormTelemetry()
    for record in records:
        telemetry.add_iteration(record)
    saved = telemetry_bytes(telemetry, tmp_path / "t.csv")
    loaded = NormTelemetry.from_csv(tmp_path / "t.csv")
    assert [tuple(r) for r in loaded.iterations] == \
        [tuple(r) for r in records]
    assert telemetry_bytes(loaded, tmp_path / "again.csv") == saved


VALID_RESULTS_BYTES = (b'method,D1->D2,"D1,D2->D3",mean\n'
                       b"source-only,0.5,0.25,0.375\n"
                       b"rna,0.75,1.0,0.875\n")


@FUZZ
@given(edits=edits_within(VALID_RESULTS_BYTES))
def test_results_corruption_loads_or_is_a_located_parse_error(tmp_path,
                                                              edits):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(corrupt(VALID_RESULTS_BYTES, edits))
    try:
        labels, rows = read_results_csv(path)
    except ParseError as exc:
        assert LOCATION.search(str(exc)), exc
        return
    assert all(len(row) == len(labels) + 1 for row in rows.values())


def test_results_reject_a_digit_group_in_a_number_only(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("method,my_kitchen->my_office,mean\n"
                    "rna_v2,0.5,0.5\n", encoding="ascii")
    assert read_results_csv(path) == (["my_kitchen->my_office"],
                                      {"rna_v2": [0.5, 0.5]})
    path.write_text("method,my_kitchen->my_office,mean\n"
                    "rna_v2,0.5,0.5\nrna,0_5,0.5\n", encoding="ascii")
    with pytest.raises(ParseError) as excinfo:
        read_results_csv(path)
    assert str(excinfo.value) == f"{path}: line 3: unexpected '_'"


@pytest.mark.parametrize("cell, message", [
    ("x", "could not convert string to float: 'x'"),
    ("1_0", "unexpected '_'"),
], ids=["bad-number", "digit-group"])
def test_results_errors_name_the_physical_line_of_their_row(tmp_path, cell,
                                                            message):
    # a method name holding a newline is written quoted over two lines
    path = tmp_path / "results.csv"
    path.write_text(f'method,D1->D2,mean\n"a\nb",0.5,0.5\nrna,{cell},0.5\n',
                    encoding="ascii")
    with pytest.raises(ParseError) as excinfo:
        read_results_csv(path)
    assert str(excinfo.value) == f"{path}: line 4: {message}"


names = st.text(alphabet=string.ascii_letters + string.digits + ',"->_ ',
                min_size=1, max_size=8)


@FUZZ
@given(labels=st.lists(names, min_size=1, max_size=4, unique=True),
       methods=st.lists(names, min_size=1, max_size=4, unique=True),
       data=st.data())
def test_results_round_trip_is_bitwise(tmp_path, labels, methods, data):
    results = {}
    for method in methods:
        means = data.draw(st.lists(st.floats(), min_size=len(labels),
                                   max_size=len(labels)))
        results[method] = MatrixResult(
            [MatrixCell(label, [m], m) for label, m in zip(labels, means)])
    path = tmp_path / "results.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        write_results_csv(path, results)
        expected = {method: [repr(m) for m in result.means + [result.mean]]
                    for method, result in results.items()}
    got_labels, rows = read_results_csv(path)
    assert got_labels == labels
    assert {method: [repr(x) for x in row] for method, row in rows.items()} \
        == expected
