"""Unit tests for the training loops, evaluation, telemetry, and the
experiment matrix."""

import dataclasses
import re
import string

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rnalign.model
import rnalign.training

from rnalign.data import (BenchmarkSpec, MultiModalBatch, generate_benchmark,
                          save_feature_file)
from rnalign.errors import ConfigurationError, NumericalError, ParseError
from rnalign.model import ModelConfig, encode_pair, init_model
from rnalign.training import (
    TELEMETRY_HEADER,
    ExperimentConfig,
    IterationRecord,
    MatrixCell,
    MatrixResult,
    NormTelemetry,
    _finish,
    average_checkpoint_scores,
    default_pairs,
    domain_ids,
    evaluate,
    headline_accuracy,
    pair_label,
    read_results_csv,
    resolve_domains,
    run_experiment,
    run_experiment_matrix,
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
        short_config(setting="dg-quadruple").validate()
    with pytest.raises(ConfigurationError):
        short_config(aux_loss="mmd").validate()
    with pytest.raises(ConfigurationError):
        short_config(lambda_weight=-0.5).validate()
    with pytest.raises(ConfigurationError):
        short_config(iterations=-1).validate()
    with pytest.raises(ConfigurationError):
        short_config(checkpoint_average=0).validate()
    with pytest.raises(ConfigurationError):
        short_config(hna_target_norm=-3.0).validate()


def test_config_rejects_non_finite_floats_naming_the_field():
    for name in ("lambda_weight", "hna_target_norm", "learning_rate",
                 "momentum", "weight_decay"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match=name):
                short_config(**{name: value}).validate()


# ---------------------------------------------------------------------------
# telemetry object


def test_telemetry_header_string():
    assert TELEMETRY_HEADER == \
        "iter,mean_norm_v,mean_norm_a,delta,rho,ce_loss,aux_loss"


def test_telemetry_rejects_out_of_order_iterations():
    t = NormTelemetry()
    t.add_iteration(IterationRecord(0, 2.0, 1.0, 1.0, 2.0, 0.5, 0.1))
    with pytest.raises(ConfigurationError):
        t.add_iteration(IterationRecord(0, 2.0, 1.0, 1.0, 2.0, 0.5, 0.1))


def test_telemetry_rejects_inconsistent_delta():
    t = NormTelemetry()
    with pytest.raises(ConfigurationError):
        t.add_iteration(IterationRecord(0, 2.0, 1.0, 0.5, 2.0, 0.5, 0.1))


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
    assert 0.0 <= telemetry.eval_accuracy("target_test", "fused") <= 1.0


def test_train_dg_lambda_zero_equals_aux_none():
    base = short_config(aux_loss="none")
    zeroed = short_config(aux_loss="rna", lambda_weight=0.0)
    model_a, tel_a = run_experiment(base)
    model_b, tel_b = run_experiment(zeroed)
    assert models_equal(model_a, model_b)
    assert tel_a.eval_accuracy("target_test", "fused") == \
        tel_b.eval_accuracy("target_test", "fused")


def test_train_dg_multi_source_pools_remaining_domains():
    cfg = short_config(setting="dg-multi", source_index=None, target_index=2)
    model, telemetry = run_experiment(cfg)
    assert 0.0 <= telemetry.eval_accuracy("target_test", "fused") <= 1.0


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


def test_train_dg_rna_improves_norm_ratio():
    cfg = short_config(aux_loss="rna", iterations=300,
                       benchmark=small_benchmark(samples_per_class=30))
    _, telemetry = run_experiment(cfg)
    first = abs(telemetry.iterations[0].rho - 1.0)
    last = abs(telemetry.iterations[-1].rho - 1.0)
    assert last < first


def test_train_dg_hna_explicit_target_norm():
    cfg = short_config(aux_loss="hna", hna_target_norm=2.0,
                       lambda_weight=0.01, iterations=40)
    model, telemetry = run_experiment(cfg)
    assert len(telemetry.iterations) == 40


def test_headline_accuracy_matches_fused_eval():
    _, telemetry = run_experiment(short_config(iterations=30))
    assert headline_accuracy(telemetry) == \
        telemetry.eval_accuracy("target_test", "fused")


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
    cfg = short_config(setting="uda", aux_loss="cosine-align", iterations=40)
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


def test_evaluate_uniform_zero_model_hits_tie_class_frequency():
    cfg = ModelConfig(input_dim_visual=2, input_dim_audio=2, hidden_dim=2,
                      feature_dim=2, num_classes=4)
    model = init_model(cfg, seed=0)
    for name, p in model.parameters().items():
        p[...] = 0.0
    batch = MultiModalBatch(np.ones((8, 2)), np.ones((8, 2)),
                            labels=np.repeat(np.arange(4), 2))
    # all-zero logits predict class 0 everywhere; accuracy = freq(class 0)
    assert evaluate(model, batch, "fused") == 0.25


def test_evaluate_modes_differ_for_asymmetric_model():
    model = rigged_probability_model([0.9, 0.1])
    model.parameters()["classifier_audio.bias"][...] = np.log([0.1, 0.9])
    batch = balanced_batch()
    # visual stream says class 0, audio stream says class 1
    assert evaluate(model, batch, "visual") == 0.5
    assert evaluate(model, batch, "audio") == 0.5


def test_evaluate_rejects_unlabeled_or_empty():
    model = rigged_probability_model([0.5, 0.5])
    with pytest.raises(ConfigurationError):
        evaluate(model, MultiModalBatch(np.ones((2, 2)), np.ones((2, 2))),
                 "fused")
    with pytest.raises(ConfigurationError):
        evaluate(model, MultiModalBatch(np.zeros((0, 2)), np.zeros((0, 2)),
                                        labels=np.zeros(0, int)), "fused")


def test_evaluate_rejects_unknown_mode():
    model = rigged_probability_model([0.5, 0.5])
    with pytest.raises(ConfigurationError):
        evaluate(model, balanced_batch(), "telepathy")


def test_checkpoint_average_single_snapshot_equals_evaluate():
    model = rigged_probability_model([0.7, 0.3])
    batch = balanced_batch()
    assert average_checkpoint_scores([model], batch) == \
        evaluate(model, batch, "fused")


def test_checkpoint_average_identical_snapshots_equals_evaluate():
    model = rigged_probability_model([0.7, 0.3])
    batch = balanced_batch()
    acc = average_checkpoint_scores([model, model, model], batch)
    assert acc == evaluate(model, batch, "fused")


def test_checkpoint_average_blends_scores():
    # softmaxes [0.6, 0.4] and [0.2, 0.8] average to [0.4, 0.6] -> class 1
    snap_a = rigged_probability_model([0.6, 0.4])
    snap_b = rigged_probability_model([0.2, 0.8])
    labels_one = MultiModalBatch(np.ones((4, 2)), np.ones((4, 2)),
                                 labels=np.ones(4, int))
    labels_zero = MultiModalBatch(np.ones((4, 2)), np.ones((4, 2)),
                                  labels=np.zeros(4, int))
    assert average_checkpoint_scores([snap_a, snap_b], labels_one) == 1.0
    assert average_checkpoint_scores([snap_a, snap_b], labels_zero) == 0.0
    # while each snapshot alone disagrees about one of them
    assert evaluate(snap_a, labels_one, "fused") == 0.0
    assert evaluate(snap_b, labels_one, "fused") == 1.0


def test_checkpoint_average_rejects_zero_snapshots():
    with pytest.raises(ConfigurationError):
        average_checkpoint_scores([], balanced_batch())


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
    final = snapshots[-1].clone()
    batch = generate_benchmark(small_benchmark())[1].test
    _, telemetry = _finish(final, snapshots, NormTelemetry(), batch)
    assert len(calls) == 9
    monkeypatch.undo()
    # the same numbers as the snapshot average and the final model alone
    assert [rec.mode for rec in telemetry.evals] == ["fused", "visual",
                                                     "audio"]
    assert telemetry.evals[0].accuracy == \
        average_checkpoint_scores(snapshots, batch)
    for rec in telemetry.evals[1:]:
        assert rec.accuracy == evaluate(final, batch, rec.mode)


# ---------------------------------------------------------------------------
# experiment matrix


def test_default_pairs_layout():
    singles = default_pairs("dg-single", 3)
    assert len(singles) == 6
    assert (0, 1) in singles and (2, 1) in singles
    assert default_pairs("uda", 3) == singles
    multis = default_pairs("dg-multi", 3)
    assert len(multis) == 3


def test_pair_labels():
    ids = ["D1", "D2", "D3"]
    assert pair_label("dg-single", (0, 1), ids) == "D1->D2"
    assert pair_label("uda", (2, 0), ids) == "D3->D1"
    assert pair_label("dg-multi", (2,), ids) == "D1,D2->D3"
    for bad in ((0, 3), (-1, 0), (3,)):
        with pytest.raises(ConfigurationError):
            pair_label("uda" if len(bad) == 2 else "dg-multi", bad, ids)


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


def test_data_dir_class_count_covers_test_labels(tmp_path):
    spec = small_benchmark(num_domains=2, num_classes=3, samples_per_class=4)
    domains = generate_benchmark(spec)
    test = domains[1].test
    labels = test.labels.copy()
    labels[0] = 5  # above every train label
    domains[1].test = MultiModalBatch(test.visual, test.audio, labels,
                                      test.domain_id)
    save_domains(domains, tmp_path, ["D1", "D2"])
    config = short_config(benchmark=spec, data_dir=str(tmp_path),
                          iterations=2)
    model, _ = run_experiment(config)
    assert 5 < model.config.num_classes


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
    assert [dataclasses.astuple(r) for r in loaded.iterations] == \
        [dataclasses.astuple(r) for r in records]
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


names = st.text(alphabet=string.ascii_letters + string.digits + ',"->_ ',
                min_size=1, max_size=8)


@FUZZ
@given(labels=st.lists(names, min_size=1, max_size=4),
       methods=st.lists(names, min_size=1, max_size=4, unique=True),
       data=st.data())
def test_results_round_trip_is_bitwise(tmp_path, labels, methods, data):
    results = {}
    for method in methods:
        means = data.draw(st.lists(st.floats(), min_size=len(labels),
                                   max_size=len(labels)))
        results[method] = MatrixResult(
            [MatrixCell(label, [m], m, 0.0) for label, m in zip(labels, means)])
    path = tmp_path / "results.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        write_results_csv(path, results)
        expected = {method: [repr(m) for m in result.means + [result.mean]]
                    for method, result in results.items()}
    got_labels, rows = read_results_csv(path)
    assert got_labels == labels
    assert {method: [repr(x) for x in row] for method, row in rows.items()} \
        == expected
