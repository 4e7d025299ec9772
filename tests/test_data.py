"""Unit tests for benchmark generation, the DG/UDA split rule, and the
feature-file format."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rnalign.data import (
    BenchmarkSpec,
    MultiModalBatch,
    generate_benchmark,
    load_feature_file,
    save_feature_file,
    split_domains,
)
from rnalign.errors import ConfigurationError, ParseError
from rnalign.training import ExperimentConfig, run_experiment


def small_spec(**overrides):
    base = dict(num_domains=3, num_classes=4, input_dim_visual=6,
                input_dim_audio=5, samples_per_class=12, seed=7)
    base.update(overrides)
    return BenchmarkSpec(**base)


def batches_equal(a, b):
    if not np.array_equal(a.visual, b.visual):
        return False
    if not np.array_equal(a.audio, b.audio):
        return False
    if a.labeled != b.labeled:
        return False
    return (not a.labeled) or np.array_equal(a.labels, b.labels)


# ---------------------------------------------------------------------------
# MultiModalBatch


def test_batch_requires_paired_rows():
    with pytest.raises(ConfigurationError, match="modalities must be paired: "
                                                 "3 visual rows vs 2 audio rows"):
        MultiModalBatch(np.zeros((3, 2)), np.zeros((2, 2)))


@pytest.mark.parametrize("visual, audio, labels, message", [
    (np.zeros(3), np.zeros((3, 2)), None,
     "batch inputs must be 2-D (N x dim)"),
    (np.array([[0.0, np.inf]]), np.zeros((1, 2)), None,
     "batch contains non-finite inputs"),
    (np.zeros((3, 2)), np.zeros((3, 2)), [0, 1],
     "expected 3 labels, got shape (2,)"),
], ids=["not-2d", "non-finite", "label-shape"])
def test_batch_checks_name_what_is_wrong(visual, audio, labels, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        MultiModalBatch(visual, audio, labels)


def test_batch_concatenate_needs_a_batch():
    with pytest.raises(ConfigurationError,
                       match="cannot concatenate zero batches"):
        MultiModalBatch.concatenate([])


def test_batch_take_and_without_labels():
    batch = MultiModalBatch(np.arange(8.0).reshape(4, 2),
                            np.arange(12.0).reshape(4, 3),
                            labels=np.array([0, 1, 2, 3]))
    sub = batch.take([2, 0])
    assert np.array_equal(sub.labels, [2, 0])
    assert np.array_equal(sub.visual, [[4.0, 5.0], [0.0, 1.0]])
    bare = batch.without_labels()
    assert not bare.labeled
    assert np.array_equal(bare.visual, batch.visual)


def test_batch_concatenate_rejects_mixed_labeledness():
    a = MultiModalBatch(np.zeros((2, 2)), np.zeros((2, 2)), labels=np.zeros(2, int))
    b = MultiModalBatch(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ConfigurationError):
        MultiModalBatch.concatenate([a, b])


# ---------------------------------------------------------------------------
# generation


def test_generate_is_deterministic():
    spec = small_spec()
    first = generate_benchmark(spec)
    second = generate_benchmark(spec)
    for d1, d2 in zip(first, second):
        assert d1.domain_id == d2.domain_id
        assert batches_equal(d1.train, d2.train)
        assert batches_equal(d1.test, d2.test)


def test_generate_different_seed_differs():
    a = generate_benchmark(small_spec(seed=7))
    b = generate_benchmark(small_spec(seed=8))
    assert not np.array_equal(a[0].train.visual, b[0].train.visual)


@pytest.mark.parametrize("overrides, expected", [
    ({}, "d019bf0a97305618d79e41cc22a4d6f10bbe195f29a052a565521c73ada13288"),
    ({"transform_strength": 0.0, "input_dim_audio": 7, "num_domains": 4},
     "6854747e9cebc995a723506c2f6aac111d45052672af3d57697b9b90484b03ec"),
], ids=["stock", "identity-unequal-widths"])
def test_generate_bytes_are_pinned(overrides, expected):
    # README promises bitwise-identical data for a spec, so a rewrite of
    # the generator must keep every domain's bytes
    h = hashlib.sha256()
    for d in generate_benchmark(BenchmarkSpec(**overrides)):
        h.update(d.domain_id.encode())
        for batch in (d.train, d.test):
            for array in (batch.visual, batch.audio, batch.labels):
                h.update(array.tobytes())
    assert h.hexdigest() == expected


def test_generate_domain_and_split_sizes():
    spec = small_spec()
    domains = generate_benchmark(spec)
    assert [d.domain_id for d in domains] == ["D1", "D2", "D3"]
    for d in domains:
        n_total = d.train.n + d.test.n
        assert n_total == spec.num_classes * spec.samples_per_class
        assert d.train.labeled and d.test.labeled
        assert d.train.visual.shape[1] == spec.input_dim_visual
        assert d.train.audio.shape[1] == spec.input_dim_audio


def test_generate_no_shift_limit_makes_domains_interchangeable():
    # with transforms, noise and norm imbalance all off, every domain draws
    # the same points, and a briefly trained model transfers perfectly
    spec = small_spec(transform_strength=0.0, noise_sigma=0.0,
                      audio_norm_scale=1.0, samples_per_class=8)
    domains = generate_benchmark(spec)
    means = [d.train.visual.mean(axis=0) for d in domains]
    assert np.allclose(means[0], means[1]) and np.allclose(means[1], means[2])

    cfg = ExperimentConfig(benchmark=spec, aux_loss="none", iterations=400,
                           learning_rate=0.05, weight_decay=0.0,
                           source_index=0, target_index=1, seed=0)
    _, telemetry = run_experiment(cfg)
    assert telemetry.eval_accuracy("fused") == 1.0


def test_generate_prototypes_shared_across_domains():
    # transforms off but noise on: per-class means coincide across domains
    spec = small_spec(transform_strength=0.0, noise_sigma=0.2,
                      samples_per_class=200)
    domains = generate_benchmark(spec)
    for cls in range(spec.num_classes):
        per_domain = []
        for d in domains:
            rows = np.concatenate([
                d.train.visual[d.train.labels == cls],
                d.test.visual[d.test.labels == cls],
            ])
            per_domain.append(rows.mean(axis=0))
        spread = np.max(np.abs(per_domain[0] - per_domain[1]))
        assert spread < 5 * spec.noise_sigma / np.sqrt(200)


def test_generate_audio_norm_scale_inflates_norms_tenfold():
    spec = small_spec(audio_norm_scale=10.0, input_dim_audio=6,
                      samples_per_class=100)
    baseline = generate_benchmark(small_spec(audio_norm_scale=1.0,
                                             input_dim_audio=6,
                                             samples_per_class=100))
    scaled = generate_benchmark(spec)
    norm_base = np.linalg.norm(baseline[0].train.audio, axis=1).mean()
    norm_scaled = np.linalg.norm(scaled[0].train.audio, axis=1).mean()
    assert abs(norm_scaled / norm_base - 10.0) < 0.1


def test_generate_audio_scale_preserves_angles():
    a = generate_benchmark(small_spec(audio_norm_scale=1.0))
    b = generate_benchmark(small_spec(audio_norm_scale=10.0))
    x, y = a[0].train.audio, b[0].train.audio
    gram_x = (x / np.linalg.norm(x, axis=1, keepdims=True)) @ \
             (x / np.linalg.norm(x, axis=1, keepdims=True)).T
    gram_y = (y / np.linalg.norm(y, axis=1, keepdims=True)) @ \
             (y / np.linalg.norm(y, axis=1, keepdims=True)).T
    assert np.max(np.abs(gram_x - gram_y)) < 1e-9


def test_generate_rejects_invalid_spec():
    with pytest.raises(ConfigurationError):
        BenchmarkSpec(num_domains=1)
    with pytest.raises(ConfigurationError):
        BenchmarkSpec(num_classes=1)
    with pytest.raises(ConfigurationError):
        BenchmarkSpec(audio_norm_scale=0.0)


def test_spec_rejects_non_finite_floats_naming_the_field():
    for name in ("transform_strength", "noise_sigma", "audio_norm_scale"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError, match=name):
                BenchmarkSpec(**{name: value})


# ---------------------------------------------------------------------------
# splits


def rows(batch):
    return {tuple(r) for r in batch.visual}


def test_dg_split_multi_source_pools_all_but_target():
    domains = generate_benchmark(small_spec())
    pool, target_train, target_test = split_domains(domains, "dg-multi",
                                                    None, 2)
    assert batches_equal(pool, MultiModalBatch.concatenate(
        [domains[0].train, domains[1].train]))
    assert target_train is None
    assert batches_equal(target_test, domains[2].test)
    assert pool.n == domains[0].train.n + domains[1].train.n
    assert pool.labeled


def test_dg_split_two_domains_is_single_source():
    domains = generate_benchmark(small_spec(num_domains=2))
    pool, _, _ = split_domains(domains, "dg-multi", None, 1)
    assert batches_equal(pool, domains[0].train)
    single, _, _ = split_domains(domains, "dg-single", 0, 1)
    assert batches_equal(single, pool)


def test_dg_split_never_exposes_target_training_rows():
    domains = generate_benchmark(small_spec())
    pool, target_train, target_test = split_domains(domains, "dg-multi",
                                                    None, 0)
    assert not rows(domains[0].train) & rows(pool)
    assert target_train is None
    assert target_test.labeled  # evaluator needs labels


def test_uda_split_target_train_is_unlabeled():
    domains = generate_benchmark(small_spec())
    source, target_train, target_test = split_domains(domains, "uda", 0, 2)
    assert source.labeled
    assert not target_train.labeled
    assert target_test.labeled


def test_uda_split_train_test_disjoint():
    domains = generate_benchmark(small_spec())
    _, target_train, target_test = split_domains(domains, "uda", 1, 0)
    assert not rows(target_train) & rows(target_test)


def test_uda_split_rejects_source_equal_target():
    domains = generate_benchmark(small_spec())
    with pytest.raises(ConfigurationError):
        split_domains(domains, "uda", 1, 1)


def test_split_needs_two_domains():
    with pytest.raises(ConfigurationError, match="need at least 2 domains"):
        split_domains(generate_benchmark(small_spec())[:1], "dg-multi",
                      None, 0)


def test_split_rejects_bad_target_index():
    domains = generate_benchmark(small_spec())
    with pytest.raises(ConfigurationError):
        split_domains(domains, "dg-multi", None, 5)


@pytest.mark.parametrize("setting", ["dg-single", "dg-multi", "uda"])
def test_split_domains_keeps_target_labels_out_of_training(setting):
    domains = generate_benchmark(small_spec())
    pool, target_train, target_test = split_domains(domains, setting, 0, 2)
    assert not rows(domains[2].train) & rows(pool)
    assert pool.labeled and target_test.labeled
    assert batches_equal(target_test, domains[2].test)
    if setting == "uda":
        assert not target_train.labeled
        assert rows(target_train) == rows(domains[2].train)
    else:
        assert target_train is None
    if setting != "dg-multi":
        assert batches_equal(pool, domains[0].train)
        with pytest.raises(ConfigurationError, match="must differ"):
            split_domains(domains, setting, 1, 1)
        with pytest.raises(ConfigurationError, match="index 3 out of range"):
            split_domains(domains, setting, 3, 1)
    with pytest.raises(ConfigurationError, match="index -1 out of range"):
        split_domains(domains, setting, 0, -1)
    with pytest.raises(ConfigurationError, match="index 3 out of range"):
        split_domains(domains, setting, 0, 3)


def test_skewed_generated_spec_trains_every_class():
    # many classes at the fewest samples a spec allows: 3 train, 1 test each
    spec = small_spec(num_classes=20, samples_per_class=4)
    counts = [np.bincount(d.train.labels, minlength=20).min()
              for d in generate_benchmark(spec)]
    assert counts == [3] * spec.num_domains
    model, _ = run_experiment(ExperimentConfig(
        benchmark=spec, iterations=2, batch_size=4, checkpoint_average=1,
        hidden_dim=8, feature_dim=4))
    assert model.config.num_classes == spec.num_classes


# ---------------------------------------------------------------------------
# feature files


def test_feature_file_round_trip_labeled(tmp_path):
    rng = np.random.default_rng(3)
    batch = MultiModalBatch(rng.normal(size=(7, 4)), rng.normal(size=(7, 3)),
                            labels=rng.integers(0, 5, size=7))
    path = tmp_path / "D2_train.rnafeat"
    save_feature_file(batch, str(path))
    loaded = load_feature_file(str(path))
    assert batches_equal(batch, loaded)


def test_feature_file_round_trip_unlabeled(tmp_path):
    rng = np.random.default_rng(4)
    batch = MultiModalBatch(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
    path = tmp_path / "target.rnafeat"
    save_feature_file(batch, str(path))
    loaded = load_feature_file(str(path))
    assert not loaded.labeled
    assert np.array_equal(batch.audio, loaded.audio)


def test_feature_file_round_trip_is_lossless_at_64_bits(tmp_path):
    # adversarial values: denormals-adjacent, long decimals, negatives
    visual = np.array([[np.pi, -1.0 / 3.0], [1e-300, 2.0 ** 52]])
    audio = np.array([[np.e, -0.1], [7.0, 1e16 + 1.0]])
    batch = MultiModalBatch(visual, audio)
    path = tmp_path / "exact.rnafeat"
    save_feature_file(batch, str(path))
    loaded = load_feature_file(str(path))
    assert np.array_equal(loaded.visual, visual)
    assert np.array_equal(loaded.audio, audio)


def test_feature_file_header_names_format(tmp_path):
    # signed zero, the smallest subnormal, a non-terminating binary fraction,
    # the last exactly spaced integer and two decimal-exponent switch points
    visual = np.array([[-0.0, 5e-324], [2.0 ** 52, 1e16]])
    audio = np.array([[0.1], [1e22]])
    path = tmp_path / "pinned.rnafeat"
    save_feature_file(MultiModalBatch(visual, audio, labels=[3, 0]), path)
    assert path.read_bytes() == (b"RNAFEAT v1 2 2 1 1\n"
                                 b"-0.0 5e-324 0.1 3\n"
                                 b"4503599627370496.0 1e+16 1e+22 0\n")
    save_feature_file(MultiModalBatch(visual, audio), path)
    assert path.read_bytes() == (b"RNAFEAT v1 2 2 1 0\n"
                                 b"-0.0 5e-324 0.1\n"
                                 b"4503599627370496.0 1e+16 1e+22\n")


def repr_per_element_line(visual_row, audio_row, label=None):
    """One RNAFEAT data line by the reference formula: ``repr(float(x))``
    of every value, then the label."""
    fields = [repr(float(x)) for x in visual_row]
    fields += [repr(float(x)) for x in audio_row]
    if label is not None:
        fields.append(str(int(label)))
    return " ".join(fields)


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False,
                          allow_subnormal=True)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n=st.integers(1, 6), dim_v=st.integers(1, 4),
       dim_a=st.integers(1, 4), labeled=st.booleans())
def test_feature_file_lines_match_repr_per_element(tmp_path, data, n, dim_v,
                                                   dim_a, labeled):
    def matrix(dim):
        return np.array(data.draw(st.lists(
            st.lists(FINITE_FLOATS, min_size=dim, max_size=dim),
            min_size=n, max_size=n)), dtype=np.float64).reshape(n, dim)

    visual, audio = matrix(dim_v), matrix(dim_a)
    labels = (np.array(data.draw(st.lists(
        st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n, max_size=n)),
        dtype=np.int64) if labeled else None)
    path = tmp_path / "prop.rnafeat"
    save_feature_file(MultiModalBatch(visual, audio, labels), path)
    lines = path.read_text(encoding="ascii").split("\n")
    assert lines[0] == f"RNAFEAT v1 {n} {dim_v} {dim_a} {int(labeled)}"
    assert lines[-1] == ""
    assert lines[1:-1] == [
        repr_per_element_line(visual[i], audio[i],
                              labels[i] if labeled else None)
        for i in range(n)]
    loaded = load_feature_file(path)
    assert loaded.visual.tobytes() == visual.tobytes()
    assert loaded.audio.tobytes() == audio.tobytes()
    if labeled:
        assert loaded.labels.tobytes() == labels.tobytes()
    else:
        assert loaded.labels is None


@pytest.mark.parametrize("n, dim_v, dim_a", [(0, 2, 3), (2, 0, 3), (2, 3, 0)])
def test_save_feature_file_rejects_a_batch_the_format_cannot_hold(
        tmp_path, n, dim_v, dim_a):
    path = tmp_path / "empty.rnafeat"
    batch = MultiModalBatch(np.ones((n, dim_v)), np.ones((n, dim_a)))
    with pytest.raises(ConfigurationError, match="empty.rnafeat"):
        save_feature_file(batch, path)
    assert not path.exists()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n=st.integers(0, 3), dim_v=st.integers(0, 3),
       dim_a=st.integers(0, 3), labeled=st.booleans())
def test_every_feature_file_saved_loads_back_bitwise(tmp_path, data, n, dim_v,
                                                     dim_a, labeled):
    def matrix(dim):
        return np.array(data.draw(st.lists(FINITE_FLOATS, min_size=n * dim,
                                           max_size=n * dim)),
                        dtype=np.float64).reshape(n, dim)

    labels = (data.draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                                 min_size=n, max_size=n))
              if labeled else None)
    batch = MultiModalBatch(matrix(dim_v), matrix(dim_a), labels)
    path = tmp_path / "any.rnafeat"
    try:
        save_feature_file(batch, path)
    except ConfigurationError:
        assert min(n, dim_v, dim_a) == 0
        return
    loaded = load_feature_file(path)
    assert loaded.visual.tobytes() == batch.visual.tobytes()
    assert loaded.audio.tobytes() == batch.audio.tobytes()
    assert loaded.labeled == labeled
    if labeled:
        assert loaded.labels.tobytes() == batch.labels.tobytes()


def test_feature_file_rejects_truncation(tmp_path):
    rng = np.random.default_rng(5)
    batch = MultiModalBatch(rng.normal(size=(5, 3)), rng.normal(size=(5, 2)))
    path = tmp_path / "x.rnafeat"
    save_feature_file(batch, str(path))
    lines = path.read_text().splitlines(keepends=True)
    (tmp_path / "cut.rnafeat").write_text("".join(lines[:-2]))
    with pytest.raises(ParseError):
        load_feature_file(str(tmp_path / "cut.rnafeat"))


def test_feature_file_rejects_modality_pairing_mismatch(tmp_path):
    # a row with one float too few breaks the visual/audio pairing
    path = tmp_path / "broken.rnafeat"
    path.write_text("RNAFEAT v1 1 2 2 0\n1.0 2.0 3.0\n")
    with pytest.raises(ParseError):
        load_feature_file(str(path))


def test_feature_file_rejects_non_finite_values(tmp_path):
    path = tmp_path / "inf.rnafeat"
    path.write_text("RNAFEAT v1 2 1 1 0\n1.0 2.0\n1.0 inf\n")
    with pytest.raises(ParseError, match="line 3: non-finite value"):
        load_feature_file(str(path))


# a parse stops at the first line with an error; within a line the field
# count comes first, then the numbers, then their finiteness, then the label
@pytest.mark.parametrize("labeled, rows, line, message", [
    (0, ["1.0 inf", "1.0"], 2, "non-finite value"),
    (0, ["1.0 nan", "x 1.0"], 2, "non-finite value"),
    (1, ["1.0 -inf 0", "1.0 1.0 z"], 2, "non-finite value"),
    (1, ["1.0 1.0 z", "1.0 inf 0"], 2, "invalid label 'z'"),
    (1, ["1.0 1.0 0", "1.0 inf z"], 3, "non-finite value"),
    (1, ["1.0 1.0 0", "1.0 inf"], 3,
     "expected 3 fields (1 visual + 1 audio + 1 label), got 2 — "
     "visual/audio pairing broken"),
    (1, ["1.0 1e999 0", "inf x 0"], 2, "non-finite value"),
    (1, ["1.0 1.0 0", "inf x 0"], 3, "non-numeric value"),
], ids=["before-field-count", "before-non-numeric", "before-label",
        "label-before", "same-line-label", "same-line-field-count",
        "overflow-before-non-numeric", "same-line-non-numeric"])
def test_feature_file_reports_the_first_error_in_file_order(
        tmp_path, labeled, rows, line, message):
    path = tmp_path / "mixed.rnafeat"
    path.write_text(f"RNAFEAT v1 {len(rows)} 1 1 {labeled}\n"
                    + "".join(row + "\n" for row in rows))
    with pytest.raises(ParseError) as excinfo:
        load_feature_file(path)
    assert str(excinfo.value) == f"{path}: line {line}: {message}"


# int() and float() read "1_0" as 10; the format has no digit groups
@pytest.mark.parametrize("text, line", [
    ("RNAFEAT v1 1_0 2 2 1\n0.0 0.0 0.0 0.0 0\n", 1),
    ("RNAFEAT v1 2 1 1 0\n0.0 0.0\n1_0.5 1.0\n", 3),
    ("RNAFEAT v1 1 1 1 1\n0.0 0.0 1_1\n", 2),
], ids=["header", "value", "label"])
def test_feature_file_rejects_a_digit_group_naming_its_line(tmp_path, text,
                                                            line):
    path = tmp_path / "grouped.rnafeat"
    path.write_text(text)
    with pytest.raises(ParseError) as excinfo:
        load_feature_file(path)
    assert str(excinfo.value) == f"{path}: line {line}: unexpected '_'"


def test_feature_file_rejects_bad_header(tmp_path):
    path = tmp_path / "hdr.rnafeat"
    path.write_text("FEATURES v9 1 1 1 0\n0.0 0.0\n")
    with pytest.raises(ParseError):
        load_feature_file(str(path))


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("RNAFEAT v1 0 2 3 1\n", "invalid header values"),
    ("RNAFEAT v1 1 1 1 2\n0.0 0.0 0\n", "invalid header values"),
], ids=["empty", "no-rows", "labeled-flag-2"])
def test_feature_file_names_line_1_of_an_empty_file_or_invalid_header(
        tmp_path, text, message):
    path = tmp_path / "hdr.rnafeat"
    path.write_text(text)
    with pytest.raises(ParseError) as excinfo:
        load_feature_file(path)
    assert str(excinfo.value) == f"{path}: line 1: {message}"


def test_feature_file_rejects_trailing_rows(tmp_path):
    path = tmp_path / "extra.rnafeat"
    path.write_text("RNAFEAT v1 1 1 1 0\n0.0 0.0\n1.0 1.0\n")
    with pytest.raises(ParseError):
        load_feature_file(str(path))


def test_feature_file_error_reports_line_number(tmp_path):
    path = tmp_path / "lineno.rnafeat"
    path.write_text("RNAFEAT v1 2 1 1 0\n0.0 0.0\nnot-a-number 1.0\n")
    with pytest.raises(ParseError, match="line 3"):
        load_feature_file(str(path))


def test_feature_file_rejects_non_ascii_byte_naming_its_offset(tmp_path):
    path = tmp_path / "latin.rnafeat"
    path.write_bytes(b"RNAFEAT v1 1 1 1 0\n0.0 \xff.0\n")
    with pytest.raises(ParseError, match="byte 23"):
        load_feature_file(str(path))


def test_feature_file_rejects_label_too_large_for_int64(tmp_path):
    path = tmp_path / "huge.rnafeat"
    path.write_text("RNAFEAT v1 1 1 1 1\n0.0 0.0 99999999999999999999\n")
    with pytest.raises(ParseError, match="line 2"):
        load_feature_file(str(path))


# a valid labeled file: 3 rows of 2 visual + 2 audio floats and a label
VALID_FEATURE_BYTES = (
    b"RNAFEAT v1 3 2 2 1\n"
    b"0.5 -1.25 3.0 1e-07 0\n"
    b"-0.0 2.5 0.125 -7.75 1\n"
    b"1.0 1.0 -2.0 4.5 0\n")


def test_fuzz_seed_file_is_valid(tmp_path):
    path = tmp_path / "seed.rnafeat"
    path.write_bytes(VALID_FEATURE_BYTES)
    batch = load_feature_file(str(path))
    assert batch.n == 3 and batch.labeled
    assert np.array_equal(batch.labels, [0, 1, 0])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]),
              st.integers(min_value=0,
                          max_value=len(VALID_FEATURE_BYTES) - 1),
              st.binary(min_size=1, max_size=3)),
    min_size=1, max_size=4))
def test_feature_file_corruption_is_a_batch_or_a_parse_error(tmp_path,
                                                             edits):
    blob = bytearray(VALID_FEATURE_BYTES)
    for kind, at, chunk in edits:
        at = min(at, len(blob))
        if kind == "replace":
            blob[at:at + len(chunk)] = chunk
        elif kind == "insert":
            blob[at:at] = chunk
        else:
            del blob[at:at + len(chunk)]
    path = tmp_path / "fuzz.rnafeat"
    path.write_bytes(bytes(blob))
    try:
        batch = load_feature_file(str(path))
    except ParseError:
        return
    assert isinstance(batch, MultiModalBatch)
    assert np.all(np.isfinite(batch.visual)) and np.all(np.isfinite(batch.audio))


def test_feature_file_accepts_any_line_ending(tmp_path):
    loaded = []
    for name, newline in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        path = tmp_path / f"{name}.rnafeat"
        path.write_bytes(VALID_FEATURE_BYTES.replace(b"\n",
                                                     newline.encode()))
        loaded.append(load_feature_file(str(path)))
    assert all(batches_equal(batch, loaded[0]) for batch in loaded[1:])
