"""Unit tests for the two-stream model: init, fusion, batchnorm, checkpoints."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracle import (batchnorm_reference, eval_logits_reference,
                    finite_difference_grad, relative_error)

from rnalign.errors import ConfigurationError, ParseError
from rnalign.losses import AUDIO, VISUAL
from rnalign.model import (
    ModelConfig,
    TwoStreamModel,
    batchnorm_forward,
    encode_pair,
    encode_pair_backward,
    eval_logits,
    init_model,
    load_checkpoint,
    model_backward,
    model_forward,
    save_checkpoint,
)
from rnalign.data import MultiModalBatch
from rnalign.numerics import softmax, softmax_cross_entropy
from rnalign.training import snapshot_accuracies


def tiny_config(**overrides):
    base = dict(input_dim_visual=3, input_dim_audio=4, hidden_dim=6,
                feature_dim=5, num_classes=3)
    base.update(overrides)
    return ModelConfig(**base)


ENCODER_LAYERS = ("encoder_visual.0", "encoder_visual.1", "encoder_audio.0",
                  "encoder_audio.1")


def set_layer(model, name, weight, bias=0.0):
    """Write one layer's weight and bias through the parameter views."""
    params = model.parameters()
    params[name + ".weight"][...] = weight
    params[name + ".bias"][...] = bias


def make_identity_encoder_model(dim=3, num_classes=2, fusion_mode="late"):
    """All-equal dims with identity weights: both encoders map positive x
    to x."""
    cfg = ModelConfig(input_dim_visual=dim, input_dim_audio=dim,
                      hidden_dim=dim, feature_dim=dim,
                      num_classes=num_classes, fusion_mode=fusion_mode)
    model = init_model(cfg, seed=0)
    for name in ENCODER_LAYERS:
        set_layer(model, name, np.eye(dim))
    return model


def stock_model(fusion_mode, batchnorm, seed=21):
    """A model of the stock widths (24 and 24 inputs, 128 hidden, 64
    features, 8 classes) with every parameter and running statistic moved
    off its initial value."""
    model = init_model(ModelConfig(24, 24, fusion_mode=fusion_mode,
                                   batchnorm=batchnorm), seed)
    rng = np.random.default_rng(seed)
    model.flat += 0.1 * rng.normal(size=model.flat.size)
    if batchnorm:
        model.running[:, 0] = rng.normal(size=(2, 64))
        model.running[:, 1] = rng.uniform(0.5, 2.0, size=(2, 64))
    return model


# ---------------------------------------------------------------------------
# initialization


def test_init_same_seed_is_bitwise_identical():
    cfg = tiny_config()
    a = init_model(cfg, seed=42)
    b = init_model(cfg, seed=42)
    for name, pa in a.parameters().items():
        assert np.array_equal(pa, b.parameters()[name]), name


def test_init_different_seeds_differ():
    cfg = tiny_config()
    a = init_model(cfg, seed=0)
    b = init_model(cfg, seed=1)
    assert any(not np.array_equal(pa, b.parameters()[name])
               for name, pa in a.parameters().items())


def test_init_fan_in_scaling_halves_variance():
    # doubling the input width should halve the initial weight variance
    draws_narrow, draws_wide = [], []
    for seed in range(12):
        narrow = init_model(tiny_config(input_dim_visual=8, hidden_dim=64),
                            seed=seed)
        wide = init_model(tiny_config(input_dim_visual=16, hidden_dim=64),
                          seed=1000 + seed)
        draws_narrow.append(
            narrow.parameters()["encoder_visual.0.weight"].ravel())
        draws_wide.append(wide.parameters()["encoder_visual.0.weight"].ravel())
    var_narrow = np.concatenate(draws_narrow).var()
    var_wide = np.concatenate(draws_wide).var()
    assert abs(var_narrow / var_wide - 2.0) < 0.2


def test_init_biases_start_at_zero():
    model = init_model(tiny_config(), seed=3)
    for name, p in model.parameters().items():
        if name.endswith(".bias"):
            assert np.array_equal(p, np.zeros_like(p)), name


def test_init_rejects_bad_dimensions():
    with pytest.raises(ConfigurationError):
        init_model(tiny_config(feature_dim=0), seed=0)
    with pytest.raises(ConfigurationError):
        init_model(tiny_config(num_classes=1), seed=0)


# ---------------------------------------------------------------------------
# encode


def test_encode_identity_stack_passes_positive_inputs_through():
    model = make_identity_encoder_model(dim=3)
    x = np.array([[1.0, 2.0, 3.0], [0.5, 0.25, 4.0]])
    feats, _ = encode_pair(model, x, 2.0 * x)
    assert feats.shape == (2, 2, 3)
    assert np.array_equal(feats[0], x)
    assert np.array_equal(feats[1], 2.0 * x)


def test_encode_zero_weights_give_zero_features():
    model = init_model(tiny_config(), seed=0)
    for name in ("encoder_audio.0", "encoder_audio.1"):
        set_layer(model, name, 0.0)
    feats, _ = encode_pair(model, np.ones((3, 3)), np.ones((3, 4)))
    assert np.array_equal(feats[1], np.zeros((3, 5)))
    assert np.any(feats[0] != 0.0)


def test_encode_rejects_wrong_input_dim():
    model = init_model(tiny_config(), seed=0)
    with pytest.raises(ConfigurationError):
        encode_pair(model, np.zeros((2, 9)), np.zeros((2, 4)))
    with pytest.raises(ConfigurationError):
        encode_pair(model, np.zeros((2, 3)), np.zeros((3, 4)))


def test_encode_backward_matches_finite_differences():
    rng = np.random.default_rng(13)
    model = init_model(tiny_config(), seed=5)
    x_v, x_a = rng.normal(size=(3, 3)), rng.normal(size=(3, 4))
    proj = rng.normal(size=(2, 3, 5))
    _, cache = encode_pair(model, x_v, x_a)
    _, grads, _ = model.gradient()
    encode_pair_backward(cache, proj, add=False)
    params = model.parameters()

    def run():
        out, _ = encode_pair(model, x_v, x_a)
        return float(np.sum(proj * out))

    encoder_names = [name for name in params if name.startswith("encoder_")]
    assert len(encoder_names) == 8
    for name in encoder_names:
        p = params[name]

        def f(t, p=p):
            old = p.copy()
            p[...] = t
            val = run()
            p[...] = old
            return val

        fd = finite_difference_grad(f, p.copy())
        assert relative_error(grads[name], fd) < 1e-5, name


def test_encode_backward_add_accumulates_into_the_gradient():
    rng = np.random.default_rng(14)
    model = init_model(tiny_config(), seed=5)
    _, cache = encode_pair(model, rng.normal(size=(4, 3)),
                           rng.normal(size=(4, 4)))
    proj = rng.normal(size=(2, 4, 5))
    vector, _, _ = model.gradient()
    encode_pair_backward(cache, proj, add=False)
    once = vector.copy()
    encode_pair_backward(cache, proj)
    assert np.array_equal(vector, once + once)


# ---------------------------------------------------------------------------
# classify and batchnorm


def test_classify_zero_weights_give_uniform_softmax():
    model = init_model(tiny_config(), seed=0)
    set_layer(model, "classifier_visual", 0.0)
    logits = eval_logits(model, np.ones((4, 3)), np.ones((4, 4)))
    assert np.array_equal(logits[1], np.zeros((4, 3)))


def test_classify_identity_reproduces_one_hot_features():
    model = make_identity_encoder_model(dim=3, num_classes=3)
    set_layer(model, "classifier_visual", np.eye(3))
    feats = np.eye(3)
    logits = eval_logits(model, feats, np.zeros((3, 3)))
    assert np.array_equal(logits[1], feats)


def fresh_batchnorm(*shape):
    """Unit scale, zero shift and fresh running statistics (mean 0, var 1)
    for a (..., d) scale/shift ``shape``."""
    running = np.zeros(shape[:-1] + (2,) + shape[-1:])
    running[..., 1, :] = 1.0
    return np.ones(shape), np.zeros(shape), running


def test_batchnorm_training_mode_standardizes_batch():
    rng = np.random.default_rng(7)
    gamma, beta, running = fresh_batchnorm(5)
    x = rng.normal(loc=3.0, scale=2.0, size=(64, 5))
    y, _ = batchnorm_forward(x, gamma, beta, running, training=True)
    assert np.max(np.abs(y.mean(axis=0))) < 1e-9
    assert np.max(np.abs(y.var(axis=0) - 1.0)) < 1e-3  # epsilon effects


def test_batchnorm_eval_mode_is_batch_independent_affine():
    rng = np.random.default_rng(8)
    gamma, beta, running = fresh_batchnorm(4)
    # push some statistics into the running buffers
    for _ in range(5):
        batchnorm_forward(rng.normal(size=(32, 4)), gamma, beta, running,
                          training=True)
    x = rng.normal(size=(6, 4))
    y_full, _ = batchnorm_forward(x, gamma, beta, running, training=False)
    y_rows = np.vstack([
        batchnorm_forward(x[i:i + 1], gamma, beta, running, training=False)[0]
        for i in range(6)
    ])
    assert np.allclose(y_full, y_rows, atol=1e-12)


def test_batchnorm_running_statistics_change_only_in_training_mode():
    x = np.random.default_rng(0).normal(size=(8, 3))
    gamma, beta, running = fresh_batchnorm(3)
    before = running.tobytes()
    batchnorm_forward(x, gamma, beta, running, training=False)
    assert running.tobytes() == before
    batchnorm_forward(x, gamma, beta, running, training=True)
    assert not np.array_equal(running[0], np.zeros(3))
    assert not np.array_equal(running[1], np.ones(3))


@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("shape", [(7, 5), (2, 7, 5)],
                         ids=["stream", "stack"])
def test_batchnorm_forward_equals_the_fresh_temporary_reference(shape,
                                                                training):
    rng = np.random.default_rng(16)
    x = rng.normal(loc=2.0, size=shape)
    stats = shape[:-2] + shape[-1:]
    gamma, beta = rng.normal(size=stats), rng.normal(size=stats)
    running = np.stack([rng.normal(size=stats),
                        rng.uniform(0.5, 2.0, size=stats)], axis=-2)
    expected_running = running.copy()
    kept = x.tobytes()
    y, cache = batchnorm_forward(x, gamma, beta, running, training)
    y_ref, cache_ref = batchnorm_reference(x, gamma, beta, expected_running,
                                           training)
    assert y.tobytes() == y_ref.tobytes()
    assert running.tobytes() == expected_running.tobytes()
    # without ``out`` neither mode writes into its input
    assert x.tobytes() == kept
    if training:
        assert [a.tobytes() for a in cache] == [a.tobytes() for a in cache_ref]
        assert not np.shares_memory(cache[2], y)
    else:
        assert cache is None
        # evaluation into ``out=x`` gives the same bytes in place
        y_in_place, _ = batchnorm_forward(x, gamma, beta, running, False,
                                          out=x)
        assert y_in_place is x and x.tobytes() == y_ref.tobytes()


def test_training_forward_leaves_the_encoded_features_intact():
    # the auxiliary loss and the telemetry read cache.features, so
    # training-mode batchnorm must not normalize it in place
    model = stock_model("late", batchnorm=True)
    rng = np.random.default_rng(17)
    visual, audio = rng.normal(size=(32, 24)), rng.normal(size=(32, 24))
    features, _ = encode_pair(model, visual, audio)
    _, cache = model_forward(model, visual, audio)
    assert cache.features.tobytes() == features.tobytes()
    assert not np.shares_memory(cache.bn[2], cache.features)


# ---------------------------------------------------------------------------
# fusion


def late_logits(visual_bias, audio_bias):
    """eval_logits of a late-fusion model whose heads output only their
    biases."""
    classes = len(visual_bias)
    model = init_model(tiny_config(num_classes=classes), seed=0)
    set_layer(model, "classifier_visual", 0.0, visual_bias)
    set_layer(model, "classifier_audio", 0.0, audio_bias)
    return eval_logits(model, np.ones((1, 3)), np.ones((1, 4)))


def test_fuse_late_zero_audio_equals_visual():
    v = [1.0, -2.0, 0.5]
    fused, visual, audio = late_logits(v, [0.0] * 3)
    assert np.array_equal(fused, visual)
    assert np.array_equal(fused, [v])


def test_fuse_late_opposite_logits_cancel():
    fused, _, _ = late_logits([2.0, -1.0], [-2.0, 1.0])
    assert np.array_equal(fused, np.zeros((1, 2)))


def test_fuse_late_small_example():
    fused, _, _ = late_logits([1.0, 2.0], [3.0, -1.0])
    assert np.array_equal(fused, [[4.0, 1.0]])


def test_fuse_late_is_commutative():
    rng = np.random.default_rng(9)
    model = init_model(tiny_config(num_classes=4), seed=9)
    logits = eval_logits(model, rng.normal(size=(3, 3)),
                         rng.normal(size=(3, 4)))
    assert np.array_equal(logits[0], logits[1] + logits[2])
    assert np.array_equal(logits[0], logits[2] + logits[1])


def test_fuse_mid_zero_weights_give_uniform_prediction():
    cfg = tiny_config(fusion_mode="mid")
    model = init_model(cfg, seed=0)
    set_layer(model, "classifier_mid", 0.0)
    logits = eval_logits(model, np.ones((2, 3)), np.ones((2, 4)))
    assert np.array_equal(logits, np.zeros((3, 2, 3)))


def test_fuse_mid_visual_block_matches_visual_only_late_model():
    rng = np.random.default_rng(10)
    mid_model = make_identity_encoder_model(dim=5, num_classes=3,
                                            fusion_mode="mid")
    wv = rng.normal(size=(3, 5))
    set_layer(mid_model, "classifier_mid", np.hstack([wv, np.zeros((3, 5))]))
    # non-negative inputs pass the identity encoders unchanged
    visual = np.abs(rng.normal(size=(4, 5)))
    audio = np.abs(rng.normal(size=(4, 5)))
    kept = visual.copy(), audio.copy()
    fused, alone_v, alone_a = eval_logits(mid_model, visual, audio)
    assert np.allclose(alone_v, visual @ wv.T)
    assert np.allclose(fused, alone_v)
    # the audio half of the concatenation meets the zero block
    assert np.array_equal(alone_a, np.zeros((4, 3)))
    # the caller's inputs are left as they were
    assert np.array_equal(visual, kept[0]) and np.array_equal(audio, kept[1])


@pytest.mark.parametrize("n", [1, 7, 400])
@pytest.mark.parametrize("batchnorm", [False, True],
                         ids=["plain", "batchnorm"])
@pytest.mark.parametrize("fusion_mode", ["late", "mid"])
def test_eval_logits_equals_the_fresh_temporary_reference(fusion_mode,
                                                          batchnorm, n):
    model = stock_model(fusion_mode, batchnorm)
    rng = np.random.default_rng(n)
    visual = rng.normal(size=(n, 24))
    audio = 10.0 * rng.normal(size=(n, 24))
    state = model.flat.tobytes(), batchnorm and model.running.tobytes()
    logits = eval_logits(model, visual, audio)
    assert logits.shape == (3, n, 8)
    assert logits.tobytes() == \
        eval_logits_reference(model, visual, audio).tobytes()
    assert (model.flat.tobytes(), batchnorm and model.running.tobytes()) \
        == state


def test_eval_logits_builds_no_full_split_temporary():
    # stock widths, mid fusion and batchnorm over a 400-row split: besides
    # the encoder's hidden and feature stacks, evaluation needs one (N, 2d)
    # concatenation and the (3, N, C) logits; the zero-filled (3, N, 2d)
    # stack of all three concatenations is 1.2 MB on top
    model = stock_model("mid", batchnorm=True)
    c, n = model.config, 400
    rng = np.random.default_rng(18)
    visual, audio = rng.normal(size=(n, 24)), rng.normal(size=(n, 24))
    bound = 8 * n * (2 * c.hidden_dim + 2 * c.feature_dim
                     + 2 * c.feature_dim + 3 * c.num_classes)

    def peak(evaluate):
        evaluate(model, visual, audio)  # warm-up
        tracemalloc.start()
        try:
            evaluate(model, visual, audio)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(eval_logits) < bound < peak(eval_logits_reference)


# ---------------------------------------------------------------------------
# prediction


def test_predict_breaks_ties_toward_lowest_class():
    model = init_model(tiny_config(), seed=0)
    for name in ("classifier_visual", "classifier_audio"):
        set_layer(model, name, 0.0)
    batch = MultiModalBatch(np.ones((3, 3)), np.ones((3, 4)),
                            labels=np.zeros(3, int))
    assert snapshot_accuracies([model], batch) == [1.0, 1.0, 1.0]


def test_predict_picks_argmax():
    model = make_identity_encoder_model(dim=3, num_classes=3)
    set_layer(model, "classifier_visual", np.eye(3))
    set_layer(model, "classifier_audio", 0.0)
    batch = MultiModalBatch(np.array([[1.0, 5.0, 2.0]]), np.zeros((1, 3)),
                            labels=[1])
    assert snapshot_accuracies([model], batch)[0] == 1.0


def test_prediction_invariant_to_constant_logit_shift():
    # shifting every class's bias by the same constant changes no argmax
    rng = np.random.default_rng(11)
    model = init_model(tiny_config(), seed=6)
    visual, audio = rng.normal(size=(8, 3)), rng.normal(size=(8, 4))
    base = np.argmax(eval_logits(model, visual, audio)[0], axis=1)
    model.parameters()["classifier_visual.bias"][...] += 7.5
    model.parameters()["classifier_audio.bias"][...] -= 2.25
    assert np.array_equal(
        np.argmax(eval_logits(model, visual, audio)[0], axis=1), base)


def test_zeroed_audio_classifier_makes_fusion_visual_only():
    rng = np.random.default_rng(12)
    model = init_model(tiny_config(), seed=7)
    set_layer(model, "classifier_audio", 0.0)
    v = rng.normal(size=(10, 3))
    a = rng.normal(size=(10, 4))
    fused, visual_only, _ = eval_logits(model, v, a)
    assert np.allclose(fused, visual_only)
    assert np.array_equal(np.argmax(fused, axis=1),
                          np.argmax(visual_only, axis=1))


def test_predict_scores_are_probabilities():
    rng = np.random.default_rng(13)
    model = init_model(tiny_config(), seed=8)
    scores = softmax(eval_logits(model, rng.normal(size=(5, 3)),
                                 rng.normal(size=(5, 4)))[0])
    assert scores.shape == (5, 3)
    assert np.allclose(scores.sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# full-model gradients


def full_model_grad_check(fusion_mode, batchnorm, seed, tol=1e-4):
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(input_dim_visual=4, input_dim_audio=3, hidden_dim=6,
                      feature_dim=5, num_classes=3, fusion_mode=fusion_mode,
                      batchnorm=batchnorm)
    model = init_model(cfg, seed=seed)
    x_v = rng.normal(size=(4, 4))
    x_a = rng.normal(size=(4, 3))
    labels = rng.integers(0, 3, size=4)

    fused, cache = model_forward(model, x_v, x_a)
    _, grad_logits = softmax_cross_entropy(fused, labels)
    bundle = model_backward(cache, grad_logits)

    params = model.parameters()
    for name, p in params.items():

        def f(t, p=p):
            old = p.copy()
            p[...] = t
            out, _ = model_forward(model, x_v, x_a)
            loss, _ = softmax_cross_entropy(out, labels)
            p[...] = old
            return loss

        fd = finite_difference_grad(f, p.copy())
        assert relative_error(bundle[name], fd) < tol, (fusion_mode, batchnorm,
                                                        name)


def test_full_model_gradients_late_fusion():
    full_model_grad_check("late", batchnorm=False, seed=0)


def test_full_model_gradients_mid_fusion():
    full_model_grad_check("mid", batchnorm=False, seed=1)


def test_full_model_gradients_late_fusion_with_batchnorm():
    full_model_grad_check("late", batchnorm=True, seed=2)


def test_full_model_gradients_mid_fusion_with_batchnorm():
    full_model_grad_check("mid", batchnorm=True, seed=3)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(9)
    for fusion_mode, batchnorm in (("late", False), ("mid", True)):
        model = init_model(tiny_config(fusion_mode=fusion_mode,
                                       batchnorm=batchnorm), seed=9)
        path = tmp_path / f"model-{fusion_mode}.rna"
        if batchnorm:
            model.running[:, 0] = rng.normal(size=(2, 5))
            model.running[:, 1] = rng.uniform(size=(2, 5))
        save_checkpoint(model, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.config.fusion_mode == fusion_mode
        for name, p in model.parameters().items():
            assert np.array_equal(p, loaded.parameters()[name]), name
        if batchnorm:
            # the body ends with visual mean, visual var, audio mean, audio var
            running = model.running
            assert path.read_bytes()[-8 * 20:] == np.concatenate(
                [running[0, 0], running[0, 1],
                 running[1, 0], running[1, 1]]).tobytes()
            assert loaded.running.tobytes() == running.tobytes()
        else:
            assert loaded.running is None


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.rna"
    path.write_bytes(b"NOPE" + bytes(28))
    with pytest.raises(ParseError):
        load_checkpoint(str(path))


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_checkpoint_that_cannot_be_read_is_a_parse_error_naming_it(tmp_path,
                                                                    kind):
    path = tmp_path / "model.rna"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(ParseError,
                       match=re.escape(f"cannot read {path}: ")):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    model = init_model(tiny_config(), seed=10)
    path = tmp_path / "model.rna"
    save_checkpoint(model, str(path))
    blob = path.read_bytes()
    (tmp_path / "short.rna").write_bytes(blob[:len(blob) - 16])
    with pytest.raises(ParseError):
        load_checkpoint(str(tmp_path / "short.rna"))


def test_checkpoint_rejects_a_truncated_header_naming_its_length(tmp_path):
    path = tmp_path / "short.rna"
    path.write_bytes(b"RNA1" + bytes(12))
    with pytest.raises(ParseError) as excinfo:
        load_checkpoint(str(path))
    assert str(excinfo.value) == f"{path}: truncated header at byte 16"


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    model = init_model(tiny_config(), seed=11)
    path = tmp_path / "model.rna"
    save_checkpoint(model, str(path))
    (tmp_path / "long.rna").write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ParseError):
        load_checkpoint(str(tmp_path / "long.rna"))


def test_checkpoint_rejects_out_of_range_flags(tmp_path):
    # header u32 fields 5 (fusion) and 6 (batchnorm) start at bytes 24, 28
    for batchnorm, field, offset in ((False, 5, 24), (True, 6, 28)):
        model = init_model(tiny_config(batchnorm=batchnorm), seed=12)
        path = tmp_path / "model.rna"
        save_checkpoint(model, str(path))
        blob = bytearray(path.read_bytes())
        for bad in (2, 0xFFFFFFFF):
            blob[4 + 4 * field:8 + 4 * field] = bad.to_bytes(4, "little")
            path.write_bytes(bytes(blob))
            with pytest.raises(ParseError, match=f"byte {offset}"):
                load_checkpoint(str(path))


def test_checkpoint_rejects_corrupt_header_dimensions(tmp_path):
    model = init_model(tiny_config(), seed=13)
    path = tmp_path / "model.rna"
    save_checkpoint(model, str(path))
    blob = bytearray(path.read_bytes())
    # u32 header fields 0-4: visual and audio input, hidden, feature, classes
    for fields, value in (((0, 1, 2, 3, 4), 0xFFFFFFFF), ((2, 3), 2 ** 31),
                          ((2, 3), 100000)):
        bad = bytearray(blob)
        for field in fields:
            bad[4 + 4 * field:8 + 4 * field] = value.to_bytes(4, "little")
        path.write_bytes(bytes(bad))
        with pytest.raises(ParseError, match=f"truncated at byte {len(blob)}"):
            load_checkpoint(str(path))
    for field, at in ((0, 4), (3, 16), (4, 20)):
        bad = bytearray(blob)
        bad[4 + 4 * field:8 + 4 * field] = bytes(4)
        path.write_bytes(bytes(bad))
        with pytest.raises(ParseError, match=f"byte {at}"):
            load_checkpoint(str(path))


def saved_with_body_values(tmp_path, model, values):
    """Save ``model``, then overwrite body value i (at byte 32 + 8 i; running
    follows flat) with ``values[i]``, which ``save_checkpoint`` refuses to
    write itself.  Returns the path."""
    path = tmp_path / "model.rna"
    save_checkpoint(model, str(path))
    blob = bytearray(path.read_bytes())
    for i, value in values.items():
        blob[32 + 8 * i:40 + 8 * i] = np.float64(value).astype("<f8").tobytes()
    path.write_bytes(bytes(blob))
    return path


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_a_non_finite_value_naming_its_byte(tmp_path,
                                                               value):
    model = init_model(tiny_config(batchnorm=True), seed=15)
    # running[s, k, j] is body value size + 5 (2 s + k) + j
    size = model.flat.size
    values = {size + 5 + 1: -5.0,  # reported only when every value is finite
              size + 2 * 5 + 2: value}
    for at in (32 + 8 * (size + 2 * 5 + 2), 32 + 8 * 7):
        path = saved_with_body_values(tmp_path, model, values)
        with pytest.raises(ParseError,
                           match=f"non-finite value at byte {at}$"):
            load_checkpoint(str(path))
        values[7] = value


def test_checkpoint_rejects_a_negative_running_variance_naming_its_byte(
        tmp_path):
    model = init_model(tiny_config(batchnorm=True), seed=16)
    size = model.flat.size
    path = saved_with_body_values(tmp_path, model, {
        size + 3 * 5 + 2: -1.0,
        size + 5 + 0: -5.0,  # visual variance of feature 0: first
        size + 3: -2.0})  # a negative mean is fine
    at = 32 + 8 * (model.flat.size + 5)
    with pytest.raises(ParseError,
                       match=f"negative running variance at byte {at}$"):
        load_checkpoint(str(path))
    model.running[0, 0, 3] = -2.0
    model.running[0, 1, 0] = 5.0
    model.running[1, 1, 4] = -0.0
    save_checkpoint(model, str(path))
    assert load_checkpoint(str(path)).running.tobytes() == \
        model.running.tobytes()


@pytest.mark.parametrize("array, index, value, message", [
    ("flat", 3, np.nan, "non-finite value"),
    ("flat", -1, np.inf, "non-finite value"),
    ("running", (0, 0, 1), -np.inf, "non-finite value"),
    ("running", (1, 1, 1), np.nan, "non-finite value"),
    ("running", (0, 1, 0), -1.0, "negative running variance"),
], ids=["nan-flat", "inf-flat-last", "-inf-mean", "nan-var", "negative-var"])
def test_save_checkpoint_refuses_what_the_reader_rejects_before_writing(
        tmp_path, array, index, value, message):
    model = init_model(ModelConfig(3, 4, 5, 2, 2, batchnorm=True), seed=0)
    getattr(model, array)[index] = value
    path = tmp_path / "model.rna"
    with pytest.raises(ConfigurationError) as excinfo:
        save_checkpoint(model, str(path))
    assert str(excinfo.value) == f"{path}: cannot save a {message}"
    assert not path.exists()


def checkpoint_bytes(tmp_path, **overrides):
    base = dict(input_dim_visual=2, input_dim_audio=3, hidden_dim=2,
                feature_dim=2, num_classes=2)
    base.update(overrides)
    model = init_model(ModelConfig(**base), seed=14)
    if model.config.batchnorm:
        model.running[:, 1] = [[0.5, 2.0], [3.0, 0.25]]
    path = tmp_path / "base.rna"
    save_checkpoint(model, str(path))
    return path.read_bytes()


CHECKPOINT_KINDS = ({}, {"fusion_mode": "mid"},
                    {"fusion_mode": "mid", "batchnorm": True})


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(CHECKPOINT_KINDS), edits=st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]),
              # mostly in the 32-byte magic and header, sometimes the body
              st.one_of(st.integers(0, 40), st.integers(0, 700)),
              st.binary(min_size=1, max_size=4)),
    max_size=4))
def test_checkpoint_corruption_loads_or_is_a_parse_error(tmp_path, kind,
                                                        edits):
    blob = bytearray(checkpoint_bytes(tmp_path, **kind))
    for edit, at, chunk in edits:
        at = min(at, len(blob))
        if edit == "replace":
            blob[at:at + len(chunk)] = chunk
        elif edit == "insert":
            blob[at:at] = chunk
        else:
            del blob[at:at + len(chunk)]
    path = tmp_path / "fuzz.rna"
    path.write_bytes(bytes(blob))
    try:
        model = load_checkpoint(str(path))
    except ParseError as exc:
        assert re.search(r"byte \d+", str(exc)), exc
        return
    # whatever loads holds only values the model can use, and re-saves to
    # the same bytes, untouched files included
    assert np.isfinite(model.flat).all()
    if model.running is not None:
        assert np.isfinite(model.running).all()
        assert (model.running[:, 1] >= 0).all()
    save_checkpoint(model, str(tmp_path / "resaved.rna"))
    assert (tmp_path / "resaved.rna").read_bytes() == bytes(blob)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(CHECKPOINT_KINDS), data=st.data())
def test_every_checkpoint_saved_loads_back_bitwise(tmp_path, kind, data):
    # a checkpoint the writer accepts is one the reader loads, bit for bit
    model = init_model(tiny_config(**kind), seed=17)
    arrays = [model.flat] + ([] if model.running is None
                             else [model.running.reshape(-1)])
    for array in arrays:
        for i in data.draw(st.lists(st.integers(0, array.size - 1),
                                    max_size=3)):
            array[i] = data.draw(st.floats(allow_nan=True,
                                           allow_infinity=True))
    path = tmp_path / "model.rna"
    path.unlink(missing_ok=True)
    try:
        save_checkpoint(model, str(path))
    except ConfigurationError:
        assert not path.exists()
        return
    loaded = load_checkpoint(str(path))
    assert loaded.config == model.config
    assert loaded.flat.tobytes() == model.flat.tobytes()
    if model.running is None:
        assert loaded.running is None
    else:
        assert loaded.running.tobytes() == model.running.tobytes()


# ---------------------------------------------------------------------------
# the flat parameter and gradient vectors


def test_parameters_are_views_of_one_vector_in_checkpoint_order(tmp_path):
    model = init_model(tiny_config(fusion_mode="mid", batchnorm=True), seed=4)
    params = model.parameters()
    assert np.array_equal(
        np.concatenate([p.ravel() for p in params.values()]), model.flat)
    path = tmp_path / "model.rna"
    save_checkpoint(model, str(path))
    assert path.read_bytes()[32:32 + 8 * model.flat.size] == \
        model.flat.astype("<f8").tobytes()
    model.flat[-23:-20] = 7.0  # before the 4 x 5 batchnorm scales/shifts
    assert np.array_equal(params["classifier_mid.bias"], [7.0] * 3)
    twin = model.clone()
    twin.flat[...] = 0.0
    twin.running[1, 1] = 3.0
    assert np.all(params["classifier_mid.bias"] == 7.0)
    assert np.all(model.running[:, 1] == 1.0)


def test_model_backward_overwrites_every_gradient_entry():
    rng = np.random.default_rng(6)
    for fusion_mode in ("late", "mid"):
        for batchnorm in (False, True):
            model = init_model(tiny_config(fusion_mode=fusion_mode,
                                           batchnorm=batchnorm), seed=6)
            vector, _, _ = model.gradient()
            vector[...] = np.nan  # leftovers of an earlier step
            fused, cache = model_forward(
                model, rng.normal(size=(4, 3)), rng.normal(size=(4, 4)))
            _, grad_logits = softmax_cross_entropy(fused, [0, 1, 2, 0])
            grads = model_backward(cache, grad_logits)
            assert list(grads) == list(model.parameters())
            assert np.all(np.isfinite(vector)), (fusion_mode, batchnorm)
            if fusion_mode == "mid":
                # nothing reaches the per-modality heads
                for head in ("classifier_visual", "classifier_audio"):
                    assert np.array_equal(grads[head + ".weight"],
                                          np.zeros((3, 5)))
                    assert np.array_equal(grads[head + ".bias"], np.zeros(3))


def test_pair_views_alias_flat_and_gradient_in_checkpoint_order():
    model = init_model(tiny_config(fusion_mode="mid", batchnorm=True), seed=7)
    _, grads, grad_pairs = model.gradient()
    for stacked, named in ((model.pairs, model.parameters()),
                           (grad_pairs, grads)):
        assert list(stacked) == ["encoder.0.bias", "encoder.1.weight",
                                 "encoder.1.bias", "classifier.weight",
                                 "classifier.bias", "batchnorm.gamma",
                                 "batchnorm.beta"]
        for family, pair in stacked.items():
            head, _, field = family.partition(".")
            visual = named[f"{head}_{VISUAL}.{field}"]
            audio = named[f"{head}_{AUDIO}.{field}"]
            assert pair.shape == (2,) + visual.shape, family
            # views, not copies: a write through the pair lands in the
            # named arrays, visual row first
            pair[0] = 1.5
            pair[1] = -2.5
            assert np.all(visual == 1.5) and np.all(audio == -2.5), family
    params = model.parameters()
    assert np.array_equal(
        np.concatenate([p.ravel() for p in params.values()]), model.flat)
    vector, grads, _ = model.gradient()
    assert np.array_equal(
        np.concatenate([g.ravel() for g in grads.values()]), vector)
    # the batchnorm scale and shift are the pair views of flat
    model.pairs["batchnorm.gamma"][1] = 4.0
    assert np.all(params["batchnorm_audio.gamma"] == 4.0)
    assert np.all(params["batchnorm_visual.gamma"] == 1.5)


def test_pair_views_of_a_strided_vector_alias_its_named_views():
    config = tiny_config(fusion_mode="mid", batchnorm=True)
    size = init_model(config, seed=0).flat.size
    base = np.arange(2.0 * size)
    for flat in (base[::2], base[::-2]):
        model = TwoStreamModel(config, flat)
        params = model.parameters()
        for family, pair in model.pairs.items():
            head, _, field = family.partition(".")
            for s, modality in enumerate((VISUAL, AUDIO)):
                named = params[f"{head}_{modality}.{field}"]
                assert np.shares_memory(named, base), family
                assert np.array_equal(pair[s], named), (family, modality)


def test_model_rejects_state_arrays_of_the_wrong_shape_or_dtype():
    config = tiny_config(batchnorm=True)
    size = init_model(config, seed=0).flat.size
    for flat, running in ((np.zeros(size + 1), None),
                          (np.zeros(size, dtype=np.float32), None),
                          (None, np.zeros((2, 5))),
                          (None, np.zeros((2, 2, 4))),
                          (None, np.zeros((2, 2, 5), dtype=np.float32))):
        with pytest.raises(ConfigurationError):
            TwoStreamModel(config, flat, running)
    with pytest.raises(ConfigurationError):
        TwoStreamModel(tiny_config(), running=np.zeros((2, 2, 5)))


def test_stacked_batchnorm_matches_per_stream_batchnorm():
    rng = np.random.default_rng(15)
    gamma = rng.normal(size=(2, 4))
    beta = rng.normal(size=(2, 4))
    _, _, running = fresh_batchnorm(2, 4)
    singles = [running[s].copy() for s in (0, 1)]
    x = rng.normal(size=(2, 6, 4))
    y, _ = batchnorm_forward(x, gamma, beta, running, training=True)
    for s, single in enumerate(singles):
        y_s, _ = batchnorm_forward(x[s], gamma[s], beta[s], single,
                                   training=True)
        assert y_s.tobytes() == y[s].tobytes()
        assert single.tobytes() == running[s].tobytes()
