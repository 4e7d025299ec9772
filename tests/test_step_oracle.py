"""The training loop against a per-array reference step.

The reference below is the loop written the plain way: a fresh
``MultiModalBatch`` per step, one gradient dict per backward pass, target
encoder gradients added array by array, ``rna_loss_uda`` for the adaptation
term, and SGD walking the parameter dict.  The library loop runs on one flat
parameter/gradient/velocity vector instead; the arithmetic per element is the
same, so parameters and every telemetry row must agree bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from rnalign.data import BenchmarkSpec, MultiModalBatch, generate_benchmark
from rnalign.losses import (cosine_alignment_loss, hna_loss, norm_stats,
                            orthogonality_loss, rna_loss, rna_loss_uda)
from rnalign.model import (ModelConfig, encode, encode_backward, init_model,
                           model_backward, model_forward)
from rnalign.numerics import softmax_cross_entropy
from rnalign.training import ExperimentConfig, run_experiment

BENCH = BenchmarkSpec(num_domains=3, num_classes=4, input_dim_visual=6,
                      input_dim_audio=5, samples_per_class=12, seed=7)


def reference_run(config):
    """(parameters, batchnorm running stats, telemetry rows) of a run."""
    domains = generate_benchmark(config.benchmark)
    s, t = config.source_index, config.target_index
    target_train = None
    if config.setting == "dg-multi":
        pool = MultiModalBatch.concatenate(
            [d.train for i, d in enumerate(domains) if i != t])
    else:
        pool = domains[s].train
    if config.setting == "uda":
        target_train = domains[t].train.without_labels()
    model_seed, source_seed, target_seed = \
        np.random.SeedSequence(config.seed).spawn(3)
    sample = domains[0].train
    model = init_model(ModelConfig(
        sample.visual.shape[1], sample.audio.shape[1], config.hidden_dim,
        config.feature_dim, config.benchmark.num_classes, config.fusion_mode,
        batchnorm=config.aux_loss == "batchnorm-only"), model_seed)

    aux_fn = None
    if config.aux_loss == "hna":
        probe = pool.take(np.arange(min(config.batch_size, pool.n)))
        stats = norm_stats(encode(model, "visual", probe.visual)[0],
                           encode(model, "audio", probe.audio)[0])
        r = 0.5 * (stats.mean_norm_visual + stats.mean_norm_audio)
        aux_fn = lambda v, a: hna_loss(v, a, r)  # noqa: E731
    elif config.aux_loss != "none" and config.aux_loss != "batchnorm-only":
        aux_fn = {"rna": rna_loss, "cosine-align": cosine_alignment_loss,
                  "orthogonality": orthogonality_loss}[config.aux_loss]

    source_rng = np.random.default_rng(source_seed)
    target_rng = np.random.default_rng(target_seed)
    params = model.parameters()
    velocities = {name: np.zeros_like(p) for name, p in params.items()}
    lam = config.lambda_weight
    rows = []
    for it in range(config.iterations):
        batch = pool.take(source_rng.integers(0, pool.n,
                                              size=config.batch_size))
        fused, feat_v, feat_a, cache = model_forward(
            model, batch.visual, batch.audio, training=True,
            update_running=True)
        ce, grad_logits = softmax_cross_entropy(fused, batch.labels)
        aux_value, s_term, t_term = 0.0, None, None
        if aux_fn is not None:
            if target_train is not None:
                tgt = target_train.take(target_rng.integers(
                    0, target_train.n, size=config.batch_size))
                tgt_v, cache_tv = encode(model, "visual", tgt.visual)
                tgt_a, cache_ta = encode(model, "audio", tgt.audio)
                if config.aux_loss == "rna":
                    s_term, t_term = rna_loss_uda(feat_v, feat_a, tgt_v,
                                                  tgt_a)
                else:
                    s_term, t_term = aux_fn(feat_v, feat_a), aux_fn(tgt_v,
                                                                    tgt_a)
                aux_value = s_term.value + t_term.value
            else:
                s_term = aux_fn(feat_v, feat_a)
                aux_value = s_term.value
        norms_v = np.sqrt(np.sum(feat_v.features ** 2, axis=1))
        norms_a = np.sqrt(np.sum(feat_a.features ** 2, axis=1))
        mean_v, mean_a = float(norms_v.mean()), float(norms_a.mean())
        rows.append((it, mean_v, mean_a, mean_v - mean_a, mean_v / mean_a,
                     ce, aux_value))

        use_aux = lam != 0.0 and s_term is not None
        views = model_backward(cache, grad_logits,
                               lam * s_term.grad_visual if use_aux else None,
                               lam * s_term.grad_audio if use_aux else None)
        grads = {name: g.copy() for name, g in views.items()}
        if use_aux and t_term is not None:
            for enc_cache, g in ((cache_tv, t_term.grad_visual),
                                 (cache_ta, t_term.grad_audio)):
                enc_grads, _ = encode_backward(enc_cache, lam * g)
                for name, value in enc_grads.items():
                    grads[name] += value
        for name, p in params.items():
            v = velocities[name]
            v *= config.momentum
            v += grads[name]
            if config.weight_decay:
                v += config.weight_decay * p
            p -= config.learning_rate * v
    running = [state.running_mean.tobytes() + state.running_var.tobytes()
               for state in (model.batchnorm_visual, model.batchnorm_audio)
               if state is not None]
    return params, running, rows


CASES = [
    ("dg-single", "late", "rna", 1.0),
    ("dg-single", "late", "rna", 0.0),
    ("dg-single", "mid", "hna", 0.03),
    ("dg-single", "late", "cosine-align", 1.0),
    ("dg-single", "late", "none", 1.0),
    ("dg-single", "mid", "batchnorm-only", 1.0),
    ("dg-multi", "late", "rna", 1.0),
    ("dg-multi", "mid", "rna", 1.0),
    ("dg-multi", "late", "batchnorm-only", 1.0),
    ("uda", "late", "rna", 1.0),
    ("uda", "late", "rna", 0.0),
    ("uda", "mid", "rna", 1.0),
    ("uda", "late", "hna", 0.03),
    ("uda", "mid", "cosine-align", 1.0),
    ("uda", "late", "none", 1.0),
    ("uda", "late", "batchnorm-only", 1.0),
]


@pytest.mark.parametrize("setting,fusion,aux,lam", CASES)
def test_training_loop_matches_per_array_reference_bitwise(setting, fusion,
                                                           aux, lam):
    config = ExperimentConfig(
        benchmark=BENCH, setting=setting, fusion_mode=fusion, aux_loss=aux,
        lambda_weight=lam, iterations=30, batch_size=8, hidden_dim=16,
        feature_dim=8, checkpoint_average=3, seed=5,
        source_index=None if setting == "dg-multi" else 2, target_index=0)
    model, telemetry = run_experiment(config)
    params, running, rows = reference_run(config)

    assert list(model.parameters()) == list(params)
    for name, p in model.parameters().items():
        assert p.tobytes() == params[name].tobytes(), name
    assert running == [
        state.running_mean.tobytes() + state.running_var.tobytes()
        for state in (model.batchnorm_visual, model.batchnorm_audio)
        if state is not None]
    assert [dataclasses.astuple(r) for r in telemetry.iterations] == rows
