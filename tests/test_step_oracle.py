"""The training loop against an independent per-stream reference.

The reference below is the two-stream network written the plain way, one
stream at a time, out of validated single-layer primitives defined here:
``linear_forward``/``linear_backward`` and the ReLU pair for each encoder and
head, per-stream batchnorm, the auxiliary losses spelled out per modality, a
fresh ``MultiModalBatch`` and one ``integers`` draw per step, and SGD walking
the parameter dict.  None of it touches the library's stacked (2, N, .) code
path.  The library runs both streams as one stack on one flat
parameter/gradient/velocity vector; the arithmetic per element is the same,
so parameters, running statistics, every telemetry row and every evaluation
must agree bit for bit.  The primitives' own unit tests are in
``test_numerics.py``.
"""

import numpy as np
import pytest

from rnalign.data import BenchmarkSpec, MultiModalBatch, generate_benchmark
from rnalign.errors import ConfigurationError
from rnalign.model import ModelConfig, init_model
from rnalign.numerics import softmax, softmax_cross_entropy
from rnalign.training import ExperimentConfig, run_experiment

BENCH = BenchmarkSpec(num_domains=3, num_classes=4, input_dim_visual=6,
                      input_dim_audio=5, samples_per_class=12, seed=7)
# equal input widths: layer 0's weights then have the same shape per stream
BENCH_EQUAL_DIMS = BenchmarkSpec(num_domains=3, num_classes=4,
                                 input_dim_visual=5, input_dim_audio=5,
                                 samples_per_class=12, seed=7)

STREAMS = ("visual", "audio")
BN_MOMENTUM, BN_EPS = 0.1, 1e-5


# ---------------------------------------------------------------------------
# single-layer primitives, each forward returning the cache its backward reads


class LinearLayerParams:
    """Parameters of one fully connected layer: weight (out x in), bias (out,)."""

    def __init__(self, weight, bias):
        self.weight = np.asarray(weight, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ConfigurationError("weight must be 2-D (out x in)")
        if self.bias.shape != (self.weight.shape[0],):
            raise ConfigurationError(
                f"bias shape {self.bias.shape} does not match weight rows "
                f"{self.weight.shape[0]}")

    @property
    def out_dim(self):
        return self.weight.shape[0]

    @property
    def in_dim(self):
        return self.weight.shape[1]


def linear_forward(params, x):
    """Affine map y = x @ W.T + b.

    Returns (output, cache); the cache feeds ``linear_backward``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise ConfigurationError(
            f"linear_forward: input shape {x.shape}, expected (N, {params.in_dim})")
    y = x @ params.weight.T
    y += params.bias
    return y, (params, x)


def linear_backward(cache, grad_output):
    """Backward pass of ``linear_forward``.

    Returns ({'weight': grad, 'bias': grad}, grad_input).
    """
    params, x = cache
    g = np.asarray(grad_output, dtype=np.float64)
    if g.shape != (x.shape[0], params.out_dim):
        raise ConfigurationError(
            f"linear_backward: grad_output shape {g.shape} does not match the "
            f"cached forward call (expected {(x.shape[0], params.out_dim)})")
    return {"weight": g.T @ x, "bias": g.sum(axis=0)}, g @ params.weight


def relu_forward(x):
    """Elementwise max(0, x).  Returns (output, cache)."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0), x


def relu_backward(cache, grad_output):
    """Mask grad_output by positivity of the cached input.

    The subgradient at exactly 0 is defined as 0.
    """
    g = np.asarray(grad_output, dtype=np.float64)
    if g.shape != cache.shape:
        raise ConfigurationError(
            f"relu_backward: grad shape {g.shape} != cached input {cache.shape}")
    return g * (cache > 0.0)


def layer(params, name):
    return LinearLayerParams(params[name + ".weight"], params[name + ".bias"])


# ---------------------------------------------------------------------------
# one stream at a time


def ref_encode(params, modality, x):
    h0, lin0 = linear_forward(layer(params, f"encoder_{modality}.0"), x)
    a0, relu0 = relu_forward(h0)
    f, lin1 = linear_forward(layer(params, f"encoder_{modality}.1"), a0)
    return f, (modality, lin0, relu0, lin1)


def ref_encode_backward(cache, g):
    modality, lin0, relu0, lin1 = cache
    d1, g = linear_backward(lin1, g)
    d0, _ = linear_backward(lin0, relu_backward(relu0, g))
    return {f"encoder_{modality}.1.weight": d1["weight"],
            f"encoder_{modality}.1.bias": d1["bias"],
            f"encoder_{modality}.0.weight": d0["weight"],
            f"encoder_{modality}.0.bias": d0["bias"]}


def ref_batchnorm(params, running, modality, x, training):
    gamma = params[f"batchnorm_{modality}.gamma"]
    beta = params[f"batchnorm_{modality}.beta"]
    if training:
        mean, var = x.mean(axis=0), x.var(axis=0)
        stats = running[modality]
        stats[0] = (1.0 - BN_MOMENTUM) * stats[0] + BN_MOMENTUM * mean
        stats[1] = (1.0 - BN_MOMENTUM) * stats[1] + BN_MOMENTUM * var
    else:
        mean, var = running[modality]
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean) * inv_std
    return gamma * xhat + beta, (modality, gamma, inv_std, xhat)


def ref_batchnorm_backward(cache, g, grads):
    modality, gamma, inv_std, xhat = cache
    n = g.shape[0]
    grads[f"batchnorm_{modality}.gamma"] = (g * xhat).sum(axis=0)
    grads[f"batchnorm_{modality}.beta"] = g.sum(axis=0)
    dxhat = g * gamma
    return (inv_std / n) * (n * dxhat - dxhat.sum(axis=0)
                            - xhat * (dxhat * xhat).sum(axis=0))


def ref_forward(params, running, config, x_v, x_a, training):
    """(fused logits, {stream: features}, cache)."""
    feats, enc = {}, {}
    for modality, x in zip(STREAMS, (x_v, x_a)):
        feats[modality], enc[modality] = ref_encode(params, modality, x)
    heads_in, bn = dict(feats), {}
    if config.batchnorm:
        for modality in STREAMS:
            heads_in[modality], bn[modality] = ref_batchnorm(
                params, running, modality, feats[modality], training)
    if config.fusion_mode == "late":
        logits, lin = {}, {}
        for modality in STREAMS:
            logits[modality], lin[modality] = linear_forward(
                layer(params, f"classifier_{modality}"), heads_in[modality])
        fused = logits["visual"] + logits["audio"]
    else:
        concat = np.concatenate([heads_in["visual"], heads_in["audio"]],
                                axis=1)
        fused, lin = linear_forward(layer(params, "classifier_mid"), concat)
    return fused, feats, (enc, bn, lin)


def ref_backward(params, config, cache, grad_logits, aux_grads):
    enc, bn, lin = cache
    grads = {}
    g_feat = {}
    if config.fusion_mode == "late":
        for modality in STREAMS:
            d, g_feat[modality] = linear_backward(lin[modality], grad_logits)
            grads[f"classifier_{modality}.weight"] = d["weight"]
            grads[f"classifier_{modality}.bias"] = d["bias"]
    else:
        d, g_concat = linear_backward(lin, grad_logits)
        grads["classifier_mid.weight"] = d["weight"]
        grads["classifier_mid.bias"] = d["bias"]
        half = config.feature_dim
        g_feat = {"visual": g_concat[:, :half], "audio": g_concat[:, half:]}
        for modality in STREAMS:
            for part in ("weight", "bias"):
                name = f"classifier_{modality}.{part}"
                grads[name] = np.zeros_like(params[name])
    for modality in STREAMS:
        g = g_feat[modality]
        if config.batchnorm:
            g = ref_batchnorm_backward(bn[modality], g, grads)
        if aux_grads is not None:
            g = g + aux_grads[modality]
        grads.update(ref_encode_backward(enc[modality], g))
    return grads


# ---------------------------------------------------------------------------
# the auxiliary losses, per modality


def row_norms(f):
    return np.sqrt(np.sum(f * f, axis=1))


def unit_rows(f, norms):
    return f / np.where(norms > 0.0, norms, 1.0)[:, None]


def ref_rna(fv, fa):
    nv, na = row_norms(fv), row_norms(fa)
    sum_v, sum_a = float(nv.sum()), float(na.sum())
    rho = sum_v / sum_a
    return ((rho - 1.0) ** 2,
            {"visual": 2.0 * (rho - 1.0) / sum_a * unit_rows(fv, nv),
             "audio": -2.0 * (rho - 1.0) * rho / sum_a * unit_rows(fa, na)})


def ref_hna(fv, fa, r):
    nv, na = row_norms(fv), row_norms(fa)
    n = fv.shape[0]
    mean_v, mean_a = float(nv.mean()), float(na.mean())
    return ((mean_v - r) ** 2 + (mean_a - r) ** 2,
            {"visual": (2.0 * (mean_v - r) / n) * unit_rows(fv, nv),
             "audio": (2.0 * (mean_a - r) / n) * unit_rows(fa, na)})


def ref_cosine(fv, fa, orthogonal):
    nv, na = row_norms(fv), row_norms(fa)
    n = fv.shape[0]
    cos = np.clip(np.sum(fv * fa, axis=1) / (nv * na), -1.0, 1.0)
    if orthogonal:
        value, coeff = float(np.mean(cos ** 2)), 2.0 * cos / n
    else:
        value, coeff = float(np.mean(1.0 - cos)), np.full(n, -1.0 / n)
    c = coeff[:, None]
    return value, {
        "visual": c * (fa / (nv * na)[:, None] - (cos / nv ** 2)[:, None] * fv),
        "audio": c * (fv / (nv * na)[:, None] - (cos / na ** 2)[:, None] * fa)}


# ---------------------------------------------------------------------------
# the reference run


def ref_accuracy(scores, labels):
    return float(np.mean(np.argmax(scores, axis=1) == labels))


def reference_run(config):
    """(parameters, running stats, telemetry rows, evals) of a run."""
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
    model_config = ModelConfig(
        sample.visual.shape[1], sample.audio.shape[1], config.hidden_dim,
        config.feature_dim, config.benchmark.num_classes, config.fusion_mode,
        batchnorm=config.aux_loss == "batchnorm-only")
    params = {name: p.copy() for name, p in
              init_model(model_config, model_seed).parameters().items()}
    d = config.feature_dim
    running = {m: [np.zeros(d), np.ones(d)] for m in STREAMS}

    aux_fn = None
    if config.aux_loss == "hna":
        probe = pool.take(np.arange(min(config.batch_size, pool.n)))
        fv, _ = ref_encode(params, "visual", probe.visual)
        fa, _ = ref_encode(params, "audio", probe.audio)
        r = 0.5 * (float(np.mean(row_norms(fv)))
                   + float(np.mean(row_norms(fa))))
        aux_fn = lambda v, a: ref_hna(v, a, r)  # noqa: E731
    elif config.aux_loss == "rna":
        aux_fn = ref_rna
    elif config.aux_loss in ("cosine-align", "orthogonality"):
        orthogonal = config.aux_loss == "orthogonality"
        aux_fn = lambda v, a: ref_cosine(v, a, orthogonal)  # noqa: E731

    source_rng = np.random.default_rng(source_seed)
    target_rng = np.random.default_rng(target_seed)
    velocities = {name: np.zeros_like(p) for name, p in params.items()}
    lam = config.lambda_weight
    rows, snapshots = [], []
    for it in range(config.iterations):
        batch = pool.take(source_rng.integers(0, pool.n,
                                              size=config.batch_size))
        fused, feats, cache = ref_forward(params, running, model_config,
                                          batch.visual, batch.audio, True)
        ce, grad_logits = softmax_cross_entropy(fused, batch.labels)
        aux_value, aux_grads, target_term = 0.0, None, None
        if aux_fn is not None:
            aux_value, aux_grads = aux_fn(feats["visual"], feats["audio"])
            if target_train is not None:
                tgt = target_train.take(target_rng.integers(
                    0, target_train.n, size=config.batch_size))
                tv, cache_tv = ref_encode(params, "visual", tgt.visual)
                ta, cache_ta = ref_encode(params, "audio", tgt.audio)
                target_value, target_grads = aux_fn(tv, ta)
                aux_value += target_value
                target_term = ((cache_tv, target_grads["visual"]),
                               (cache_ta, target_grads["audio"]))
        mean_v = float(row_norms(feats["visual"]).mean())
        mean_a = float(row_norms(feats["audio"]).mean())
        rows.append((it, mean_v, mean_a, mean_v - mean_a, mean_v / mean_a,
                     ce, aux_value))

        use_aux = lam != 0.0 and aux_grads is not None
        grads = ref_backward(
            params, model_config, cache, grad_logits,
            {m: lam * g for m, g in aux_grads.items()} if use_aux else None)
        if use_aux and target_term is not None:
            for enc_cache, g in target_term:
                for name, value in ref_encode_backward(enc_cache,
                                                       lam * g).items():
                    grads[name] += value
        for name, p in params.items():
            v = velocities[name]
            v *= config.momentum
            v += grads[name]
            if config.weight_decay:
                v += config.weight_decay * p
            p -= config.learning_rate * v
        if config.iterations - it <= config.checkpoint_average:
            snapshots.append(({n: p.copy() for n, p in params.items()},
                              {m: [a.copy() for a in running[m]]
                               for m in STREAMS}))

    test = domains[t].test
    total = None
    for snap_params, snap_running in snapshots:
        fused, _, _ = ref_forward(snap_params, snap_running, model_config,
                                  test.visual, test.audio, False)
        scores = softmax(fused)
        total = scores if total is None else total + scores
    evals = [("fused", ref_accuracy(total / len(snapshots), test.labels))]
    _, feats, _ = ref_forward(params, running, model_config, test.visual,
                              test.audio, False)
    heads_in = dict(feats)
    if model_config.batchnorm:
        for m in STREAMS:
            heads_in[m], _ = ref_batchnorm(params, running, m, feats[m],
                                           False)
    for m in STREAMS:
        if model_config.fusion_mode == "late":
            logits, _ = linear_forward(layer(params, f"classifier_{m}"),
                                       heads_in[m])
        else:
            halves = [heads_in[k] if k == m else np.zeros_like(heads_in[k])
                      for k in STREAMS]
            logits, _ = linear_forward(layer(params, "classifier_mid"),
                                       np.concatenate(halves, axis=1))
        evals.append((m, ref_accuracy(logits, test.labels)))
    running_bytes = [running[m][0].tobytes() + running[m][1].tobytes()
                     for m in STREAMS] if model_config.batchnorm else []
    return params, running_bytes, rows, evals


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

# (setting, fusion, aux, lambda, benchmark, batch size): equal input widths,
# where layer 0's weights have the same shape in both streams, and odd batch
# sizes
SHAPE_CASES = [
    ("dg-single", "late", "rna", 1.0, BENCH_EQUAL_DIMS, 8),
    ("uda", "mid", "orthogonality", 1.0, BENCH_EQUAL_DIMS, 8),
    ("dg-single", "late", "orthogonality", 1.0, BENCH, 7),
    ("uda", "mid", "batchnorm-only", 1.0, BENCH, 7),
    ("dg-multi", "late", "hna", 0.03, BENCH_EQUAL_DIMS, 5),
    ("uda", "late", "rna", 1.0, BENCH, 1),
]


def check_against_reference(setting, fusion, aux, lam, bench=BENCH,
                            batch_size=8):
    config = ExperimentConfig(
        benchmark=bench, setting=setting, fusion_mode=fusion, aux_loss=aux,
        lambda_weight=lam, iterations=30, batch_size=batch_size,
        hidden_dim=16, feature_dim=8, checkpoint_average=3, seed=5,
        source_index=None if setting == "dg-multi" else 2, target_index=0)
    model, telemetry = run_experiment(config)
    params, running, rows, evals = reference_run(config)

    assert list(model.parameters()) == list(params)
    for name, p in model.parameters().items():
        assert p.tobytes() == params[name].tobytes(), name
    assert running == ([] if model.running is None else [
        model.running[s].tobytes() for s in (0, 1)])
    assert [tuple(r) for r in telemetry.iterations] == rows
    assert [(e.mode, e.accuracy) for e in telemetry.evals] == evals


@pytest.mark.parametrize("setting,fusion,aux,lam", CASES)
def test_training_loop_matches_per_array_reference_bitwise(setting, fusion,
                                                           aux, lam):
    check_against_reference(setting, fusion, aux, lam)


@pytest.mark.parametrize("setting,fusion,aux,lam,bench,batch_size",
                         SHAPE_CASES)
def test_training_loop_matches_reference_on_other_shapes(
        setting, fusion, aux, lam, bench, batch_size):
    check_against_reference(setting, fusion, aux, lam, bench, batch_size)
