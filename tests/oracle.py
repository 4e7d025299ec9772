"""Test-side oracles: the central finite-difference gradient estimate and its
relative-error yardstick (C1 and every per-layer gradient test), the
per-domain UDA form of the ratio loss (C1), the dot-product decomposition
dot = |v| |a| cos(theta) (C2), and the evaluation arithmetic written with a
fresh temporary per step, which the package's buffer-reusing forms must
match bitwise.

None of these is called by a run, the CLI, a demo or the benchmark, so they
live beside the tests rather than in the package.  Test modules import them
as ``from oracle import ...``.
"""

from collections import namedtuple

import numpy as np

from rnalign.errors import ConfigurationError, DegenerateInputError
from rnalign.losses import rna_loss
from rnalign.model import (BATCHNORM_EPS, BATCHNORM_MOMENTUM, LATE,
                           encode_pair)


def finite_difference_grad(f, x, eps=1e-6):
    """Central-difference gradient estimate of a scalar function.

    Per coordinate i: (f(x + eps*e_i) - f(x - eps*e_i)) / (2 eps).
    ``f`` must be a pure function of its argument.
    """
    if eps <= 0:
        raise ConfigurationError("eps must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        grad[idx] = (f(xp) - f(xm)) / (2.0 * eps)
    return grad


def relative_error(a, b):
    """Max elementwise relative error |a - b| / max(1e-4, |a| + |b|).

    The shared yardstick for every gradient-vs-finite-differences check.
    The denominator floor makes the comparison absolute below 1e-4: central
    differences at eps=1e-6 carry ~1e-10 of float64 roundoff noise, so
    structurally-zero gradients (e.g. a bias feeding a mean-subtracting
    normalizer) can only be checked against an absolute scale.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ConfigurationError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    denom = np.maximum(1e-4, np.abs(a) + np.abs(b))
    return float(np.max(np.abs(a - b) / denom))


def rna_loss_uda(source_visual, source_audio, target_visual, target_audio):
    """Domain-decomposed relative norm alignment for adaptation settings.

    The total loss is the sum of an independent term per domain, each computed
    exactly as ``rna_loss`` on that domain's own feature pair; gradients never
    mix domains.  Returns (source LossResult, target LossResult).
    """
    try:
        source_term = rna_loss(source_visual, source_audio)
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"source domain: {exc}") from exc
    try:
        target_term = rna_loss(target_visual, target_audio)
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"target domain: {exc}") from exc
    return source_term, target_term


DotDecomposition = namedtuple(
    "DotDecomposition", ["dot", "norm_v", "norm_a", "cos_theta"])


def dot_product_decomposition(v, a):
    """Decompose a dot product into norms and angle: dot = |v| |a| cos(theta).

    For a zero vector the angle is undefined and cos_theta is reported as NaN;
    the dot product itself is always defined.
    """
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    if v.shape != a.shape:
        raise ConfigurationError(f"vector shapes differ: {v.shape} vs {a.shape}")
    dot = float(np.dot(v, a))
    norm_v = float(np.linalg.norm(v))
    norm_a = float(np.linalg.norm(a))
    if norm_v == 0.0 or norm_a == 0.0:
        cos_theta = float("nan")
    else:
        cos_theta = dot / (norm_v * norm_a)
    return DotDecomposition(dot, norm_v, norm_a, cos_theta)


def batchnorm_reference(x, gamma, beta, running, training):
    """``model.batchnorm_forward`` with a fresh array for every step: the
    centred input, ``xhat``, its scaled form and ``y``."""
    if training:
        mean = x.mean(axis=-2)
        var = x.var(axis=-2)
        m = BATCHNORM_MOMENTUM
        running[..., 0, :] = (1.0 - m) * running[..., 0, :] + m * mean
        running[..., 1, :] = (1.0 - m) * running[..., 1, :] + m * var
    else:
        mean = running[..., 0, :]
        var = running[..., 1, :]
    inv_std = (1.0 / np.sqrt(var + BATCHNORM_EPS))[..., None, :]
    xhat = (x - mean[..., None, :]) * inv_std
    y = gamma[..., None, :] * xhat + beta[..., None, :]
    return y, (gamma, inv_std, xhat) if training else None


def eval_logits_reference(model, visual, audio):
    """``model.eval_logits`` built from fresh temporaries: the stacked
    ``encode_pair``, ``batchnorm_reference`` in evaluation mode and, under
    mid fusion, the zero-filled (3, N, 2d) stack of the three
    concatenations."""
    h, _ = encode_pair(model, visual, audio)
    if model.running is not None:
        h, _ = batchnorm_reference(h, model.pairs["batchnorm.gamma"],
                                   model.pairs["batchnorm.beta"],
                                   model.running, training=False)
    if model.config.fusion_mode == LATE:
        p = model.pairs
        streams = (h @ np.swapaxes(p["classifier.weight"], 1, 2)
                   + p["classifier.bias"][:, None])
        return np.concatenate([(streams[0] + streams[1])[None], streams])
    d = model.config.feature_dim
    concat = np.zeros((3, h.shape[1], 2 * d))
    concat[0, :, :d] = concat[1, :, :d] = h[0]
    concat[0, :, d:] = concat[2, :, d:] = h[1]
    params = model.parameters()
    return (concat @ params["classifier_mid.weight"].T
            + params["classifier_mid.bias"])
