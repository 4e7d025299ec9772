"""Two-stream audio-visual classifier.

Each modality owns a small MLP encoder (input -> hidden -> feature, ReLU in
between) and a linear classifier head.  Predictions fuse the two streams
either late (summing the per-modality logits) or mid (one classifier over the
concatenated feature vectors).  An optional per-modality batch-normalization
stage can be inserted before the classifiers as a baseline regularizer.

Every trainable array lives in one float64 vector, ``model.flat``, and the
model has no other parameter representation: ``model.parameters()`` yields
named views into it, laid out in checkpoint order; ``model.running`` holds
the batchnorm running statistics.  One layout table declares each array's
name, shape and pair family; a visual array and its audio twin of the same
family sit a constant distance apart in the vector, so ``model.pairs`` views
every family as one (2, ...) array (visual first).  ``model.gradient()``
returns the gradient vector with the same two kinds of view.  The forward and
backward passes run on the pair views: both streams travel as one (2, N, .)
array from the encoders to the heads, so every layer after the first is one
call for both streams.  Layer 0 stays one matmul per stream, since the two
input widths may differ.  The forward functions return explicit caches;
``model_backward`` writes the whole gradient vector.

Checkpoint format (little-endian throughout):

    magic   4 bytes  b"RNA1"
    header  7 x u32  input_dim_visual, input_dim_audio, hidden_dim,
                     feature_dim, num_classes, fusion (0 late / 1 mid),
                     batchnorm (0/1)
    body    float64  ``flat`` (every array of ``parameters()`` in order),
                     then, with batchnorm, ``running`` as laid out in
                     memory: visual mean, visual var, audio mean, audio var.
"""

import math
import struct
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .data import cast_fields, read_bytes
from .errors import ConfigurationError, ParseError
from .losses import AUDIO, VISUAL

CHECKPOINT_MAGIC = b"RNA1"

LATE = "late"
MID = "mid"


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and structural switches of a two-stream model, cast and
    checked on construction."""
    input_dim_visual: int
    input_dim_audio: int
    hidden_dim: int = 128
    feature_dim: int = 64
    num_classes: int = 8
    fusion_mode: str = LATE
    batchnorm: bool = False

    def __post_init__(self):
        cast_fields(self)
        for name in ("input_dim_visual", "input_dim_audio", "hidden_dim",
                     "feature_dim"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.num_classes < 2:
            raise ConfigurationError("num_classes must be >= 2")
        if self.fusion_mode not in (LATE, MID):
            raise ConfigurationError(
                f"unknown fusion mode: {self.fusion_mode!r}")


# the running statistics' update rate and the variance floor
BATCHNORM_MOMENTUM = 0.1
BATCHNORM_EPS = 1e-5


def batchnorm_forward(x, gamma, beta, running, training):
    """Normalize per feature over the batch axis (-2) of one stream's
    (N, d) batch with (d,) ``gamma``/``beta`` and (2, d) ``running``
    (mean, var), or of a (2, N, d) stack with (2, d) and (2, 2, d).
    Training mode uses the batch statistics, updates ``running`` in place
    and returns (y, cache for ``batchnorm_backward``); evaluation mode reads
    ``running``, never writes it, and returns (y, None).
    """
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


def batchnorm_backward(cache, grad_output, grad_gamma, grad_beta):
    """Backward pass of training-mode ``batchnorm_forward``: writes the
    scale/shift gradients into ``grad_gamma``/``grad_beta`` and returns the
    gradient wrt the input, which flows through the batch statistics as
    well."""
    gamma, inv_std, xhat = cache
    g = grad_output
    n = g.shape[-2]
    (g * xhat).sum(axis=-2, out=grad_gamma)
    g.sum(axis=-2, out=grad_beta)
    dxhat = g * gamma[..., None, :]
    return (inv_std / n) * (
        n * dxhat - dxhat.sum(axis=-2, keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=-2, keepdims=True))


def _layout(config):
    """(name, shape, family) of every trainable array, in checkpoint order.
    ``family`` keys the pair view that stacks a visual array over its audio
    twin of the same shape; it is None for layer 0's weights, whose fan-in
    is the modality's input width, and for the fusion head, which has no
    twin."""
    c = config
    d, k = c.feature_dim, c.num_classes
    layout = []
    for modality, in_dim in ((VISUAL, c.input_dim_visual),
                             (AUDIO, c.input_dim_audio)):
        e = f"encoder_{modality}"
        layout += [(f"{e}.0.weight", (c.hidden_dim, in_dim), None),
                   (f"{e}.0.bias", (c.hidden_dim,), "encoder.0.bias"),
                   (f"{e}.1.weight", (d, c.hidden_dim), "encoder.1.weight"),
                   (f"{e}.1.bias", (d,), "encoder.1.bias")]
    for modality in (VISUAL, AUDIO):
        layout += [(f"classifier_{modality}.weight", (k, d),
                    "classifier.weight"),
                   (f"classifier_{modality}.bias", (k,), "classifier.bias")]
    if c.fusion_mode == MID:
        layout += [("classifier_mid.weight", (k, 2 * d), None),
                   ("classifier_mid.bias", (k,), None)]
    if c.batchnorm:
        for modality in (VISUAL, AUDIO):
            layout += [(f"batchnorm_{modality}.gamma", (d,),
                        "batchnorm.gamma"),
                       (f"batchnorm_{modality}.beta", (d,), "batchnorm.beta")]
    return layout


def _views(vector, layout):
    """(named views, pair views) of a vector laid out by ``_layout``: each
    array a reshaped view of its segment, and each family one (2, ...) view
    whose leading stride is the distance from the visual array to its audio
    twin."""
    views, pairs, visuals = {}, {}, {}
    offset = 0
    for name, shape, family in layout:
        size = math.prod(shape)
        views[name] = vector[offset:offset + size].reshape(shape)
        if family in visuals:  # the audio twin
            start, visual = visuals[family]
            pairs[family] = np.lib.stride_tricks.as_strided(
                visual, (2,) + shape,
                ((offset - start) * vector.strides[0],) + visual.strides)
        elif family is not None:
            visuals[family] = (offset, views[name])
        offset += size
    return views, pairs


class TwoStreamModel:
    """Both streams' parameters in one float64 vector; built via
    ``init_model`` or ``load_checkpoint``.

    ``flat`` holds every trainable array in checkpoint order (zeros, except
    batchnorm scales of one, unless a vector is passed).  ``parameters()``
    and ``pairs`` are views into it, so writing them in place writes
    ``flat``.  ``running``, the only state outside it, is None without
    batchnorm, else the (2, 2, d) running statistics: stream (visual
    first) x (mean, var) x feature (fresh: means 0, variances 1).
    """

    def __init__(self, config, flat=None, running=None):
        self.config = config
        self._layout = _layout(config)
        size = sum(math.prod(shape) for _, shape, _ in self._layout)
        fresh = flat is None
        if fresh:
            flat = np.zeros(size, dtype=np.float64)
        elif flat.shape != (size,) or flat.dtype != np.float64:
            raise ConfigurationError(
                f"parameter vector must be float64 of shape ({size},)")
        self.flat = flat
        self._params, self.pairs = _views(flat, self._layout)
        self._gradient = None
        if config.batchnorm and fresh:
            self.pairs["batchnorm.gamma"][...] = 1.0
        if config.batchnorm and running is None:
            running = np.zeros((2, 2, config.feature_dim))
            running[:, 1] = 1.0
        elif running is not None and (
                not config.batchnorm or running.dtype != np.float64
                or running.shape != (2, 2, config.feature_dim)):
            raise ConfigurationError(
                "running statistics must be None without batchnorm, else "
                f"float64 of shape (2, 2, {config.feature_dim})")
        self.running = running

    def parameters(self):
        """Trainable arrays keyed by name, in declaration (checkpoint) order.
        They are the live views into ``flat``, so in-place updates take
        effect."""
        return dict(self._params)

    def gradient(self):
        """(vector, name->view mapping, pair views) of the gradient buffer
        congruent with ``flat``; the views are keyed like ``parameters()``
        and ``pairs``.  Allocated on first use and reused: every
        ``model_backward`` overwrites it."""
        if self._gradient is None:
            vector = np.zeros_like(self.flat)
            self._gradient = (vector, *_views(vector, self._layout))
        return self._gradient

    def clone(self):
        """Deep copy: parameters, batchnorm running statistics, config shared."""
        return TwoStreamModel(
            self.config, self.flat.copy(),
            None if self.running is None else self.running.copy())


def init_model(config, seed):
    """Deterministic initialization: weights uniform in +-1/sqrt(fan_in)
    (so doubling the fan-in halves the weight variance), biases zero.
    The same seed always yields bitwise-identical parameters."""
    rng = np.random.default_rng(seed)
    model = TwoStreamModel(config)
    # weights are drawn in layer order, which is their order in parameters()
    for name, array in model.parameters().items():
        if name.endswith(".weight"):
            bound = 1.0 / np.sqrt(array.shape[1])
            array[...] = rng.uniform(-bound, bound, size=array.shape)
    return model


def _linear_grads(weight, bias, x, g, add=False):
    """Parameter gradients of y = x @ W.T + b for input ``x`` and output
    gradient ``g`` (one stream, or a stack of them on a leading axis),
    written into ``weight``/``bias`` (added to them with ``add``)."""
    g_t = np.swapaxes(g, -1, -2)
    if add:
        weight += g_t @ x
        bias += g.sum(axis=-2)
    else:
        np.matmul(g_t, x, out=weight)
        g.sum(axis=-2, out=bias)


# active is the ReLU output: active > 0 is exactly hidden > 0, NaN included
EncoderCache = namedtuple("EncoderCache", "model inputs active")


def encode_pair(model, visual_inputs, audio_inputs):
    """Run both encoders on paired inputs.

    Returns (features, cache) with ``features`` the (2, N, feature_dim)
    stack, visual first.
    """
    inputs = (np.asarray(visual_inputs, dtype=np.float64),
              np.asarray(audio_inputs, dtype=np.float64))
    weights = (model._params["encoder_visual.0.weight"],
               model._params["encoder_audio.0.weight"])
    for modality, x, weight in zip((VISUAL, AUDIO), inputs, weights):
        if x.ndim != 2 or x.shape[1] != weight.shape[1]:
            raise ConfigurationError(
                f"{modality} encoder expects (N, {weight.shape[1]}) inputs, "
                f"got {x.shape}")
    n = inputs[0].shape[0]
    if inputs[1].shape[0] != n:
        raise ConfigurationError(
            f"modalities must be paired: {n} visual rows vs "
            f"{inputs[1].shape[0]} audio rows")
    p = model.pairs
    active = np.empty((2, n, model.config.hidden_dim))
    for s in (0, 1):
        np.matmul(inputs[s], weights[s].T, out=active[s])
    active += p["encoder.0.bias"][:, None]
    np.maximum(active, 0.0, out=active)
    features = active @ np.swapaxes(p["encoder.1.weight"], 1, 2)
    features += p["encoder.1.bias"][:, None]
    return features, EncoderCache(model, inputs, active)


def encode_pair_backward(cache, grad_features, add=True):
    """Backward through both encoders for a (2, N, feature_dim) feature
    gradient: adds their parameter gradients into the model's gradient
    vector (writes them over it unless ``add``)."""
    model, inputs, active = cache
    _, grads, pairs = model.gradient()
    g = grad_features
    _linear_grads(pairs["encoder.1.weight"], pairs["encoder.1.bias"],
                  active, g, add)
    g = g @ model.pairs["encoder.1.weight"]
    g *= active > 0.0
    for s, modality in enumerate((VISUAL, AUDIO)):
        weight = grads[f"encoder_{modality}.0.weight"]
        if add:
            weight += g[s].T @ inputs[s]
        else:
            np.matmul(g[s].T, inputs[s], out=weight)
    if add:
        pairs["encoder.0.bias"] += g.sum(axis=1)
    else:
        g.sum(axis=1, out=pairs["encoder.0.bias"])


def _normalize(model, features, training):
    """The batchnorm stage on the feature stack, if the model has one.
    Returns (normalized stack, cache or None)."""
    if model.running is None:
        return features, None
    return batchnorm_forward(features, model.pairs["batchnorm.gamma"],
                             model.pairs["batchnorm.beta"], model.running,
                             training)


def _stream_logits(model, h):
    """Both per-modality classifier heads on a (2, N, d) stack."""
    p = model.pairs
    logits = h @ np.swapaxes(p["classifier.weight"], 1, 2)
    logits += p["classifier.bias"][:, None]
    return logits


def _mid_logits(model, concat):
    """The fusion classifier over concatenated [h_v || h_a] rows."""
    logits = concat @ model._params["classifier_mid.weight"].T
    logits += model._params["classifier_mid.bias"]
    return logits


ForwardCache = namedtuple("ForwardCache", "encoder features bn head_input")


def model_forward(model, visual_inputs, audio_inputs):
    """Training-mode forward pass of both streams up to fused logits, with
    batchnorm on batch statistics, which it folds into ``model.running``
    (``eval_logits`` is the evaluation mode and leaves them alone).

    Returns (fused_logits, cache); ``cache.features`` is the stacked
    (2, N, d) encoder output, visual first.
    """
    features, enc_cache = encode_pair(model, visual_inputs, audio_inputs)
    h, bn_cache = _normalize(model, features, True)
    if model.config.fusion_mode == LATE:
        logits = _stream_logits(model, h)
        fused = logits[0] + logits[1]
    else:
        h = np.concatenate(h, axis=1)
        fused = _mid_logits(model, h)
    return fused, ForwardCache(enc_cache, features, bn_cache, h)


def model_backward(cache, grad_fused_logits, grad_features=None):
    """Compose the backward passes of the whole model.

    ``grad_fused_logits`` flows back through the classification head(s);
    the optional (2, N, d) ``grad_features`` (from an auxiliary loss acting
    directly on the encoded features) is added before the encoders run
    backward.  Overwrites the model's gradient vector (``model.gradient()``)
    and returns its name->view mapping, covering every trainable parameter
    (zeros where nothing flowed, e.g. the per-modality heads under mid
    fusion).
    """
    model = cache.encoder.model
    _, grads, pairs = model.gradient()
    g_logits = grad_fused_logits
    if model.config.fusion_mode == LATE:
        # fused = logits_v + logits_a, so both heads see the same gradient
        np.matmul(g_logits.T, cache.head_input, out=pairs["classifier.weight"])
        pairs["classifier.bias"][...] = g_logits.sum(axis=0)
        g = g_logits @ model.pairs["classifier.weight"]
    else:
        _linear_grads(grads["classifier_mid.weight"],
                      grads["classifier_mid.bias"], cache.head_input,
                      g_logits)
        n, d = g_logits.shape[0], model.config.feature_dim
        # [g_v || g_a] per row, viewed as the (2, N, d) stack
        g = (g_logits @ model._params["classifier_mid.weight"]).reshape(
            n, 2, d).transpose(1, 0, 2)
        # nothing reaches the per-modality heads under mid fusion
        pairs["classifier.weight"].fill(0.0)
        pairs["classifier.bias"].fill(0.0)
    if cache.bn is not None:
        g = batchnorm_backward(cache.bn, g, pairs["batchnorm.gamma"],
                               pairs["batchnorm.beta"])
    if grad_features is not None:
        g = g + grad_features
    encode_pair_backward(cache.encoder, g, add=False)
    return grads


# the rows of the stack ``eval_logits`` returns
EVAL_MODES = ("fused", "visual", "audio")


def eval_logits(model, visual_inputs, audio_inputs):
    """Evaluation-mode logits of every mode in ``EVAL_MODES`` from one
    encode: the (3, N, num_classes) stack of the fused logits, then each
    stream's logits alone.

    Late fusion: the fused logits are the sum of the two heads' outputs and
    a stream alone is its own head.  Mid fusion: the fusion classifier on
    [h_v || h_a], and on that concatenation with the other stream's half
    zeroed.
    """
    features, _ = encode_pair(model, visual_inputs, audio_inputs)
    h, _ = _normalize(model, features, training=False)
    if model.config.fusion_mode == LATE:
        streams = _stream_logits(model, h)
        return np.concatenate([(streams[0] + streams[1])[None], streams])
    d = model.config.feature_dim
    concat = np.zeros((3, h.shape[1], 2 * d))
    concat[0, :, :d] = concat[1, :, :d] = h[0]
    concat[0, :, d:] = concat[2, :, d:] = h[1]
    return _mid_logits(model, concat)


def save_checkpoint(model, path):
    """Serialize a model to the flat binary checkpoint format (see module
    docstring).  A model ``load_checkpoint`` would reject (a non-finite
    value, a negative running variance) is a ConfigurationError naming the
    path, raised before the file is opened."""
    running = model.running
    if not (np.isfinite(model.flat).all()
            and (running is None or np.isfinite(running).all())):
        raise ConfigurationError(f"{path}: cannot save a non-finite value")
    if running is not None and (running[:, 1] < 0).any():
        raise ConfigurationError(
            f"{path}: cannot save a negative running variance")
    c = model.config
    header = struct.pack(
        "<7I", c.input_dim_visual, c.input_dim_audio, c.hidden_dim,
        c.feature_dim, c.num_classes, 1 if c.fusion_mode == MID else 0,
        1 if c.batchnorm else 0)
    chunks = [CHECKPOINT_MAGIC, header,
              np.ascontiguousarray(model.flat, dtype="<f8").tobytes()]
    if running is not None:
        chunks.append(running.astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


# name, least and greatest valid value of each u32 header field
_HEADER_FIELDS = (("input_dim_visual", 1, None), ("input_dim_audio", 1, None),
                  ("hidden_dim", 1, None), ("feature_dim", 1, None),
                  ("num_classes", 2, None), ("fusion flag", 0, 1),
                  ("batchnorm flag", 0, 1))


def load_checkpoint(path):
    """Reconstruct a model from a checkpoint file written by
    ``save_checkpoint``.  A file that cannot be read is a ParseError naming
    the path; a malformed or truncated file, a non-finite body value or a
    negative running variance is one naming the byte.  The body's length is
    checked against the header's dimensions before anything is allocated."""
    blob = read_bytes(path)
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ParseError(
            f"{path}: bad magic at byte 0 (not a checkpoint file)")
    offset = 4 + struct.calcsize("<7I")
    if len(blob) < offset:
        raise ParseError(f"{path}: truncated header at byte {len(blob)}")
    dims = struct.unpack_from("<7I", blob, 4)
    for i, ((name, low, high), value) in enumerate(zip(_HEADER_FIELDS, dims)):
        if value < low or (high is not None and value > high):
            expected = f"{low} or {high}" if high is not None else f">= {low}"
            raise ParseError(f"{path}: invalid {name} {value} at byte "
                             f"{4 + 4 * i} (expected {expected})")
    in_v, in_a, hidden, feature, classes, fusion_flag, bn_flag = dims
    config = ModelConfig(in_v, in_a, hidden, feature, classes,
                         MID if fusion_flag == 1 else LATE,
                         batchnorm=bool(bn_flag))
    # Python ints: the header allows sizes that overflow int64
    size = sum(math.prod(shape) for _, shape, _ in _layout(config))
    count = size + (4 * feature if config.batchnorm else 0)
    end = offset + 8 * count
    if end > len(blob):
        raise ParseError(f"{path}: truncated at byte {len(blob)} (the header "
                         f"declares a {end}-byte file)")
    if end < len(blob):
        raise ParseError(
            f"{path}: {len(blob) - end} trailing bytes at byte {end}")
    body = np.frombuffer(blob, dtype="<f8", count=count,
                         offset=offset).astype(np.float64)
    finite = np.isfinite(body)
    if not finite.all():
        at = offset + 8 * int(np.argmin(finite))
        raise ParseError(f"{path}: non-finite value at byte {at}")
    running = body[size:].reshape(2, 2, feature) if config.batchnorm else None
    if running is not None and (running[:, 1] < 0).any():
        # running[s, 1, j] is body value size + (2 s + 1) feature + j
        s, j = np.argwhere(running[:, 1] < 0)[0].tolist()
        at = offset + 8 * (size + (2 * s + 1) * feature + j)
        raise ParseError(f"{path}: negative running variance at byte {at}")
    return TwoStreamModel(config, body[:size], running)
