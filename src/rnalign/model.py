"""Two-stream audio-visual classifier.

Each modality owns a small MLP encoder (input -> hidden -> feature, ReLU in
between) and a linear classifier head.  Predictions fuse the two streams
either late (summing the per-modality logits) or mid (one classifier over the
concatenated feature vectors).  An optional per-modality batch-normalization
stage can be inserted before the classifiers as a baseline regularizer.

Every trainable array lives in one float64 vector, ``model.flat``; the arrays
``model.parameters()`` yields, and the layers' ``weight``/``bias``/``gamma``/
``beta`` attributes, are named views into it, laid out in checkpoint order.
The forward functions return explicit caches; ``model_backward`` composes the
layer backward passes into a congruent gradient vector and returns its views
under the same names, so the optimizer can update the model with a handful of
whole-vector operations.

Checkpoint format (little-endian throughout):

    magic   4 bytes  b"RNA1"
    header  7 x u32  input_dim_visual, input_dim_audio, hidden_dim,
                     feature_dim, num_classes, fusion (0 late / 1 mid),
                     batchnorm (0/1)
    body    float64  every array from ``parameters()`` in declaration order,
                     then, when batchnorm is enabled, the running mean and
                     running variance of each modality (visual then audio).
"""

import struct

import numpy as np

from .errors import ConfigurationError, ParseError
from .losses import AUDIO, VISUAL, FeatureBatch
from .numerics import (LinearLayerParams, linear_forward, relu_backward,
                       relu_forward, softmax)

CHECKPOINT_MAGIC = b"RNA1"

LATE = "late"
MID = "mid"


class ModelConfig:
    """Dimensions and structural switches of a two-stream model."""

    def __init__(self, input_dim_visual, input_dim_audio, hidden_dim=128,
                 feature_dim=64, num_classes=8, fusion_mode=LATE,
                 batchnorm=False):
        self.input_dim_visual = int(input_dim_visual)
        self.input_dim_audio = int(input_dim_audio)
        self.hidden_dim = int(hidden_dim)
        self.feature_dim = int(feature_dim)
        self.num_classes = int(num_classes)
        self.fusion_mode = fusion_mode
        self.batchnorm = bool(batchnorm)
        for name in ("input_dim_visual", "input_dim_audio", "hidden_dim",
                     "feature_dim"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.num_classes < 2:
            raise ConfigurationError("num_classes must be >= 2")
        if fusion_mode not in (LATE, MID):
            raise ConfigurationError(f"unknown fusion mode: {fusion_mode!r}")


class BatchNormState:
    """Per-feature batch normalization: learned scale/shift plus running
    statistics used in evaluation mode."""

    def __init__(self, dim, momentum=0.1, eps=1e-5):
        if eps <= 0:
            raise ConfigurationError("batchnorm eps must be positive")
        if not 0.0 <= momentum <= 1.0:
            raise ConfigurationError("batchnorm momentum must be in [0, 1]")
        self.running_mean = np.zeros(dim, dtype=np.float64)
        self.running_var = np.ones(dim, dtype=np.float64)
        self.gamma = np.ones(dim, dtype=np.float64)
        self.beta = np.zeros(dim, dtype=np.float64)
        self.momentum = float(momentum)
        self.eps = float(eps)


def batchnorm_forward(state, x, training, update_running=False):
    """Normalize per feature; batch statistics when training, running
    statistics otherwise.  Running stats are only touched when
    ``update_running`` is set, so the forward stays pure for gradient checks.
    """
    x = np.asarray(x, dtype=np.float64)
    if training:
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        if update_running:
            m = state.momentum
            state.running_mean = (1.0 - m) * state.running_mean + m * mean
            state.running_var = (1.0 - m) * state.running_var + m * var
    else:
        mean = state.running_mean
        var = state.running_var
    inv_std = 1.0 / np.sqrt(var + state.eps)
    xhat = (x - mean) * inv_std
    y = state.gamma * xhat + state.beta
    return y, (state, inv_std, xhat, training)


def batchnorm_backward(cache, grad_output, grads, name):
    """Backward pass matching ``batchnorm_forward``: writes the scale/shift
    gradients into ``grads[name + ".gamma"/".beta"]`` and returns the
    gradient wrt the input.  In training mode the gradient flows through
    the batch statistics as well."""
    state, inv_std, xhat, training = cache
    g = grad_output
    n = g.shape[0]
    (g * xhat).sum(axis=0, out=grads[name + ".gamma"])
    g.sum(axis=0, out=grads[name + ".beta"])
    dxhat = g * state.gamma
    if training:
        return (inv_std / n) * (
            n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
    return dxhat * inv_std


def _layout(config):
    """(name, shape) of every trainable array, in checkpoint order."""
    c = config
    d = c.feature_dim
    layout = []
    for modality, in_dim in ((VISUAL, c.input_dim_visual),
                             (AUDIO, c.input_dim_audio)):
        for i, shape in enumerate(((c.hidden_dim, in_dim),
                                   (d, c.hidden_dim))):
            layout += [(f"encoder_{modality}.{i}.weight", shape),
                       (f"encoder_{modality}.{i}.bias", shape[:1])]
    heads = [("classifier_visual", d), ("classifier_audio", d)]
    if c.fusion_mode == MID:
        heads.append(("classifier_mid", 2 * d))
    for head, fan_in in heads:
        layout += [(f"{head}.weight", (c.num_classes, fan_in)),
                   (f"{head}.bias", (c.num_classes,))]
    if c.batchnorm:
        for modality in (VISUAL, AUDIO):
            layout += [(f"batchnorm_{modality}.gamma", (d,)),
                       (f"batchnorm_{modality}.beta", (d,))]
    return layout


def _views(vector, layout):
    """Named reshaped views of consecutive segments of ``vector``."""
    views = {}
    offset = 0
    for name, shape in layout:
        size = int(np.prod(shape))
        views[name] = vector[offset:offset + size].reshape(shape)
        offset += size
    return views


class TwoStreamModel:
    """Both streams' parameters in one float64 vector; built via
    ``init_model`` or ``load_checkpoint``.

    ``flat`` holds every trainable array in checkpoint order (zeros, except
    batchnorm scales of one, unless a vector is passed).  The layer objects
    (``encoder_visual``, ``classifier_mid``, ``batchnorm_audio`` ...) hold
    views into it, so writing a layer's arrays in place writes ``flat``;
    rebinding an attribute to a new array detaches it.
    """

    def __init__(self, config, flat=None):
        self.config = config
        self._layout = _layout(config)
        size = sum(int(np.prod(shape)) for _, shape in self._layout)
        fresh = flat is None
        if fresh:
            flat = np.zeros(size, dtype=np.float64)
        elif flat.shape != (size,) or flat.dtype != np.float64:
            raise ConfigurationError(
                f"parameter vector must be float64 of shape ({size},)")
        self.flat = flat
        self._params = _views(flat, self._layout)
        self._gradient = None
        p = self._params

        def layer(name):
            return LinearLayerParams(p[name + ".weight"], p[name + ".bias"])

        self.encoder_visual = [layer(f"encoder_{VISUAL}.{i}") for i in (0, 1)]
        self.encoder_audio = [layer(f"encoder_{AUDIO}.{i}") for i in (0, 1)]
        self.classifier_visual = layer("classifier_visual")
        self.classifier_audio = layer("classifier_audio")
        self.classifier_mid = (layer("classifier_mid")
                               if config.fusion_mode == MID else None)
        self.batchnorm_visual = self.batchnorm_audio = None
        if config.batchnorm:
            states = []
            for modality in (VISUAL, AUDIO):
                state = BatchNormState(config.feature_dim)
                state.gamma = p[f"batchnorm_{modality}.gamma"]
                state.beta = p[f"batchnorm_{modality}.beta"]
                if fresh:
                    state.gamma[...] = 1.0
                states.append(state)
            self.batchnorm_visual, self.batchnorm_audio = states

    def encoder(self, modality):
        _check_modality(modality)
        return self.encoder_visual if modality == VISUAL else self.encoder_audio

    def classifier(self, modality):
        _check_modality(modality)
        return (self.classifier_visual if modality == VISUAL
                else self.classifier_audio)

    def batchnorm(self, modality):
        _check_modality(modality)
        return (self.batchnorm_visual if modality == VISUAL
                else self.batchnorm_audio)

    def parameters(self):
        """Trainable arrays keyed by name, in declaration (checkpoint) order.
        They are the live views into ``flat``, so in-place updates take
        effect."""
        return dict(self._params)

    def gradient(self):
        """(vector, name->view mapping) of the gradient buffer congruent with
        ``flat``.  Allocated on first use and reused: every ``model_backward``
        overwrites it."""
        if self._gradient is None:
            vector = np.zeros_like(self.flat)
            self._gradient = (vector, _views(vector, self._layout))
        return self._gradient

    def clone(self):
        """Deep copy: parameters, batchnorm running statistics, config shared."""
        other = TwoStreamModel(self.config, self.flat.copy())
        if self.config.batchnorm:
            for mine, theirs in ((self.batchnorm_visual, other.batchnorm_visual),
                                 (self.batchnorm_audio, other.batchnorm_audio)):
                theirs.running_mean = mine.running_mean.copy()
                theirs.running_var = mine.running_var.copy()
        return other


def _check_modality(modality):
    if modality not in (VISUAL, AUDIO):
        raise ConfigurationError(f"unknown modality: {modality!r}")


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


def _linear_grads(grads, name, x, g, add=False):
    """``linear_backward``'s parameter gradients for input ``x`` and output
    gradient ``g``, written into ``grads[name + ".weight"/".bias"]`` (added
    to them with ``add``)."""
    weight, bias = grads[name + ".weight"], grads[name + ".bias"]
    if add:
        weight += g.T @ x
        bias += g.sum(axis=0)
    else:
        np.matmul(g.T, x, out=weight)
        g.sum(axis=0, out=bias)


def encode(model, modality, inputs):
    """Run one modality's encoder.  Returns (FeatureBatch, cache)."""
    layers = model.encoder(modality)
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != layers[0].in_dim:
        raise ConfigurationError(
            f"{modality} encoder expects (N, {layers[0].in_dim}) inputs, "
            f"got {x.shape}")
    caches = []
    h = x
    for i, layer in enumerate(layers):
        h, lin_cache = linear_forward(layer, h)
        relu_cache = None
        if i < len(layers) - 1:
            h, relu_cache = relu_forward(h)
        caches.append((lin_cache, relu_cache))
    return FeatureBatch.wrap(h, modality), (modality, caches)


def encode_backward(cache, grad_features, grads=None, add=True):
    """Backward through one encoder.

    With ``grads`` (a name->array mapping holding this encoder's entries,
    such as the one ``model_backward`` returns) the parameter gradients are
    added into it in place (written over its entries unless ``add``) and the
    gradient wrt the raw inputs is skipped: returns (grads, None).  Without,
    returns (fresh name->grad dict, grad wrt the inputs).
    """
    modality, caches = cache
    fresh = grads is None
    if fresh:
        grads = {}
        for i, ((layer, _), _) in enumerate(caches):
            grads[f"encoder_{modality}.{i}.weight"] = np.empty_like(layer.weight)
            grads[f"encoder_{modality}.{i}.bias"] = np.empty_like(layer.bias)
        add = False
    g = np.asarray(grad_features, dtype=np.float64)
    for i in reversed(range(len(caches))):
        (layer, x), relu_cache = caches[i]
        if relu_cache is not None:
            g = relu_backward(relu_cache, g)
        _linear_grads(grads, f"encoder_{modality}.{i}", x, g, add)
        if i or fresh:
            g = g @ layer.weight
    return grads, (g if fresh else None)


def classify(model, modality, features, training=False, update_running=False):
    """One modality's classifier head; normalizes first when batchnorm is on.

    Returns (logits, cache).
    """
    f = features.features if isinstance(features, FeatureBatch) else \
        np.asarray(features, dtype=np.float64)
    if f.shape[1] != model.config.feature_dim:
        raise ConfigurationError(
            f"classifier expects feature dim {model.config.feature_dim}, "
            f"got {f.shape[1]}")
    bn_cache = None
    h = f
    if model.config.batchnorm:
        h, bn_cache = batchnorm_forward(model.batchnorm(modality), h,
                                        training, update_running)
    logits, lin_cache = linear_forward(model.classifier(modality), h)
    return logits, (modality, bn_cache, lin_cache)


def classify_backward(cache, grad_logits, grads):
    """Backward through one classifier head: writes its parameter gradients
    into ``grads`` and returns the gradient wrt the incoming features."""
    modality, bn_cache, (layer, h) = cache
    _linear_grads(grads, f"classifier_{modality}", h, grad_logits)
    g = grad_logits @ layer.weight
    if bn_cache is not None:
        g = batchnorm_backward(bn_cache, g, grads, f"batchnorm_{modality}")
    return g


def fuse_late(logits_visual, logits_audio):
    """Late fusion: elementwise sum of the per-modality logits."""
    lv = np.asarray(logits_visual, dtype=np.float64)
    la = np.asarray(logits_audio, dtype=np.float64)
    if lv.shape != la.shape:
        raise ConfigurationError(
            f"cannot fuse logits of shapes {lv.shape} and {la.shape}")
    return lv + la


def fuse_mid(model, features_visual, features_audio, training=False,
             update_running=False):
    """Mid-level fusion: one classifier over [f_v || f_a].

    When batchnorm is on, each half is normalized before concatenation.
    Returns (logits, cache).
    """
    if model.config.fusion_mode != MID:
        raise ConfigurationError("fuse_mid called on a late-fusion model")
    fv = features_visual.features if isinstance(features_visual, FeatureBatch) \
        else np.asarray(features_visual, dtype=np.float64)
    fa = features_audio.features if isinstance(features_audio, FeatureBatch) \
        else np.asarray(features_audio, dtype=np.float64)
    bn_cache_v = bn_cache_a = None
    if model.config.batchnorm:
        fv, bn_cache_v = batchnorm_forward(model.batchnorm_visual, fv,
                                           training, update_running)
        fa, bn_cache_a = batchnorm_forward(model.batchnorm_audio, fa,
                                           training, update_running)
    concat = np.concatenate([fv, fa], axis=1)
    logits, lin_cache = linear_forward(model.classifier_mid, concat)
    return logits, (bn_cache_v, bn_cache_a, lin_cache,
                    model.config.feature_dim)


def fuse_mid_backward(cache, grad_logits, grads):
    """Backward through mid fusion: writes the fusion classifier's (and
    batchnorm's) parameter gradients into ``grads``.

    Returns (grad_feat_visual, grad_feat_audio).
    """
    bn_cache_v, bn_cache_a, (layer, concat), d = cache
    _linear_grads(grads, "classifier_mid", concat, grad_logits)
    g_concat = grad_logits @ layer.weight
    g_v, g_a = g_concat[:, :d], g_concat[:, d:]
    if bn_cache_v is not None:
        g_v = batchnorm_backward(bn_cache_v, g_v, grads, "batchnorm_visual")
        g_a = batchnorm_backward(bn_cache_a, g_a, grads, "batchnorm_audio")
    return g_v, g_a


def model_forward(model, visual_inputs, audio_inputs, training=False,
                  update_running=False):
    """Full forward pass of both streams up to fused logits.

    Returns (fused_logits, feat_visual, feat_audio, cache).
    """
    feat_v, cache_ev = encode(model, VISUAL, visual_inputs)
    feat_a, cache_ea = encode(model, AUDIO, audio_inputs)
    if model.config.fusion_mode == LATE:
        logits_v, cache_cv = classify(model, VISUAL, feat_v, training,
                                      update_running)
        logits_a, cache_ca = classify(model, AUDIO, feat_a, training,
                                      update_running)
        fused = fuse_late(logits_v, logits_a)
        head_cache = (LATE, cache_cv, cache_ca)
    else:
        fused, cache_mid = fuse_mid(model, feat_v, feat_a, training,
                                    update_running)
        head_cache = (MID, cache_mid)
    return fused, feat_v, feat_a, (model, cache_ev, cache_ea, head_cache)


def model_backward(cache, grad_fused_logits, grad_feat_visual=None,
                   grad_feat_audio=None):
    """Compose the backward passes of the whole model.

    ``grad_fused_logits`` flows back through the classification head(s);
    the optional feature gradients (from an auxiliary loss acting directly on
    the encoded features) are added before the encoders run backward.
    Overwrites the model's gradient vector (``model.gradient()``) and returns
    its name->view mapping, covering every trainable parameter (zeros where
    nothing flowed, e.g. the per-modality heads under mid fusion).
    """
    model, cache_ev, cache_ea, head_cache = cache
    _, grads = model.gradient()
    if head_cache[0] == LATE:
        _, cache_cv, cache_ca = head_cache
        # fused = logits_v + logits_a, so both heads see the same gradient
        g_feat_v = classify_backward(cache_cv, grad_fused_logits, grads)
        g_feat_a = classify_backward(cache_ca, grad_fused_logits, grads)
    else:
        g_feat_v, g_feat_a = fuse_mid_backward(head_cache[1],
                                               grad_fused_logits, grads)
        # nothing reaches the per-modality heads under mid fusion
        for head in ("classifier_visual", "classifier_audio"):
            grads[head + ".weight"].fill(0.0)
            grads[head + ".bias"].fill(0.0)
    if grad_feat_visual is not None:
        g_feat_v = g_feat_v + grad_feat_visual
    if grad_feat_audio is not None:
        g_feat_a = g_feat_a + grad_feat_audio
    encode_backward(cache_ev, g_feat_v, grads, add=False)
    encode_backward(cache_ea, g_feat_a, grads, add=False)
    return grads


def modality_logits(model, modality, feat_visual, feat_audio):
    """Evaluation-mode logits attributable to one modality alone.

    Late fusion: that modality's classifier output.  Mid fusion: the fusion
    classifier applied with the other modality's half of the concatenated
    vector zeroed out.
    """
    _check_modality(modality)
    if model.config.fusion_mode == LATE:
        feats = feat_visual if modality == VISUAL else feat_audio
        logits, _ = classify(model, modality, feats, training=False)
        return logits
    fv = feat_visual.features if isinstance(feat_visual, FeatureBatch) else feat_visual
    fa = feat_audio.features if isinstance(feat_audio, FeatureBatch) else feat_audio
    if model.config.batchnorm:
        fv, _ = batchnorm_forward(model.batchnorm_visual, fv, training=False)
        fa, _ = batchnorm_forward(model.batchnorm_audio, fa, training=False)
    if modality == VISUAL:
        fa = np.zeros_like(fa)
    else:
        fv = np.zeros_like(fv)
    concat = np.concatenate([fv, fa], axis=1)
    logits, _ = linear_forward(model.classifier_mid, concat)
    return logits


def fused_eval_logits(model, visual_inputs, audio_inputs):
    """Evaluation-mode fused logits for a batch of raw inputs."""
    fused, _, _, _ = model_forward(model, visual_inputs, audio_inputs,
                                   training=False)
    return fused


def predict_scores(model, visual_inputs, audio_inputs):
    """Evaluation-mode softmax scores of the fused logits."""
    return softmax(fused_eval_logits(model, visual_inputs, audio_inputs))


def predict(model, batch):
    """Predicted class indices for a MultiModalBatch (or any object with
    ``visual`` and ``audio`` input arrays).  Argmax of the fused logits;
    ties break toward the lowest class index."""
    fused = fused_eval_logits(model, batch.visual, batch.audio)
    return np.argmax(fused, axis=1)


def save_checkpoint(model, path):
    """Serialize a model to the flat binary checkpoint format (see module
    docstring)."""
    c = model.config
    header = struct.pack(
        "<7I", c.input_dim_visual, c.input_dim_audio, c.hidden_dim,
        c.feature_dim, c.num_classes, 1 if c.fusion_mode == MID else 0,
        1 if c.batchnorm else 0)
    chunks = [CHECKPOINT_MAGIC, header,
              np.ascontiguousarray(model.flat, dtype="<f8").tobytes()]
    if c.batchnorm:
        for state in (model.batchnorm_visual, model.batchnorm_audio):
            chunks.append(np.ascontiguousarray(state.running_mean,
                                               dtype="<f8").tobytes())
            chunks.append(np.ascontiguousarray(state.running_var,
                                               dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_checkpoint(path):
    """Reconstruct a model from a checkpoint file written by
    ``save_checkpoint``; raises ParseError on malformed or truncated files."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ParseError(
            f"{path}: bad magic at byte 0 (not a checkpoint file)")
    header_size = struct.calcsize("<7I")
    if len(blob) < 4 + header_size:
        raise ParseError(f"{path}: truncated header at byte {len(blob)}")
    dims = struct.unpack_from("<7I", blob, 4)
    in_v, in_a, hidden, feature, classes, fusion_flag, bn_flag = dims
    # the two flags are the header's last two u32 fields
    for name, flag, at in (("fusion", fusion_flag, 4 + 5 * 4),
                           ("batchnorm", bn_flag, 4 + 6 * 4)):
        if flag not in (0, 1):
            raise ParseError(
                f"{path}: invalid {name} flag {flag} at byte {at} "
                f"(expected 0 or 1)")
    try:
        config = ModelConfig(in_v, in_a, hidden, feature, classes,
                             MID if fusion_flag == 1 else LATE,
                             batchnorm=bool(bn_flag))
    except ConfigurationError as exc:
        raise ParseError(f"{path}: invalid dimension header: {exc}") from exc
    offset = 4 + header_size

    def take(count):
        nonlocal offset
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise ParseError(f"{path}: truncated at byte {offset}")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        offset += nbytes
        return arr.astype(np.float64)

    model = TwoStreamModel(config)
    model.flat[...] = take(model.flat.size)
    if config.batchnorm:
        for state in (model.batchnorm_visual, model.batchnorm_audio):
            state.running_mean = take(config.feature_dim)
            state.running_var = take(config.feature_dim)
    if offset != len(blob):
        raise ParseError(
            f"{path}: {len(blob) - offset} trailing bytes at byte {offset}")
    return model
