"""Feature-norm and feature-angle alignment losses with analytic gradients.

The central quantity is the ratio rho of the two modalities' mean feature
norms.  The relative-norm-alignment loss penalizes (rho - 1)^2, driving the
norms of the visual and audio embeddings toward a common scale without
constraining the angle between them.  Angle-based alternatives (cosine
alignment, orthogonality) and a hard variant pinning both mean norms to a
fixed constant are provided as baselines, plus the dot-product decomposition
dot = |v| |a| cos(theta) used to cross-check the two families.

All losses return a LossResult carrying the scalar value and exact analytic
gradients with respect to both feature batches; every gradient is verified
against central finite differences in the test suite.
"""

from collections import namedtuple

import numpy as np

from .errors import ConfigurationError, DegenerateInputError
from .numerics import as_matrix

VISUAL = "visual"
AUDIO = "audio"


class FeatureBatch:
    """A batch of N encoded feature rows for one modality.

    Parameters
    ----------
    features : array (N, D)
        One feature vector per row; all entries must be finite, N >= 1.
    modality : str
        "visual" or "audio".
    domain : str, optional
        Free-form domain tag ("source", "target", a domain id, ...).
    """

    def __init__(self, features, modality, domain=None):
        self.features = as_matrix(features)
        if self.features.shape[0] < 1:
            raise ConfigurationError("a feature batch needs at least one row")
        if modality not in (VISUAL, AUDIO):
            raise ConfigurationError(f"unknown modality: {modality!r}")
        self.modality = modality
        self.domain = domain

    @classmethod
    def wrap(cls, features, modality):
        """A batch over ``features`` without validation: for the model's own
        forward pass, whose inputs were validated where they entered the
        program.  A diverging run may hand over non-finite rows here; the
        trainer's loss check reports them."""
        batch = cls.__new__(cls)
        batch.features = features
        batch.modality = modality
        batch.domain = None
        return batch

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]


class LossResult:
    """Scalar loss value plus analytic gradients w.r.t. both feature batches."""

    def __init__(self, value, grad_visual, grad_audio):
        self.value = float(value)
        self.grad_visual = np.asarray(grad_visual, dtype=np.float64)
        self.grad_audio = np.asarray(grad_audio, dtype=np.float64)
        if self.value < 0:
            raise ConfigurationError("loss values in this module are >= 0")


NormStats = namedtuple(
    "NormStats", ["mean_norm_visual", "mean_norm_audio", "delta", "rho"])


def _rows(batch):
    """Accept a FeatureBatch or a bare (N, D) array."""
    if isinstance(batch, FeatureBatch):
        return batch.features
    return as_matrix(batch)


def feature_norms(batch):
    """Per-sample L2 norms: element i is the norm of feature row i."""
    return _norms(_rows(batch))


def _norms(f):
    """Row norms of an (N, D) array that ``_rows`` already checked."""
    return np.sqrt(np.sum(f * f, axis=1))


def _unit_rows(f, norms):
    """Rows scaled to unit norm; rows of norm 0 map to zero (their norm has
    no gradient there, by convention)."""
    safe = np.where(norms > 0.0, norms, 1.0)
    return f / safe[:, None]


def norm_stats(visual, audio):
    """Mean norms of both modalities, their difference delta, and ratio rho.

    Raises DegenerateInputError when the mean audio norm is 0 (rho undefined).
    """
    fv = _rows(visual)
    fa = _rows(audio)
    if fv.shape[0] != fa.shape[0]:
        raise ConfigurationError(
            f"modalities must be paired: {fv.shape[0]} visual rows vs "
            f"{fa.shape[0]} audio rows")
    mean_v = float(np.mean(_norms(fv)))
    mean_a = float(np.mean(_norms(fa)))
    if mean_a == 0.0:
        raise DegenerateInputError("mean audio norm is 0; norm ratio undefined")
    return NormStats(mean_v, mean_a, mean_v - mean_a, mean_v / mean_a)


def rna_loss(visual, audio):
    """Relative norm alignment: (rho - 1)^2 with rho = sum|v_i| / sum|a_i|.

    The ratio of summed norms equals the ratio of mean norms (equal N), so
    minimizing drives the two modalities' mean feature norms together.
    Gradients are exact: d|x|/dx = x/|x|, zero rows get zero gradient.
    """
    fv = _rows(visual)
    fa = _rows(audio)
    if fv.shape[0] != fa.shape[0]:
        raise ConfigurationError(
            f"modalities must be paired: {fv.shape[0]} vs {fa.shape[0]} rows")
    norms_v = _norms(fv)
    norms_a = _norms(fa)
    sum_v = float(norms_v.sum())
    sum_a = float(norms_a.sum())
    if sum_a == 0.0:
        raise DegenerateInputError("mean audio norm is 0; norm ratio undefined")
    rho = sum_v / sum_a
    value = (rho - 1.0) ** 2
    # d value / d sum_v = 2 (rho-1) / sum_a;  d value / d sum_a = -2 (rho-1) rho / sum_a
    dv = 2.0 * (rho - 1.0) / sum_a
    da = -2.0 * (rho - 1.0) * rho / sum_a
    grad_v = dv * _unit_rows(fv, norms_v)
    grad_a = da * _unit_rows(fa, norms_a)
    return LossResult(value, grad_v, grad_a)


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


def _paired_cosines(fv, fa):
    """Rowwise cosines plus the pieces their gradients need."""
    if fv.shape[0] != fa.shape[0]:
        raise ConfigurationError(
            f"modalities must be paired: {fv.shape[0]} vs {fa.shape[0]} rows")
    norms_v = _norms(fv)
    norms_a = _norms(fa)
    if np.any(norms_v == 0.0) or np.any(norms_a == 0.0):
        raise DegenerateInputError(
            "zero-norm feature row: cosine similarity undefined")
    dots = np.sum(fv * fa, axis=1)
    # round-off can push |cos| infinitesimally past 1 for (anti)parallel rows,
    # which would make 1 - cos dip below the losses' value >= 0 contract
    cos = np.clip(dots / (norms_v * norms_a), -1.0, 1.0)
    return cos, norms_v, norms_a


def _cosine_grads(fv, fa, cos, norms_v, norms_a, coeff):
    """Gradients of sum_i coeff_i * cos_i w.r.t. the feature rows.

    d cos_i / d v_i = a_i / (|v_i||a_i|) - cos_i * v_i / |v_i|^2, symmetrically
    for a_i.
    """
    c = coeff[:, None]
    grad_v = c * (fa / (norms_v * norms_a)[:, None]
                  - (cos / norms_v ** 2)[:, None] * fv)
    grad_a = c * (fv / (norms_v * norms_a)[:, None]
                  - (cos / norms_a ** 2)[:, None] * fa)
    return grad_v, grad_a


def cosine_alignment_loss(visual, audio):
    """Mean over paired rows of 1 - cos(theta_i); pulls the angle to zero."""
    fv = _rows(visual)
    fa = _rows(audio)
    cos, norms_v, norms_a = _paired_cosines(fv, fa)
    n = fv.shape[0]
    value = float(np.mean(1.0 - cos))
    grad_v, grad_a = _cosine_grads(
        fv, fa, cos, norms_v, norms_a, np.full(n, -1.0 / n))
    return LossResult(value, grad_v, grad_a)


def orthogonality_loss(visual, audio):
    """Mean over paired rows of cos^2(theta_i); pushes the modalities apart."""
    fv = _rows(visual)
    fa = _rows(audio)
    cos, norms_v, norms_a = _paired_cosines(fv, fa)
    n = fv.shape[0]
    value = float(np.mean(cos ** 2))
    grad_v, grad_a = _cosine_grads(
        fv, fa, cos, norms_v, norms_a, 2.0 * cos / n)
    return LossResult(value, grad_v, grad_a)


def hna_loss(visual, audio, target_norm):
    """Hard norm alignment: (mean|v| - R)^2 + (mean|a| - R)^2 for fixed R > 0.

    Unlike the relative variant this pins both modalities to an absolute
    scale R chosen up front.
    """
    r = float(target_norm)
    if r <= 0.0:
        raise ConfigurationError(f"target norm R must be positive, got {r}")
    fv = _rows(visual)
    fa = _rows(audio)
    if fv.shape[0] != fa.shape[0]:
        raise ConfigurationError(
            f"modalities must be paired: {fv.shape[0]} vs {fa.shape[0]} rows")
    norms_v = _norms(fv)
    norms_a = _norms(fa)
    n = fv.shape[0]
    mean_v = float(norms_v.mean())
    mean_a = float(norms_a.mean())
    value = (mean_v - r) ** 2 + (mean_a - r) ** 2
    grad_v = (2.0 * (mean_v - r) / n) * _unit_rows(fv, norms_v)
    grad_a = (2.0 * (mean_a - r) / n) * _unit_rows(fa, norms_a)
    return LossResult(value, grad_v, grad_a)


def top_k_norm_share(features, k):
    """Fraction of total squared norm mass carried by the k largest feature
    dimensions of a batch (a concentration diagnostic: 1.0 means k dimensions
    hold everything).

    k is clamped to the feature dimensionality.
    """
    f = _rows(features)
    k = int(k)
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    k = min(k, f.shape[1])
    per_dim = np.sum(f * f, axis=0)
    total = float(per_dim.sum())
    if total == 0.0:
        raise DegenerateInputError("all-zero feature batch: norm share undefined")
    top = np.sort(per_dim)[::-1][:k]
    return float(top.sum() / total)


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
