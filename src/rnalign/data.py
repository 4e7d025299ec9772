"""Synthetic multimodal domain-shifted benchmark, the one split rule of the
generalization and adaptation settings, and a plain-text feature file format
for externally computed features.

The generator plants one visual and one audio prototype per class on the
unit sphere; every domain sees the same prototypes (shared semantics)
through its own random orthogonal transform and bias per modality (the
domain shift), plus isotropic Gaussian noise.  Finally all audio inputs
are multiplied by a norm-imbalance factor ``audio_norm_scale`` — this changes
magnitudes only, never angles, and is what gives the norm-alignment losses a
measurable job.

``split_domains`` is the split rule of every setting: training sees labeled
source train splits only, uda adds the target's train split without its
labels, and every run is tested on the target's held-out test split.

Feature file format (RNAFEAT v1): a header line

    RNAFEAT v1 <N> <Dv> <Da> <labeled:0|1>

followed by N data lines of Dv visual floats, Da audio floats and, when
labeled, one trailing integer class index, all whitespace-separated decimal.
Floats are written with ``repr`` so a save/load round-trip is lossless at
64-bit precision.  No number holds a "_" digit group, which Python's ``int``
and ``float`` would accept.
"""

import math
import typing
from array import array
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError, ParseError

_DEFAULT_BENCHMARK_SEED = 7


class MultiModalBatch:
    """Paired visual/audio inputs with optional labels.

    labels is None exactly when the batch is unlabeled (an adaptation-time
    target batch); otherwise it is an int array of class indices.
    """

    def __init__(self, visual, audio, labels=None):
        self.visual = np.asarray(visual, dtype=np.float64)
        self.audio = np.asarray(audio, dtype=np.float64)
        if self.visual.ndim != 2 or self.audio.ndim != 2:
            raise ConfigurationError("batch inputs must be 2-D (N x dim)")
        if self.visual.shape[0] != self.audio.shape[0]:
            raise ConfigurationError(
                f"modalities must be paired: {self.visual.shape[0]} visual "
                f"rows vs {self.audio.shape[0]} audio rows")
        if not (np.all(np.isfinite(self.visual))
                and np.all(np.isfinite(self.audio))):
            raise ConfigurationError("batch contains non-finite inputs")
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (self.visual.shape[0],):
                raise ConfigurationError(
                    f"expected {self.visual.shape[0]} labels, "
                    f"got shape {labels.shape}")
        self.labels = labels

    @property
    def n(self):
        return self.visual.shape[0]

    @property
    def labeled(self):
        return self.labels is not None

    def take(self, indices):
        """Row-subset batch (labels carried along when present)."""
        idx = np.asarray(indices)
        labels = self.labels[idx] if self.labeled else None
        return MultiModalBatch(self.visual[idx], self.audio[idx], labels)

    def without_labels(self):
        """The same inputs with the labels structurally removed."""
        return MultiModalBatch(self.visual, self.audio, None)

    @staticmethod
    def concatenate(batches):
        """Stack several batches; all must agree on labeledness."""
        if not batches:
            raise ConfigurationError("cannot concatenate zero batches")
        labeled = batches[0].labeled
        if any(b.labeled != labeled for b in batches):
            raise ConfigurationError(
                "cannot mix labeled and unlabeled batches")
        visual = np.concatenate([b.visual for b in batches], axis=0)
        audio = np.concatenate([b.audio for b in batches], axis=0)
        labels = (np.concatenate([b.labels for b in batches])
                  if labeled else None)
        return MultiModalBatch(visual, audio, labels)


def _int(value):
    """``int(value)``, rejecting a fractional number instead of truncating."""
    if isinstance(value, str) or int(value) == value:
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


_CASTS = {int: _int, float: float, bool: bool, str: str}


def cast_fields(config):
    """Cast in place each field of a dataclass declared int, float, bool or
    str (or Optional of one, when not None) to that type.  A value that does
    not cast, or a float that is not finite, is a ConfigurationError."""
    for f in fields(config):
        kind, value = f.type, getattr(config, f.name)
        if typing.get_origin(kind) is typing.Union:  # Optional[kind]
            if value is None:
                continue
            kind = typing.get_args(kind)[0]
        if kind not in _CASTS:
            continue
        try:
            value = _CASTS[kind](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"{f.name}: {exc}") from exc
        if kind is float and not math.isfinite(value):
            raise ConfigurationError(f"{f.name} must be finite, got {value}")
        object.__setattr__(config, f.name, value)


@dataclass(frozen=True)
class BenchmarkSpec:
    """Knobs of the synthetic generator, cast and checked on construction."""
    num_domains: int = 3
    num_classes: int = 8
    input_dim_visual: int = 24
    input_dim_audio: int = 24
    samples_per_class: int = 200
    transform_strength: float = 0.8
    noise_sigma: float = 0.5
    audio_norm_scale: float = 10.0
    seed: int = _DEFAULT_BENCHMARK_SEED

    def __post_init__(self):
        cast_fields(self)
        if self.num_domains < 2:
            raise ConfigurationError(
                "need at least 2 domains (one source, one target)")
        if self.num_classes < 2:
            raise ConfigurationError("need at least 2 classes")
        if self.input_dim_visual < 2 or self.input_dim_audio < 2:
            raise ConfigurationError("input dims must be >= 2")
        if self.samples_per_class < 4:
            raise ConfigurationError("samples_per_class must be >= 4")
        if self.transform_strength < 0:
            raise ConfigurationError("transform_strength must be >= 0")
        if self.noise_sigma < 0:
            raise ConfigurationError("noise_sigma must be >= 0")
        if self.audio_norm_scale <= 0:
            raise ConfigurationError("audio_norm_scale must be positive")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


class DomainData:
    """One generated domain: a labeled train split and a labeled test split."""

    def __init__(self, domain_id, train, test):
        self.domain_id = domain_id
        self.train = train
        self.test = test


def _random_rotation(rng, dim, strength):
    """Orthogonal transform interpolated toward identity: expm(strength * S)
    with S skew-symmetric of unit spectral norm, so no plane rotates by more
    than ``strength`` radians and strength 0 gives exactly the identity."""
    if strength == 0.0:
        return np.eye(dim)
    # imported here, so that only generating data needs scipy
    from scipy.linalg import expm
    raw = rng.standard_normal((dim, dim))
    skew = (raw - raw.T) / 2.0
    spectral = np.linalg.norm(skew, ord=2)
    if spectral == 0.0:
        return np.eye(dim)
    return expm((strength / spectral) * skew)


def generated_domain_ids(num_domains):
    """The ids of the generated domains: "D1".."Dk"."""
    return [f"D{d + 1}" for d in range(num_domains)]


def generate_benchmark(spec):
    """Generate every domain of the benchmark.

    Returns a list of ``spec.num_domains`` DomainData objects with the ids
    of ``generated_domain_ids``.  Identical spec (including seed) always
    yields bitwise identical data.
    """
    root = np.random.SeedSequence(spec.seed)
    proto_seed, *domain_seeds = root.spawn(1 + spec.num_domains)
    proto_rng = np.random.default_rng(proto_seed)

    def prototypes(dim):
        raw = proto_rng.standard_normal((spec.num_classes, dim))
        return raw / np.linalg.norm(raw, axis=1, keepdims=True)

    streams = ((spec.input_dim_visual, 1.0),
               (spec.input_dim_audio, spec.audio_norm_scale))
    protos = [prototypes(width) for width, _ in streams]
    # each class has samples_per_class (>= 4) samples, 3/4 of them (rounded)
    # in the train split, so both splits hold every class
    n = spec.samples_per_class
    n_train = int(round(0.75 * n))

    domains = []
    for d, domain_id in enumerate(generated_domain_ids(spec.num_domains)):
        rng = np.random.default_rng(domain_seeds[d])
        rots = [_random_rotation(rng, width, spec.transform_strength)
                for width, _ in streams]
        biases = [spec.transform_strength * (1.0 / np.sqrt(width))
                  * rng.standard_normal(width) for width, _ in streams]

        train_parts, test_parts = [], []
        for c in range(spec.num_classes):
            columns = [(rot @ proto[c] + bias + spec.noise_sigma
                        * rng.standard_normal((n, width))) * scale
                       for rot, proto, bias, (width, scale)
                       in zip(rots, protos, biases, streams)]
            columns.append(np.full(n, c, dtype=np.int64))
            train_parts.append([x[:n_train] for x in columns])
            test_parts.append([x[n_train:] for x in columns])

        def assemble(parts):
            columns = [np.concatenate(column) for column in zip(*parts)]
            order = rng.permutation(len(columns[-1]))
            return MultiModalBatch(*(column[order] for column in columns))

        domains.append(DomainData(domain_id, assemble(train_parts),
                                  assemble(test_parts)))
    return domains


def split_domains(domains, setting, source_index, target_index):
    """(labeled source pool, target train batch with its labels removed or
    None, labeled target test batch) for a run of ``setting``.

    dg-multi pools the train splits of every domain except the target;
    dg-single and uda train on the one source domain.  Only uda gets the
    target's train split, and never its labels; every setting is tested on
    the target's held-out test split.
    """
    if len(domains) < 2:
        raise ConfigurationError("need at least 2 domains")
    single = setting != "dg-multi"
    if single and source_index == target_index:
        raise ConfigurationError("source and target domains must differ")
    for idx in (source_index, target_index) if single else (target_index,):
        if not 0 <= idx < len(domains):
            raise ConfigurationError(f"domain index {idx} out of range")
    target = domains[target_index]
    if single:
        pool = domains[source_index].train
    else:
        pool = MultiModalBatch.concatenate(
            [d.train for i, d in enumerate(domains) if i != target_index])
    target_train = target.train.without_labels() if setting == "uda" else None
    return pool, target_train, target.test


def save_feature_file(batch, path):
    """Write a MultiModalBatch as an RNAFEAT v1 text file (lossless floats).
    A batch the format cannot hold (no rows, or a modality of width 0) is a
    ConfigurationError naming the path, raised before the file is opened."""
    if min(batch.n, batch.visual.shape[1], batch.audio.shape[1]) < 1:
        raise ConfigurationError(
            f"{path}: an RNAFEAT file needs N, Dv and Da >= 1, got "
            f"{batch.n}, {batch.visual.shape[1]}, {batch.audio.shape[1]}")
    lines = [f"RNAFEAT v1 {batch.n} {batch.visual.shape[1]} "
             f"{batch.audio.shape[1]} {1 if batch.labeled else 0}"]
    labels = batch.labels.tolist() if batch.labeled else None
    # one row at a time: the values as Python floats, whose repr is the
    # shortest round-tripping text; a whole-matrix tolist would hold every
    # value as a Python float at once
    for i in range(batch.n):
        line = " ".join(map(repr, batch.visual[i].tolist()
                            + batch.audio[i].tolist()))
        if labels is not None:
            line += f" {labels[i]}"
        lines.append(line)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_bytes(path):
    """A file's bytes.  Every reader opens its file here, so a file that
    cannot be read (missing, a directory, unreadable) is a ParseError naming
    the path."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def read_text(path, encoding="ascii", newline=None):
    """A text file's contents, decoded from ``read_bytes(path)`` with
    universal newlines unless ``newline`` is ``""``; a byte sequence the
    encoding rejects is a ParseError naming its byte offset."""
    blob = read_bytes(path)
    try:
        text = blob.decode(encoding)
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: byte {exc.start}: 0x{blob[exc.start]:02x} is not "
            f"{encoding} text") from exc
    if newline is None:  # universal newlines
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _first_non_finite_row(values, width):
    """Index of the first complete ``width``-float row of ``values`` that
    holds a non-finite value, or None."""
    flat = np.frombuffer(values, dtype=np.float64)
    finite = np.isfinite(flat[:len(flat) // width * width].reshape(-1, width))
    if finite.all():
        return None
    return int(np.argmin(finite.all(axis=1)))


def load_feature_file(path):
    """Parse an RNAFEAT v1 file back into a MultiModalBatch.

    Raises ParseError (naming the offending line, or byte for non-ASCII
    content) on malformed headers, wrong per-line field counts (broken
    visual/audio pairing), non-finite values, truncation, or trailing
    garbage.  A "_" anywhere in the file is reported first.
    """
    text = read_text(path)
    # int() and float() read "1_0" as 10, and no writer emits a "_"
    at = text.find("_")
    if at >= 0:
        line = 1 + text.count("\n", 0, at)
        raise ParseError(f"{path}: line {line}: unexpected '_'")
    raw_lines = text.split("\n")
    if raw_lines and raw_lines[-1] == "":
        raw_lines.pop()
    if not raw_lines:
        raise ParseError(f"{path}: line 1: empty file")
    header = raw_lines[0].split()
    if len(header) != 6 or header[0] != "RNAFEAT" or header[1] != "v1":
        raise ParseError(
            f"{path}: line 1: expected header 'RNAFEAT v1 N Dv Da labeled'")
    try:
        n, dim_v, dim_a, labeled_flag = (int(header[2]), int(header[3]),
                                         int(header[4]), int(header[5]))
    except ValueError as exc:
        raise ParseError(f"{path}: line 1: non-integer header field") from exc
    if n < 1 or dim_v < 1 or dim_a < 1 or labeled_flag not in (0, 1):
        raise ParseError(f"{path}: line 1: invalid header values")
    if len(raw_lines) - 1 < n:
        raise ParseError(
            f"{path}: truncated: header promises {n} rows, "
            f"found {len(raw_lines) - 1}")
    if len(raw_lines) - 1 > n:
        raise ParseError(
            f"{path}: line {n + 2}: trailing data beyond the {n} "
            f"declared rows")
    labeled = labeled_flag == 1
    width = dim_v + dim_a
    expected = width + (1 if labeled else 0)
    values = array("d")  # the rows' floats, row after row
    labels = array("q") if labeled else None

    def row_error(lineno, message):
        """The error of a parse stopped at ``lineno``.  Rows are checked in
        file order (field count, numbers, finiteness, label), so a
        non-finite value among the rows whose floats are all read, this
        one's included, is the error the file reports."""
        bad = _first_non_finite_row(values, width)
        if bad is not None:
            lineno, message = bad + 2, "non-finite value"
        return ParseError(f"{path}: line {lineno}: {message}")

    for lineno, line in enumerate(raw_lines[1:], start=2):
        row = line.split()
        if len(row) != expected:
            raise row_error(
                lineno, f"expected {expected} fields ({dim_v} visual + "
                f"{dim_a} audio{' + 1 label' if labeled else ''}), got "
                f"{len(row)} — visual/audio pairing broken")
        label = row.pop() if labeled else None
        try:
            values.extend(map(float, row))
        except ValueError as exc:
            raise row_error(lineno, "non-numeric value") from exc
        if labeled:
            try:
                labels.append(int(label))
            except (ValueError, OverflowError) as exc:
                raise row_error(
                    lineno, f"invalid label {label[:20]!r}") from exc
    bad = _first_non_finite_row(values, width)
    if bad is not None:
        raise ParseError(f"{path}: line {bad + 2}: non-finite value")
    rows = np.frombuffer(values, dtype=np.float64).reshape(n, width)
    visual = rows[:, :dim_v].copy()
    audio = rows[:, dim_v:].copy()
    if labeled:
        labels = np.frombuffer(labels, dtype=np.int64).copy()
    return MultiModalBatch(visual, audio, labels)
