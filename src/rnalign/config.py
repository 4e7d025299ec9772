"""Config-file parsing for the command line.

Files are flat INI-style text: ``[section]`` headers over ``key = value``
lines, full-line comments with ``#`` or ``;``, no nesting.  Three sections
are recognized:

    [benchmark]   knobs of the synthetic data generator (BenchmarkSpec)
    [experiment]  a single training run (ExperimentConfig)
    [matrix]      methods, seeds, and optional pair list for matrix runs

Every key is validated against a whitelist so typos fail loudly instead of
silently falling back to defaults.
"""

import configparser
from dataclasses import replace

from .data import BenchmarkSpec, read_text
from .errors import ConfigurationError, ParseError
from .training import ExperimentConfig

# method-row names accepted in [matrix] and what they change on the base run
METHODS = {
    "source-only": {"aux_loss": "none"},
    "alignment-only": {"aux_loss": "cosine-align"},
    "orthogonality-only": {"aux_loss": "orthogonality"},
    "batchnorm": {"aux_loss": "batchnorm-only"},
    # The hard-norm penalty is a bare quadratic on the mean norms, so its
    # gradient does not shrink as the norms grow the way the ratio loss does;
    # at weight 1.0 it diverges on the high-norm audio stream.  0.03 is the
    # largest weight that trains stably, and it still moves the norm gap by
    # an order of magnitude over a default-length run.
    "hna": {"aux_loss": "hna", "lambda_weight": 0.03},
    "rna": {"aux_loss": "rna"},
    "rna-mid": {"aux_loss": "rna", "fusion_mode": "mid"},
}

_BENCHMARK_KEYS = {
    "num_domains": int,
    "num_classes": int,
    "input_dim_visual": int,
    "input_dim_audio": int,
    "samples_per_class": int,
    "prototype_scale": float,
    "transform_strength": float,
    "noise_sigma": float,
    "audio_norm_scale": float,
    "train_fraction": float,
    "class_skew": float,
    "seed": int,
}

# config-file key -> (ExperimentConfig field, type)
_EXPERIMENT_KEYS = {
    "setting": ("setting", str),
    "aux_loss": ("aux_loss", str),
    "lambda": ("lambda_weight", float),
    "hna_target_norm": ("hna_target_norm", float),
    "fusion": ("fusion_mode", str),
    "hidden_dim": ("hidden_dim", int),
    "feature_dim": ("feature_dim", int),
    "learning_rate": ("learning_rate", float),
    "momentum": ("momentum", float),
    "weight_decay": ("weight_decay", float),
    "iterations": ("iterations", int),
    "batch_size": ("batch_size", int),
    "checkpoint_average": ("checkpoint_average", int),
    "source": ("source_index", int),
    "target": ("target_index", int),
    "seed": ("seed", int),
    "data_dir": ("data_dir", str),
}

_MATRIX_KEYS = ("methods", "seeds", "pairs")

_SECTIONS = ("benchmark", "experiment", "matrix")


def load_config_file(path):
    """Read and syntactically validate a config file.

    Returns a ConfigParser; raises ParseError on syntax errors, unknown
    sections, or unknown keys.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(read_text(path, "utf-8"), source=str(path))
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ParseError(f"{path}: {exc}") from exc
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ParseError(
                f"{path}: unknown section [{section}] "
                f"(expected one of {', '.join(_SECTIONS)})")
    if parser.has_section("benchmark"):
        for key in parser["benchmark"]:
            if key not in _BENCHMARK_KEYS:
                raise ParseError(f"{path}: unknown [benchmark] key: {key}")
    if parser.has_section("experiment"):
        for key in parser["experiment"]:
            if key not in _EXPERIMENT_KEYS:
                raise ParseError(f"{path}: unknown [experiment] key: {key}")
    if parser.has_section("matrix"):
        for key in parser["matrix"]:
            if key not in _MATRIX_KEYS:
                raise ParseError(f"{path}: unknown [matrix] key: {key}")
    return parser


def _convert(path, section, key, value, caster):
    try:
        return caster(value)
    except ValueError as exc:
        raise ParseError(
            f"{path}: [{section}] {key} = {value!r}: {exc}") from exc


def parse_benchmark_spec(parser, path="<config>"):
    """Build a BenchmarkSpec from the [benchmark] section (defaults apply
    to every omitted key)."""
    kwargs = {}
    if parser.has_section("benchmark"):
        for key, value in parser["benchmark"].items():
            kwargs[key] = _convert(path, "benchmark", key, value,
                                   _BENCHMARK_KEYS[key])
    try:
        return BenchmarkSpec(**kwargs)
    except ConfigurationError as exc:
        raise ParseError(f"{path}: invalid [benchmark]: {exc}") from exc


def parse_experiment_config(parser, path="<config>"):
    """Build an ExperimentConfig from [experiment] (+ nested [benchmark])."""
    benchmark = parse_benchmark_spec(parser, path)
    kwargs = {"benchmark": benchmark}
    if parser.has_section("experiment"):
        for key, value in parser["experiment"].items():
            target_field, caster = _EXPERIMENT_KEYS[key]
            if value == "":
                continue
            kwargs[target_field] = _convert(path, "experiment", key, value,
                                            caster)
    config = ExperimentConfig(**kwargs)
    try:
        config.validate()
    except ConfigurationError as exc:
        raise ParseError(f"{path}: invalid [experiment]: {exc}") from exc
    return config


def _parse_pair(token, setting, ids, path):
    """One pair token of domain ids: "D1->D2" for single-source settings,
    "D3" (the target) for dg-multi."""
    def domain_index(name):
        name = name.strip()
        if name not in ids:
            raise ParseError(f"{path}: unknown domain {name!r} in pairs "
                             f"(domains: {', '.join(ids)})")
        return ids.index(name)

    if setting == "dg-multi":
        return (domain_index(token),)
    if "->" not in token:
        raise ParseError(
            f"{path}: pair {token!r} must look like 'D1->D2' for {setting}")
    left, right = token.split("->", 1)
    return (domain_index(left), domain_index(right))


def parse_matrix_options(parser, setting, ids, path="<config>"):
    """(methods, seeds, pairs-or-None) from [matrix]; ``ids`` are the
    domain ids the pair tokens name.

    Defaults: methods = source-only and rna; seeds = 0,1,2; pairs = the full
    grid for the setting (signalled by None).
    """
    methods = ["source-only", "rna"]
    seeds = [0, 1, 2]
    pairs = None
    if parser.has_section("matrix"):
        section = parser["matrix"]
        if "methods" in section:
            methods = [m.strip() for m in section["methods"].split(",")
                       if m.strip()]
            if not methods:
                raise ParseError(f"{path}: [matrix] methods is empty")
            for i, m in enumerate(methods):
                if m not in METHODS:
                    raise ParseError(
                        f"{path}: unknown method {m!r} (expected one of "
                        f"{', '.join(METHODS)})")
                if m in methods[:i]:
                    raise ParseError(
                        f"{path}: [matrix] methods names {m!r} twice")
        if "seeds" in section:
            try:
                seeds = [int(s) for s in section["seeds"].split(",")
                         if s.strip()]
            except ValueError as exc:
                raise ParseError(f"{path}: [matrix] seeds: {exc}") from exc
            if not seeds:
                raise ParseError(f"{path}: [matrix] seeds is empty")
        if "pairs" in section:
            pairs = [_parse_pair(tok.strip(), setting, ids, path)
                     for tok in section["pairs"].split(",") if tok.strip()]
            if not pairs:
                raise ParseError(f"{path}: [matrix] pairs is empty")
    return methods, seeds, pairs


def apply_method(config, method):
    """The base run reconfigured as one named method row."""
    if method not in METHODS:
        raise ConfigurationError(f"unknown method: {method!r}")
    return replace(config, **METHODS[method])
