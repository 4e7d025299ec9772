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
from dataclasses import fields, replace

from .data import BenchmarkSpec, check_pair, read_text
from .errors import ConfigurationError, ParseError
from .training import ExperimentConfig, no_repeats

# method-row names accepted in [matrix] and what they change on the base run
METHODS = {
    "source-only": {"aux_loss": "none"},
    "batchnorm": {"aux_loss": "batchnorm-only"},
    # The hard-norm penalty is a bare quadratic on the mean norms, so its
    # gradient does not shrink as the norms grow the way the ratio loss does.
    # 0.03 is not a stability limit: on the stock benchmark all 45 dg-single
    # and dg-multi runs of the acceptance grid's pairs and seeds complete at
    # weight 0.5, and 28 of the 45 diverge at 1.0.
    "hna": {"aux_loss": "hna", "lambda_weight": 0.03},
    "rna": {"aux_loss": "rna"},
    "rna-mid": {"aux_loss": "rna", "fusion_mode": "mid"},
}

# the [experiment] keys whose names differ from their ExperimentConfig fields
_RENAMED = {"lambda": "lambda_weight", "fusion": "fusion_mode",
            "source": "source_index", "target": "target_index"}
_KEY_OF = {field: key for key, field in _RENAMED.items()}

# the keys each section accepts; for [benchmark] and [experiment], config-file
# key -> the dataclass field it sets
_SECTION_KEYS = {
    "benchmark": {f.name: f.name for f in fields(BenchmarkSpec)},
    "experiment": {_KEY_OF.get(f.name, f.name): f.name
                   for f in fields(ExperimentConfig) if f.name != "benchmark"},
    "matrix": ("methods", "seeds", "pairs")}


def load_config_file(path):
    """Read and syntactically validate a config file.

    Returns a ConfigParser; raises ParseError on syntax errors, unknown
    sections, or unknown keys.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(read_text(path, "utf-8"), source=str(path))
    except configparser.Error as exc:
        raise ParseError(f"{path}: {exc}") from exc
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ParseError(
                f"{path}: unknown section [{section}] "
                f"(expected one of {', '.join(_SECTION_KEYS)})")
    for section, accepted in _SECTION_KEYS.items():
        if parser.has_section(section):
            for key in parser[section]:
                if key not in accepted:
                    raise ParseError(
                        f"{path}: unknown [{section}] key: {key}")
    return parser


def _section(parser, section, path, cls, **kwargs):
    """Build ``cls`` from ``[section]``: each key's text goes to its field as
    is, and the dataclass casts and checks it (defaults apply to every
    omitted key)."""
    if parser.has_section(section):
        for key, value in parser[section].items():
            if value == "":
                raise ParseError(f"{path}: [{section}] {key} is empty")
            kwargs[_SECTION_KEYS[section][key]] = value
    try:
        return cls(**kwargs)
    except ConfigurationError as exc:
        raise ParseError(f"{path}: invalid [{section}]: {exc}") from exc


def parse_benchmark_spec(parser, path="<config>"):
    """Build a BenchmarkSpec from the [benchmark] section."""
    return _section(parser, "benchmark", path, BenchmarkSpec)


def parse_experiment_config(parser, path="<config>"):
    """Build an ExperimentConfig from [experiment] (+ nested [benchmark])."""
    return _section(parser, "experiment", path, ExperimentConfig,
                    benchmark=parse_benchmark_spec(parser, path))


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
        pair = (domain_index(token),)
    elif "->" not in token:
        raise ParseError(
            f"{path}: pair {token!r} must look like 'D1->D2' for {setting}")
    else:
        left, right = token.split("->", 1)
        pair = (domain_index(left), domain_index(right))
    try:
        return check_pair(setting, pair, len(ids))
    except ConfigurationError as exc:
        raise ParseError(f"{path}: [matrix] pairs: {token!r}: {exc}") from exc


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
            for m in methods:
                if m not in METHODS:
                    raise ParseError(
                        f"{path}: unknown method {m!r} (expected one of "
                        f"{', '.join(METHODS)})")
            no_repeats(f"{path}: [matrix] methods", methods, methods)
        if "seeds" in section:
            try:
                seeds = [int(s) for s in section["seeds"].split(",")
                         if s.strip()]
            except ValueError as exc:
                raise ParseError(f"{path}: [matrix] seeds: {exc}") from exc
            if not seeds:
                raise ParseError(f"{path}: [matrix] seeds is empty")
            if min(seeds) < 0:
                raise ParseError(f"{path}: [matrix] seeds must be >= 0, "
                                 f"got {min(seeds)}")
            no_repeats(f"{path}: [matrix] seeds", seeds, seeds)
        if "pairs" in section:
            tokens = [tok.strip() for tok in section["pairs"].split(",")
                      if tok.strip()]
            pairs = [_parse_pair(tok, setting, ids, path) for tok in tokens]
            if not pairs:
                raise ParseError(f"{path}: [matrix] pairs is empty")
            no_repeats(f"{path}: [matrix] pairs", pairs, tokens)
    return methods, seeds, pairs


def apply_method(config, method):
    """The base run reconfigured as one named method row."""
    if method not in METHODS:
        raise ConfigurationError(f"unknown method: {method!r}")
    return replace(config, **METHODS[method])
