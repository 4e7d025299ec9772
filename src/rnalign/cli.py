"""Command-line front end.

    rnalign generate --config spec.ini --out data/
    rnalign train    --config run.ini  --out results/
    rnalign matrix   --config grid.ini --out results/
    rnalign norms    telemetry.csv | features.rnafeat [--k 300]

Exit codes: 0 success, 1 numerical failure during a run, 2 configuration or
parse failure.  Every output file is written atomically (write-then-rename)
and no command mutates its inputs.  Given identical inputs and seeds, the
data artifacts a command writes are byte-identical across reruns; the run
manifest is the one exception, since it records wall-clock duration.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .config import (METHODS, apply_method, load_config_file,
                     parse_benchmark_spec, parse_experiment_config,
                     parse_matrix_options)
from .data import generate_benchmark, load_feature_file, save_feature_file
from .errors import (ConfigurationError, DegenerateInputError, NumericalError,
                     ParseError)
from .losses import norm_stats, top_k_norm_share
from .model import save_checkpoint
from .training import (NormTelemetry, domain_ids, headline_accuracy,
                       run_experiment, run_experiment_matrix,
                       write_results_csv)


def _atomic(path, writer):
    """Write via a temp file in the same directory, then rename into place.
    If the writer fails, the temp file is removed and the error re-raised."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _ensure_outdir(out):
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output dir {out}: {exc}")
    if not os.access(path, os.W_OK):
        raise ConfigurationError(f"output dir {out} is not writable")
    return path


def _config_as_dict(config):
    d = dict(vars(config))
    if "benchmark" in d and d["benchmark"] is not None:
        d["benchmark"] = dict(vars(d["benchmark"]))
    return d


def _write_manifest(out_dir, command, config_dict, artifacts, started):
    manifest = {
        "tool": f"rnalign {__version__}",
        "command": command,
        "config": config_dict,
        "artifacts": [str(p) for p in artifacts],
        "duration_seconds": time.time() - started,
    }
    path = out_dir / "manifest.json"
    _atomic(path, lambda tmp: tmp.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="ascii"))
    return path


def _progress(args, message):
    if not args.quiet:
        print(message, file=sys.stderr)


def cmd_generate(args):
    """Generate the synthetic benchmark: one feature file per domain and
    split, plus a manifest listing them."""
    started = time.time()
    parser = load_config_file(args.config)
    spec = parse_benchmark_spec(parser, args.config)
    if args.seed is not None:
        spec.seed = args.seed
    out_dir = _ensure_outdir(args.out)
    domains = generate_benchmark(spec)
    artifacts = []
    for domain in domains:
        for split_name, batch in (("train", domain.train),
                                  ("test", domain.test)):
            path = out_dir / f"{domain.domain_id}_{split_name}.rnafeat"
            _atomic(path, lambda tmp, b=batch: save_feature_file(b, tmp))
            artifacts.append(path)
            _progress(args, f"wrote {path}")
    artifacts.append(_write_manifest(out_dir, "generate", dict(vars(spec)),
                                     artifacts, started))
    print(f"generated {len(domains)} domains "
          f"({len(artifacts) - 1} files) in {out_dir}")
    return 0


def cmd_train(args):
    """Run one experiment: checkpoint + telemetry CSV + a one-line summary
    'setting=<...> aux=<...> acc=<float>' on stdout."""
    started = time.time()
    parser = load_config_file(args.config)
    config = parse_experiment_config(parser, args.config)
    if args.seed is not None:
        from dataclasses import replace
        config = replace(config, seed=args.seed)
    out_dir = _ensure_outdir(args.out)
    _progress(args, f"training: setting={config.setting} "
                    f"aux={config.aux_loss} seed={config.seed}")
    model, telemetry = run_experiment(config)
    checkpoint_path = out_dir / "checkpoint.rna"
    telemetry_path = out_dir / "telemetry.csv"
    _atomic(checkpoint_path, lambda tmp: save_checkpoint(model, tmp))
    _atomic(telemetry_path, lambda tmp: telemetry.to_csv(tmp))
    _write_manifest(out_dir, "train", _config_as_dict(config),
                    [checkpoint_path, telemetry_path], started)
    accuracy = headline_accuracy(telemetry)
    print(f"setting={config.setting} aux={config.aux_loss} "
          f"acc={repr(float(accuracy))}")
    return 0


def cmd_matrix(args):
    """Run a methods-by-pairs grid and write the results table."""
    started = time.time()
    parser = load_config_file(args.config)
    base = parse_experiment_config(parser, args.config)
    methods, seeds, pairs = parse_matrix_options(
        parser, base.setting, domain_ids(base), args.config)
    if args.seed is not None:
        seeds = [args.seed]
    out_dir = _ensure_outdir(args.out)
    results = {}
    for method in methods:
        _progress(args, f"method {method}: {len(seeds)} seed(s)")
        config = apply_method(base, method)
        result = run_experiment_matrix(config, pairs, seeds)
        for label, seed, message in result.failures:
            print(f"warning: {method} {label} seed {seed} failed: {message}",
                  file=sys.stderr)
        results[method] = result
    results_path = out_dir / "results.csv"
    _atomic(results_path, lambda tmp: write_results_csv(tmp, results))
    _write_manifest(out_dir, "matrix", _config_as_dict(base),
                    [results_path], started)
    for method, result in results.items():
        print(f"{method} mean={repr(float(result.mean))}")
    return 0


def _sniff_input(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            first = fh.readline().strip()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text report input: {exc}") from exc
    if first.startswith("RNAFEAT"):
        return "features"
    if first.startswith("iter,"):
        return "telemetry"
    raise ParseError(
        f"{path}: line 1: neither an RNAFEAT file nor a telemetry CSV")


def cmd_norms(args):
    """Report norm statistics of a telemetry CSV (final iteration) or of a
    feature file (plus the top-k norm-share concentration diagnostic)."""
    kind = _sniff_input(args.input)
    rows = []
    if kind == "telemetry":
        telemetry = NormTelemetry.from_csv(args.input)
        if not telemetry.iterations:
            raise ParseError(f"{args.input}: no iteration records")
        last = telemetry.iterations[-1]
        rows = [("iterations", len(telemetry.iterations)),
                ("mean_norm_v", last.mean_norm_v),
                ("mean_norm_a", last.mean_norm_a),
                ("delta", last.delta),
                ("rho", last.rho)]
        note = ("top-k norm share needs per-feature data; "
                "run on an RNAFEAT file")
    else:
        batch = load_feature_file(args.input)
        stats = norm_stats(batch.visual, batch.audio)
        k_v = min(args.k, batch.visual.shape[1])
        k_a = min(args.k, batch.audio.shape[1])
        rows = [("samples", batch.n),
                ("mean_norm_v", stats.mean_norm_visual),
                ("mean_norm_a", stats.mean_norm_audio),
                ("delta", stats.delta),
                ("rho", stats.rho),
                (f"top{k_v}_share_v",
                 top_k_norm_share(batch.visual, k_v)),
                (f"top{k_a}_share_a",
                 top_k_norm_share(batch.audio, k_a))]
        note = None
    for key, value in rows:
        print(f"{key}={repr(float(value)) if isinstance(value, float) else value}")
    if note and not args.quiet:
        print(f"note: {note}", file=sys.stderr)
    if args.out:
        lines = ["metric,value"]
        lines += [f"{k},{repr(float(v)) if isinstance(v, float) else v}"
                  for k, v in rows]
        _atomic(Path(args.out), lambda tmp: tmp.write_text(
            "\n".join(lines) + "\n", encoding="ascii"))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rnalign",
        description="Norm-alignment losses and two-stream audio-visual "
                    "training experiments.")
    parser.add_argument("--version", action="version",
                        version=f"rnalign {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True, needs_out=True):
        if needs_config:
            p.add_argument("--config", required=True,
                           help="path to the config file")
        if needs_out:
            p.add_argument("--out", required=True,
                           help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the seed from the config file")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress output")

    p = sub.add_parser("generate",
                       help="generate the synthetic benchmark as RNAFEAT files")
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="run a single training experiment")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("matrix",
                       help="run a methods-by-domain-pairs results matrix")
    common(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("norms",
                       help="norm report from a telemetry CSV or RNAFEAT file")
    p.add_argument("input", help="telemetry CSV or RNAFEAT feature file")
    p.add_argument("--k", type=int, default=300,
                   help="top-k feature dimensions for the norm-share "
                        "diagnostic, clamped to the feature dim: the default "
                        "300 covers every dimension of the stock 24-d "
                        "inputs, so its share reads 1.0 by definition")
    p.add_argument("--out", default=None,
                   help="optionally also write the report as CSV here")
    p.add_argument("--quiet", action="store_true",
                   help="suppress notes")
    p.set_defaults(func=cmd_norms)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
