"""Command-line front end.

    rnalign generate --config spec.ini --out data/
    rnalign train    --config run.ini  --out results/
    rnalign matrix   --config grid.ini --out results/
    rnalign norms    telemetry.csv | features.rnafeat

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
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .config import (METHODS, apply_method, load_config_file,
                     parse_benchmark_spec, parse_experiment_config,
                     parse_matrix_options)
from .data import (check_pair, generate_benchmark, generated_domain_ids,
                   load_feature_file, read_bytes, save_feature_file,
                   write_bytes)
from .errors import ConfigurationError, NumericalError, ParseError
from .losses import norm_stats
from .model import save_checkpoint
from .training import (NormTelemetry, default_pairs, domain_ids,
                       headline_accuracy, run_experiment,
                       run_experiment_matrix, write_results_csv)


def _ensure_outdir(out):
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output dir {out}: {exc}")
    if not os.access(path, os.W_OK):
        raise ConfigurationError(f"output dir {out} is not writable")
    return path


def _write_manifest(out_dir, command, config_dict, artifacts, started):
    manifest = {
        "tool": f"rnalign {__version__}",
        "command": command,
        "config": config_dict,
        "artifacts": [str(p) for p in artifacts],
        "duration_seconds": time.time() - started,
    }
    path = out_dir / "manifest.json"
    write_bytes(path, (json.dumps(manifest, indent=2, sort_keys=True)
                       + "\n").encode("ascii"))
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
        spec = replace(spec, seed=args.seed)
    # a data_dir run reads every domain file in the directory, so another
    # benchmark's domains left there would join this one's
    ids = generated_domain_ids(spec.num_domains)
    for path in sorted(Path(args.out).glob("*.rnafeat")):
        domain_id, _, split = path.name[:-len(".rnafeat")].rpartition("_")
        if split in ("train", "test") and domain_id not in ids:
            raise ConfigurationError(
                f"{path}: domain {domain_id!r} is not one of the domains "
                f"this spec writes ({', '.join(ids)}); remove it or choose "
                f"another --out")
    out_dir = _ensure_outdir(args.out)
    domains = generate_benchmark(spec)
    artifacts = []
    for domain in domains:
        for split_name, batch in (("train", domain.train),
                                  ("test", domain.test)):
            path = out_dir / f"{domain.domain_id}_{split_name}.rnafeat"
            save_feature_file(batch, path)
            artifacts.append(path)
            _progress(args, f"wrote {path}")
    artifacts.append(_write_manifest(out_dir, "generate", asdict(spec),
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
        config = replace(config, seed=args.seed)
    # checked here, not when a config is built: a [matrix] base config's
    # indices are overridden by its pairs
    num_domains = len(domain_ids(config))
    pair = (config.source_index, config.target_index)
    try:
        check_pair(config.setting, pair[1:] if config.setting == "dg-multi"
                   else pair, num_domains)
    except ConfigurationError as exc:
        raise ParseError(f"{args.config}: invalid [experiment]: {exc}") from exc
    out_dir = _ensure_outdir(args.out)
    _progress(args, f"training: setting={config.setting} "
                    f"aux={config.aux_loss} seed={config.seed}")
    model, telemetry = run_experiment(config)
    checkpoint_path = out_dir / "checkpoint.rna"
    telemetry_path = out_dir / "telemetry.csv"
    save_checkpoint(model, checkpoint_path)
    telemetry.to_csv(telemetry_path)
    _write_manifest(out_dir, "train", asdict(config),
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
    ids = domain_ids(base)
    methods, seeds, pairs = parse_matrix_options(
        parser, base.setting, ids, args.config)
    if args.seed is not None:
        seeds = [args.seed]
    if pairs is None:
        try:
            pairs = default_pairs(base.setting, len(ids))
        except ConfigurationError as exc:
            raise ParseError(
                f"{args.config}: invalid [experiment]: {exc}") from exc
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
    write_results_csv(results_path, results)
    _write_manifest(out_dir, "matrix", asdict(base), [results_path], started)
    for method, result in results.items():
        print(f"{method} mean={repr(float(result.mean))}")
    return 0


def _sniff_input(path):
    first = read_bytes(path).split(b"\n", 1)[0].strip()
    if first.startswith(b"RNAFEAT"):
        return "features"
    if first.startswith(b"iter,"):
        return "telemetry"
    raise ParseError(
        f"{path}: line 1: neither an RNAFEAT file nor a telemetry CSV")


def cmd_norms(args):
    """Report norm statistics of a telemetry CSV (final iteration) or of a
    feature file."""
    kind = _sniff_input(args.input)
    if args.out:
        if (os.path.exists(args.out)
                and os.path.samefile(args.out, args.input)):
            raise ConfigurationError(
                f"--out {args.out} is the input file; norms does not "
                f"replace its input")
        _ensure_outdir(Path(args.out).parent)
    if kind == "telemetry":
        telemetry = NormTelemetry.from_csv(args.input)
        if not telemetry.iterations:
            raise ParseError(f"{args.input}: no iteration records")
        last = telemetry.iterations[-1]
        count = ("iterations", len(telemetry.iterations))
        norms = last.mean_norm_v, last.mean_norm_a, last.delta, last.rho
    else:
        batch = load_feature_file(args.input)
        count = ("samples", batch.n)
        norms = norm_stats(batch.visual, batch.audio)
    rows = [count, *zip(("mean_norm_v", "mean_norm_a", "delta", "rho"),
                        map(repr, norms))]
    for key, text in rows:
        print(f"{key}={text}")
    if args.out:
        report = "".join(f"{key},{text}\n" for key, text in rows)
        write_bytes(args.out, ("metric,value\n" + report).encode("ascii"))
    return 0


def _seed(text):
    """A --seed value: an integer >= 0, the seeds numpy's generators take."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return seed


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rnalign",
        description="Norm-alignment losses and two-stream audio-visual "
                    "training experiments.")
    parser.add_argument("--version", action="version",
                        version=f"rnalign {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="path to the config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the seed from the config file "
                            "(an integer >= 0)")
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
    p.add_argument("--out", default=None,
                   help="optionally also write the report as CSV here")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress output (norms prints none)")
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
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
