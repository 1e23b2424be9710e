"""Command-line entry point: accuracy prediction, baselines, and benchmarking.

Exit codes: 0 success, 2 input error (bad flags, unreadable or inconsistent
arrays), 3 numerical failure, 4 source-based baseline without validation
data. Input errors name the offending array and its shape on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import baselines, bench, calibrator, estimator, ingest, numerics
from .errors import InputError, MissingValidationDataError, NumericalError

ALL_BASELINES = baselines.SOURCE_FREE_METHODS + baselines.SOURCE_BASED_METHODS


def _bundle_from_args(args) -> ingest.DatasetBundle:
    given = {key: getattr(args, key) for key in ingest.BUNDLE_KEYS
             if getattr(args, key, None) is not None}
    if args.manifest is None:
        return ingest.load_bundle(given)
    if given:
        raise InputError(f"--manifest and the per-array flags are exclusive; "
                         f"also given: {', '.join(given)}")
    return ingest.load_bundle(ingest.read_manifest(args.manifest))


def _config_from_args(cls, args):
    """`cls` with each field read from the flag stored under its name."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def _print_and_write(report, args):
    """Stamp the report with --seed, write it to --out, print the estimate."""
    report.seed = args.seed
    ingest.write_report(report, args.out)
    print(f"{report.predicted_accuracy:.4f}")


def cmd_predict(args) -> int:
    config = _config_from_args(estimator.EstimatorConfig, args)
    report = estimator.predict_accuracy(_bundle_from_args(args), config)
    _print_and_write(report, args)
    return 0


def cmd_baseline(args) -> int:
    report = baselines.run_baseline(args.method, _bundle_from_args(args),
                                    temperature=args.temperature,
                                    energy_temperature=args.energy_temperature)
    _print_and_write(report, args)
    return 0


def _flag_list(flag, text, convert):
    """Comma-separated values of `flag`; InputError on a bad or repeated value."""
    try:
        values = [convert(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"{flag} must be comma-separated numbers, got {text!r}") from None
    if not values:
        raise InputError(f"{flag} names no value, got {text!r}")
    if len(set(values)) < len(values):
        raise InputError(f"{flag} repeats a value, got {text!r}")
    return values


def cmd_bench(args) -> int:
    ratios = _flag_list("--ratios", args.ratios, float)
    if any(not 0.0 < r <= 1.0 for r in ratios):
        raise InputError(f"--ratios must lie in (0, 1], got {args.ratios!r}")
    if args.trials < 1:
        raise InputError(f"--trials must be >= 1, got {args.trials}")
    methods = list(bench.ALL_METHODS)
    if args.methods:
        methods = _flag_list("--methods", args.methods, str)
    if args.suite == "default":
        scenarios = bench.default_suite(args.seed)
    else:
        try:
            docs = json.loads(Path(args.suite).read_text("utf-8-sig"))
        except (ValueError, RecursionError) as exc:  # also too long an integer, too deep a nest
            raise InputError(f"{args.suite}: not a valid suite file: {exc}") from None
        if not isinstance(docs, list) or not docs:
            raise InputError(f"{args.suite}: suite file must hold a non-empty JSON list")
        scenarios = [bench.scenario_from_dict(doc, i) for i, doc in enumerate(docs)]
    table = bench.run_suite(scenarios, methods=methods,
                            inclusion_ratios=ratios, trials=args.trials)
    json_path, csv_path = bench.write_mae_table(table, args.out)
    for method in table.methods:
        if method in table.mae:
            print(f"{method:22s} MAE {table.mae[method]:.4f}")
    print(f"wrote {json_path} and {csv_path}")
    return 0


def cmd_dump_calibration(args) -> int:
    bundle = _bundle_from_args(args)
    config = _config_from_args(calibrator.CalibratorConfig, args)
    z = bundle.target_logits
    model = calibrator.fit(z, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    factor = model.covariance_factor
    ingest.write_array(out / "means.npy", model.means)
    ingest.write_array(out / "log_priors.npy", model.log_priors)
    ingest.write_array(out / "covariance.npy", factor.lower @ factor.lower.T)
    # the posterior rows are formed and written block by block, as predict forms them
    ingest.write_rows(out / "posteriors.npy", z.shape,
                      (calibrator.posterior_matrix(model, z[rows])
                       for rows in numerics.row_blocks(*z.shape)))
    print(f"wrote 4 arrays to {out}")
    return 0


def _add_calibration_flags(p):
    default = calibrator.CalibratorConfig()
    p.add_argument("--mode", choices=calibrator.MODES, default=default.mode,
                   help="posterior mode (default %(default)s); literal is an alias of bayes, "
                        "kept for compatibility")
    p.add_argument("--cov-jitter", type=float, default=default.cov_jitter, dest="cov_jitter",
                   help="base diagonal regularization for the shared covariance")
    p.add_argument("--normalize-threshold", type=int, default=default.normalize_threshold,
                   dest="normalize_threshold",
                   help="class count above which the inverse covariance is norm-scaled")


def _add_bundle_flags(p, with_val=True):
    p.add_argument("--logits", dest="target_logits", help="target logits array (.npy or .csv)")
    p.add_argument("--features", dest="target_features", help="penultimate-layer features array")
    p.add_argument("--weights", dest="last_layer_weights", help="last-layer weight matrix (C x d)")
    p.add_argument("--bias", dest="last_layer_bias", help="last-layer bias vector")
    if with_val:
        p.add_argument("--val-logits", dest="val_logits", help="validation logits array")
        p.add_argument("--val-labels", dest="val_labels", help="validation labels array")
    p.add_argument("--manifest", help="key = path manifest file instead of per-array flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfpp",
        description="Estimate classifier accuracy on unlabeled data from its logits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="calibrated gradient-norm accuracy estimate")
    _add_bundle_flags(p, with_val=False)
    _add_calibration_flags(p)
    p.add_argument("--eq5-literal", action="store_true", dest="eq5_literal",
                   help="flip the gradient-norm comparison direction")
    p.add_argument("--seed", type=int, default=None, help="echoed into the report")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("baseline", help="run a reference estimator")
    p.add_argument("--method", required=True, choices=ALL_BASELINES)
    _add_bundle_flags(p)
    p.add_argument("--temperature", type=float, default=1.0,
                   help="softmax temperature for gradnorm")
    p.add_argument("--energy-temperature", type=float, default=1.0,
                   dest="energy_temperature", help="temperature for the energy score")
    p.add_argument("--seed", type=int, default=None, help="echoed into the report")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("bench", help="synthetic distribution-shift benchmark")
    p.add_argument("--suite", default="default",
                   help="'default' or a JSON file with scenario records")
    p.add_argument("--ratios", default=",".join(map(str, bench.DEFAULT_RATIOS)),
                   help="comma-separated validation inclusion ratios")
    p.add_argument("--trials", type=int, default=bench.DEFAULT_TRIALS,
                   help="seeded subsample trials per ratio")
    p.add_argument("--seed", type=int, default=0, help="base seed for the default suite")
    p.add_argument("--methods", default="",
                   help="comma-separated method ids (default: all)")
    p.add_argument("--out", required=True, help="output directory for JSON and CSV")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("dump-calibration", help="write fitted model arrays for inspection")
    _add_bundle_flags(p, with_val=False)
    _add_calibration_flags(p)
    p.add_argument("--out", required=True, help="output directory for NPY arrays")
    p.set_defaults(func=cmd_dump_calibration)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MissingValidationDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
