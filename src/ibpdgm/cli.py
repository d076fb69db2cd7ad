"""Command-line entry points: train, eval, report, selftest, gen.

`train` reads the whole `RunConfig`, `report` its `tau` and `out`, and
`gen` its `seed` and `out`, each checking the keys it reads.  Each folds
them from a key=value text file (`--config`), environment variables
IBPDGM_<KEY> (only those naming a `RunConfig` field are read, so other
IBPDGM_ variables such as IBPDGM_MNIST_DIR pass through), and flag
overrides, in that precedence order.  `report` writes `report.json` only
when some source sets `out`.  `eval` and `selftest` read no configuration;
`eval` and `report` load `--amat` files under the checkpoint's likelihood.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric
failure.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import bbvi
from . import data as dio
from . import model as mdl
from . import selftest
from . import training

ENV_PREFIX = "IBPDGM_"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _coerce(name, raw, target_type):
    try:
        return target_type(raw)
    except ValueError:
        raise UsageError(f"config key {name}: cannot parse {raw!r}") from None


def parse_config_file(path):
    """key = value lines; blank lines and # comments ignored."""
    pairs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            key, value = stripped.split("=", 1)
            pairs[key.strip()] = value.strip()
    return pairs


def build_run_config(args, out=training.RunConfig.out):
    """Fold defaults < config file < environment < --set flags; `out` is
    the default of the `out` key (`report` passes "": no source, no file)."""
    cfg = training.RunConfig(out=out)
    field_types = {f.name: f.type for f in dataclasses.fields(training.RunConfig)}

    def apply(pairs, source):
        for key, raw in pairs.items():
            if key not in field_types:
                raise UsageError(f"unknown config key {key!r} (from {source})")
            setattr(cfg, key, _coerce(key, raw, field_types[key]))

    if args.config:
        apply(parse_config_file(args.config), args.config)
    apply({name: os.environ[ENV_PREFIX + name.upper()] for name in field_types
           if ENV_PREFIX + name.upper() in os.environ}, "environment")
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    apply(overrides, "--set")
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out:
        cfg.out = args.out
    return cfg


def _add_config(p):
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--out", help="output directory")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")


def make_parser():
    parser = _Parser(prog="ibpdgm")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write metrics + checkpoint")
    _add_config(p)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("eval", help="classification error (%) of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--images"), p.add_argument("--labels")
    p.add_argument("--amat")

    p = sub.add_parser("report", help="active-component report for a checkpoint")
    _add_config(p)
    p.set_defaults(seed=None)   # report draws nothing at random
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--images"), p.add_argument("--labels")
    p.add_argument("--amat")

    p = sub.add_parser("selftest", help="run the numeric self-check suites")
    p.add_argument("--reps", type=int, default=120,
                   help="repetitions for the unbiasedness suite")

    p = sub.add_parser("gen", help="draw observations from a trained model")
    _add_config(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--label", type=int, default=None)
    p.add_argument("--sample", action="store_true",
                   help="also draw observations (not just likelihood means)")

    return parser


def _load_eval_dataset(args, m):
    if args.amat:
        dataset = dio.load_amat(args.amat, kind=m.likelihood_kind)
    elif args.images and args.labels:
        dataset = dio.load_idx(args.images, args.labels)
    else:
        raise UsageError("provide --amat or both --images and --labels")
    if dataset.dim != m.D:
        raise UsageError(
            f"dataset has {dataset.dim} features, checkpoint expects {m.D}")
    return dataset


def cmd_train(args):
    cfg = build_run_config(args)
    result = training.train(cfg, log=lambda msg: print(msg, flush=True))
    print(f"metrics: {result.metrics_path}")
    print(f"checkpoint: {result.checkpoint_path}")
    return EXIT_OK


def cmd_eval(args):
    m = mdl.load_checkpoint(args.checkpoint)
    dataset = _load_eval_dataset(args, m)
    top = int(dataset.labels.max(initial=-1))
    if top >= m.C:
        raise UsageError(
            f"dataset labels name {top + 1} classes, checkpoint has {m.C}")
    err = training.error_rate(m, dataset)
    print(f"error_rate_percent: {err:.4f}")
    return EXIT_OK


def cmd_report(args):
    cfg = build_run_config(args, out="").validate(("tau",))
    m = mdl.load_checkpoint(args.checkpoint)
    dataset = _load_eval_dataset(args, m)
    report = training.component_report(m, dataset, cfg.tau)
    print(f"tau: {report.tau}")
    print(f"active_count: {report.count}")
    print("component,mean,std,active")
    for k in range(m.K):
        print(f"{k},{report.mean[k]:.6f},{report.std[k]:.6f},"
              f"{int(k in set(report.active.tolist()))}")
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        payload = {
            "tau": report.tau,
            "active": [int(i) for i in report.active],
            "count": report.count,
            "mean": report.mean.tolist(),
            "std": report.std.tolist(),
        }
        path = os.path.join(cfg.out, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"written: {path}")
    return EXIT_OK


def cmd_selftest(args):
    if args.reps < 2:   # the unbiasedness rows need a standard error
        raise UsageError(f"--reps {args.reps}: must be at least 2")
    ok = selftest.run_all(print_fn=print, reps=args.reps)
    print("selftest:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_gen(args):
    cfg = build_run_config(args).validate(("seed",))
    m = mdl.load_checkpoint(args.checkpoint)
    rng = np.random.default_rng(cfg.seed)
    means, samples = mdl.generate(m, args.n, rng, y=args.label,
                                  sample_observations=args.sample)
    os.makedirs(cfg.out, exist_ok=True)
    means_path = os.path.join(cfg.out, "generated_means.csv")
    np.savetxt(means_path, means, delimiter=",")
    print(f"written: {means_path}")
    if samples is not None:
        samples_path = os.path.join(cfg.out, "generated_samples.csv")
        np.savetxt(samples_path, samples, delimiter=",")
        print(f"written: {samples_path}")
    return EXIT_OK


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "report": cmd_report,
    "selftest": cmd_selftest,
    "gen": cmd_gen,
}


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (dio.DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except bbvi.NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
