"""Command-line interface.

Subcommands: recover (fit a mixture to a grouped dataset), experiment
(replicated accuracy runs from a JSON config), counterexample (build a
moment-matching mixture pair), multinomial-check (equality test for
multinomial mixtures), rank (component-count estimate), baseline
(random-guess reference error).  All randomness flows from --seed.
"""
from __future__ import annotations

import argparse
import json
import sys

from .counterexamples import build_pair
from .experiments import ExperimentConfig, random_baseline, run_experiment
from .model import DESCRIPTORS, MixtureSpec, json_fields, mixture_weights
from .multinomial import MultinomialSpec, multinomial_mixture_equal
from .recovery import RecoveryConfig, RecoveryError, estimate_num_components, recover_full
from .sampling import read_groups


def _read_dataset(path: str):
    if path == "-":
        return read_groups(sys.stdin)
    with open(path) as fh:
        return read_groups(fh)


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _cmd_recover(args) -> int:
    data = _read_dataset(args.data)
    config = RecoveryConfig(m=args.m, dominating=args.dominating)
    result = recover_full(data, config, seed=args.seed)
    _write_out(result.to_json(), args.out)
    return 0


def _read_json(path: str, parse):
    """parse(text) of the file at path; malformed JSON is a ValueError
    that names the file."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_experiment(args) -> int:
    cfg = _read_json(args.config, ExperimentConfig.from_json)
    report = run_experiment(cfg)
    if args.out is None:
        print(report.to_json())
    else:
        report.write(args.out)
    print(
        f"scheme={report.scheme} n_groups={report.n_groups} "
        f"mean={report.mean:.4f} variance={report.variance:.4g} "
        f"excluded={report.excluded}",
        file=sys.stderr,
    )
    return 0


def _cmd_counterexample(args) -> int:
    t = 2 * args.m if args.kind == "identifiability" else 2 * args.m + 1
    eps = None
    if args.eps is not None:
        eps = [float(v) for v in args.eps.split(",")]
    pair = build_pair(args.m, t, epsilons=eps)
    _write_out(pair.to_json(), args.out)
    return 0


def _read_multinomial_mixture(path: str):
    n, q, components = json_fields(_read_json(path, json.loads), path, "n", "q", "components")
    if not isinstance(components, list):
        raise ValueError(f"components in {path} must be a JSON array, got {type(components).__name__}")
    fields = [json_fields(rec, f"a component in {path}", "weight", "p") for rec in components]
    try:
        mixture_weights([weight for weight, _ in fields])
        return [(weight, MultinomialSpec(n, q, p)) for weight, p in fields]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_multinomial_check(args) -> int:
    mix_a = _read_multinomial_mixture(args.a)
    mix_b = _read_multinomial_mixture(args.b)
    equal = multinomial_mixture_equal(mix_a, mix_b, tol=args.tol)
    print("equal" if equal else "different")
    return 0 if equal else 1


def _cmd_rank(args) -> int:
    print(estimate_num_components(_read_dataset(args.data), args.power, rel_tol=args.tol))
    return 0


def _cmd_baseline(args) -> int:
    truth = _read_json(args.truth, MixtureSpec.from_json)
    report = random_baseline(truth.components, args.trials, args.seed)
    print(json.dumps({"mean": report.mean, "variance": report.variance}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specmix",
        description="Spectral recovery of mixtures of categorical measures from grouped samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recover", help="fit m components and weights to a grouped dataset")
    p.add_argument("--data", required=True, help="dataset path, or - for stdin (1-based indices, one group per line)")
    p.add_argument("--m", type=int, required=True, help="number of components to recover")
    p.add_argument("--dominating", default="none", help=f"reference measure: {DESCRIPTORS}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write result JSON here instead of stdout")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("experiment", help="run a replicated accuracy experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="write the report here (.csv for per-rep rows, else JSON) instead of JSON on stdout")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("counterexample", help="build a pair of mixtures with matching low-order moments")
    p.add_argument("--m", type=int, required=True, help="components per side (smaller side for determinedness)")
    p.add_argument("--kind", choices=["identifiability", "determinedness"], required=True)
    p.add_argument("--eps", default=None, help="optional comma-separated mixing levels in [0,1]")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("multinomial-check", help="test two multinomial mixtures for equality of laws")
    p.add_argument("--a", required=True, help='JSON {"n","q","components":[{"weight","p"}]}')
    p.add_argument("--b", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_multinomial_check)

    p = sub.add_parser("rank", help="estimate the number of components by moment rank")
    p.add_argument("--data", required=True)
    p.add_argument("--power", type=int, required=True, help="tensor power n; needs groups of >= 2n draws")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("baseline", help="error of uniformly random component guesses")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--truth", required=True, help='mixture JSON {"weights","components"}; fixes m and d')
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_baseline)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit status.  A library error,
    or a MemoryError from inputs too large to allocate for, prints a
    one-line message to stderr and returns 2, argparse's status for bad
    usage, which no subcommand returns otherwise."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MemoryError, OSError, RecoveryError, ValueError) as exc:
        print(f"specmix {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
