"""Command-line front end.

Subcommands map one-to-one onto library operations; verdicts that are
mathematically negative (divergent integrals, unbounded operators) are
successful runs reported in-band.  Exit codes: 0 success, 1 domain error
(resource caps, convergence failures, violated check), 2 usage or parse
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import certify, kernel, norms, operator
from .errors import (
    DEFAULT_SECTION_CAP, HANKEL_CAP, ConvergenceError, ResourceLimitError, _check_block, _check_size,
)
from .measure import parse_measure
from .rng import SplitMix64

_FLOAT_FMT = "%.17g"


def _load(path: str, what: str, parse):
    """``parse`` of the file's text; an unreadable file or a rejected text is a usage error."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {what} file {path}: {exc}") from exc
    try:
        return parse(text)
    except ValueError as exc:
        raise _UsageError(f"{path}: {exc}") from exc


class _UsageError(Exception):
    """Invalid invocation or unparseable input file (exit code 2)."""


def _parse_p(text: str) -> float:
    try:
        return norms.validate_p(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive(kind):
    """argparse type: a finite ``kind`` value > 0; anything else is a usage error."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = 0
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"expected a positive {kind.__name__}, got {text!r}")
        return value

    return parse


def _positive_list(kind):
    """argparse type: a nonempty comma-separated list of :func:`_positive` values."""
    item = _positive(kind)

    def parse(text: str):
        values = [item(tok) for tok in text.split(",") if tok.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"expected a nonempty comma list, got {text!r}")
        return values

    return parse


def _progress(args, message: str):
    if not args.quiet:
        print(message, file=sys.stderr)


def _cmd_entry(args) -> int:
    mu = _load(args.measure, "measure", parse_measure)
    # sys.maxsize is the largest array index (intp max).
    if not (0 <= args.n <= sys.maxsize and 0 <= args.k <= sys.maxsize):
        raise _UsageError(f"indices must be integers in 0..{sys.maxsize}")
    value = kernel.entry(mu, args.n, args.k)
    if args.output == "json":
        print(json.dumps({"n": args.n, "k": args.k, "value": value}))
    else:
        print(_FLOAT_FMT % value)
    return 0


def _cmd_section(args) -> int:
    mu = _load(args.measure, "measure", parse_measure)
    # The size check runs again in finite_section; here it comes before numpy loads.
    _check_size(args.N, DEFAULT_SECTION_CAP)
    section = kernel.finite_section(mu, args.N)
    if args.output == "json":
        print(kernel.section_to_json(section))
    else:
        sys.stdout.write(kernel.section_to_csv(section))
    return 0


def _cmd_apply(args) -> int:
    mu = _load(args.measure, "measure", parse_measure)
    values, header_p = _load(args.sequence, "sequence", norms.parse_sequence_csv)
    p_echo = args.p if args.p is not None else header_p
    if args.route == "fft":
        terms = mu.jacobi_terms
        if mu.atoms or len(terms) != 1 or (terms[0].alpha, terms[0].beta) != (0.0, 0.0):
            raise ValueError(
                "the fft route implements c*dt measures (the scaled classical matrix) only; "
                "use --route truncated/quadrature"
            )
    # The checks above need no array library; numpy loads from here on.
    seq = operator.SequenceVector(values)
    if args.route == "fft":
        image = operator.fft_plan(mu, args.rows, len(seq)).apply(seq, 2.0)[0]
    elif args.route == "quadrature":
        image = operator.apply_via_quadrature(mu, seq, args.rows)
    else:
        image = operator.apply_truncated(mu, seq, args.rows)
    if args.output == "json":
        print(json.dumps({"rows": args.rows, "values": list(image.values)}))
    else:
        sys.stdout.write(operator.sequence_to_csv(image, p=p_echo))
    return 0


def _emit_record(payload: dict, output: str) -> None:
    """One flat record: a ``key,value`` table for csv, one JSON object otherwise."""
    if output == "csv":
        print("\n".join(["key,value"] + [f"{key},{value}" for key, value in payload.items()]))
    else:
        print(json.dumps(payload))


def _cmd_norm(args) -> int:
    mu = _load(args.measure, "measure", parse_measure)
    # norm_integral's precondition (exit 1); classification then evaluates
    # the same integral once and packages it as a verdict.
    if mu.atom_at(0.0) or mu.atom_at(1.0):
        raise ValueError("norm needs a measure without endpoint atoms; use classify")
    _emit_record(norms.verdict_to_dict(norms.classify_boundedness(mu, args.p)), args.output)
    return 0


def _cmd_classify(args) -> int:
    mu = _load(args.measure, "measure", parse_measure)
    _emit_record(norms.verdict_to_dict(norms.classify_boundedness(mu, args.p)), args.output)
    return 0


def _cmd_certify(args) -> int:
    mu = _load(args.measure, "measure", parse_measure)
    # The sweep checks every size again; here it comes before numpy loads.
    for size in args.N:
        _check_block(mu, size, size, DEFAULT_SECTION_CAP, HANKEL_CAP)
    _progress(args, f"certifying over eps={args.eps} sizes={args.N}")
    report = certify.convergence_sweep(mu, args.p, args.eps, args.N, tol=args.tol)
    if args.output == "json":
        print(certify.report_to_json(report))
    else:
        sys.stdout.write(certify.report_to_csv(report))
    return 0


def _hilbert_check_trial(rng: SplitMix64, max_terms: int):
    length_a = 1 + rng.below(max_terms)
    a = [rng.uniform01() for _ in range(length_a)]
    length_b = 1 + rng.below(max_terms)
    b = [rng.uniform01() for _ in range(length_b)]
    return operator.SequenceVector(a), operator.SequenceVector(b)


def _cmd_hilbert_check(args) -> int:
    # Before any list is drawn: a trial draws up to --terms values per list.
    _check_size(args.terms, HANKEL_CAP)
    if math.isinf(args.p) or args.p == 1.0:
        raise _UsageError("hilbert-check needs 1 < p < inf (constant undefined otherwise)")
    import numpy as np

    constant = norms.classical_constant(args.p)
    q = args.p / (args.p - 1.0)
    rng = SplitMix64(args.seed)
    worst = 0.0
    violations = 0
    for trial in range(args.trials):
        a, b = _hilbert_check_trial(rng, args.terms)
        image = operator.hankel_fast_apply(a, len(b))
        bilinear = float(np.dot(b.values, image.values))
        bound = constant * operator.lp_norm(a.values, args.p) * operator.lp_norm(b.values, q)
        if bound > 0:
            worst = max(worst, bilinear / bound)
        if bilinear > bound + 1e-9:
            violations += 1
            _progress(args, f"trial {trial}: {bilinear} > {bound}")
    payload = {
        "p": args.p,
        "trials": args.trials,
        "seed": args.seed,
        "max_ratio": worst,
        "violations": violations,
        "status": "ok" if violations == 0 else "violated",
    }
    _emit_record(payload, args.output)
    return 0 if violations == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genhilbert",
        description="Generalized Hilbert matrices from measures on [0,1]: "
        "entries, sections, applies, sharp ell-p norms, certification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, output_default):
        sp.add_argument("--output", choices=("csv", "json"), default=output_default)
        sp.add_argument("--quiet", action="store_true", help="suppress progress on stderr")

    sp = sub.add_parser("entry", help="single matrix entry")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    common(sp, "csv")
    sp.set_defaults(func=_cmd_entry)

    sp = sub.add_parser("section", help="dense N x N leading section")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--N", type=_positive(int), required=True)
    common(sp, "csv")
    sp.set_defaults(func=_cmd_section)

    sp = sub.add_parser("apply", help="apply the matrix to a sequence file")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--sequence", required=True)
    sp.add_argument("--rows", type=_positive(int), required=True)
    sp.add_argument("--route", choices=("truncated", "quadrature", "fft"), default="truncated")
    sp.add_argument("--p", type=_parse_p, default=None, help="echoed in the output header")
    common(sp, "csv")
    sp.set_defaults(func=_cmd_apply)

    sp = sub.add_parser("norm", help="sharp-norm integral (measures without endpoint atoms)")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--p", type=_parse_p, required=True)
    common(sp, "json")
    sp.set_defaults(func=_cmd_norm)

    sp = sub.add_parser("classify", help="boundedness verdict, endpoint atoms included")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--p", type=_parse_p, required=True)
    common(sp, "json")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("certify", help="lower-bound sweep against the analytic norm")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--p", type=_parse_p, required=True)
    sp.add_argument("--eps", type=_positive_list(float), required=True, help="comma list")
    sp.add_argument("--N", type=_positive_list(int), required=True, help="comma list of sizes")
    sp.add_argument("--tol", type=_positive(float), default=1e-10)
    common(sp, "csv")
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("hilbert-check", help="seeded random check of the classical inequality")
    sp.add_argument("--p", type=_parse_p, required=True)
    sp.add_argument("--trials", type=_positive(int), required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--terms", type=_positive(int), default=64, help="max sequence length per trial")
    common(sp, "json")
    sp.set_defaults(func=_cmd_hilbert_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, ConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
