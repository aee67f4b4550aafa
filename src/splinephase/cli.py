"""Command line front end: certify, reconstruct, counterexample, oracle,
frame-check and gen, all speaking JSON on stdin/stdout.

Exit codes: 0 for success or a positive verdict, 1 for a negative verdict,
2 for any input or usage error (diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Optional

from . import families, jsonio
from .frames import (
    almost_pr_by_criterion,
    is_almost_phase_retrievable,
    is_full_spark,
    is_weak_full_spark,
)
from .retrieval import (
    InternalInconsistencyError,
    build_counterexample,
    partition_oracle,
    reconstruct,
    verify_modulus_agreement,
)
from .sequences import (
    PeriodicSetDescriptor,
    SampleSet,
    is_almost_phaseless,
    is_global_phaseless,
    is_local_phaseless,
    is_local_sampling,
)


class _InputError(Exception):
    pass


def _read_payload(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise _InputError(str(exc)) from exc
    try:
        return jsonio.loads(text)
    except ValueError as exc:
        raise _InputError("malformed JSON: %s" % exc) from exc


def _emit(payload) -> None:
    sys.stdout.write(jsonio.dumps(payload))


def cmd_certify(args: argparse.Namespace) -> int:
    point_set = jsonio.decode_point_input(_read_payload(args.input))
    if args.mode == "global":
        if not isinstance(point_set, PeriodicSetDescriptor):
            raise _InputError("mode 'global' requires a periodic set descriptor")
        certifier = is_global_phaseless
    else:
        if not isinstance(point_set, SampleSet):
            raise _InputError("mode %r requires a sample set" % args.mode)
        certifier = {
            "sampling": is_local_sampling,
            "almost": is_almost_phaseless,
            "phaseless": is_local_phaseless,
        }[args.mode]
    report = certifier(point_set, args.m)
    _emit(jsonio.encode_certificate(report))
    return 0 if report.verdict else 1


# Each probe costs one exact evaluation per solution.
MAX_PROBES = 10_000


def cmd_reconstruct(args: argparse.Namespace) -> int:
    if not 0 <= args.probes <= MAX_PROBES:
        raise _InputError("--probes must be 0 to %d, got %d" % (MAX_PROBES, args.probes))
    samples = jsonio.decode_unsigned_samples(_read_payload(args.input))
    result = reconstruct(samples, args.m)
    out = jsonio.encode_recovery(result)
    if args.probes and result.status == "ambiguous":
        n1, n2 = samples.sample_set.window
        step = Fraction(n2 - n1, args.probes + 1)
        probes = [n1 + step * j for j in range(1, args.probes + 1)]
        # Equal moduli is an equivalence: comparing with the first suffices.
        first = result.solutions[0]
        agree = all(verify_modulus_agreement(first, b, probes) for b in result.solutions[1:])
        out["modulus_agreement"] = agree
    _emit(out)
    return 0 if result.status == "unique" else 1


def cmd_counterexample(args: argparse.Namespace) -> int:
    E = jsonio.decode_sample_set(_read_payload(args.input))
    pair = build_counterexample(E, args.m)
    _emit(jsonio.encode_counterexample(pair))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    E = jsonio.decode_sample_set(_read_payload(args.input))
    verdict = partition_oracle(E, args.m)
    _emit({"phaseless": verdict})
    return 0 if verdict else 1


def cmd_frame_check(args: argparse.Namespace) -> int:
    matrix = jsonio.decode_matrix(_read_payload(args.input))
    if args.criterion == "spark":
        verdict = is_full_spark(matrix)
    elif args.criterion == "weak-spark":
        verdict = is_weak_full_spark(matrix)
    elif args.criterion == "4":
        verdict = is_almost_phase_retrievable(matrix)
    else:
        verdict = almost_pr_by_criterion(matrix, int(args.criterion))
    _emit({"criterion": args.criterion, "verdict": verdict})
    return 0 if verdict else 1


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "uniform":
        if args.n1 is None or args.n2 is None or args.k is None:
            raise _InputError("uniform family needs --n1, --n2 and --k")
        payload = jsonio.encode_sample_set(families.uniform(args.n1, args.n2, args.k))
    elif args.family == "example2":
        if args.n1 is None or args.n2 is None or args.k is None or args.m is None:
            raise _InputError("example2 family needs --n1, --n2, --k and --m")
        payload = jsonio.encode_sample_set(families.example2(args.n1, args.n2, args.k, args.m))
    else:
        if args.alpha is None:
            raise _InputError("arithmetic family needs --alpha (and optional --beta)")
        alpha = jsonio.fraction_from_json(args.alpha)
        beta = jsonio.fraction_from_json(args.beta if args.beta is not None else 0)
        payload = jsonio.encode_descriptor(families.arithmetic(alpha, beta))
    _emit(payload)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinephase",
        description=(
            "Certify sampling and phaseless-sampling properties of point sets "
            "for cardinal B-spline spaces, reconstruct splines up to sign from "
            "unsigned samples, and build counterexamples when certification fails."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_m: bool = True):
        if need_m:
            p.add_argument("--m", type=int, required=True, help="spline degree (>= 1)")
        p.add_argument(
            "--input",
            default="-",
            help="path of the JSON input, or '-' for standard input",
        )

    p = sub.add_parser("certify", help="run one of the four certifiers")
    add_common(p)
    p.add_argument(
        "--mode",
        required=True,
        choices=["sampling", "almost", "phaseless", "global"],
    )
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("reconstruct", help="recover splines up to sign from unsigned samples")
    add_common(p)
    p.add_argument(
        "--probes",
        type=int,
        default=0,
        help="probe count for the modulus cross-check of ambiguous recoveries "
        "(0 to %d)" % MAX_PROBES,
    )
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("counterexample", help="build a recovery ambiguity for a failing sample set")
    add_common(p)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("oracle", help="brute-force phaseless decision by partition search")
    add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("frame-check", help="almost-phase-retrievability and spark tests on a matrix")
    add_common(p, need_m=False)
    p.add_argument(
        "--criterion",
        default="4",
        choices=["2", "3", "4", "5", "spark", "weak-spark"],
    )
    p.set_defaults(func=cmd_frame_check)

    p = sub.add_parser("gen", help="generate the built-in example families")
    p.add_argument("--family", required=True, choices=["uniform", "example2", "arithmetic"])
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--alpha", help="progression step, as 'p/q'")
    p.add_argument("--beta", help="progression offset, as 'p/q'")
    p.set_defaults(func=cmd_gen)

    return parser


# Built once: parse_args leaves the parser unchanged, and argparse looks up
# sys.stdout and sys.stderr when it prints, not when it is built.
_PARSER = _build_parser()


def main(argv: Optional[list] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if getattr(args, "m", None) is not None and args.m < 1:
            raise _InputError("--m must be at least 1, got %d" % args.m)
        return args.func(args)
    except (_InputError, ValueError) as exc:  # the library refuses bad input with ValueError
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:  # pragma: no cover
        print("internal inconsistency: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
