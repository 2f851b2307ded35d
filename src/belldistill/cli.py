"""Command-line front end.

Subcommands: analyze (full pipeline report for one coefficient table),
verify (Monte-Carlo invariant campaign), sweep (white-noise grid scan to
CSV) and sample (emit random coefficient tables). Exit codes are a stable
contract: 0 success, 1 failure or invalid input, 2 for a valid input whose
state is not NPT (the analysis is still written).
"""

import argparse
import json
import sys

import numpy as np

from .filtering import filter_report, noise_scan
from .report import (
    analysis_report,
    coefficients_to_json,
    dump_report,
    parse_coefficients,
)
from .simplex import (
    BOUNDARY,
    NPT,
    PPT,
    SamplingExhaustedError,
    build_state,
    classify,
    sample_npt,
    sample_simplex,
    verdict,
)
from .verify import run_campaign, summary_text, trial_seeds
from .witness import construct_witness_vector

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NOT_NPT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage, which would collide with the
    # "valid but not NPT" exit code; route usage errors to code 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_FAIL)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_FAIL


def _under_minimum(args, **minimum) -> str | None:
    """The usage error of the first integer option below its minimum, or None."""
    for name, low in minimum.items():
        if getattr(args, name) < low:
            return f"--{name} must be >= {low}, got {getattr(args, name)}"
    return None


def _read_input(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"JSON nested too deeply ({exc})") from None


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_analyze(args) -> int:
    try:
        coeffs, renormalized = parse_coefficients(_read_input(args.input))
        report = analysis_report(coeffs, renormalized=renormalized)
    except (OSError, ValueError) as exc:
        # unreadable or invalid tables, and NPT tables the construction refuses (d != 3)
        return _fail(f"bad input: {exc}")
    try:
        _write_text(args.output, dump_report(report))
    except OSError as exc:
        return _fail(f"cannot write report: {exc}")
    if report["classification"]["classification"] != NPT:
        print(f"state is {report['classification']['classification']}: {report['reason']}")
        return EXIT_NOT_NPT
    print(f"report written to {args.output}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if error := _under_minimum(args, count=1, jobs=1, seed=0):
        return _fail(error)
    campaign = run_campaign(args.count, args.seed, jobs=args.jobs)
    sys.stdout.write(summary_text(campaign))
    return EXIT_OK if campaign.ok else EXIT_FAIL


def cmd_sweep(args) -> int:
    if not (0.0 <= args.p_min < args.p_max <= 1.0):
        return _fail(f"need 0 <= p-min < p-max <= 1, got {args.p_min} .. {args.p_max}")
    if error := _under_minimum(args, steps=2):
        return _fail(error)
    try:
        coeffs, _ = parse_coefficients(_read_input(args.input))
        wc = construct_witness_vector(classify(coeffs))
    except (OSError, ValueError) as exc:
        # unreadable or invalid tables, tables that are not NPT, and d != 3
        return _fail(f"bad input: {exc}")
    rho = build_state(coeffs)
    rep = filter_report(rho, wc)
    lines = [
        f"# p_rho_max = {rep.p_rho_max!r}",
        f"# p_sigma_max = {rep.p_sigma_max!r}",
        "p,witness_value,detected,sigma_npt",
    ]
    ps = np.linspace(args.p_min, args.p_max, args.steps)
    values, sigma_minima = noise_scan(wc.W, rho, rep.sigma, ps)
    # each flag is the verdict of its value, so a threshold grid point reads boundary
    flag = {NPT: "true", PPT: "false", BOUNDARY: "boundary"}
    for p, value, low in zip(ps.tolist(), values.tolist(), sigma_minima.tolist()):
        lines.append(f"{p!r},{value!r},{flag[verdict(value)]},{flag[verdict(low)]}")
    try:
        _write_text(args.output, "\n".join(lines) + "\n")
    except OSError as exc:
        return _fail(f"cannot write sweep: {exc}")
    print(f"sweep written to {args.output}")
    return EXIT_OK


def cmd_sample(args) -> int:
    if error := _under_minimum(args, count=1, seed=0):
        return _fail(error)
    tables = []
    try:
        for seed in trial_seeds(args.seed, args.count):
            if args.npt_only:
                coeffs, _ = sample_npt(seed)
            else:
                coeffs = sample_simplex(seed)
            tables.append(coefficients_to_json(coeffs))
    except SamplingExhaustedError as exc:
        return _fail(str(exc))
    try:
        _write_text(args.output, dump_report(tables))
    except OSError as exc:
        return _fail(f"cannot write samples: {exc}")
    print(f"{args.count} tables written to {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="belldistill", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline report for one coefficient table")
    p.add_argument("input", help="input JSON file with keys d and c")
    p.add_argument("--output", required=True, help="path of the JSON report to write")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="Monte-Carlo verification campaign")
    p.add_argument("--count", type=int, default=1000, help="number of NPT trials")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="white-noise grid scan to CSV")
    p.add_argument("input", help="input JSON file with keys d and c")
    p.add_argument("--p-min", type=float, default=0.0)
    p.add_argument("--p-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=21)
    p.add_argument("--output", required=True, help="path of the CSV to write")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sample", help="emit random coefficient tables as JSON")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--npt-only", action="store_true", help="rejection-sample NPT tables only")
    p.add_argument("--output", required=True, help="path of the JSON array to write")
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
