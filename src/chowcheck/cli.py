"""Command line driver.

Two subcommands:

``verify SCENARIO``
    Run every check of a scenario file (or a bundled scenario named
    ``quartic-family`` or ``shioda``) and print the human report.
    ``--report PATH`` additionally writes the deterministic machine
    report; ``--machine`` prints that format to stdout instead.

``ring {dim,map,duality,smooth} --file SCENARIO``
    Ad-hoc queries against the graded ring declared by a scenario's
    [ring] section, without running its check list.

Exit status: 0 all checks pass, 1 at least one check fails, 2 the
input could not be parsed, a check was misconfigured or a modulus is
not a usable prime.
"""

from __future__ import annotations

import argparse
import sys
import time
from importlib import resources
from pathlib import Path

from . import jacobian, modrank
from .report import Report, StepResult
from .runner import CheckConfigError, ScenarioContext, UnknownCheck, run_scenario
from .scenario import ParseError, load_scenario, parse_scenario

BUILTIN_SCENARIOS = {
    "quartic-family": "quartic_family.scn",
    "shioda": "shioda.scn",
}

_QUERY_CITATION = "command line query"


class CliError(ValueError):
    pass


def _load(name_or_path):
    path = Path(name_or_path)
    if path.exists():
        return load_scenario(path)
    if name_or_path in BUILTIN_SCENARIOS:
        text = (resources.files("chowcheck.scenarios")
                .joinpath(BUILTIN_SCENARIOS[name_or_path])
                .read_text(encoding="utf-8"))
        return parse_scenario(text)
    known = ", ".join(sorted(BUILTIN_SCENARIOS))
    raise CliError(f"{name_or_path!r} is neither a file nor a bundled "
                   f"scenario (bundled: {known})")


def _emit(report, args):
    if getattr(args, "machine", False):
        sys.stdout.write(report.render_machine())
    else:
        sys.stdout.write(report.render_human())
    if getattr(args, "report", None):
        with open(args.report, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(report.render_machine())
    return report.exit_code


def _cmd_verify(args):
    scn = _load(args.scenario)
    report = run_scenario(scn)
    return _emit(report, args)


def _timed(func):
    start = time.perf_counter()
    step = func()
    step.duration = time.perf_counter() - start
    return step


def _cmd_ring(args):
    modrank.require_prime(args.prime)
    scn = _load(args.file)
    ctx = ScenarioContext(scn)
    prime = None if args.exact else args.prime

    def need(attr, flag):
        value = getattr(args, attr)
        if value is None:
            raise CliError(f"ring {args.query} needs {flag}")
        return value

    if args.query == "dim":
        degree = need("degree", "--degree")

        def run():
            dim = ctx.hypersurface().quotient_dim(degree)
            return StepResult(
                f"dimension in degree {degree}", "ring_dim", "pass",
                _QUERY_CITATION,
                details=[f"dim = {dim} (exact)"], values={"dim": dim})
    elif args.query == "map":
        a, b = need("a", "--a"), need("b", "--b")

        def run():
            mmap = jacobian.multiplication_map(ctx.hypersurface(), a, b)
            result = jacobian.is_surjective(mmap, prime=prime)
            values = {"rank": result.rank, "target_dim": result.target_dim,
                      "mode": result.mode, "surjective": result.surjective}
            word = "surjective" if result.surjective else "not surjective"
            return StepResult(
                f"multiplication {a} x {b} -> {a + b}", "ring_map",
                "pass" if result.surjective else "fail", _QUERY_CITATION,
                details=[f"{word}, rank {result.rank} of {result.target_dim} "
                         f"({result.mode})"],
                witness=None if result.surjective else "not surjective",
                values=values)
    elif args.query == "duality":
        a, b = need("a", "--a"), need("b", "--b")

        def run():
            result = jacobian.left_kernel_via_duality(ctx.hypersurface(), a, b,
                                                      prime=prime)
            values = {"empty": result.empty,
                      "surjectivity_rank": result.surjectivity.rank,
                      "surjectivity_mode": result.surjectivity.mode,
                      "pairing_rank": result.pairing.rank,
                      "pairing_mode": result.pairing.mode}
            word = "empty" if result.empty else "not established"
            return StepResult(
                f"left kernel at ({a}, {b})", "ring_duality",
                "pass" if result.empty else "fail", _QUERY_CITATION,
                details=[f"left kernel {word} via surjectivity "
                         f"({result.surjectivity.mode}) and socle pairing "
                         f"({result.pairing.mode})"],
                witness=None if result.empty else "duality argument incomplete",
                values=values)
    else:
        def run():
            hring = ctx.hypersurface(symmetric=False) if not args.exact \
                else ctx.hypersurface()
            result = jacobian.is_smooth_artinian(hring, prime=args.prime,
                                                 exact=args.exact)
            values = {"smooth": result.smooth, "mode": result.mode,
                      "checked_degree": result.checked_degree,
                      "dimension": result.dimension}
            word = "true" if result.smooth else "false"
            return StepResult(
                "smoothness", "ring_smooth",
                "pass" if result.smooth else "fail", _QUERY_CITATION,
                details=[f"smooth: {word} ({result.mode}, degree "
                         f"{result.checked_degree})"],
                witness=None if result.smooth else "nonzero piece above the socle",
                values=values)

    step = _timed(run)
    report = Report(f"{scn.name}: ring {args.query}", [step])
    return _emit(report, args)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chowcheck",
        description="exact verification of graded-ring and cycle data")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run every check of a scenario")
    verify.add_argument("scenario",
                        help="scenario file path or bundled scenario name")
    verify.add_argument("--report", metavar="PATH",
                        help="also write the machine report to PATH")
    verify.add_argument("--machine", action="store_true",
                        help="print the machine report instead of the human one")
    verify.set_defaults(func=_cmd_verify)

    ring = sub.add_parser("ring", help="ad-hoc ring queries")
    ring.add_argument("query", choices=("dim", "map", "duality", "smooth"))
    ring.add_argument("--file", required=True,
                      help="scenario file path or bundled scenario name")
    ring.add_argument("--degree", type=int)
    ring.add_argument("--a", type=int)
    ring.add_argument("--b", type=int)
    ring.add_argument("--prime", type=int, default=modrank.DEFAULT_PRIME)
    ring.add_argument("--exact", action="store_true",
                      help="skip modular certificates, run fully exact")
    ring.add_argument("--report", metavar="PATH",
                      help="also write the machine report to PATH")
    ring.add_argument("--machine", action="store_true",
                      help="print the machine report instead of the human one")
    ring.set_defaults(func=_cmd_ring)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UnknownCheck, CheckConfigError, CliError,
            modrank.BadPrime, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
