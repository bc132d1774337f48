"""Command line driver.

Two subcommands:

``verify SCENARIO``
    Run every check of a scenario file (or a bundled scenario named
    ``quartic-family`` or ``shioda``) and print the human report.
    ``--report PATH`` additionally writes the deterministic machine
    report; ``--machine`` prints that format to stdout instead.

``ring {dim,map,duality,smooth} --file SCENARIO``
    One ad-hoc query against the graded ring declared by a scenario's
    [ring] section.  The query runs as one synthesized check of kind
    ``ring_dim``, ``ring_map``, ``duality`` or ``smooth`` (the scenario's
    own check list is ignored), so it reports and fails like that check.

Exit status: 0 all checks pass, 1 at least one check fails, 2 the
input is malformed: the scenario could not be parsed, a check was
misconfigured, or a value it uses was refused (an InputError, such as a
modulus that is not a usable prime).  Exit 2 prints one ``error:`` line;
a traceback is a bug.

A command loads only the modules its checks run.  numpy is loaded only
by a dense GF(p) elimination, and no chowcheck kernel calls BLAS, so
:func:`main` sets ``OPENBLAS_NUM_THREADS=1`` before anything can import
numpy: the process then starts no idle OpenBLAS thread pool.  A value
already in the environment is kept, so ``OPENBLAS_NUM_THREADS=4
chowcheck ...`` overrides it.  Importing the module changes nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources
from pathlib import Path

from . import modrank
from .report import InputError, Report
from .runner import (CheckConfigError, ScenarioContext, UnknownCheck,
                     run_check, run_scenario)
from .scenario import CheckSpec, ParseError, load_scenario, parse_scenario

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


def _cmd_ring(args):
    modrank.require_prime(args.prime)
    scn = _load(args.file)

    def need(attr, flag):
        value = getattr(args, attr)
        if value is None:
            raise CliError(f"ring {args.query} needs {flag}")
        return value

    attrs = {"cite": _QUERY_CITATION}
    if args.query == "dim":
        attrs["degree"] = need("degree", "--degree")
    elif args.query in ("map", "duality"):
        attrs["a"], attrs["b"] = need("a", "--a"), need("b", "--b")
    if args.query == "smooth":
        attrs.update(prime=args.prime, mode="exact" if args.exact else "modular")
    elif args.query != "dim" and not args.exact:
        attrs["prime"] = args.prime
    kind = {"dim": "ring_dim", "map": "ring_map"}.get(args.query, args.query)
    step = run_check(ScenarioContext(scn), CheckSpec(kind, attrs, line=None))
    return _emit(Report(f"{scn.name}: ring {args.query}", [step]), args)


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
    # no chowcheck kernel calls BLAS, so OpenBLAS's thread pool would only
    # spin; OpenBLAS reads this when numpy is first imported, which is later
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UnknownCheck, CheckConfigError, CliError, InputError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
