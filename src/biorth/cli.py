"""Command-line front end.

Every subcommand reads exact rational parameters (decimal input is
rejected, not rounded), runs a computation or verification suite, and
emits a deterministic JSON report -- CSV for the two tabular commands.
The suites and the ``verify-all`` grid live in ``biorth.suites``; this
module parses flags, applies the size guards and writes the payload.  The
argparse tree is built once per process, on the first ``main`` call, and
names its handlers and suite builders, which ``main`` looks up at each call.
A handler imports the layers it runs (``suites`` for the report subcommands
and ``verify-all``, ``asep`` for ``stationary``, ``bimoment`` for
``bimoment``), so a cold command compiles only those and what they import,
and ``build_parser`` imports argparse.
Exit status: 0 when every check passed, 1 when some check found a
counterexample (the report is still written), 2 for unusable
configuration (bad flags, singular or non-representable parameters).
"""

from __future__ import annotations

import sys

from .core import (
    DEFAULT_FUZZ_SEED,
    AWParams,
    BiorthError,
    HoppingRates,
    InvalidParams,
    SizeLimit,
    parse_rational,
    to_aw_exact,
)
from .reporting import canonical_json, jsonable

_AW_FLAGS = ("a", "b", "c", "d")
_RATE_FLAGS = ("alpha", "beta", "gamma", "delta")
_PARAM_FLAGS = _AW_FLAGS + _RATE_FLAGS + ("q",)
_VALUE_FLAGS = frozenset(f"--{name}" for name in _PARAM_FLAGS)

# Largest value of each size flag per subcommand.  At the costliest GRID
# point, (3/2, 3/4, -1/6, -1/8, 2/5), on a 2-core host with Python 3.11,
# ldu --n 48 takes 7-13 s (n 32: 1.3 s, n 40: 3.8 s) on one 31.9 Mbit moment
# table; functional --max-len 96 with the default 200 trials takes 2.2-3.1 s
# and peaks at 54 MB RSS, the most of the seven GRID points (30-54 MB), and
# its time grows with the trials while its memory does not (samples are
# evaluated 200 at a time): 1000 trials take 7.8-10.6 s and 2000 take 20 s,
# both at 57 MB (off the grid a q of larger height costs more per trial:
# 200 trials take 10-12 s at q = 1/101 and 13-19 s at q = 97/101, over
# 100-120 MB); aw --n 96 with its three t values takes 2.1-2.3 s (n 128:
# 7.5 s, n 150: 16.5 s) and polys --n 64 16-22 s, the most of the GRID
# points (n 72: 39-55 s); rep --n 96 takes 0.4-0.65 s (n 128: 2.7 s) and
# bimoment --n 48 1.0 s, and at bimoment n 64 two GRID points have entries
# past the 4300 digits Python will print.
_LIMITS = {"bimoment": {"n": 48}, "ldu": {"n": 48}, "polys": {"n": 64}, "rep": {"n": 96},
           "aw": {"n": 96}, "functional": {"max_len": 96, "trials": 2000}}


def _guard_size(args) -> None:
    for dest, limit in _LIMITS.get(args.command, {}).items():
        value = getattr(args, dest)
        if value > limit:
            flag = "--" + dest.replace("_", "-")
            raise SizeLimit(f"{args.command} is guarded to {flag} <= {limit}, got {value}")


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    for name in _PARAM_FLAGS:
        sub.add_argument(f"--{name}", metavar="RAT")


def _add_output_flags(sub: argparse.ArgumentParser, formats=("json",)) -> None:
    sub.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    sub.add_argument("--format", choices=formats, default="json")


def _params_from_args(args) -> AWParams:
    aw = [getattr(args, name) for name in _AW_FLAGS]
    rates = [getattr(args, name) for name in _RATE_FLAGS]
    if args.q is None:
        raise InvalidParams("--q is required")
    q = parse_rational(args.q)
    if any(v is not None for v in rates):
        if any(v is not None for v in aw):
            raise InvalidParams("give either --a..--d or --alpha..--delta, not both")
        if any(v is None for v in rates):
            raise InvalidParams("hopping-rate input needs all of --alpha --beta --gamma --delta")
        hop = HoppingRates(*(parse_rational(v) for v in rates), q=q)
        return to_aw_exact(hop)
    if any(v is None for v in aw):
        raise InvalidParams("parameter input needs all of --a --b --c --d (or the rate flags)")
    return AWParams(*(parse_rational(v) for v in aw), q=q)


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InvalidParams(f"cannot write --out {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _all_passed(reports: dict) -> bool:
    return all(rep.passed for rep in reports.values())


def _cmd_bimoment(args) -> int:
    _guard_size(args)
    from .bimoment import bimoment_block

    p = _params_from_args(args)
    block = bimoment_block(p, args.n, fill=args.fill)
    if args.format == "csv":
        _emit(args, block.to_csv())
    else:
        _emit(args, canonical_json(jsonable(block.to_json_dict())))
    return 0


def _cmd_report(args) -> int:
    """The five report subcommands: the builder of ``biorth.suites`` named
    ``args.build`` at the flag values named in ``args.sizes``."""
    _guard_size(args)
    from . import suites

    p = _params_from_args(args)
    build = getattr(suites, args.build)
    reports = build(p, *(getattr(args, name) for name in args.sizes))
    payload = {
        "command": args.command,
        "params": p.to_map(),
        "reports": {name: rep.to_dict() for name, rep in reports.items()},
    }
    _emit(args, canonical_json(jsonable(payload)))
    return 0 if _all_passed(reports) else 1


def _cmd_stationary(args) -> int:
    """Exit 1 unless a requested variant reproduces the certified chain
    state and every variant built has its normalization (see
    ``ComparisonReport.passed``); the CSV form is that state, so nothing
    is written without one."""
    from . import asep

    p = _params_from_args(args)
    variants = asep.VARIANTS if args.variant == "both" else (args.variant,)
    comparison = asep.compare(args.L, p, variants)
    if args.format == "json":
        _emit(args, canonical_json(jsonable(comparison.to_json_dict())))
    elif comparison.oracle is not None:
        _emit(args, comparison.oracle.to_csv())
    return 0 if comparison.passed else 1


def _cmd_verify_all(args) -> int:
    from . import suites

    points = suites.grid_params()
    results = [suites.verify_point(p) for p in points]
    payload = {
        "command": "verify-all",
        "grid": [
            {
                "params": p.to_map(),
                "suites": {name: rep.to_dict() for name, rep in reports.items()},
            }
            for p, reports in zip(points, results)
        ],
    }
    _emit(args, canonical_json(jsonable(payload)))
    return 0 if all(_all_passed(reports) for reports in results) else 1


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every subcommand.  Handlers and suite builders
    are named, not bound, so the parser holds no function of this package
    and ``main`` can keep one for the whole process.  argparse is imported
    here, so a process that imports this module but parses no command line
    does not load it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="biorth",
        description="Exact verification suites for the bi-orthogonal exclusion-chain machinery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("bimoment", help="dump an exact bimoment block")
    _add_param_flags(cmd)
    cmd.add_argument("--n", type=int, default=8, help="block order (square block up to index n)")
    cmd.add_argument("--fill", choices=("columns", "rows"), default="columns")
    _add_output_flags(cmd, formats=("json", "csv"))
    cmd.set_defaults(handler="_cmd_bimoment")

    cmd = sub.add_parser("ldu", help="triangular factorization and determinant checks")
    _add_param_flags(cmd)
    cmd.add_argument("--n", type=int, default=10)
    _add_output_flags(cmd)
    cmd.set_defaults(handler="_cmd_report", build="ldu_suite", sizes=("n",))

    cmd = sub.add_parser("polys", help="bi-orthogonality and construction-route checks")
    _add_param_flags(cmd)
    cmd.add_argument("--n", type=int, default=8)
    _add_output_flags(cmd)
    cmd.set_defaults(handler="_cmd_report", build="polys_suite", sizes=("n",))

    cmd = sub.add_parser("functional", help="fuzz the defining relations of the word functional")
    _add_param_flags(cmd)
    cmd.add_argument("--trials", type=int, default=200)
    cmd.add_argument("--max-len", type=int, default=8, dest="max_len")
    cmd.add_argument("--seed", type=int, default=DEFAULT_FUZZ_SEED)
    _add_output_flags(cmd)
    cmd.set_defaults(
        handler="_cmd_report", build="functional_suite", sizes=("max_len", "trials", "seed")
    )

    cmd = sub.add_parser("rep", help="operator truncation checks (algebra, boundary, recurrence match)")
    _add_param_flags(cmd)
    cmd.add_argument("--n", type=int, default=16)
    _add_output_flags(cmd)
    cmd.set_defaults(handler="_cmd_report", build="rep_suite", sizes=("n",))

    cmd = sub.add_parser("aw", help="series evaluation versus recurrence")
    _add_param_flags(cmd)
    cmd.add_argument("--n", type=int, default=8, help="highest recurrence level checked")
    _add_output_flags(cmd)
    cmd.set_defaults(handler="_cmd_report", build="aw_suite", sizes=("n",))

    cmd = sub.add_parser("stationary", help="ansatz distributions against the exact chain solution")
    _add_param_flags(cmd)
    cmd.add_argument("--L", type=int, default=4)
    cmd.add_argument("--variant", choices=("shifted", "unshifted", "both"), default="both")
    _add_output_flags(cmd, formats=("json", "csv"))
    cmd.set_defaults(handler="_cmd_stationary")

    cmd = sub.add_parser("verify-all", help="full suite over the built-in parameter grid")
    _add_output_flags(cmd)
    cmd.set_defaults(handler="_cmd_verify_all")

    return parser


def _glue_values(argv: list[str]) -> list[str]:
    """Fold ``--c -1/3`` into ``--c=-1/3`` so negative rationals survive
    argparse's option detection."""
    out = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            out.append(token)
    return out


# The parser of this process, built by the first ``main`` call (not at import).
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = _PARSER.parse_args(_glue_values(list(argv)))
    handler = globals()[args.handler]
    try:
        return handler(args)
    except BiorthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
