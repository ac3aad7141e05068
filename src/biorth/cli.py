"""Command-line front end.

Every subcommand reads exact rational parameters (decimal input is
rejected, not rounded), runs a computation or verification suite, and
emits a deterministic JSON report -- CSV for the two tabular commands.
Exit status: 0 when every check passed, 1 when some check found a
counterexample (the report is still written), 2 for unusable
configuration (bad flags, singular or non-representable parameters).
"""

from __future__ import annotations

import argparse
import itertools
import sys
from fractions import Fraction

from . import asep, biortho, ldu, repmat, wordfun
from .bimoment import bimoment_block
from .core import (
    AWParams,
    BiorthError,
    HoppingRates,
    InvalidParams,
    SizeLimit,
    ZeroParameter,
    format_rational,
    parse_rational,
    to_aw_exact,
)
from .reporting import VerificationReport, canonical_json, jsonable

_AW_FLAGS = ("a", "b", "c", "d")
_RATE_FLAGS = ("alpha", "beta", "gamma", "delta")
_VALUE_FLAGS = frozenset(
    f"--{name}" for name in _AW_FLAGS + _RATE_FLAGS + ("q",)
)

# Generic points, a three-parameter reduction (c = d = 0), and a point with
# abcd q^k near (but never equal to) 1, to exercise denominator handling.
GRID = (
    ("1", "1/2", "-1/3", "-1/4", "1/2"),
    ("1/2", "1/3", "-1/5", "-1/7", "1/3"),
    ("2", "2/5", "-1/2", "-1/5", "1/4"),
    ("3/2", "3/4", "-1/6", "-1/8", "2/5"),
    ("2/3", "2/3", "-1/3", "-1/3", "1/2"),
    ("1", "1/2", "0", "0", "1/2"),
    ("7/2", "3/5", "-5/7", "-7/10", "1/2"),
)

_AW_T_VALUES = (Fraction(2), Fraction(3, 2), Fraction(5))

# Largest --n per subcommand.  At the costliest GRID point, (3/2, 3/4, -1/6,
# -1/8, 2/5), on a 2-core host with Python 3.11, ldu --n 32 takes 15 s (n 40:
# 100 s) and rep --n 96 takes 9 s (n 128: 42 s); bimoment --n 48 takes 1.3 s,
# and at n 64 three GRID points have entries past the 4300 digits Python
# will print.
_N_LIMITS = {"bimoment": 48, "ldu": 32, "rep": 96}


def _guard_n(command: str, n: int) -> None:
    if n > _N_LIMITS[command]:
        raise SizeLimit(f"{command} is guarded to --n <= {_N_LIMITS[command]}, got {n}")


def _grid_params() -> list[AWParams]:
    return [AWParams(*map(parse_rational, point)) for point in GRID]


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    for name in _AW_FLAGS:
        sub.add_argument(f"--{name}", metavar="RAT")
    for name in _RATE_FLAGS:
        sub.add_argument(f"--{name}", metavar="RAT")
    sub.add_argument("--q", metavar="RAT")


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


def _report_payload(command: str, p: AWParams, reports: dict) -> dict:
    return {
        "command": command,
        "params": p.to_map(),
        "reports": {name: rep.to_dict() for name, rep in reports.items()},
    }


def _all_passed(reports: dict) -> bool:
    return all(rep.passed for rep in reports.values())


def _cmd_bimoment(args) -> int:
    _guard_n("bimoment", args.n)
    p = _params_from_args(args)
    block = bimoment_block(p, args.n, fill=args.fill)
    if args.format == "csv":
        _emit(args, block.to_csv())
    else:
        _emit(args, canonical_json(jsonable(block.to_json_dict())))
    return 0


def _skipped(p: AWParams, n: int, name: str, exc: Exception) -> VerificationReport:
    """A report whose single check did not run; the reason says why."""
    report = VerificationReport(params=p.to_map(), n=n)
    report.add(name, True, skipped_reason=str(exc))
    return report


def _ldu_report(p: AWParams, n: int, n_det: int) -> VerificationReport:
    """B = L D U at order n, then the determinant triple at order n_det."""
    report = ldu.verify_ldu(p, n)
    with report.timed("determinants"):
        from_diag, from_closed, from_elim = ldu.det_bimoment(p, n_det)
        agree = from_diag == from_closed == from_elim
        report.add(
            "determinant-triple-agreement",
            agree,
            None
            if agree
            else {
                "from_diagonal": from_diag,
                "from_closed_form": from_closed,
                "from_elimination": from_elim,
            },
        )
    return report


def _cmd_ldu(args) -> int:
    _guard_n("ldu", args.n)
    p = _params_from_args(args)
    report = _ldu_report(p, args.n, args.n)
    _emit(args, canonical_json(jsonable(_report_payload("ldu", p, {"ldu": report}))))
    return 0 if report.passed else 1


def _polys_report(p: AWParams, n: int) -> VerificationReport:
    """Diagonal pairing, equality of the two construction routes, and the
    monomial expansion, for the first n polynomials of each family."""
    report = biortho.biorthogonality_check(p, n)
    with report.timed("construction-routes"):
        for variable in ("d", "e"):
            same = biortho.polys_from_inverse(p, n, variable) == biortho.polys_from_recurrence(
                p, n, variable
            )
            report.add(f"route-equality-{variable}", same)
    with report.timed("monomial-expansion"):
        report.add("monomial-expansion", biortho.monomial_expansion_check(p, n))
    return report


def _cmd_polys(args) -> int:
    p = _params_from_args(args)
    n = args.n
    report = _polys_report(p, n)
    with report.timed("bordered-determinant"):
        order = min(n, 4)
        report.add(f"bordered-determinant-n{order}", biortho.bordered_determinant_check(p, order))
    _emit(args, canonical_json(jsonable(_report_payload("polys", p, {"polys": report}))))
    return 0 if report.passed else 1


def _sweep_eval_paths(p: AWParams, max_len: int):
    """First word (if any) where normal ordering and boundary elimination
    disagree, over every word of length <= max_len."""
    for length in range(max_len + 1):
        for letters in itertools.product("de", repeat=length):
            word = "".join(letters)
            wp = wordfun.WordPoly({word: Fraction(1)})
            if wordfun.functional(wp, p) != wordfun.eval_by_elimination(wp, p):
                return {"word": word}
    return None


def _functional_report(p: AWParams, max_len: int, trials: int, seed: int) -> VerificationReport:
    """Fuzzed defining relations, then every word up to length
    min(max_len, 8) through both evaluation paths."""
    report = wordfun.check_defining_relations(p, max_len=max_len, trials=trials, seed=seed)
    with report.timed("evaluation-paths"):
        sweep_len = min(max_len, 8)
        failure = _sweep_eval_paths(p, sweep_len)
        report.add(f"evaluation-path-agreement-len{sweep_len}", failure is None, failure)
    return report


def _cmd_functional(args) -> int:
    p = _params_from_args(args)
    report = _functional_report(p, args.max_len, args.trials, args.seed)
    _emit(args, canonical_json(jsonable(_report_payload("functional", p, {"functional": report}))))
    return 0 if report.passed else 1


def _rep_reports(p: AWParams, n: int) -> dict:
    dop, eop = repmat.rep_rational(p, n)
    reports = {
        "algebra": repmat.verify_algebra(dop, eop, p.q),
        "boundary": repmat.verify_boundary(dop, eop, p),
        "sharp-flat-products": repmat.verify_uchiyama_algebra(p, n),
    }
    try:
        reports["aw-match"] = repmat.verify_aw_match(p, max(n // 2, 2))
    except ZeroParameter as exc:
        reports["aw-match"] = _skipped(p, n, "aw-match", exc)
    return reports


def _cmd_rep(args) -> int:
    _guard_n("rep", args.n)
    p = _params_from_args(args)
    reports = _rep_reports(p, args.n)
    _emit(args, canonical_json(jsonable(_report_payload("rep", p, reports))))
    return 0 if _all_passed(reports) else 1


def _aw_recurrence_report(p: AWParams, n_max: int, t_values=_AW_T_VALUES):
    if n_max < 0:
        raise InvalidParams(f"--n must be >= 0, got {n_max}")
    report = VerificationReport(params=p.to_map(), n=n_max)
    coeffs = [repmat.aw_coeffs(p, k) for k in range(n_max + 1)]
    for t in t_values:
        x = (t + 1 / t) / 2
        failure = None
        with report.timed(f"t={format_rational(t)}"):
            values = [repmat.aw_eval(p, k, t) for k in range(n_max + 2)]
            for k in range(n_max + 1):
                residual = (
                    coeffs[k].A * values[k + 1]
                    + coeffs[k].B * values[k]
                    + (coeffs[k].C * values[k - 1] if k else 0)
                    - 2 * x * values[k]
                )
                if residual != 0:
                    failure = {"n": k, "residual": residual}
                    break
        report.add(f"series-matches-recurrence-t{format_rational(t)}", failure is None, failure)
    return report


def _cmd_aw(args) -> int:
    p = _params_from_args(args)
    report = _aw_recurrence_report(p, args.n)
    _emit(args, canonical_json(jsonable(_report_payload("aw", p, {"aw": report}))))
    return 0 if report.passed else 1


def _cmd_stationary(args) -> int:
    p = _params_from_args(args)
    variants = asep.VARIANTS if args.variant == "both" else (args.variant,)
    comparison = asep.compare(args.L, p, variants)
    if args.format == "csv":
        _emit(args, comparison.oracle.to_csv())
    else:
        _emit(args, comparison.to_json())
    return 0 if comparison.matching_variants else 1


def _verify_point(p: AWParams) -> dict:
    """All suites for one grid point at moderate sizes."""
    reports = {
        "ldu": _ldu_report(p, 10, 8),
        "polys": _polys_report(p, 8),
        "functional": _functional_report(p, 6, 60, wordfun.DEFAULT_FUZZ_SEED),
    }
    reports.update(_rep_reports(p, 16))
    try:
        reports["aw"] = _aw_recurrence_report(p, 6, t_values=_AW_T_VALUES[:2])
    except ZeroParameter as exc:
        reports["aw"] = _skipped(p, 6, "aw", exc)

    station = VerificationReport(params=p.to_map(), n=4)
    matching_by_length = []
    with station.timed("oracle-comparison"):
        for length in range(1, 5):
            comparison = asep.compare(length, p)
            matching_by_length.append(set(comparison.matching_variants))
            station.add(
                f"ansatz-matches-oracle-L{length}",
                bool(comparison.matching_variants),
                None
                if comparison.matching_variants
                else {
                    "variants": [
                        {"name": v.name, "max_abs_discrepancy": v.max_abs_discrepancy}
                        for v in comparison.variants
                    ]
                },
            )
    consistent = set.intersection(*matching_by_length) if matching_by_length else set()
    station.add(
        "matching-variant-consistent-across-L",
        bool(consistent),
        None if consistent else {"per_length": [sorted(s) for s in matching_by_length]},
    )
    reports["stationary"] = station
    return reports


def _cmd_verify_all(args) -> int:
    points = _grid_params()
    results = [_verify_point(p) for p in points]
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
    cmd.set_defaults(handler=_cmd_bimoment)

    cmd = sub.add_parser("ldu", help="triangular factorization and determinant checks")
    _add_param_flags(cmd)
    cmd.add_argument("--n", type=int, default=10)
    _add_output_flags(cmd)
    cmd.set_defaults(handler=_cmd_ldu)

    cmd = sub.add_parser("polys", help="bi-orthogonality and construction-route checks")
    _add_param_flags(cmd)
    cmd.add_argument("--n", type=int, default=8)
    _add_output_flags(cmd)
    cmd.set_defaults(handler=_cmd_polys)

    cmd = sub.add_parser("functional", help="fuzz the defining relations of the word functional")
    _add_param_flags(cmd)
    cmd.add_argument("--trials", type=int, default=200)
    cmd.add_argument("--max-len", type=int, default=8, dest="max_len")
    cmd.add_argument("--seed", type=int, default=wordfun.DEFAULT_FUZZ_SEED)
    _add_output_flags(cmd)
    cmd.set_defaults(handler=_cmd_functional)

    cmd = sub.add_parser("rep", help="operator truncation checks (algebra, boundary, recurrence match)")
    _add_param_flags(cmd)
    cmd.add_argument("--n", type=int, default=16)
    _add_output_flags(cmd)
    cmd.set_defaults(handler=_cmd_rep)

    cmd = sub.add_parser("aw", help="series evaluation versus recurrence")
    _add_param_flags(cmd)
    cmd.add_argument("--n", type=int, default=8, help="highest recurrence level checked")
    _add_output_flags(cmd)
    cmd.set_defaults(handler=_cmd_aw)

    cmd = sub.add_parser("stationary", help="ansatz distributions against the exact chain solution")
    _add_param_flags(cmd)
    cmd.add_argument("--L", type=int, default=4)
    cmd.add_argument("--variant", choices=("shifted", "unshifted", "both"), default="both")
    _add_output_flags(cmd, formats=("json", "csv"))
    cmd.set_defaults(handler=_cmd_stationary)

    cmd = sub.add_parser("verify-all", help="full suite over the built-in parameter grid")
    _add_output_flags(cmd)
    cmd.set_defaults(handler=_cmd_verify_all)

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


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_glue_values(list(argv)))
    try:
        return args.handler(args)
    except BiorthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
