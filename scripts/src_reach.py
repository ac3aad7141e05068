#!/usr/bin/env python3
"""List the functions of ``src/biorth`` that no command calls, and why each stays.

Runs ``verify-all`` and every per-point subcommand in this process, under a
``sys.setprofile`` hook that records each function entered: each
subcommand in each of its output formats (and ``bimoment`` with both
fills) at the canonical point, at the c = d = 0 point and at a point given
by its hopping rates, then one size-guard error and one decimal-literal
error.  Every function the package defines (methods and nested functions
too; lambdas and comprehensions are not counted) that none of these runs
enters is printed with its def-to-end line count and the reason it is kept
(``KEPT``).  The last line is the count and their total lines.  Exits 1,
naming the offender, when an unreached function has no reason or a reason
names a function that a run reaches or the package no longer defines.

    PYTHONPATH=src python scripts/src_reach.py
"""

import ast
import contextlib
import io
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src", "biorth")

POINTS = (
    ("--a", "1", "--b", "1/2", "--c=-1/3", "--d=-1/4", "--q", "1/2"),
    ("--a", "1", "--b", "1/2", "--c", "0", "--d", "0", "--q", "1/2"),
    # the rates of the GRID point (2, 2/5, -1/2, -1/5, 1/4)
    ("--alpha", "1/2", "--beta", "75/112", "--gamma", "1/2", "--delta", "3/56", "--q", "1/4"),
)
COMMANDS = (
    ("bimoment",),
    ("bimoment", "--format", "csv"),
    ("bimoment", "--fill", "rows"),
    ("ldu",),
    ("polys",),
    ("functional",),
    ("rep",),
    ("aw",),
    ("stationary",),
    ("stationary", "--format", "csv"),
)
ERRORS = (
    ("ldu", *POINTS[0], "--n", "49"),
    ("bimoment", "--a", "0.5", "--b", "1/2", "--c", "0", "--d", "0", "--q", "1/2"),
)

TRACED = "named in perfbench.tracer.ENTRY_POINTS"
READ = "read by perfbench.workloads or perfbench.tracer"
UNDER_TRACED = "called only by functions perfbench names"
WORD_ALGEBRA = "the WordPoly algebra the tests build words with"
RECORDS = "the record protocol tests/test_records.py checks"

# Each function no run reaches, by "module.qualified.name", and why it stays.
KEPT = {
    "_linalg.nullspace": TRACED,
    "asep._dense_generator": UNDER_TRACED,
    "asep.ansatz_weight": TRACED,
    "asep.generator": TRACED,
    "asep.stationary_ansatz": TRACED,
    "asep.stationary_exact": TRACED,
    "bimoment.BimomentMatrix.rows": READ,
    "bimoment.BimomentTable.order": READ,
    "bimoment.BimomentTable.stored_items": READ,
    "biortho.monomial_expansion_check": TRACED,
    "biortho.pairing": TRACED,
    "core.FrozenRecord.__delattr__": RECORDS,
    "core.FrozenRecord.__reduce__": RECORDS,
    "core.FrozenRecord.__setattr__": RECORDS,
    "core.Record.__repr__": RECORDS,
    "core.d_natural": TRACED,
    "core.e_natural": TRACED,
    "core.g_coeff": TRACED,
    "core.is_valid": READ,
    "core.phi_terminating": TRACED,
    "core.qpoch": TRACED,
    "core.qpoch_multi": TRACED,
    "core.validate": TRACED,
    "powers._fractions": "called only by wordfun.normal_order and powers.normal_power",
    "powers.normal_power": "extended to q = 0 by ROADMAP item 15",
    "repmat.UchiyamaCoeffs.__init__": UNDER_TRACED,
    "repmat.aw_coeffs": TRACED,
    "repmat.aw_eval": TRACED,
    "repmat.uchiyama_coeffs": UNDER_TRACED,
    "repmat.verify_uchiyama_algebra": TRACED,
    "repmat.verify_uchiyama_algebra.diagonal_failures": UNDER_TRACED,
    "repmat.verify_uchiyama_algebra.flat_ratio": UNDER_TRACED,
    "repmat.verify_uchiyama_algebra.off_diagonal_failures": UNDER_TRACED,
    "repmat.verify_uchiyama_algebra.restored": UNDER_TRACED,
    "repmat.verify_uchiyama_algebra.sharp_ratio": UNDER_TRACED,
    "wordfun.WordPoly.__add__": WORD_ALGEBRA,
    "wordfun.WordPoly.__bool__": WORD_ALGEBRA,
    "wordfun.WordPoly.__eq__": WORD_ALGEBRA,
    "wordfun.WordPoly.__hash__": WORD_ALGEBRA,
    "wordfun.WordPoly.__init__": WORD_ALGEBRA,
    "wordfun.WordPoly.__mul__": TRACED,
    "wordfun.WordPoly.__neg__": WORD_ALGEBRA,
    "wordfun.WordPoly.__repr__": WORD_ALGEBRA,
    "wordfun.WordPoly.__rmul__": WORD_ALGEBRA,
    "wordfun.WordPoly.__sub__": WORD_ALGEBRA,
    "wordfun.WordPoly._of": WORD_ALGEBRA,
    "wordfun.WordPoly.max_len": WORD_ALGEBRA,
    "wordfun.WordPoly.one": WORD_ALGEBRA,
    "wordfun.WordPoly.zero": WORD_ALGEBRA,
    "wordfun.eval_by_elimination": TRACED,
    "wordfun.functional": TRACED,
    "wordfun.normal_order": TRACED,
}


def _visit(node, prefix: str, path: str, out: dict) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[path, first] = (name, child.end_lineno - child.lineno + 1)
            _visit(child, name, path, out)
        else:
            _visit(child, prefix, path, out)


def defined_functions() -> dict:
    """{(path, first line): (name, lines)} of every def in the package.
    The first line is the first decorator's, as in the code object's
    ``co_firstlineno``; lines is the def-to-end span."""
    out = {}
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            path = os.path.join(PACKAGE, filename)
            with open(path, encoding="utf-8") as handle:
                _visit(ast.parse(handle.read()), filename[:-3], path, out)
    return out


def reached_code() -> set:
    """{(path, first line)} of every package function the runs enter."""
    from biorth import cli

    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    runs = [("verify-all",)]
    runs += [(*command, *point) for point in POINTS for command in COMMANDS]
    sys.setprofile(hook)
    try:
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(list(argv))
        for argv in ERRORS:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(list(argv))
            if code != 2 or not err.getvalue().startswith("error: "):
                raise SystemExit(f"error: {' '.join(argv)} should exit 2 with an error line, got {code}")
    finally:
        sys.setprofile(None)
    out = set()
    for code in seen:
        path = os.path.realpath(code.co_filename)
        if os.path.dirname(path) == PACKAGE:
            out.add((path, code.co_firstlineno))
    return out


def problems(defined: dict, reached: set, kept: dict) -> list:
    """What breaks the rule that every unreached function has a reason and
    every reason names an unreached function."""
    names = {name for name, _ in defined.values()}
    unreached = {name for key, (name, _) in defined.items() if key not in reached}
    out = [f"unreached without a reason: {name}" for name in sorted(unreached - kept.keys())]
    for name in sorted(kept.keys() - unreached):
        out.append(f"reason for a function {'a run reaches' if name in names else 'that is gone'}: {name}")
    return out


def main() -> int:
    defined = defined_functions()
    reached = reached_code()
    unreached = sorted(value for key, value in defined.items() if key not in reached)
    for name, lines in unreached:
        print(f"{name:55s} {lines:4d}  {KEPT.get(name, 'NO REASON')}")
    print(f"{len(unreached)} functions unreached, {sum(lines for _, lines in unreached)} lines")
    found = problems(defined, reached, KEPT)
    for line in found:
        print(f"error: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
