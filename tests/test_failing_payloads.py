"""Failing payloads of every counterexample search.

Each scenario corrupts one input of a report so that its searches fail,
and the whole deterministic payload is pinned: the checks' names, their
pass flags and each first counterexample, exactly as printed.  The pinned
digests of ``test_cli`` cover passing runs only.
"""

from fractions import Fraction as F

import pytest

from biorth import biortho, ldu, repmat, suites, wordfun

from conftest import GRID, make_params, replace, without_timings

CANONICAL = make_params(GRID[0])


def _bump(seq, index, by=F(1)):
    """seq as a tuple with by added at index."""
    return tuple(x + by if k == index else x for k, x in enumerate(seq))


def _corrupt(monkeypatch, module, name, change):
    """Make module.name return change(its result, *its arguments)."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: change(original(*args), *args))


def _ldu(monkeypatch):
    _corrupt(monkeypatch, ldu, "build_D", lambda diag, p, n: replace(diag, values=_bump(diag.values, 2)))
    _corrupt(
        monkeypatch,
        ldu,
        "build_L_inverse",  # build_U_inverse reads it too, at the swapped point
        lambda inv, p, n: replace(inv, entries=inv.entries[:2] + (_bump(inv.entries[2], 0),) + inv.entries[3:]),
    )
    return ldu.verify_ldu(CANONICAL, 4)


def _pairing(monkeypatch):
    _corrupt(monkeypatch, biortho, "build_D", lambda diag, p, n: replace(diag, values=_bump(diag.values, 2)))
    return biortho.biorthogonality_check(CANONICAL, 4)


def _algebra(monkeypatch):
    dop, eop = repmat.rep_rational(CANONICAL, 6)
    return repmat.verify_algebra(dop, replace(eop, diag=_bump(eop.diag, 2)), CANONICAL.q)


def _algebra_second_diagonal(monkeypatch):
    dop, eop = repmat.rep_rational(CANONICAL, 6)
    return repmat.verify_algebra(dop, replace(eop, upper=_bump(eop.upper, 1)), CANONICAL.q)


def _boundary(monkeypatch):
    dop, eop = repmat.rep_rational(CANONICAL, 5)
    dop = replace(dop, upper=_bump(dop.upper, 0))
    eop = replace(eop, lower=_bump(eop.lower, 0))
    return repmat.verify_boundary(dop, eop, CANONICAL)


def _aw_match(monkeypatch):
    def change(coeffs, p, stop):
        coeffs[2] = replace(coeffs[2], B=coeffs[2].B + 1)
        coeffs[3] = replace(coeffs[3], C=coeffs[3].C * 2)
        return coeffs

    _corrupt(monkeypatch, repmat, "aw_sweep", change)
    return repmat.verify_aw_match(CANONICAL, 4)


def _uchiyama(monkeypatch):
    _corrupt(
        monkeypatch,
        repmat,
        "uchiyama_coeffs",
        lambda coeffs, p, n: replace(coeffs, d_nat=coeffs.d_nat + 1) if n == 2 else coeffs,
    )
    return repmat.verify_uchiyama_algebra(CANONICAL, 5)


def _relations(monkeypatch):
    # one batch, three values per sample: sample 5 of each relation
    _corrupt(
        monkeypatch,
        wordfun,
        "functional_values",
        lambda values, polys, p: [v + F(1, 3) if k // 3 == 5 else v for k, v in enumerate(values)],
    )
    return wordfun.check_defining_relations(CANONICAL, max_len=4, trials=12, seed=7)


def _evaluation_paths(monkeypatch):
    _corrupt(
        monkeypatch,
        wordfun,
        "elimination_values",
        lambda values, words, p: [v + 1 if w in ("eee", "ded") else v for w, v in zip(words, values)],
    )
    return suites.functional_suite(CANONICAL, 3, 5, 7)["functional"]


def _aw(monkeypatch):
    _corrupt(monkeypatch, repmat, "aw_series", lambda values, p, stop, t: list(_bump(values, 2)))
    return suites.aw_suite(CANONICAL, 3)["aw"]


AT_CANONICAL = {"a": "1", "b": "1/2", "c": "-1/3", "d": "-1/4", "q": "1/2"}


def _failed(name, **first_failure):
    return {"name": name, "pass": False, "first_failure": first_failure}


def _passed(name):
    return {"name": name, "pass": True}


# scenario: (params, n, checks) of its payload without timings
FAILING_PAYLOADS = {
    _ldu: (AT_CANONICAL, 4, [
        _failed("bimoment-equals-LDU", i=2, j=2, left="2138012/3922949", right="6060961/3922949"),
        _failed("lower-times-inverse", i=2, j=0, left="1", right="0"),
        _failed("inverse-times-upper", i=0, j=2, left="1", right="0"),
    ]),
    _pairing: (AT_CANONICAL, 3, [
        _failed("diagonal-pairing", n=2, m=2, value="186810624/761563795", expected="948374419/761563795"),
        _passed("nondegenerate-normalization"),
    ]),
    _algebra: ({"q": "1/2"}, 6, [
        _failed("interior-algebra", i=1, j=2, value="1"),
    ]),
    _algebra_second_diagonal: ({"q": "1/2"}, 6, [
        _failed("interior-algebra", i=0, j=2, value="1"),
    ]),
    _boundary: (AT_CANONICAL, 5, [
        _failed("right-boundary-vector", row=1, value="-1/8"),
        _failed("left-boundary-vector", col=1, value="-1/3"),
    ]),
    _aw_match: (AT_CANONICAL, 4, [
        _failed("diagonal-equals-B", n=2, left="6028/36385", right="42413/36385"),
        _failed("offdiagonal-product-equals-AC", n=2, left="1518080025/1653038341", right="3036160050/1653038341"),
        _failed("jacobi-moments", k=5, left="15626775920419/53668923761240", right="832128901/3004978934"),
    ]),
    _uchiyama: (AT_CANONICAL, 5, [
        _failed("diagonal-exchange", i=2, value="41209/72770"),
        _failed("offdiagonal-exchange", i=1, entry="upper", value="-1/14"),
    ]),
    _relations: (AT_CANONICAL, 4, [
        _failed(name, u="", v="deed", value="1/3") for name in ("bulk-exchange", "right-boundary", "left-boundary")
    ]),
    _evaluation_paths: (AT_CANONICAL, 3, [
        *map(_passed, ("bulk-exchange", "right-boundary", "left-boundary")),
        _failed("evaluation-path-agreement-len3", word="ded"),
    ]),
    _aw: (AT_CANONICAL, 3, [
        _failed(f"series-matches-recurrence-t{t}", n=1, residual="4416/4465") for t in ("2", "3/2", "5")
    ]),
}


@pytest.mark.parametrize("scenario", FAILING_PAYLOADS, ids=lambda f: f.__name__.strip("_"))
def test_failing_payloads_are_pinned(scenario, monkeypatch):
    params, n, checks = FAILING_PAYLOADS[scenario]
    report = scenario(monkeypatch)
    assert not report.passed
    assert without_timings(report) == {"params": params, "n": n, "checks": checks}
