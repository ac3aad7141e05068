import json
from fractions import Fraction as F

import pytest
from hypothesis import given

from biorth import (
    BiorthError,
    InvalidParams,
    NotIrreducible,
    SizeLimit,
    StationaryDistribution,
    ansatz_weight,
    bimoment_block,
    compare,
    stationary_ansatz,
    stationary_exact,
    to_rates,
)
from biorth import asep
from biorth.asep import (
    VARIANTS,
    _site_letter,
    _transfer_weights,
    certify_stationary,
    config_string,
    generator,
)
from biorth.cli import main
from biorth.repmat import rep_rational
from biorth.suites import stationary_suite

from conftest import make_params, replace, valid_params


def test_config_helpers():
    assert config_string(5, 4) == "0101"
    with pytest.raises(InvalidParams):
        config_string(16, 4)
    with pytest.raises(InvalidParams):
        config_string(-1, 4)


def test_distribution_validation():
    with pytest.raises(InvalidParams):
        StationaryDistribution(length=1, probabilities=(F(1),), normalization=F(1))
    with pytest.raises(InvalidParams):
        StationaryDistribution(
            length=1, probabilities=(F(1, 2), F(1, 3)), normalization=F(1)
        )


def test_generator_single_site(canonical):
    rates = to_rates(canonical)
    gen = generator(1, rates)
    assert gen[(0, 1)] == rates.alpha + rates.delta
    assert gen[(1, 0)] == rates.beta + rates.gamma
    assert gen[(0, 0)] == -gen[(0, 1)]


def test_generator_bonds_and_row_sums(canonical):
    rates = to_rates(canonical)
    gen = generator(2, rates)
    assert gen[(2, 1)] == 1  # 10 -> 01 forward hop
    assert gen[(1, 2)] == rates.q
    for length in range(1, 9):
        sums = [F(0)] * (1 << length)
        for (src, _), rate in generator(length, rates).items():
            sums[src] += rate
        assert not any(sums)


def test_stationary_single_site(canonical):
    rates = to_rates(canonical)
    dist = stationary_exact(1, rates)
    total = rates.alpha + rates.beta + rates.gamma + rates.delta
    assert dist.probabilities[1] == (rates.alpha + rates.delta) / total
    assert dist.probabilities[1] == F(31, 72)


@given(valid_params())
def test_stationary_solves_balance(p):
    rates = to_rates(p)
    dist = stationary_exact(2, rates)
    gen = generator(2, rates)
    # pi is a left null vector of the rate matrix
    for j in range(4):
        flow = sum(
            dist.probabilities[i] * rate for (i, jj), rate in gen.items() if jj == j
        )
        assert flow == 0


def test_ansatz_weights_single_site(canonical):
    block = bimoment_block(canonical, 1)
    b10 = block.entries[1][0]
    assert ansatz_weight((1,), canonical, "shifted") == b10
    assert ansatz_weight((1,), canonical, "unshifted") == (1 + b10) / canonical.qprime
    with pytest.raises(InvalidParams):
        ansatz_weight((2,), canonical)
    with pytest.raises(InvalidParams):
        ansatz_weight((1,), canonical, "other")


def test_ansatz_weights_two_sites(canonical):
    # occupied-then-empty reads the (1, 1) moment in the shifted letters
    assert ansatz_weight((1, 0), canonical, "shifted") == bimoment_block(
        canonical, 1
    ).entries[1][1]


def _word_route(length, p, variant):
    return [ansatz_weight(config_string(s, length), p, variant) for s in range(1 << length)]


def _weights(length, p, variant):
    """The integer walk's weights as Fractions: factor^L times the walk on
    the letters offset + x of the exact (d, e) pair of size L//2 + 1."""
    offset, factor = _site_letter(p, variant)
    ints, scale = _transfer_weights(length, rep_rational(p, length // 2 + 1), offset)
    assert all(type(w) is int for w in ints) and type(scale) is int
    return [factor**length * F(w, scale) for w in ints]


def test_transfer_weights_equal_word_route(grid, canonical):
    cases = [(p, length) for p in grid for length in range(1, 7)]
    cases += [(canonical, 7), (canonical, 8)]
    for p, length in cases:
        for variant in VARIANTS:
            assert _weights(length, p, variant) == _word_route(length, p, variant)


def site_operators(p, length, variant):
    """Empty-site and occupied-site Fraction operators of a variant, each
    letter's constant and weight multiplied into the entries of the exact
    (d, e) pair: d and e themselves when shifted, D = (1 + d)/(1 - q) and
    E = (1 + e)/(1 - q) when unshifted."""
    dop, eop = rep_rational(p, length // 2 + 1)
    const, weight = (F(0), F(1)) if variant == "shifted" else (1 / p.qprime, 1 / p.qprime)
    return tuple(
        replace(
            op,
            diag=tuple(const + weight * x for x in op.diag),
            upper=tuple(weight * x for x in op.upper),
            lower=tuple(weight * x for x in op.lower),
        )
        for op in (eop, dop)
    )


def reference_transfer_weights(length, empty, occupied):
    """The Fraction walk the integer walk replaced: one ``matvec`` per
    operator and suffix vector, one Fraction per level, state and step."""
    vectors = [[F(1)]]
    for k in range(1, length + 1):
        levels = min(k, length - k) + 1
        vectors = [op.matvec(v, levels) for op in (empty, occupied) for v in vectors]
    return [v[0] for v in vectors]


# the costliest GRID point: the largest operands of the transfer walk
COSTLIEST = ("3/2", "3/4", "-1/6", "-1/8", "2/5")


def test_integer_walk_equals_the_fraction_walk(grid):
    points = grid + [make_params(point) for point in SINGULAR_REP + REGULAR_REP]
    cases = [(p, length) for p in points for length in range(1, 9)]
    cases.append((make_params(COSTLIEST), 12))
    for p, length in cases:
        for variant in VARIANTS:
            expected = reference_transfer_weights(length, *site_operators(p, length, variant))
            assert _weights(length, p, variant) == expected, (p, length, variant)


def _off_by_one(length, rep, offset):
    weights, scale = _transfer_weights(length, rep, offset)
    return [weights[0] + scale] + weights[1:], scale


def test_normalization_checks_the_weights_against_the_word_route(canonical, monkeypatch):
    monkeypatch.setattr(asep, "_transfer_weights", _off_by_one)
    with pytest.raises(BiorthError, match="normalization mismatch"):
        stationary_ansatz(3, canonical)


def test_a_normalization_mismatch_is_a_reported_counterexample(canonical, monkeypatch, capsys):
    flags = ["--a", "1", "--b", "1/2", "--c=-1/3", "--d=-1/4", "--q", "1/2", "--L", "3"]

    def stationary_payload(*extra):
        assert main(["stationary", *flags, *extra]) == 1
        return json.loads(capsys.readouterr().out)

    with monkeypatch.context() as patch:
        patch.setattr(asep, "_transfer_weights", _off_by_one)
        report = compare(3, canonical)
        assert report.normalization_matches == {"shifted": False, "unshifted": False}
        assert not report.passed
        checks = {c.name: c for c in stationary_suite(canonical, 3)["stationary"].checks}
        check = checks["ansatz-normalization-L3"]
        assert not check.passed and check.first_failure == {"variants": list(VARIANTS)}
        payload = stationary_payload()
        assert payload["normalization_matches"] == {"shifted": False, "unshifted": False}
        payload = stationary_payload("--variant", "unshifted")
        assert [v["name"] for v in payload["variants"]] == ["unshifted"]
        assert payload["normalization_matches"] == {"unshifted": False}

    # the unshifted oracle candidate, built though only shifted is asked for
    power = asep.power_functional
    with monkeypatch.context() as patch:
        patch.setattr(asep, "power_functional", lambda p, n, s, t: power(p, n, s, t) + (s != 0))
        payload = stationary_payload("--variant", "shifted")
        assert [v["name"] for v in payload["variants"]] == ["shifted"]
        assert payload["normalization_matches"] == {"shifted": True, "unshifted": False}

    # weights that sum to zero against a nonzero moment-table normalization
    def zero_weights(length, rep, offset):
        weights, scale = _transfer_weights(length, rep, offset)
        return [0] * len(weights), scale

    with monkeypatch.context() as patch:
        patch.setattr(asep, "_transfer_weights", zero_weights)
        payload = stationary_payload()
        assert payload["normalization_matches"] == {"shifted": False, "unshifted": False}
        assert payload["oracle"] is None
        assert [v["max_abs_discrepancy"] for v in payload["variants"]] == [None, None]
        # both routes zero: nothing to normalize by and nothing disagrees,
        # so no distribution is left to certify
        patch.setattr(asep, "power_functional", lambda p, n, s, t: F(0))
        with pytest.raises(BiorthError, match="normalization vanishes"):
            stationary_ansatz(3, canonical)
        report = compare(3, canonical)
        assert report.normalization_matches == {"shifted": True, "unshifted": True}
        assert report.oracle is None and not report.passed
        payload = stationary_payload()
        assert payload["oracle"] is None
        assert [v["max_abs_discrepancy"] for v in payload["variants"]] == [None, None]


# rate-valid points whose shifted weights sum to zero at odd L on both
# routes, while the unshifted ansatz is the stationary state
SHIFTED_SUM_VANISHES = (("0", "0", "0", "0", "1/2"), ("1/3", "0", "0", "-1/3", "1/2"))


@pytest.mark.parametrize("point", SHIFTED_SUM_VANISHES)
def test_a_variant_without_a_distribution_leaves_the_comparison_standing(point, capsys):
    p = make_params(point)
    with pytest.raises(BiorthError, match="normalization vanishes"):
        stationary_ansatz(5, p, "shifted")
    report = compare(5, p)
    assert report.normalization_matches == {"shifted": True, "unshifted": True}
    shifted, unshifted = report.variants
    assert shifted.max_abs_discrepancy is None and not shifted.matches_oracle
    assert unshifted.matches_oracle and report.passed
    flags = [f"--{name}={value}" for name, value in zip("abcdq", point)]
    assert main(["stationary", *flags, "--L", "5"]) == 0
    capsys.readouterr()


def test_max_abs_discrepancy_equals_the_fraction_difference(grid):
    for p in grid:
        for length in range(1, 9):
            report = compare(length, p, ("shifted",))
            probs = stationary_ansatz(length, p, "shifted").probabilities
            expected = max(abs(x - y) for x, y in zip(probs, report.oracle.probabilities))
            (row,) = report.variants
            assert type(row.max_abs_discrepancy) is F
            assert row.max_abs_discrepancy == expected, (p, length)
            assert row.matches_oracle == (expected == 0)


# abcd = q and abcd = q^2, where the level-0 closed forms carry a removable
# 0/0 (here with g_0 = 0, since ab = 1)
SINGULAR_REP = (("1", "1", "-1/2", "-1/2", "1/4"), ("1", "1", "-1/4", "-1/4", "1/4"))
# abcd = q and abcd = q^2 again, with g_0 != 0
REGULAR_REP = (("2", "1/3", "-1/2", "-3/4", "1/4"), ("2", "1/3", "-1/2", "-3/16", "1/4"))


def test_singular_representation_falls_back_to_word_route():
    for point in SINGULAR_REP + REGULAR_REP:
        p = make_params(point)
        for length in range(1, 8):
            for variant in VARIANTS:
                weights = _word_route(length, p, variant)
                total = sum(weights)
                dist = stationary_ansatz(length, p, variant)
                assert dist.probabilities == tuple(w / total for w in weights)
                assert dist.normalization == total


def test_ansatz_at_abcd_q_and_q_squared_takes_the_transfer_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("word route called")

    monkeypatch.setattr(asep, "ansatz_weight", refuse)
    for point in SINGULAR_REP + REGULAR_REP:
        p = make_params(point)
        for variant in VARIANTS:
            stationary_ansatz(8, p, variant)
        report = compare(10, p)
        assert report.oracle is not None
        assert "unshifted" in report.matching_variants


def test_ansatz_matches_oracle(grid):
    for p in grid:
        dist = stationary_ansatz(3, p, "unshifted")
        oracle = stationary_exact(3, to_rates(p))
        assert dist.probabilities == oracle.probabilities


def test_shifted_variant_is_not_stationary(canonical):
    dist = stationary_ansatz(2, canonical, "shifted")
    oracle = stationary_exact(2, to_rates(canonical))
    assert dist.probabilities != oracle.probabilities


def test_compare_reports(canonical):
    report = compare(3, canonical)
    assert report.matching_variants == ("unshifted",)
    by_name = {v.name: v for v in report.variants}
    assert by_name["unshifted"].max_abs_discrepancy == 0
    assert by_name["shifted"].max_abs_discrepancy > 0
    assert report.normalization_matches == {"shifted": True, "unshifted": True}
    assert report.passed
    payload = report.to_json_dict()
    assert set(payload) == {"params", "rates", "L", "variants", "oracle", "normalization_matches"}
    assert set(payload["variants"][0]) == {"name", "matches_oracle", "max_abs_discrepancy"}


def test_certified_oracle_equals_dense_oracle(grid):
    for p in grid + [make_params(point) for point in SINGULAR_REP]:
        rates = to_rates(p)
        for length in range(1, 7):
            candidates = [stationary_ansatz(length, p, v) for v in VARIANTS]
            certified = certify_stationary(length, rates, candidates)
            assert certified is not None
            assert certified.probabilities == stationary_exact(length, rates).probabilities


def test_compare_certifies_without_the_dense_solve(canonical, monkeypatch):
    def refuse(length, rates):
        raise AssertionError("dense oracle called")

    monkeypatch.setattr(asep, "stationary_exact", refuse)
    assert compare(5, canonical).matching_variants == ("unshifted",)


def _refuse_dense_solve(length, rates):
    raise AssertionError("dense oracle called")


def test_single_variant_compare_never_solves_densely(grid, monkeypatch):
    # the unshifted ansatz is a candidate even when only "shifted" is asked for
    oracles = {}
    for p in grid:
        for length in range(1, 7):
            oracles[p, length] = stationary_exact(length, to_rates(p)).probabilities

    monkeypatch.setattr(asep, "stationary_exact", _refuse_dense_solve)
    for p in grid:
        for length in range(1, 7):
            for variant in VARIANTS:
                report = compare(length, p, (variant,))
                assert [v.name for v in report.variants] == [variant]
                assert report.oracle.probabilities == oracles[p, length]
                if variant == "unshifted":
                    assert report.matching_variants == ("unshifted",)


def test_certified_oracle_past_the_old_guard(canonical):
    oracle = compare(7, canonical).oracle
    assert oracle.probabilities == stationary_exact(7, to_rates(canonical)).probabilities


def test_wrong_ansatz_has_no_oracle(canonical, monkeypatch, capsys):
    def swapped_ends(length, rep, offset):
        # same sum, so the normalization check passes; wrong distribution
        weights, scale = _transfer_weights(length, rep, offset)
        return [weights[-1]] + weights[1:-1] + [weights[0]], scale

    monkeypatch.setattr(asep, "_transfer_weights", swapped_ends)
    monkeypatch.setattr(asep, "stationary_exact", _refuse_dense_solve)
    for variants in (VARIANTS, ("shifted",)):
        report = compare(3, canonical, variants)
        assert report.matching_variants == ()
        assert report.oracle is None
        assert all(v.max_abs_discrepancy is None for v in report.variants)
    check = stationary_suite(canonical, 3)["stationary"].checks[-2]
    assert check.name == "ansatz-matches-oracle-L3" and not check.passed
    assert [v["name"] for v in check.first_failure["variants"]] == list(VARIANTS)

    flags = ["--a", "1", "--b", "1/2", "--c=-1/3", "--d=-1/4", "--q", "1/2", "--L", "3"]
    assert main(["stationary", *flags]) == 1
    out = capsys.readouterr().out
    assert '"oracle": null' in out
    assert all(v["max_abs_discrepancy"] is None for v in json.loads(out)["variants"])
    assert main(["stationary", *flags, "--format", "csv"]) == 1
    assert capsys.readouterr().out == ""


def test_certificate_refuses_a_reducible_generator(canonical, monkeypatch):
    rates = to_rates(canonical)
    candidate = stationary_exact(2, rates)
    split = {(0, 1): 1, (1, 0): 1, (2, 3): 1, (3, 2): 1}
    one_way = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 1): 1}
    for matrix in (split, one_way):  # 2, 3 unreachable from 0; 0 unreachable
        for s in range(4):
            matrix[(s, s)] = -sum(r for (src, dst), r in matrix.items() if src == s != dst)
        monkeypatch.setattr(asep, "_integer_generator", lambda length, rates, m=matrix: (m, 1))
        with pytest.raises(NotIrreducible):
            certify_stationary(2, rates, [candidate])


def test_certificate_rejects_non_stationary_candidates(canonical):
    rates = to_rates(canonical)
    shifted = stationary_ansatz(3, canonical, "shifted")
    uniform = StationaryDistribution(3, tuple([F(1, 8)] * 8), F(8))
    assert certify_stationary(3, rates, [shifted, uniform]) is None
    with pytest.raises(InvalidParams):
        certify_stationary(2, rates, [shifted])


def test_compare_across_lengths(grid):
    for p in (grid[0], grid[1], grid[5]):
        for length in range(1, 5):
            report = compare(length, p)
            assert "unshifted" in report.matching_variants


def test_particle_hole_reflection_symmetry(canonical):
    # swapping a<->b, c<->d exchanges the boundary roles; the stationary
    # state transforms by complementing and reversing each configuration
    length = 3
    swapped = canonical.swap_ab_cd()
    dist = stationary_exact(length, to_rates(canonical))
    image = stationary_exact(length, to_rates(swapped))
    mask = (1 << length) - 1
    for s in range(1 << length):
        flipped = 0
        for i in range(length):
            flipped |= ((1 - ((s >> i) & 1)) << (length - 1 - i))
        assert image.probabilities[flipped] == dist.probabilities[s]
        assert flipped ^ mask == int(config_string(s, length)[::-1], 2)


def test_size_guards(canonical):
    rates = to_rates(canonical)
    with pytest.raises(SizeLimit, match=r"^generator is guarded to L <= 12$"):
        generator(13, rates)
    with pytest.raises(SizeLimit, match=r"^stationary_exact is guarded to L <= 8$"):
        stationary_exact(9, rates)
    with pytest.raises(SizeLimit, match=r"^stationary_exact is guarded to L <= 8$"):
        stationary_exact(11, rates)
    with pytest.raises(SizeLimit, match=r"^stationary_ansatz is guarded to L <= 12$"):
        stationary_ansatz(13, canonical)
    with pytest.raises(SizeLimit, match=r"^compare is guarded to L <= 12$"):
        compare(13, canonical)
    for guarded in (lambda L: generator(L, rates), lambda L: stationary_exact(L, rates),
                    lambda L: stationary_ansatz(L, canonical), lambda L: compare(L, canonical)):
        with pytest.raises(InvalidParams, match=r"^L must be >= 1, got 0$"):
            guarded(0)
    assert set(VARIANTS) == {"shifted", "unshifted"}
