"""Tests of the benchmark itself: inputs, probe, tracer arithmetic, gate, smoke runs.

    python3 -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys
from fractions import Fraction

import pytest
from biorth import AWParams, is_valid

from perfbench import run, speed, tracer, workloads
from perfbench.probe import check_counts, max_bits


def test_points_are_deterministic_and_balanced():
    first = workloads.draw_points(7, 16, 16)
    assert first == workloads.draw_points(7, 16, 16)
    assert first != workloads.draw_points(8, 16, 16)
    # Each q value appears equally often, so 12 of 16 points repeat a q.
    assert workloads.q_repeat_share(first) == 0.75
    assert 0 < workloads.zero_share(first) <= 0.25
    # The (q, (a, c)) combinations are distinct and the same for every seed.
    combos = sorted((p.params.q, p.params.a, p.params.c) for p in first)
    assert len(set(combos)) == 16
    assert combos == sorted((p.params.q, p.params.a, p.params.c) for p in workloads.draw_points(8, 16, 16))
    for point in first:
        p = point.params
        assert p.a > 0 and p.b > 0 and -1 < p.c <= 0 and -1 < p.d <= 0


def test_every_combination_is_valid_at_the_largest_order():
    for q in workloads.Q_VALUES:
        for a, c in workloads.AC_PAIRS:
            for b, d in workloads.BD_PAIRS:
                p = AWParams(*(Fraction(v) for v in (a, b, c, d, q)))
                assert is_valid(p, 40), p.to_map()


def test_self_time_on_synthetic_span_tree():
    t = tracer.Tracer()
    t.spans = [
        (0, "cli.main", -1, 0.0, 10.0),
        (0, "ldu.verify", 0, 1.0, 4.0),
        (0, "linalg.mat_mul", 1, 2.0, 3.0),
        (0, "ldu.verify", 0, 5.0, 9.0),
    ]
    assert t.self_times() == {"cli.main": 3.0, "ldu.verify": 6.0, "linalg.mat_mul": 1.0}


def test_install_patches_every_binding_and_uninstall_restores_them():
    from biorth import bimoment, biortho, ldu, wordfun

    original = bimoment.bimoment_table
    t = tracer.Tracer()
    t.install()
    try:
        patched = bimoment.bimoment_table
        assert patched is not original
        assert ldu.bimoment_table is wordfun.bimoment_table is biortho.bimoment_table is patched
    finally:
        t.uninstall()
    assert ldu.bimoment_table is wordfun.bimoment_table is bimoment.bimoment_table is original


def test_bit_probe_on_known_values():
    assert max_bits(Fraction(255, 256)) == 9
    assert max_bits(Fraction(-1023, 4)) == 10
    assert max_bits([[Fraction(1, 2)], (Fraction(7, 3),)]) == 3
    assert max_bits({"x": "-3/4", "name": "ldu", "flag": True}) == 3
    assert max_bits(2**40) == 41


def test_skipped_check_is_not_counted_as_passed():
    checks = [
        {"name": "a", "pass": True},
        {"name": "b", "pass": True, "skipped": True, "skipped_reason": "zero"},
        {"name": "c", "pass": False},
    ]
    assert check_counts(checks) == (1, 1)


def test_generator_gate_catches_a_missing_hop():
    from biorth import asep, to_rates

    for a, b, c, d in (("1", "1/3", "0", "0"), ("1/2", "5/6", "-1/7", "-1/8")):
        rates = to_rates(AWParams(*(Fraction(v) for v in (a, b, c, d, "1/3"))))
        matrix = asep.generator(6, rates)
        assert workloads._generator_shape_holds(matrix, 6, rates)
        hop = next(key for key in matrix if key[0] != key[1])
        assert not workloads._generator_shape_holds({k: v for k, v in matrix.items() if k != hop}, 6, rates)
        assert not workloads._generator_shape_holds({**matrix, hop: matrix[hop] * 2}, 6, rates)


def test_stationary_gate_catches_a_wrong_vector():
    import json

    p = AWParams(*(Fraction(v) for v in workloads.CANONICAL))
    output = workloads.call_cli(["stationary", *workloads.param_flags(p), "--L", "3"])
    assert workloads.check_cli_output("stationary", p, output).ok
    payload = json.loads(output[1])
    probabilities = payload["oracle"]["probabilities"]
    probabilities["000"], probabilities["111"] = probabilities["111"], probabilities["000"]
    assert not workloads.check_cli_output("stationary", p, (0, json.dumps(payload))).ok


def test_payload_bytes_leave_out_timings():
    from biorth.reporting import canonical_json

    t = tracer.Tracer()
    payload = {"reports": {"ldu": {"checks": [], "timings_ms": {"build": "1.25"}}}, "timings_ms": {"x": "3.5"}}
    tracer._payload_bytes(t, canonical_json, (payload,), None)
    assert t.counts["reporting.bytes"] == len(canonical_json({"reports": {"ldu": {"checks": []}}}))


def test_reference_scale():
    reference = speed.Reference()
    reference.times = [speed.REFERENCE_S * 3, speed.REFERENCE_S * 5, speed.REFERENCE_S * 1]
    assert reference.scale_at(1) == 0.25  # samples just before and after a unit
    assert reference.scale_at(2) == pytest.approx(1 / 3)
    reference.sample_if_due()
    reference.sample_if_due()  # right after a sample: not due yet
    assert len(reference.times) == 4


def test_failing_units_are_counted():
    def boom():
        raise RuntimeError("made to fail")

    ok = workloads.Outcome(True)
    units = [
        workloads.Unit("raises", boom, lambda _: ok),
        workloads.Unit("bad report", lambda: None, lambda _: workloads.Outcome(False)),
        workloads.Unit("bad output", lambda: None, lambda _: {}["missing"]),
        workloads.Unit("fine", lambda: None, lambda _: ok),
    ]
    totals = run.Totals()
    run.run_round(units, totals)
    assert (totals.attempted, totals.failed, len(totals.times)) == (4, 3, 4)


@pytest.mark.parametrize(
    "name, count, idle_layer",
    [("cli-small", 7, None), ("deep-factor", 1, "asep"), ("chain", 1, "ldu")],
)
def test_smoke_round(name, count, idle_layer):
    _, _, units = workloads.build(name, 1)
    totals = run.Totals()
    run.run_round(units[:count], totals)
    t = tracer.Tracer()
    t.install()
    try:
        run.run_round(units[:count], totals, t)
    finally:
        t.uninstall()
    assert totals.failed == 0 and totals.attempted == 2 * count and totals.bits > 0
    metrics = tracer.layer_metrics(t, workloads.cache_state())
    if idle_layer:
        assert metrics[f"{idle_layer}.self_s"] == 0
    assert sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS) > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
