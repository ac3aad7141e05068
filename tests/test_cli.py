import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import biorth
from biorth import cli, suites
from biorth.cli import _glue_values, build_parser, main
from biorth.reporting import VerificationReport, canonical_json

CANONICAL = ["--a", "1", "--b", "1/2", "--c=-1/3", "--d=-1/4", "--q", "1/2"]


def strip_timings(obj):
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "timings_ms"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def test_glue_values():
    assert _glue_values(["--c", "-1/3", "--n", "4"]) == ["--c=-1/3", "--n", "4"]
    assert _glue_values(["--c", "1/3"]) == ["--c", "1/3"]
    assert _glue_values(["--n", "-1"]) == ["--n", "-1"]  # only parameter flags glue


def test_bimoment_trivial_block(capsys):
    assert main(["bimoment", *CANONICAL, "--n", "0", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_bimoment_json_and_negative_value_form(capsys):
    rc = main(
        ["bimoment", "--a", "1", "--b", "1/2", "--c", "-1/3", "--d", "-1/4", "--q", "1/2", "--n", "1"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"][1][0] == "8/23"
    assert payload["params"]["c"] == "-1/3"


def test_rate_flags_reach_same_point(capsys):
    rc = main(
        [
            "bimoment",
            "--alpha", "3/8", "--beta", "4/9", "--gamma", "1/8", "--delta", "1/18",
            "--q", "1/2", "--n", "1",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"] == {"a": "1", "b": "1/2", "c": "-1/3", "d": "-1/4", "q": "1/2"}


def test_config_errors_exit_2(capsys):
    # decimal input is rejected, not rounded
    assert main(["bimoment", "--a", "1", "--b", "0.5", "--c=-1/3", "--d=-1/4", "--q", "1/2"]) == 2
    # incomplete parameter set
    assert main(["bimoment", "--a", "1", "--q", "1/2"]) == 2
    # mixing the two input styles
    assert main(["bimoment", *CANONICAL, "--alpha", "1/4"]) == 2
    # rates whose algebraic parameters are irrational
    assert main(
        ["bimoment", "--alpha", "1/3", "--beta", "1/5", "--gamma", "1/7", "--delta", "1/11", "--q", "1/2"]
    ) == 2
    # an output path that cannot be opened
    assert main(["aw", *CANONICAL, "--n", "1", "--out", "/nonexistent/dir/x.json"]) == 2
    # sizes below the smallest meaningful one
    assert main(["stationary", *CANONICAL, "--L", "-2"]) == 2
    assert main(["aw", *CANONICAL, "--n", "-1"]) == 2
    # the series needs one of a, b, c, d nonzero
    assert main(["aw", "--a", "0", "--b", "0", "--c", "0", "--d", "0", "--q", "1/2"]) == 2
    # sizes above the guards
    assert main(["functional", *CANONICAL, "--max-len", "97"]) == 2
    assert main(["bimoment", *CANONICAL, "--n", "49"]) == 2
    assert main(["ldu", *CANONICAL, "--n", "49"]) == 2
    assert main(["rep", *CANONICAL, "--n", "97"]) == 2
    assert main(["aw", *CANONICAL, "--n", "97"]) == 2
    assert main(["polys", *CANONICAL, "--n", "65"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 14 and all(line.startswith("error:") for line in errors)
    assert "guarded to --max-len <= 96" in errors[-6]
    assert all("guarded to --n <=" in line for line in errors[-5:])


def test_functional_trials_are_guarded(capsys, monkeypatch):
    # refused before any work: the suite is never built
    def no_work(*args):
        raise AssertionError("the functional suite ran")

    monkeypatch.setattr(suites, "functional_suite", no_work)
    limit = cli._LIMITS["functional"]["trials"]
    assert main(["functional", *CANONICAL, "--trials", str(limit + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: functional is guarded to --trials <= {limit}, got {limit + 1}\n"


def test_overlong_literal_exits_2(capsys):
    flags = ["--a", "1" * 4400, "--b", "1/2", "--c=-1/3", "--d=-1/4", "--q", "1/2"]
    assert main(["bimoment", *flags, "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: rational literal has more than 4300 digits (Python's int-from-str limit)"
    ]


def test_cli_import_needs_no_mpmath():
    src = os.path.dirname(os.path.dirname(biorth.__file__))
    probe = "import sys, biorth.cli; print('mpmath' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def scan(*args):
    """Run scripts/stationary_scan.py with ``args`` on this package."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(biorth.__file__)))
    script = os.path.join(root, "scripts", "stationary_scan.py")
    return subprocess.run([sys.executable, script, *args], env=env, capture_output=True, text=True)


def test_stationary_scan_script():
    result = scan("--max-L", "2")
    assert result.returncode == 0, result.stderr
    assert "matching variant(s)" in result.stdout
    # the shifted weights sum to zero at odd L here: no discrepancy to report
    result = scan("--a", "0", "--b", "0", "--c", "0", "--d", "0", "--max-L", "5")
    assert result.returncode == 0, result.stderr
    assert "L=5: matching variant(s): unshifted" in result.stdout
    # q = 1, a length past compare's guard, a decimal literal: one error line, exit 2
    for args in (("--q", "1"), ("--max-L", "13"), ("--q", "0.5")):
        result = scan(*args)
        assert result.returncode == 2, (args, result.stderr)
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, args
    # a length outside 1 .. compare's guard is refused before any size is computed
    for args in (("--max-L", "13"), ("--max-L", "0")):
        result = scan(*args)
        assert result.returncode == 2, (args, result.stderr)
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, args
        assert "L=" not in result.stdout, args


def test_stationary_scan_profile_is_the_oracles_site_marginals(canonical):
    result = scan("--max-L", "2", "--profile")
    assert result.returncode == 0, result.stderr
    printed = [
        line.split(":", 1)[1].split() for line in result.stdout.splitlines() if "density profile:" in line
    ]
    assert len(printed) == 2
    for length, densities in enumerate(printed, 1):
        oracle = biorth.compare(length, canonical).oracle
        # site 1 is the most significant bit of a state
        marginals = [
            sum(prob for state, prob in enumerate(oracle.probabilities) if state >> (length - site) & 1)
            for site in range(1, length + 1)
        ]
        assert densities == [f"{float(x):.6f}" for x in marginals], length


def test_stationary_refuses_a_negative_length(capsys):
    # refused by compare before any work, naming L and the value given
    assert main(["stationary", *CANONICAL, "--L", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error:")
    assert "L" in errors[0] and "-1" in errors[0]


def test_singular_point_exits_2(capsys):
    # abcd q = 1 makes the coefficient denominators vanish
    rc = main(["ldu", "--a", "2", "--b", "1", "--c", "1", "--d", "1", "--q", "1/2", "--n", "4"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def timing_values(obj):
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "timings_ms":
                yield from value.values()
            else:
                yield from timing_values(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from timing_values(value)


def test_ldu_report(capsys):
    assert main(["ldu", *CANONICAL, "--n", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    timings = list(timing_values(payload))
    assert timings and all(isinstance(t, float) for t in timings)
    checks = {c["name"]: c["pass"] for c in payload["reports"]["ldu"]["checks"]}
    assert checks == {
        "bimoment-equals-LDU": True,
        "lower-times-inverse": True,
        "inverse-times-upper": True,
        "determinant-triple-agreement": True,
    }


def test_reports_are_deterministic(tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    for path in (first, second):
        assert main(["polys", *CANONICAL, "--n", "6", "--out", str(path)]) == 0
    a = strip_timings(json.loads(first.read_text()))
    b = strip_timings(json.loads(second.read_text()))
    assert a == b
    assert a["reports"]["polys"]["checks"]


def test_out_flag_writes_file_only(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["aw", *CANONICAL, "--n", "3", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(path.read_text())
    names = [c["name"] for c in payload["reports"]["aw"]["checks"]]
    assert names == [
        "series-matches-recurrence-t2",
        "series-matches-recurrence-t3/2",
        "series-matches-recurrence-t5",
    ]
    assert all(c["pass"] for c in payload["reports"]["aw"]["checks"])


def test_functional_command(capsys):
    assert main(["functional", *CANONICAL, "--trials", "10", "--max-len", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = {c["name"] for c in payload["reports"]["functional"]["checks"]}
    assert "evaluation-path-agreement-len4" in names


def test_rep_command_with_zero_parameters(capsys):
    # c = d = 0: the recurrence data are defined, so aw-match runs in full
    rc = main(["rep", "--a", "1", "--b", "1/2", "--c", "0", "--d", "0", "--q", "1/2", "--n", "16"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    checks = payload["reports"]["aw-match"]["checks"]
    assert [c["name"] for c in checks] == [
        "diagonal-equals-B",
        "offdiagonal-product-equals-AC",
        "jacobi-moments",
    ]
    assert all(c["pass"] and "skipped" not in c for c in checks)


def test_stationary_where_representation_is_singular(capsys):
    # abcd = q and abcd = q^2, where the level-0 closed forms carry a 0/0
    for c_and_d in ("-1/2", "-1/4"):
        flags = ["--a", "1", "--b", "1", "--c", c_and_d, "--d", c_and_d, "--q", "1/4"]
        assert main(["stationary", *flags, "--L", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "unshifted" in [v["name"] for v in payload["variants"] if v["matches_oracle"]]


@pytest.mark.parametrize("d", ["-3/4", "-3/16"])  # abcd = q and abcd = q^2
def test_every_command_runs_where_abcd_is_q_or_q_squared(capsys, d):
    flags = ["--a", "2", "--b", "1/3", "--c=-1/2", "--d", d, "--q", "1/4"]
    for command in (["ldu", "--n", "10"], ["polys", "--n", "8"], ["rep", "--n", "16"], ["aw", "--n", "6"]):
        assert main([*command, *flags]) == 0, command
        reports = json.loads(capsys.readouterr().out)["reports"].values()
        checks = [check for report in reports for check in report["checks"]]
        assert checks and all(check["pass"] for check in checks), command
    assert main(["stationary", *flags, "--L", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [v["name"] for v in payload["variants"] if v["matches_oracle"]] == ["unshifted"]


def test_stationary_command(capsys):
    assert main(["stationary", *CANONICAL, "--L", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    matched = [v["name"] for v in payload["variants"] if v["matches_oracle"]]
    assert matched == ["unshifted"]

    assert main(["stationary", *CANONICAL, "--L", "2", "--variant", "shifted"]) == 1
    capsys.readouterr()  # drop the failing-variant report

    assert main(["stationary", *CANONICAL, "--L", "1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "configuration,probability,decimal"
    assert lines[2].startswith("1,31/72,")


CSV_PAYLOADS = {
    ("stationary", "--L", "2", "--format", "csv"): (
        "configuration,probability,decimal\n"
        "00,3569/11196,0.318774562344\n"
        "01,1307/5598,0.233476241515\n"
        "10,2999/11196,0.267863522687\n"
        "11,1007/5598,0.179885673455\n"
    ),
    ("bimoment", "--n", "3", "--fill", "rows", "--format", "csv"): (
        "1,18/23,796/1081,14568/20539\n"
        "8/23,696/1081,13456/20539,2657376/3922949\n"
        "181/1081,6066/20539,2138012/3922949,909102984/1502489467\n"
        "1618/20539,606876/3922949,412397704/1502489467,44851509936/88646878553\n"
    ),
}


@pytest.mark.parametrize("argv", CSV_PAYLOADS, ids=lambda argv: argv[0])
def test_csv_payloads_are_pinned(argv, capsys):
    assert main([argv[0], *CANONICAL, *argv[1:]]) == 0
    assert capsys.readouterr().out == CSV_PAYLOADS[argv]


def run_main(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def verify_all_run():
    return run_main(["verify-all"])


def payload_digest(text: str) -> str:
    """sha256 of the canonical JSON of a printed report without its timings."""
    canonical = canonical_json(strip_timings(json.loads(text)))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_deterministic_payloads_are_pinned(verify_all_run):
    # The polys and rep digests were recorded when the duplicate checks left
    # the suites and aw-match began to run at c = d = 0; the verify-all and
    # stationary digests when the normalization comparison became a recorded
    # check; the rest before the e-side objects were derived from the d-side
    # ones.  A refactor must leave every deterministic payload as is.
    _, text = verify_all_run
    assert payload_digest(text) == "06b71eac13509f0222570d32e8ab1cd53cec7819974f528f3513e6f815ca1bc7"
    for fill in ("columns", "rows"):
        code, text = run_main(["bimoment", *CANONICAL, "--n", "8", "--fill", fill])
        assert code == 0
        assert payload_digest(text) == (
            "7d0b99e004d161347de0f0becde64002eb154b25c9bc433c7f84687af2deb9c8"
        )
    # Each report subcommand at the canonical point, and rep at c = d = 0.
    zero_cd = ["--a", "1", "--b", "1/2", "--c", "0", "--d", "0", "--q", "1/2"]
    pinned = {
        ("ldu", *CANONICAL, "--n", "10"): "bc96bcea5a5eadf5397e1f2f7927e4b33bf65128cdde49951c556fe695abe98b",
        ("polys", *CANONICAL, "--n", "8"): "ed79cf69068e515a361cbe5b0b05f309a8606d599babf71971b73a88cedb6f2a",
        ("functional", *CANONICAL, "--max-len", "6", "--trials", "60"): (
            "68c8e1d771a225d8d05b2db124dd3723919f8da8404d4689d40fc745164079e4"
        ),
        ("functional", *CANONICAL, "--max-len", "12", "--trials", "40"): (
            "a684c3aa17867570ce5af5a54ca2275a72ac39c3b7f751879ca5480e31ee3693"
        ),
        ("rep", *CANONICAL, "--n", "16"): "eea914430db054ebfc879378d0a8647763738916a67e54db7a00e5abf9c54f36",
        ("rep", *zero_cd, "--n", "16"): "200300d348be8db0c1e560d9702d3c9b72c161a2717a30848d258e46ec5ba09d",
        ("aw", *CANONICAL, "--n", "6"): "4295872aa7bec6652de918b01472b5b58d1ef52eec1d88915a70146c6be9b08c",
        ("stationary", *CANONICAL, "--L", "4"): "d45cda72c986fc466bdfb66741a4396b1877011c0c399e1913d0c91209e7022b",
    }
    for argv, digest in pinned.items():
        code, text = run_main(list(argv))
        assert code == 0
        assert payload_digest(text) == digest, argv[0]


def test_stationary_payloads_at_the_guard_are_pinned():
    # L = 12 at the costliest GRID point, the shifted variant at abcd = q
    # and the CSV form at c = d = 0: recorded before the transfer walk began
    # to add the unshifted letters' offset on the representation's integers
    costliest = ["--a", "3/2", "--b", "3/4", "--c=-1/6", "--d=-1/8", "--q", "2/5"]
    abcd_q = ["--a", "1", "--b", "1", "--c=-1/2", "--d=-1/2", "--q", "1/4"]
    code, text = run_main(["stationary", *costliest, "--L", "12"])
    assert code == 0
    assert payload_digest(text) == "cddd0ca65c2190673d3bee8f986322845b672ddb855c80bc50f6e1253ed2aade"
    code, text = run_main(["stationary", *abcd_q, "--L", "8", "--variant", "shifted"])
    assert code == 0
    assert payload_digest(text) == "f5270aad50fde36d4758ca251ab30b57c4eddca73db51aadc27d63dfbef7361e"
    zero_cd = ["--a", "1", "--b", "1/2", "--c", "0", "--d", "0", "--q", "1/2"]
    code, text = run_main(["stationary", *zero_cd, "--L", "6", "--format", "csv"])
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "38f6999ee63d074426e169b97599152a54f7bda08f0e55b16ab4c2c7e1991015"
    )


def test_factor_payloads_at_the_costliest_point_are_pinned():
    # ldu --n 24 and polys --n 16 at the costliest GRID point, where the
    # operands' denominators are deepest: recorded before the inverse
    # identities were searched from the inverse's side
    costliest = ["--a", "3/2", "--b", "3/4", "--c=-1/6", "--d=-1/8", "--q", "2/5"]
    pinned = {
        "ldu": ("24", "ca04f5685b521104639934823654011ece8395aed87e81c6157de816831528ec"),
        "polys": ("16", "177fb04237977cc45eb00b9811dadf5ba0def221cd3243eebc91bb1ae823120c"),
    }
    for command, (n, digest) in pinned.items():
        code, text = run_main([command, *costliest, "--n", n])
        assert code == 0
        assert payload_digest(text) == digest, command


def test_verify_all(verify_all_run):
    code, text = verify_all_run
    assert code == 0
    payload = json.loads(text)
    assert len(payload["grid"]) == 7
    timings = list(timing_values(payload))
    assert timings and all(isinstance(t, float) for t in timings)
    for entry in payload["grid"]:
        suites = entry["suites"]
        for suite in suites.values():
            assert all(c["pass"] and "skipped" not in c for c in suite["checks"])
        # the same spans as the per-point subcommands
        assert "determinants" in suites["ldu"]["timings_ms"]
        assert "construction-routes" in suites["polys"]["timings_ms"]
        assert "evaluation-paths" in suites["functional"]["timings_ms"]


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    assert main(["bimoment", *CANONICAL, "--n", "0", "--format", "csv"]) == 0
    with pytest.raises(SystemExit):
        main(["ldu", "--bogus"])
    assert main(["aw", *CANONICAL, "--n", "1"]) == 0
    assert main(["bimoment", *CANONICAL, "--n", "0", "--format", "csv"]) == 0
    assert len(built) == 1


def test_suite_builders_are_looked_up_at_each_call(monkeypatch, capsys):
    assert main(["ldu", *CANONICAL, "--n", "2"]) == 0
    capsys.readouterr()
    calls = []

    def fake_ldu_suite(p, n):
        calls.append((p.to_map(), n))
        report = VerificationReport(params=p.to_map(), n=n)
        report.add("patched", False, {"n": n})
        return {"ldu": report}

    monkeypatch.setattr(suites, "ldu_suite", fake_ldu_suite)
    assert main(["ldu", *CANONICAL, "--n", "3"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert calls == [(payload["params"], 3)]
    assert [c["name"] for c in payload["reports"]["ldu"]["checks"]] == ["patched"]


def test_a_bad_flag_leaves_the_parser_as_a_fresh_process_has_it(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["polys", *CANONICAL, "--bogus", "1"])
    assert exc.value.code == 2
    bad_err = capsys.readouterr().err
    argv = ["polys", *CANONICAL, "--n", "4"]
    code, text = run_main(argv)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(biorth.__file__)))

    def fresh(args):
        return subprocess.run(
            [sys.executable, "-m", "biorth.cli", *args], env=env, capture_output=True, text=True
        )

    first = fresh(["polys", *CANONICAL, "--bogus", "1"])
    assert (first.returncode, first.stderr) == (2, bad_err)
    second = fresh(argv)
    assert second.returncode == code == 0
    assert strip_timings(json.loads(second.stdout)) == strip_timings(json.loads(text))
