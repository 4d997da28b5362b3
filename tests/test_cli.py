"""CLI: configuration, report round-trips, exit codes, determinism."""

import json
import os
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from mpmath import mp, mpf

import khintchine
from khintchine import specfun as sf
from khintchine.cli import Report, RunConfig, build_parser, exit_code, main, run
from khintchine.interval import PI, Interval
from khintchine.verifier import leaf


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(suite="everything")
    # the report's path and format are main's, not the proof's
    assert RunConfig.__slots__ == ("suite", "seed")
    assert not hasattr(RunConfig(), "__dict__")
    body = Report("v", RunConfig(), [], "proved", 0.0, "t").body()
    assert list(body["config"]) == ["suite", "seed"]


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.suite == "all"
    args = build_parser().parse_args(["--suite", "constants", "--format", "json"])
    assert args.suite == "constants" and args.format == "json"


def test_constants_suite_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["--suite", "constants", "--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == out.read_text()
    report = run(RunConfig(suite="constants"))
    assert report.overall == "proved"
    assert exit_code(report) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 3
    assert doc["overall"] == "proved"
    names = [r["name"] for r in doc["results"]]
    assert any("B_p-2.5" in n for n in names)
    # round trip: body parsed back equals a re-serialization
    body = report.body()
    assert json.loads(json.dumps(body, sort_keys=True)) == json.loads(
        json.dumps(body, sort_keys=True)
    )
    del doc["timestamp"], doc["elapsed_seconds"]
    assert json.dumps(doc, sort_keys=True) == json.dumps(body, sort_keys=True)


def test_timestamp_is_iso_8601_in_utc():
    stamp = run(RunConfig(suite="constants")).timestamp
    assert datetime.fromisoformat(stamp).utcoffset() == timedelta(0)


def test_constants_si_pi_anchors_the_i1_input():
    # cond2's I1 = (2/3)(1/pi - si(pi)) evaluates si on the PI enclosure;
    # the anchor is that very enclosure, which holds si(pi)
    (anchor,) = [r for r in run(RunConfig(suite="constants")).results
                 if r.name == "constants/si(pi)"]
    assert anchor.margin == sf.si(PI)
    with mp.workdps(30):
        assert mpf(anchor.margin.lo) <= mp.si(mp.pi) - mp.pi / 2 <= mpf(anchor.margin.hi)


def test_cold_and_warm_caches_give_one_certificate():
    def bodies():
        return [json.dumps(run(RunConfig(suite=s)).body(), sort_keys=True)
                for s in ("cond1", "constants")]

    sf._zeta_partial.cache_clear()
    sf._LN_LO.clear()
    sf._LN_HI.clear()
    assert bodies() == bodies()


def test_text_report_format():
    cfg = RunConfig(suite="oracle")
    report = run(cfg)
    text = report.to_text()
    assert "oracle/khintchine-sweep" in text
    assert "proved" in text
    assert "[" in text and "]" in text  # margin endpoints printed


def test_exit_codes():
    ok = Report("v", RunConfig(suite="oracle"), [leaf("a", Interval(1, 2))],
                "proved", 0.0, "t")
    assert exit_code(ok) == 0
    bad = Report("v", RunConfig(suite="oracle"), [leaf("a", Interval(-2, -1))],
                 "failed", 0.0, "t")
    assert exit_code(bad) == 1
    fuzzy = Report("v", RunConfig(suite="oracle"), [leaf("a", Interval(-1, 1))],
                   "inconclusive", 0.0, "t")
    assert exit_code(fuzzy) == 2


def test_determinism_small_suites():
    for suite in ("constants", "oracle"):
        cfg1 = RunConfig(suite=suite, seed=11)
        cfg2 = RunConfig(suite=suite, seed=11)
        b1 = json.dumps(run(cfg1).body(), sort_keys=True)
        b2 = json.dumps(run(cfg2).body(), sort_keys=True)
        assert b1 == b2


def test_cli_main_smoke(capsys):
    rc = main(["--suite", "constants"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "constants/zeta(3)" in captured.out


def test_unwritable_out_exits_3(tmp_path, capsys):
    rc = main(["--suite", "constants", "--out", str(tmp_path / "missing" / "report.txt")])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "cannot write report" in captured.err


def test_invalid_flag_combination():
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "constants", "--format", "yaml"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag",
    [["--width", "0.1"], ["--terms", "200"], ["--p-boxes", "16"]],
    ids=["width", "terms", "p-boxes"],
)
def test_proof_parameters_are_not_flags(flag):
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "constants", *flag])
    assert exc.value.code == 2


def test_environment_does_not_configure(monkeypatch):
    monkeypatch.setenv("KHINTCHINE_SUITE", "oracle")
    assert build_parser().parse_args([]).suite == "all"


def test_report_config_keys():
    body = Report("v", RunConfig(), [leaf("a", Interval(1, 2))], "proved", 0.0, "t").body()
    assert body["config"] == {"seed": 20240801, "suite": "all"}
    assert body["schema_version"] == 3


def test_np_suite_is_the_classifier_alone():
    # hypothesis 2's gap integrals are the conclusion suite's s0 column
    report = run(RunConfig(suite="np"))
    assert report.overall == "proved"
    names = [r.name for r in report.results]
    assert names == ["np/cos-gauss-p2.0", "np/cos-gauss-p2.5", "np/cos-gauss-p2.9"]
    for node in report.results:
        assert [c.name for c in node.children] == ["single-sign-change"]
    assert not any(n.name.startswith("integral-") for r in report.results for n in r.walk())


@pytest.fixture(scope="module")
def suite_all():
    return run(RunConfig())


def test_names_below_the_top_level_are_relative(suite_all):
    # a node's path is the one place its parents' names are written
    nested = [n.name for r in suite_all.results for c in r.children for n in c.walk()]
    assert nested and [name for name in nested if "/" in name] == []


def test_a_proved_node_has_no_negative_lower_end(suite_all):
    # no claim is graded through a tolerance: a nonstrict proof needs lo >= 0
    below = [(n.name, n.margin.lo) for r in suite_all.results for n in r.walk()
             if n.status == "proved" and n.margin.lo < 0.0]
    assert below == []


def test_conclusion_suite_carries_the_gap_near_zero_certificate():
    # the sqrt(2) column's quadratures rest on C4 at delta = 1e-4, and
    # conclusion-direct holds the one certificate; the moment node compares
    # exact moments and rests on none
    report = run(RunConfig(suite="conclusion"))
    assert report.overall == "proved"
    direct, moment = report.results
    assert (direct.name, moment.name) == ("np/conclusion-direct", "np/moment-convergence-p2.5")
    assert [(c.name, c.status) for c in direct.children[:2]] == [
        ("cos-above-quadratic", "proved"), ("ln-reciprocal-quadratic", "proved")]
    certs = [n for r in report.results for n in r.walk() if n.name == "cos-above-quadratic"]
    assert certs == [direct.children[0]]


def _fresh_interpreter(code: str) -> str:
    """stdout of code run in a new interpreter that imports this package."""
    src = str(Path(khintchine.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_and_oracle_suite_run_without_numpy():
    # the oracle suite is the standard library alone: a fresh interpreter
    # that imports the CLI and runs it never loads numpy
    out = _fresh_interpreter(
        "import sys\n"
        "import khintchine.cli as cli\n"
        "report = cli.run(cli.RunConfig(suite='oracle'))\n"
        "print(report.overall, 'numpy' in sys.modules)\n"
    )
    assert out.split() == ["proved", "False"]


def test_cli_import_loads_no_dataclasses_inspect_or_numpy():
    # start-up: dataclasses alone pulls in inspect, ast, dis and tokenize
    out = _fresh_interpreter(
        "import sys\n"
        "import khintchine.cli\n"
        "print(*sorted({'dataclasses', 'inspect', 'numpy'} & set(sys.modules)))\n"
    )
    assert out.split() == []
