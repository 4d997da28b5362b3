"""CLI: configuration, report round-trips, exit codes, determinism."""

import json

import pytest

from khintchine.cli import Report, RunConfig, build_parser, exit_code, run
from khintchine.interval import Interval
from khintchine.verifier import leaf


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(suite="everything")
    with pytest.raises(ValueError):
        RunConfig(p_boxes=0)
    with pytest.raises(ValueError):
        RunConfig(format="yaml")
    with pytest.raises(ValueError):
        RunConfig(target_width=-1.0)


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.suite == "all"
    assert args.p_boxes == 16
    args = build_parser().parse_args(["--suite", "constants", "--format", "json"])
    assert args.suite == "constants" and args.format == "json"


def test_constants_suite_report(tmp_path):
    out = tmp_path / "report.json"
    cfg = RunConfig(suite="constants", out_path=str(out), format="json")
    report = run(cfg)
    assert report.overall == "proved"
    assert exit_code(report) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
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


@pytest.mark.slow
def test_loose_width_degrades_to_exit_2():
    cfg = RunConfig(suite="cond2", target_width=1e-1)
    report = run(cfg)
    assert report.overall == "inconclusive"
    assert exit_code(report) == 2


def test_cli_main_smoke(capsys):
    from khintchine.cli import main

    rc = main(["--suite", "constants"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "constants/zeta(3)" in captured.out


def test_invalid_flag_combination():
    from khintchine.cli import main

    rc = main(["--suite", "constants", "--p-boxes", "0"])
    assert rc == 2
