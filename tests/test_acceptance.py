"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  `relaysec selftest` executes the same checks."""

import pytest

from relaysec import acceptance


@pytest.mark.parametrize(
    "criterion",
    acceptance.ALL_CRITERIA,
    ids=[f"C{i + 1}" for i in range(len(acceptance.ALL_CRITERIA))],
)
def test_criterion(criterion):
    result = criterion()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.cid} ({result.seconds:.2f}s): {result.description} -- {result.detail}")
    assert result.passed, f"{result.cid}: {result.detail}"


def _stub(cid, check, limit_s=60.0):
    return lambda: acceptance._result(cid, f"stub {cid}", limit_s, check)


def _run_selftest(monkeypatch, tmp_path, capsys, criteria):
    import csv

    from relaysec.cli import main

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", tuple(criteria))
    out = tmp_path / "selftest.csv"
    code = main(["selftest", "--out", str(out)])
    with open(out, encoding="utf-8", newline="") as fh:
        return code, list(csv.DictReader(fh)), capsys.readouterr().err


def test_selftest_command_aggregates(monkeypatch, tmp_path, capsys):
    # Every real criterion runs once, in test_criterion; the table is tested on stubs.
    code, rows, err = _run_selftest(monkeypatch, tmp_path, capsys, [
        _stub("S1", lambda: (True, "fine")),
        _stub("S2", lambda: (True, "also fine")),
    ])
    assert code == 0
    assert [(r["criterion"], r["status"]) for r in rows] == [("S1", "pass"), ("S2", "pass")]
    assert all("FAIL" not in v for r in rows for v in r.values())
    assert err == ""


def test_selftest_failing_criterion_exits_4(monkeypatch, tmp_path, capsys):
    code, rows, err = _run_selftest(monkeypatch, tmp_path, capsys, [
        _stub("S1", lambda: (True, "fine")),
        _stub("S2", lambda: (False, "off by 0.5")),
    ])
    assert code == 4
    assert [(r["criterion"], r["status"], r["detail"]) for r in rows] == [
        ("S1", "pass", "fine"), ("S2", "FAIL", "off by 0.5"),
    ]
    assert "1 acceptance criterion(s) failed" in err


def test_selftest_raising_criterion_fails_and_the_run_continues(monkeypatch, tmp_path, capsys):
    ran = []

    def crash():
        raise RuntimeError("oracle crashed")

    def after():
        ran.append("S2")
        return True, "fine"

    code, rows, err = _run_selftest(monkeypatch, tmp_path, capsys, [_stub("S1", crash), _stub("S2", after)])
    assert code == 4 and ran == ["S2"]
    assert rows[0]["status"] == "FAIL"
    assert rows[0]["detail"] == "exception: RuntimeError('oracle crashed')"
    assert rows[1]["status"] == "pass"
    assert "1 acceptance criterion(s) failed" in err and "Traceback" not in err


def test_selftest_criterion_over_its_time_limit_fails(monkeypatch, tmp_path, capsys):
    code, rows, err = _run_selftest(monkeypatch, tmp_path, capsys, [
        _stub("S1", lambda: (True, "fine"), limit_s=0.0),
    ])
    assert code == 4
    assert rows[0]["status"] == "FAIL"
    assert rows[0]["detail"].startswith("fine [runtime ")
    assert rows[0]["detail"].endswith("s over the 0s limit]")
    assert "1 acceptance criterion(s) failed" in err
