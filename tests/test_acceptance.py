"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  `relaysec selftest` executes the same checks."""

import hashlib
import re

import numpy as np
import pytest

from relaysec import acceptance
from relaysec.bounds import (
    THEOREMS,
    corollary_member,
    coupling_stack,
    evaluate_membership,
    evaluate_stack,
    stack_membership,
)
from relaysec.dmc import RateTuple


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


def test_criteria_are_numbered_in_definition_order(monkeypatch):
    # `_criterion` registers each check as it is defined; its id comes from that order.
    want = [getattr(acceptance, f"criterion_{k}") for k in range(1, 9)]
    assert acceptance.ALL_CRITERIA == want
    monkeypatch.setattr(acceptance, "_result", lambda cid, *args: cid)
    assert [criterion() for criterion in want] == [f"C{k}" for k in range(1, 9)]


def test_benchmark_draws_are_pinned():
    """The dmc-query benchmark draws every model, coupling and rate point from these
    three functions (and dmc-search its models), so a change to their draws would
    change the benchmark's work between two commits.  Their bits at a fixed seed,
    T1-T12 twice over, compress-forward couplings included, are pinned here."""
    rng = np.random.default_rng(1)
    digest = hashlib.sha256()
    for _ in range(2):
        for theorem_id, spec in THEOREMS.items():
            model = acceptance.favorable_model(rng)
            coupling = acceptance.random_coupling(rng, theorem_id, model, independent_aux=True)
            rates = acceptance.random_rates(rng, spec.config, scale=0.3)
            for part in (model.transition, coupling.joint.probs, np.array(rates.as_tuple())):
                digest.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
            digest.update(",".join(coupling.joint.axis_names).encode())
    assert digest.hexdigest() == "bea27c2f30edc11c17f4482c066912e2210ef5de3e7d1fd9bd29541a8a5961ed"


def test_c7_checks_at_least_its_instance_counts():
    # 200 draws per theorem and per reduced pair: a count may rise, never fall.
    detail = acceptance.criterion_7().detail
    counts = re.match(r"(\d+) slice instances and (\d+) reduction instances", detail)
    assert counts is not None, detail
    assert int(counts[1]) >= 2400 and int(counts[2]) >= 800


def test_c7_stacks_equal_one_coupling_at_a_time():
    """The first instances of every C7 case, stacked as C7 evaluates them, give the
    verdicts and the expression and bound bits of one coupling at a time."""
    for theorem_id, parent_id, draws in acceptance._c7_cases():
        on_slice = parent_id is None
        rates = np.array([r.as_tuple() for _, _, r in draws])
        points = rates[:, [0, 1, 2, 1, 2]] if on_slice else rates
        for checked in (theorem_id,) if on_slice else (theorem_id, parent_id):
            spec, ev = acceptance._c7_stack(checked, draws)
            expression, _, verdict = stack_membership(spec, ev, points)
            sliced = stack_membership(spec, ev, points, corollary=True)[2]
            for i, (model, coupling, r) in enumerate(draws[:4]):
                one = evaluate_membership(checked, model, coupling, RateTuple(*points[i]))
                records = [rec for b in one.branches for rec in b.inequalities]
                assert np.array([rec.expression for rec in records]).tobytes() == expression[i].tobytes()
                assert np.array([rec.bound for rec in records]).tobytes() == ev.bounds[i].tobytes()
                assert [b.member for b in one.branches] == verdict[i].tolist()
                if on_slice:
                    alone = evaluate_stack(spec, coupling_stack(spec, model, coupling))
                    got = stack_membership(spec, alone, points[i : i + 1], corollary=True)[2]
                    assert got[0].tolist() == sliced[i].tolist()
                    assert corollary_member(checked, model, coupling, (r.r0, r.r1, r.r2)) == sliced[i].any()


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
