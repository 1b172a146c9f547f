import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaysec.acceptance import random_coupling, random_model
from relaysec.cli import _write_csv, main
from relaysec.dmc import DMCModel
from relaysec.errors import ValidationError
from relaysec.scenario import load_scenario
from relaysec.sweep import MAX_GRID_CELLS

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(REPO, "scenarios")

PAPER_NET = {"p1": 5.0, "p2": 3.0, "n1": 2.0, "n2": 8.0, "nr": 2.0}

# Frozen endpoint constants (high-precision closed-form evaluation).
ROW_AT_ALPHA_1 = {"df_r1": 0.553457601958256, "nf_r1": 0.633393270347451, "cf_r1": 0.620159387621037}


def scenario_path(name):
    return os.path.join(SCENARIOS, name)


def read_frontier_csv(path):
    """The rows of a CSV written by the CLI, as header-keyed dicts."""
    import csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [dict(row) for row in csv.DictReader(fh)]


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadScenario:
    def test_shipped_fig4(self):
        s = load_scenario(scenario_path("paper_fig4.json"))
        assert s.model == "B"
        assert s.net.as_tuple() == (5.0, 3.0, 2.0, 8.0, 2.0)
        assert s.grid.q_values == (300.0,)
        assert s.strategies == ("df", "nf", "cf")

    def test_shipped_fig5(self):
        s = load_scenario(scenario_path("paper_fig5.json"))
        assert s.model == "C"
        assert s.strategies == ("baseline", "df", "nf", "cf")

    def test_shipped_dmc_demo(self):
        s = load_scenario(scenario_path("dmc_demo.json"))
        assert s.model == "DMC"
        assert s.theorem == "T3"
        assert s.coupling is not None
        assert s.rates.r1 == 0.05

    def test_less_noisy_assumption_named_on_rejection(self, tmp_path):
        path = write_json(
            tmp_path,
            "bad.json",
            {"model": "B", "net": {"p1": 5, "p2": 3, "n1": 2, "n2": 3, "nr": 2}},
        )
        with pytest.raises(ValidationError, match="less noisy"):
            load_scenario(path)

    def test_empty_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ValidationError, match="line 1"):
            load_scenario(str(path))

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"model": ' + "1" * 5000 + "}"],
                             ids=["deep", "long-int"])
    def test_undecodable_json_is_exit_2(self, tmp_path, capsys, text):
        # json raises RecursionError and ValueError here, not JSONDecodeError.
        path = tmp_path / "s.json"
        path.write_text(text)
        assert main(["curve", "--scenario", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert f"scenario {path}: JSON parse failure" in err and "Traceback" not in err

    def test_unknown_fields_rejected(self, tmp_path):
        path = write_json(
            tmp_path,
            "extra.json",
            {
                "model": "B",
                "net": {"p1": 5, "p2": 3, "n1": 2, "n2": 8, "nr": 2},
                "surprise": 1,
            },
        )
        with pytest.raises(ValidationError, match="surprise"):
            load_scenario(path)

    def test_unknown_strategy_rejected(self, tmp_path):
        path = write_json(
            tmp_path,
            "strat.json",
            {
                "model": "B",
                "net": {"p1": 5, "p2": 3, "n1": 2, "n2": 8, "nr": 2},
                "strategies": ["df", "zf"],
            },
        )
        with pytest.raises(Exception, match="zf"):
            load_scenario(path)


class TestCurveCommand:
    def test_fig4_row_at_alpha_one(self, tmp_path):
        out = str(tmp_path / "fig4.csv")
        assert main(["curve", "--scenario", scenario_path("paper_fig4.json"), "--out", out]) == 0
        rows = read_frontier_csv(out)
        assert list(rows[0].keys()) == ["alpha", "df_r1", "nf_r1", "cf_r1"]
        last = rows[-1]
        assert float(last["alpha"]) == 1.0
        for key, want in ROW_AT_ALPHA_1.items():
            assert float(last[key]) == pytest.approx(want, abs=1e-6)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        scenario = scenario_path("paper_fig4.json")
        assert main(["curve", "--scenario", scenario, "--out", a]) == 0
        assert main(["curve", "--scenario", scenario, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_dmc_scenario_rejected(self, tmp_path):
        code = main(["curve", "--scenario", scenario_path("dmc_demo.json")])
        assert code == 1

    def test_every_q_is_swept(self, tmp_path):
        # On the paper network q = 0.5 cannot pay for its compression and q = 300 can,
        # so adding q = 0.5 in front must change nothing.
        outputs = []
        for qs in ([0.5, 300.0], [300.0]):
            grid = {"alpha_steps": 41, "beta_steps": 41, "q_values": qs}
            path = write_json(tmp_path, "s.json", {"model": "B", "net": PAPER_NET, "grid": grid})
            out = str(tmp_path / f"{len(qs)}.csv")
            assert main(["curve", "--scenario", path, "--out", out]) == 0
            outputs.append(open(out, "rb").read())
        assert outputs[0] == outputs[1]

    def test_every_q_infeasible_is_exit_3(self, tmp_path):
        grid = {"alpha_steps": 11, "beta_steps": 11, "q_values": [0.5, 2.0]}
        path = write_json(tmp_path, "s.json", {"model": "B", "net": PAPER_NET, "grid": grid})
        assert main(["curve", "--scenario", path, "--out", str(tmp_path / "o.csv")]) == 3

    # A scenario's strategies are scenario data: an unknown one exits 2 like any
    # other bad scenario value (the `gaussian --strategy` flag stays a usage error).
    @pytest.mark.parametrize(
        "command, model, strategies",
        [("curve", "C", ["b_df", "df"]), ("curve", "B", ["zf"]), ("region", "C", ["zf"])],
        ids=["curve-other-models-id", "curve-zf", "region-zf"],
    )
    def test_unknown_scenario_strategy_is_a_validation_error(
        self, tmp_path, capsys, command, model, strategies
    ):
        payload = {"model": model, "net": PAPER_NET, "strategies": strategies}
        path = write_json(tmp_path, "s.json", payload)
        out = tmp_path / "o.csv"
        assert main([command, "--scenario", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"scenario {path}: unknown strategy {strategies[0]!r} for model {model!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["curve", "region"])
    def test_a_strategy_listed_twice_is_a_validation_error(self, tmp_path, capsys, command):
        # "df" and "b_df" resolve to one strategy: curve would write its column twice
        # and region each of its rows twice.
        payload = {"model": "B", "net": PAPER_NET, "strategies": ["df", "nf", "b_df"]}
        path = write_json(tmp_path, "s.json", payload)
        out = tmp_path / "o.csv"
        assert main([command, "--scenario", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"scenario {path}: strategies 'df' and 'b_df' both name b_df" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command", ["curve", "region"])
    def test_cf_with_no_q_values_is_a_validation_error(self, tmp_path, capsys, command):
        # Empty q_values leave a CF strategy nothing to sweep: bad scenario data, exit 2
        # like any other, named with its scenario before anything is evaluated.
        grid = {"alpha_steps": 11, "beta_steps": 11, "q_values": []}
        payload = {"model": "C", "net": PAPER_NET, "strategies": ["df", "cf"], "grid": grid}
        path = write_json(tmp_path, "s.json", payload)
        out = tmp_path / "o.csv"
        assert main([command, "--scenario", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"scenario {path}: cf needs a compression variance q, but q_values is empty" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command, model", [("curve", "B"), ("curve", "C"), ("region", "C")])
    def test_a_scenario_without_a_grid_sweeps_the_default_grid(self, tmp_path, command, model):
        default = {"alpha_steps": 401, "beta_steps": 401, "q_values": [300.0],
                   "rstar_policy": "max", "rstar_steps": 8}
        outputs = []
        for extra in ({}, {"grid": default}):
            path = write_json(tmp_path, "s.json", {"model": model, "net": PAPER_NET, **extra})
            out = tmp_path / f"{len(extra)}.csv"
            assert main([command, "--scenario", path, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestRegionCommand:
    def test_fig5_endpoints(self, tmp_path):
        out = str(tmp_path / "fig5.csv")
        assert main(["region", "--scenario", scenario_path("paper_fig5.json"), "--out", out]) == 0
        rows = read_frontier_csv(out)
        by_strategy = {}
        for row in rows:
            by_strategy.setdefault(row["strategy"], []).append(row)
        assert set(by_strategy) == {"baseline", "df", "nf", "cf"}
        base_r0 = max(float(r["r0"]) for r in by_strategy["baseline"])
        base_r1 = max(float(r["r1"]) for r in by_strategy["baseline"])
        assert base_r0 == pytest.approx(0.350219859, abs=1e-3)
        assert base_r1 == pytest.approx(0.553457602, abs=1e-3)
        assert max(float(r["r0"]) for r in by_strategy["df"]) == pytest.approx(0.5, abs=1e-3)
        assert max(float(r["r1"]) for r in by_strategy["nf"]) == pytest.approx(
            0.633393270, abs=1e-3
        )

    def test_round_trip_is_a_fixed_point(self, tmp_path):
        out1 = str(tmp_path / "r1.csv")
        scenario = scenario_path("paper_fig5.json")
        assert main(["region", "--scenario", scenario, "--out", out1]) == 0
        rows = read_frontier_csv(out1)
        # Re-emit what was parsed: quantization at 9 significant digits is
        # already a fixed point, so the bytes must not change.
        out2 = str(tmp_path / "r2.csv")
        header = list(rows[0].keys())
        numeric = {"r0", "r1", "alpha", "q", "rstar"}
        with open(out2, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                formatted = [
                    f"{float(row[h]):.9g}" if h in numeric and row[h] else row[h]
                    for h in header
                ]
                fh.write(",".join(formatted) + "\n")
        assert open(out1).read() == open(out2).read()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        scenario = scenario_path("paper_fig5.json")
        assert main(["region", "--scenario", scenario, "--out", a]) == 0
        assert main(["region", "--scenario", scenario, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_strategy_infeasible_at_every_q_is_exit_3(self, tmp_path, capsys):
        # q = 0.5 cannot pay for its compression on the paper network: the cf
        # staircase would be empty, so `region` refuses as `curve` does.
        grid = {"alpha_steps": 11, "beta_steps": 2, "q_values": [0.5]}
        payload = {"model": "C", "net": PAPER_NET, "strategies": ["df", "cf"], "grid": grid}
        path = write_json(tmp_path, "s.json", payload)
        for command in ("region", "curve"):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--scenario", path, "--out", str(out)]) == 3
            assert "compress-forward infeasible at every q in [0.5]" in capsys.readouterr().err
            assert not out.exists()

    def test_convex_hull_flag(self, tmp_path):
        out = str(tmp_path / "hull.csv")
        code = main(
            [
                "region",
                "--scenario",
                scenario_path("paper_fig5.json"),
                "--convex-hull",
                "--out",
                out,
            ]
        )
        assert code == 0
        assert len(read_frontier_csv(out)) > 0


class TestGaussianCommand:
    BASE = [
        "gaussian",
        "--p1", "5", "--p2", "3", "--n1", "2", "--n2", "8", "--nr", "2",
    ]

    def test_single_point(self, tmp_path):
        out = str(tmp_path / "g.csv")
        code = main(self.BASE + ["--model", "B", "--strategy", "cf", "--alpha", "1",
                                 "--q", "300", "--out", out])
        assert code == 0
        row = read_frontier_csv(out)[0]
        assert float(row["beta"]) == 0.0  # the default when --beta is not given
        assert float(row["r1"]) == pytest.approx(0.620159388, abs=1e-8)
        assert float(row["rstar"]) == pytest.approx(0.213077732, abs=1e-8)

    def test_invalid_network_is_exit_2(self):
        code = main(
            ["gaussian", "--p1", "5", "--p2", "3", "--n1", "2", "--n2", "3",
             "--nr", "2", "--model", "B", "--strategy", "df", "--alpha", "0.5"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "extra",
        [
            ["--model", "C", "--strategy", "nf", "--beta", "0.7"],
            ["--model", "C", "--strategy", "cf", "--q", "300", "--beta", "0"],
            ["--model", "C", "--strategy", "nf", "--q", "12"],
            ["--model", "B", "--strategy", "df", "--rstar", "0.3"],
            ["--model", "B", "--strategy", "baseline", "--q", "300"],
            ["--model", "C", "--strategy", "b_df"],  # a full id of the other model
        ],
    )
    def test_unread_flags_are_usage_errors(self, tmp_path, extra):
        out = tmp_path / "g.csv"
        assert main(self.BASE + extra + ["--alpha", "0.5", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("model", ["B", "C"])
    def test_cf_without_q_is_a_usage_error(self, tmp_path, capsys, model):
        # A missing --q is a missing flag, exit 1 like an unread one.
        out = tmp_path / "g.csv"
        argv = ["--model", model, "--strategy", "cf", "--alpha", "0.5", "--out", str(out)]
        assert main(self.BASE + argv) == 1
        err = capsys.readouterr().err
        assert f"usage error: {model.lower()}_cf needs a compression variance q" in err
        assert "Traceback" not in err and not out.exists()

    def test_infeasible_rstar_is_exit_3(self):
        code = main(self.BASE + ["--model", "B", "--strategy", "cf", "--alpha", "1",
                                 "--q", "300", "--rstar", "0.5"])
        assert code == 3

    def test_a_q_whose_budget_is_negative_is_exit_3_as_in_the_sweeps(self, tmp_path, capsys):
        q = 18.666666666166666  # its budget is -5.3e-12 on the paper network
        out = tmp_path / "o.csv"
        argv = ["--model", "C", "--strategy", "cf", "--alpha", "0.5", "--q", repr(q)]
        assert main(self.BASE + argv + ["--out", str(out)]) == 3
        assert "no R* fits the compress-forward budget" in capsys.readouterr().err
        grid = {"alpha_steps": 11, "beta_steps": 2, "q_values": [q]}
        payload = {"model": "C", "net": PAPER_NET, "strategies": ["cf"], "grid": grid}
        path = write_json(tmp_path, "s.json", payload)
        for command in ("region", "curve"):
            assert main([command, "--scenario", path, "--out", str(out)]) == 3
        assert not out.exists()


class TestDMCCommands:
    def test_eval_member_summary(self, tmp_path):
        out = str(tmp_path / "eval.csv")
        code = main(["dmc-eval", "--scenario", scenario_path("dmc_demo.json"), "--out", out])
        assert code == 0
        rows = read_frontier_csv(out)
        summary = [r for r in rows if r["kind"] == "summary"]
        assert len(summary) == 1
        assert summary[0]["satisfied"] == "true"
        assert summary[0]["branch"] == "T3.L1"
        kinds = {r["kind"] for r in rows}
        assert kinds == {"condition", "inequality", "summary"}

    def test_eval_rates_override_can_exclude(self, tmp_path):
        out = str(tmp_path / "eval.csv")
        code = main(
            ["dmc-eval", "--scenario", scenario_path("dmc_demo.json"),
             "--rates", "0,0.9,0,0.9,0", "--out", out]
        )
        assert code == 0
        rows = read_frontier_csv(out)
        summary = [r for r in rows if r["kind"] == "summary"][0]
        assert summary["satisfied"] == "false"

    def test_search_smoke(self, tmp_path):
        out = str(tmp_path / "best.csv")
        coupling_out = str(tmp_path / "best_coupling.json")
        code = main(
            ["dmc-search", "--scenario", scenario_path("dmc_demo.json"),
             "--aux-sizes", "U=1,V1=2,V2=1", "--grid-steps", "3",
             "--objective", "0,1,0", "--out", out,
             "--best-coupling-out", coupling_out]
        )
        assert code == 0
        row = read_frontier_csv(out)[0]
        assert float(row["objective_value"]) > 0.3  # clean channel, noisy tap
        payload = json.loads(open(coupling_out).read())
        assert payload["theorem"] == "T3"

    def test_search_coupling_to_stdout(self, tmp_path, monkeypatch, capsys):
        # "-" means stdout for --best-coupling-out as for --out: the coupling
        # JSON first, then the CSV, and no file named "-".
        monkeypatch.chdir(tmp_path)
        code = main(
            ["dmc-search", "--scenario", scenario_path("dmc_demo.json"),
             "--aux-sizes", "U=1,V1=2,V2=1", "--grid-steps", "2",
             "--best-coupling-out", "-", "--out", "-"]
        )
        assert code == 0
        assert not (tmp_path / "-").exists()
        out = capsys.readouterr().out
        payload, end = json.JSONDecoder().raw_decode(out)
        assert payload["theorem"] == "T3"
        assert out[end:].startswith("theorem,branch,objective_value,")
        assert len(out[end:].splitlines()) == 2

    def test_search_budget_exceeded_is_exit_2(self):
        code = main(
            ["dmc-search", "--scenario", scenario_path("dmc_demo.json"),
             "--aux-sizes", "U=2,V1=2,V2=2", "--grid-steps", "5",
             "--budget", "10"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "aux_sizes, budget, code, message",
        [
            ("U=1,V1=2,V2=1", "0", 1, "usage error: budget must be >= 1"),
            ("U=1,V1=2,V2=1", "-5", 1, "usage error: budget must be >= 1"),
            ("U=3,V1=3,V2=3", "10000000000000000000000000", 2,
             "needs 1020915806293487548828125 evaluations, over the grid index limit of"),
        ],
    )
    def test_search_refuses_a_budget_below_1_or_a_grid_past_the_index_range(
        self, capsys, aux_sizes, budget, code, message
    ):
        argv = ["dmc-search", "--scenario", scenario_path("dmc_demo.json"),
                "--aux-sizes", aux_sizes, "--grid-steps", "5", f"--budget={budget}"]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "aux_sizes, message",
        [
            ("U=1,V1=2,V2=1,Q=9",
             "aux_sizes names Q, which T3 does not have; its auxiliaries are U, V1, V2"),
            ("U=1,V1=4,V2=1", "aux size for V1 exceeds the brute-force cap of 3"),
            ("U=1,V1=0,V2=1", "aux size for V1 must be >= 1"),
            ("U=1,V1=2", "aux_sizes must provide a cardinality for V2"),
        ],
    )
    def test_search_checks_the_aux_names_before_their_sizes(self, capsys, aux_sizes, message):
        argv = ["dmc-search", "--scenario", scenario_path("dmc_demo.json"),
                "--aux-sizes", aux_sizes, "--grid-steps", "2"]
        assert main(argv) == 1
        assert capsys.readouterr().err.strip() == f"usage error: {message}"

    def test_search_skips_an_empty_aux_sizes_piece(self, tmp_path):
        outputs = []
        for aux_sizes in ("U=1,,V1=2,V2=1", "U=1,V1=2,V2=1"):
            out = tmp_path / f"{len(aux_sizes)}.csv"
            argv = ["dmc-search", "--scenario", scenario_path("dmc_demo.json"),
                    "--aux-sizes", aux_sizes, "--grid-steps", "2", "--out", str(out)]
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_eval_without_a_coupling_is_a_usage_error(self, tmp_path, capsys):
        payload = json.loads(open(scenario_path("dmc_demo.json")).read())
        payload["dmc_model"] = scenario_path(payload["dmc_model"])
        del payload["coupling"]
        out = tmp_path / "o.csv"
        code = main(["dmc-eval", "--scenario", write_json(tmp_path, "s.json", payload),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "usage error: dmc-eval: the scenario does not reference a coupling" in err
        assert "Traceback" not in err and not out.exists()

    def test_search_uses_the_scenario_tol(self, tmp_path):
        from relaysec.regionsearch import brute_force_best

        payload = json.loads(open(scenario_path("dmc_demo.json")).read())
        for ref in ("dmc_model", "coupling"):
            payload[ref] = scenario_path(payload[ref])
        payload["tol"] = 0.3
        scenario = write_json(tmp_path, "tol.json", payload)
        out = tmp_path / "o.csv"
        code = main(["dmc-search", "--scenario", scenario, "--aux-sizes", "U=1,V1=2,V2=1",
                     "--grid-steps", "3", "--objective", "1,1,1", "--out", str(out)])
        assert code == 0
        model = load_scenario(scenario).dmc_model
        want, default = (
            brute_force_best(model, {"U": 1, "V1": 2, "V2": 1}, 3, "T3", (1, 1, 1), **kw)
            .best.objective_value
            for kw in ({"tol": 0.3}, {})
        )
        assert abs(want - default) > 0.1  # the tolerance moves this search's maximum
        assert float(read_frontier_csv(out)[0]["objective_value"]) == pytest.approx(want, abs=1e-9)

    def test_search_budget_default_is_the_engine_default(self):
        # The parser reads the default from `errors`, so parsing does not load the DMC engine.
        from relaysec.cli import build_parser
        from relaysec.regionsearch import DEFAULT_BUDGET

        args = build_parser().parse_args(
            ["dmc-search", "--scenario", "s.json", "--aux-sizes", "U=1", "--grid-steps", "2"]
        )
        assert args.budget == DEFAULT_BUDGET

    @pytest.mark.parametrize(
        "argv",
        [
            ["dmc-search", "--aux-sizes", "U=x", "--grid-steps", "2"],
            ["dmc-search", "--aux-sizes", "U=1,V1=2,V2=1,W=2", "--grid-steps", "2"],
            ["dmc-search", "--aux-sizes", "U=1,V1=2,V2=1", "--grid-steps", "2",
             "--objective", "a,b,c"],
            ["dmc-search", "--aux-sizes", "U=1,V1=2,V2=1", "--grid-steps", "2",
             "--objective", "nan,1,0"],
            ["dmc-search", "--aux-sizes", "U=1,V1=2,V2=1", "--grid-steps", "2",
             "--objective", "0,inf,0"],
            ["dmc-eval", "--rates", "a,b,c,d,e"],
            # --tol gets the check a scenario file's tol gets.
            ["dmc-eval", "--tol=-5"],
            ["dmc-eval", "--tol=nan"],
            ["dmc-eval", "--tol=0"],
            ["dmc-search", "--aux-sizes", "U=2,V1=2,V2=1,U=1", "--grid-steps", "2"],
        ],
    )
    def test_bad_flags_are_usage_errors(self, tmp_path, capsys, argv):
        code = main(argv + ["--scenario", scenario_path("dmc_demo.json"),
                            "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "usage error:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["dmc-eval", "--out", "{missing}/x.csv"],
            ["dmc-search", "--aux-sizes", "U=1,V1=1,V2=1", "--grid-steps", "2",
             "--out", "{tmp}/o.csv", "--best-coupling-out", "{missing}/c.json"],
        ],
    )
    def test_unwritable_output_is_exit_2(self, tmp_path, capsys, argv):
        missing = tmp_path / "no_such_dir"
        argv = [a.format(missing=missing, tmp=tmp_path) for a in argv]
        code = main(argv + ["--scenario", scenario_path("dmc_demo.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"cannot write {missing}" in err and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()  # a failed search leaves no result behind

    @pytest.mark.parametrize("flag", ["--rstar=-1", "--rstar=nan"])
    def test_eval_invalid_rstar_on_a_cf_bound_is_exit_1(self, tmp_path, capsys, flag):
        rng = np.random.default_rng(20)
        model = random_model(rng)
        coupling = random_coupling(rng, "T12", model, aux_sizes={"U": 1})
        (tmp_path / "model.json").write_text(model.to_json())
        (tmp_path / "coupling.json").write_text(coupling.to_json())
        scenario = write_json(tmp_path, "cf.json", {
            "model": "DMC", "dmc_model": "model.json", "coupling": "coupling.json",
            "theorem": "T12",
        })
        out = tmp_path / "o.csv"
        assert main(["dmc-eval", "--scenario", scenario, "--rstar=0", "--out", str(out)]) == 0
        out.unlink()
        code = main(["dmc-eval", "--scenario", scenario, flag, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "rstar must be a finite number >= 0" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["dmc_model", "coupling", "output"])
    def test_nul_byte_in_a_path_is_exit_2(self, tmp_path, capsys, key):
        payload = json.loads(open(scenario_path("dmc_demo.json")).read())
        for ref in ("dmc_model", "coupling"):
            payload[ref] = scenario_path(payload[ref])
        payload[key] = str(tmp_path / "x\x00.json")
        path = tmp_path / "s.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["dmc-eval", "--scenario", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["dmc-eval", "dmc-search"])
    def test_a_coupling_off_the_model_alphabet_is_exit_2(self, tmp_path, capsys, command):
        # The shipped coupling (X=2, X1=2) beside a model with three inputs; a search,
        # which never evaluates the coupling, refuses the scenario all the same.
        (tmp_path / "model.json").write_text(DMCModel(np.full((3, 2, 2, 2, 2), 1 / 8)).to_json())
        payload = json.loads(open(scenario_path("dmc_demo.json")).read())
        payload.update(dmc_model="model.json", coupling=scenario_path(payload["coupling"]))
        out = tmp_path / "o.csv"
        argv = [command, "--scenario", write_json(tmp_path, "s.json", payload), "--out", str(out)]
        if command == "dmc-search":
            argv += ["--aux-sizes", "U=1,V1=2,V2=1", "--grid-steps", "2"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "coupling alphabet (X=2, X1=2) does not match the channel (X=3, X1=2)" in err
        assert "Traceback" not in err and not out.exists()


    @pytest.mark.parametrize("command", ["dmc-eval", "dmc-search"])
    def test_rates_off_the_message_configuration_are_exit_2(self, tmp_path, capsys, command):
        # T7 has no common message, so a scenario's r0 = 0.1 is invalid input to every command.
        payload = json.loads(open(scenario_path("dmc_demo.json")).read())
        for key in ("dmc_model", "coupling"):
            payload[key] = scenario_path(payload[key])
        payload.update(theorem="T7", rates={"r0": 0.1})
        out = tmp_path / "o.csv"
        argv = [command, "--scenario", write_json(tmp_path, "s.json", payload), "--out", str(out)]
        if command == "dmc-search":
            argv += ["--aux-sizes", "U=1,V1=2,V2=1", "--grid-steps", "2"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "rate r0 must be 0 in message configuration B" in err
        assert "Traceback" not in err and not out.exists()


class TestScenarioGridTypes:
    @pytest.mark.parametrize("command", ["curve", "region"])
    @pytest.mark.parametrize(
        "grid",
        [
            {"alpha_steps": 41.0},
            {"alpha_steps": "41"},
            {"beta_steps": True},
            {"q_values": 300},
            {"q_values": "35"},
            {"q_values": [300.0, None]},
            {"q_values": [True]},
            {"q_values": [float("nan")]},
            {"rstar_steps": 4.0},
            {"rstar_policy": "grid", "rstar_steps": "4"},
        ],
    )
    def test_bad_grid_types_are_exit_2(self, tmp_path, capsys, command, grid):
        path = write_json(tmp_path, "s.json", {"model": "C", "net": PAPER_NET, "grid": grid})
        assert main([command, "--scenario", path, "--out", str(tmp_path / "o.csv")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["curve", "region"])
    @pytest.mark.parametrize(
        "payload, message",
        [
            ([], "top level must be an object"),
            ({"model": "A", "net": PAPER_NET}, "'model' must be one of B, C, DMC; got 'A'"),
            ({"model": "C"}, "Gaussian scenarios need a 'net'"),
            ({"model": "C", "net": {k: v for k, v in PAPER_NET.items() if k != "nr"}},
             "scenario net: missing field 'nr'"),
            ({"model": "C", "net": PAPER_NET, "strategies": "df"},
             "'strategies' must be a list of names"),
            ({"model": "C", "net": PAPER_NET, "strategies": []}, "'strategies' must not be empty"),
            # An integer beyond the float range is not a finite number.
            ({"model": "C", "net": {**PAPER_NET, "p1": 10**400}},
             "scenario net: p1 must be a finite number, got 1000"),
            ({"model": "C", "net": PAPER_NET, "grid": {"q_values": [10**400]}},
             "scenario grid: q_values must be a list of finite numbers"),
            ({"model": "C", "net": PAPER_NET, "grid": {"rstar_policy": "grid", "rstar_steps": 1}},
             "GridSpec: rstar_steps must be >= 2 for the grid policy"),
        ],
        ids=["not-an-object", "model-A", "no-net", "net-without-nr", "strategies-not-a-list",
             "no-strategies", "p1-overflows", "q-overflows", "one-rstar-step"],
    )
    def test_bad_gaussian_scenarios_are_exit_2(self, tmp_path, capsys, command, payload, message):
        out = tmp_path / "o.csv"
        assert main([command, "--scenario", write_json(tmp_path, "s.json", payload),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize(
        "command, fields",
        [
            ("dmc-eval", {"rates": {"r1": "abc"}}),
            ("dmc-eval", {"rates": [0, "0.1", 0, 0, 0]}),
            ("dmc-eval", {"rates": {"r1": None}}),
            ("dmc-eval", {"tol": "abc"}),
            ("dmc-eval", {"tol": float("nan")}),
            ("dmc-eval", {"output": ["x"]}),
            ("dmc-search", {"output": 7}),
            ("dmc-search", {"output": ""}),
            ("dmc-search", {"tol": [1e-9]}),
            ("dmc-eval", {"theorem": ["T3"]}),
            ("dmc-search", {"theorem": 3}),
            ("dmc-eval", {"theorem": ""}),
            ("dmc-eval", {"dmc_model": None}),
            ("dmc-search", {"dmc_model": ["dmc_model.json"]}),
            ("dmc-eval", {"coupling": None}),
            ("dmc-eval", {"coupling": ""}),
            ("dmc-eval", {"theorem": "T99"}),
            ("dmc-search", {"theorem": "T99"}),
        ],
    )
    def test_bad_dmc_field_types_are_exit_2(self, tmp_path, capsys, command, fields):
        payload = json.loads(open(scenario_path("dmc_demo.json")).read())
        for key in ("dmc_model", "coupling"):
            payload[key] = scenario_path(payload[key])
        payload.update(fields)
        argv = [command, "--scenario", write_json(tmp_path, "s.json", payload)]
        if command == "dmc-search":
            argv += ["--aux-sizes", "U=1,V1=2,V2=1", "--grid-steps", "2"]
        assert main(argv) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dmc-eval", "dmc-search"])
    @pytest.mark.parametrize(
        "dropped, fields, message",
        [
            ("dmc_model", {}, "DMC scenarios need 'dmc_model' and 'theorem'"),
            ("theorem", {}, "DMC scenarios need 'dmc_model' and 'theorem'"),
            # An integer beyond the float range is not a finite number.
            (None, {"rates": {"r1": 10**400}}, "scenario rates: r1 must be a finite number"),
            (None, {"tol": 10**400}, "tol must be a positive number"),
        ],
        ids=["no-dmc_model", "no-theorem", "r1-overflows", "tol-overflows"],
    )
    def test_bad_dmc_scenarios_are_exit_2(self, tmp_path, capsys, command, dropped, fields,
                                          message):
        payload = json.loads(open(scenario_path("dmc_demo.json")).read())
        for key in ("dmc_model", "coupling"):
            payload[key] = scenario_path(payload[key])
        payload.pop(dropped, None)
        payload.update(fields)
        out = tmp_path / "o.csv"
        argv = [command, "--scenario", write_json(tmp_path, "s.json", payload), "--out", str(out)]
        if command == "dmc-search":
            argv += ["--aux-sizes", "U=1,V1=2,V2=1", "--grid-steps", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command", ["dmc-eval", "dmc-search"])
    @pytest.mark.parametrize(
        "key, path, value, named",
        [
            ("dmc_model", ("x_size",), 2.7, "must be an integer"),
            ("dmc_model", ("z_size",), "2", "must be an integer"),
            ("coupling", ("axes", 1, "size"), 2.9, "must be an integer"),
            ("coupling", ("axes", 3, "size"), "2", "must be an integer"),
            ("coupling", ("axes", 0, "size"), True, "must be an integer"),
            ("dmc_model", ("transition", 1, 0, 0, 1, 0), -0.1,
             r"DMCModel slices [^:]*: negative mass -0\.1 at entry \(0, 1, 0\) in table 2"),
            ("coupling", ("probs", 0, 1, 0, 1, 1), -0.1,
             r"JointPMF: negative mass -0\.1 at entry \(0, 1, 0, 1, 1\)"),
            # No path: the file loses its first comma.
            ("dmc_model", None, None, r"DMCModel JSON: JSON parse failure at line 3, column 3"),
            ("coupling", None, None, r"coupling JSON: JSON parse failure at line 5, column 7"),
            ("dmc_model", ("transition",), np.full((2, 2, 2, 2), 1 / 16).tolist(),
             r"DMCModel JSON: transition shape \(2, 2, 2, 2\) does not match declared sizes "
             r"\(2, 2, 2, 2, 2\)"),
            ("dmc_model", ("y_size",), 3,
             r"DMCModel JSON: transition shape \(2, 2, 2, 2, 2\) does not match declared sizes "
             r"\(2, 2, 3, 2, 2\)"),
            ("coupling", ("axes",), 5, r"JointPMF JSON: malformed payload"),
            ("coupling", ("axes", 1, "size"), 3,
             r"JointPMF JSON: probs shape \(1, 2, 1, 2, 2\) does not match axis sizes "
             r"\(1, 3, 1, 2, 2\)"),
        ],
    )
    def test_spoiled_model_and_coupling_files_are_exit_2(self, tmp_path, capsys, command, key,
                                                         path, value, named):
        # int() used to truncate sizes: x_size 2.7 loaded as a binary input.
        payload = json.loads(open(scenario_path("dmc_demo.json")).read())
        for name in ("dmc_model", "coupling"):
            payload[name] = scenario_path(payload[name])
        spoiled = json.loads(open(payload[key]).read())
        if path is None:
            text = json.dumps(spoiled, indent=2).replace(",", "", 1)
        else:
            target = spoiled
            for step in path[:-1]:
                target = target[step]
            target[path[-1]] = value
            text = json.dumps(spoiled)
        (tmp_path / "spoiled.json").write_text(text)
        payload[key] = str(tmp_path / "spoiled.json")
        argv = [command, "--scenario", write_json(tmp_path, "s.json", payload)]
        if command == "dmc-search":
            argv += ["--aux-sizes", "U=1,V1=2,V2=1", "--grid-steps", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.search(named, err) and "Traceback" not in err

    @pytest.mark.parametrize("key, field, what", [("dmc_model", "transition", "DMCModel JSON"),
                                                  ("coupling", "probs", "JointPMF JSON")],
                             ids=["model", "coupling"])
    @pytest.mark.parametrize("spoil", ["string", "true", "mixed"])
    def test_a_mass_that_is_not_a_json_number_is_exit_2(self, tmp_path, capsys, key, field, what,
                                                        spoil):
        # np.asarray(..., dtype=float64) reads "0.25" as 0.25 and true as 1.0, and numpy
        # takes a mixed [true, 0.5] as numbers even without a dtype.
        payload = json.loads(open(scenario_path("dmc_demo.json")).read())
        for name in ("dmc_model", "coupling"):
            payload[name] = scenario_path(payload[name])
        spoiled = json.loads(open(payload[key]).read())
        row = spoiled[field]
        while isinstance(row[0][0], list):
            row = row[0]
        row = row[0]  # the table's first row of masses
        got = {"string": repr(str(row[0])), "true": "True", "mixed": "True"}[spoil]
        row[:] = {"string": [str(row[0]), *row[1:]], "true": [True, *row[1:]],
                  "mixed": [True, 0.5]}[spoil]
        payload[key] = write_json(tmp_path, "spoiled.json", spoiled)
        out = tmp_path / "o.csv"
        argv = ["dmc-eval", "--scenario", write_json(tmp_path, "s.json", payload), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{what}: {field} must hold numbers only, got {got}" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command", ["dmc-eval", "dmc-search"])
    @pytest.mark.parametrize(
        "key, message",
        [
            ("dmc_model", "DMCModel JSON: malformed payload"),
            ("coupling", "coupling JSON: top level must be an object"),
        ],
    )
    def test_a_file_whose_top_level_is_not_an_object_is_exit_2(self, tmp_path, capsys, command,
                                                                key, message):
        payload = json.loads(open(scenario_path("dmc_demo.json")).read())
        for name in ("dmc_model", "coupling"):
            payload[name] = scenario_path(payload[name])
        payload[key] = write_json(tmp_path, "listed.json", [1, 2])
        out = tmp_path / "o.csv"
        argv = [command, "--scenario", write_json(tmp_path, "s.json", payload), "--out", str(out)]
        if command == "dmc-search":
            argv += ["--aux-sizes", "U=1,V1=2,V2=1", "--grid-steps", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err and not out.exists()


_JUNK = st.one_of(
    st.integers(-3, 1), st.floats(allow_nan=True, allow_infinity=True), st.booleans(),
    st.text(max_size=3), st.none(), st.lists(st.integers(), max_size=2),
)
# alpha_steps and beta_steps are always given: their default of 401 is a large grid.
_VALID_GRID = {
    "alpha_steps": st.integers(2, 60),
    "beta_steps": st.integers(2, 60),
    "q_values": st.lists(st.one_of(st.floats(1e-3, 1e6), st.integers(1, 10**4)), max_size=3),
    "rstar_policy": st.sampled_from(["max", "grid"]),
    "rstar_steps": st.integers(2, 60),
}
_LABELS = st.lists(st.sampled_from(["df", "nf", "cf", "baseline", "zf", "b_cf", "c_df"]),
                   min_size=1, max_size=4)


@st.composite
def _gaussian_scenarios(draw):
    """A valid Gaussian scenario with at most one top-level, grid or net field replaced by junk."""
    payload = {
        "model": draw(st.sampled_from(["B", "C"])),
        "net": dict(PAPER_NET),
        "grid": {key: draw(values) for key, values in _VALID_GRID.items()},
        "strategies": draw(_LABELS),
    }
    spoiled = draw(
        st.sampled_from([None, "grid", "strategies", "net", "output", *_VALID_GRID, *PAPER_NET])
    )
    if spoiled in ("grid", "strategies", "net", "output"):
        payload[spoiled] = draw(st.one_of(_JUNK, st.lists(_JUNK, min_size=1, max_size=2)))
    elif spoiled in PAPER_NET:
        payload["net"][spoiled] = draw(st.one_of(_JUNK, st.lists(_JUNK, max_size=2)))
    elif spoiled is not None:
        payload["grid"][spoiled] = draw(st.one_of(_JUNK, st.lists(_JUNK, max_size=2)))
    return payload


class TestGaussianScenarioFuzz:
    @given(command=st.sampled_from(["curve", "region"]), payload=_gaussian_scenarios())
    @settings(max_examples=100, deadline=None)
    def test_only_documented_exit_codes(self, command, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--scenario", path, "--out", os.path.join(tmp, "o.csv")])
        assert code in range(5)
        assert "Traceback" not in err.getvalue()


_THEOREM_IDS = [f"T{i}" for i in range(1, 13)]
_RATE_VALUES = st.one_of(st.floats(-0.5, 1.5), _JUNK)
# One value per DMC scenario field, valid or not.
_DMC_FIELDS = {
    "theorem": st.one_of(st.sampled_from(_THEOREM_IDS + ["T99", "t3", "T0"]), _JUNK),
    "rates": st.one_of(
        st.fixed_dictionaries(
            {}, optional={k: _RATE_VALUES for k in ("r0", "r1", "r2", "re1", "re2", "rx")}
        ),
        st.lists(_RATE_VALUES, max_size=6),
        _JUNK,
    ),
    "tol": st.one_of(st.floats(-1.0, 1.0), _JUNK),
    "dmc_model": st.one_of(st.sampled_from(["dmc_model.json", "dmc_coupling.json"]), _JUNK),
    "coupling": st.one_of(st.sampled_from(["dmc_coupling.json", "dmc_model.json"]), _JUNK),
    "output": st.one_of(_JUNK, st.lists(_JUNK, max_size=2)),
}


@st.composite
def _dmc_scenarios(draw):
    """The shipped DMC demo scenario with at most one field replaced."""
    payload = json.loads(open(scenario_path("dmc_demo.json")).read())
    spoiled = draw(st.sampled_from([None, *_DMC_FIELDS]))
    if spoiled is not None:
        payload[spoiled] = draw(_DMC_FIELDS[spoiled])
    for key in ("dmc_model", "coupling"):
        if isinstance(payload[key], str) and payload[key]:
            payload[key] = scenario_path(payload[key])
    return payload


class TestDMCScenarioFuzz:
    @given(payload=_dmc_scenarios())
    @settings(max_examples=100, deadline=None)
    def test_only_documented_exit_codes(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["dmc-eval", "--scenario", path, "--out", os.path.join(tmp, "o.csv")])
        # A scenario value is input: it evaluates or is invalid, never a usage error.
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestExitCodesAndHelp:
    @pytest.mark.parametrize(
        "sub", ["curve", "region", "gaussian", "dmc-eval", "dmc-search", "selftest"]
    )
    def test_help_exits_zero(self, sub, src_env):
        proc = subprocess.run(
            [sys.executable, "-m", "relaysec", sub, "--help"],
            capture_output=True,
            text=True,
            env=src_env,
        )
        assert proc.returncode == 0
        assert "--help" in proc.stdout

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["transmogrify"]) == 1

    def test_missing_scenario_file_is_exit_2(self):
        assert main(["curve", "--scenario", "/does/not/exist.json"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["curve", "--scenario", scenario_path("paper_fig4.json")],
            ["region", "--scenario", scenario_path("paper_fig5.json")],
            ["gaussian", "--model", "C", "--strategy", "cf", "--p1", "5", "--p2", "3",
             "--n1", "2", "--n2", "8", "--nr", "2", "--alpha", "0.5", "--q", "300"],
        ],
        ids=["import", "curve", "region", "gaussian"],
    )
    def test_gaussian_paths_leave_out_the_dmc_engine(self, tmp_path, argv):
        # Only the DMC commands load the DMC engine, and only `selftest` the
        # random generators and oracles.
        code = (
            "import sys, relaysec.cli\n"
            f"assert not {argv!r} or relaysec.cli.main({argv!r} + ['--out', sys.argv[1]]) == 0\n"
            "print(*[m for m in ('bounds', 'regionsearch', 'dmc', 'pmf', 'acceptance')\n"
            "        if 'relaysec.' + m in sys.modules])"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "o.csv")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

    def test_console_entry_point_runs(self, tmp_path, src_env):
        out = str(tmp_path / "gp.csv")
        proc = subprocess.run(
            [sys.executable, "-m", "relaysec", "gaussian",
             "--model", "C", "--strategy", "baseline",
             "--p1", "5", "--p2", "3", "--n1", "2", "--n2", "8", "--nr", "2",
             "--alpha", "0", "--out", out],
            capture_output=True,
            text=True,
            env=src_env,
        )
        assert proc.returncode == 0
        row = read_frontier_csv(out)[0]
        assert float(row["r0"]) == pytest.approx(0.350219859, abs=1e-8)


_FLOAT64 = st.one_of(
    st.floats(width=64),
    st.integers(-(2**60), 2**60).map(float),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308]),
)


def csv_text(header, tables):
    """What `_write_csv` prints for `header` and `tables`."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _write_csv(None, header, tables)
    return buf.getvalue()


class TestColumnFormat:
    """The writer prints numbers as the per-value f"{v:.9g}" does."""

    @given(st.lists(_FLOAT64, max_size=50))
    @example([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 1e16, 123456789.0])
    @settings(max_examples=200, deadline=None)
    def test_column_equals_per_value_format(self, values):
        want = "".join(f"{float(v):.9g}\n" for v in values)
        assert csv_text(["x"], [[np.array(values, dtype=np.float64)]]) == "x\n" + want
        assert csv_text(["x"], [[values]]) == "x\n" + want

    @given(_FLOAT64)
    def test_one_number_is_one_field(self, value):
        want = f"x,y\n{float(value):.9g},{float(value):.9g}\n"
        assert csv_text(["x", "y"], [[value, np.float64(value)]]) == want
        assert csv_text(["x", "y"], [[[value], np.array([value])]]) == want

    def test_missing_parameter_is_empty_fields(self):
        assert csv_text(["a", "q", "b"], [[1.5, None, "t"]]) == "a,q,b\n1.5,,t\n"
        assert csv_text(["a", "q"], [[[1.0, 2.0, 3.0], None]]) == "a,q\n1,\n2,\n3,\n"


_TEXT = st.text(st.sampled_from('ab ,"\n\r%;\'=<{}()|'), max_size=8)
_FIELD = st.one_of(st.none(), _FLOAT64, _TEXT)


@st.composite
def csv_tables(draw):
    """A header of 2-6 names and tables of one kind per column: a single value
    (number, text or None) or a sequence of numbers or of text."""
    width = draw(st.integers(2, 6))
    header = draw(st.lists(_TEXT, min_size=width, max_size=width))
    tables = []
    for _ in range(draw(st.integers(0, 3))):
        rows = draw(st.integers(0, 5))
        columns, values = [], []
        for _ in range(width):
            kind = draw(st.sampled_from(["single", "numbers", "text"]))
            if kind == "single":
                value = draw(_FIELD)
                columns.append(value)
                values.append([value] * rows)
            else:
                element = _FLOAT64 if kind == "numbers" else _TEXT
                column = draw(st.lists(element, min_size=rows, max_size=rows))
                columns.append(np.array(column) if kind == "numbers" else column)
                values.append(column)
        if all(np.ndim(c) == 0 for c in columns):  # a table of single values is one row
            tables.append((columns, [columns]))
        else:
            tables.append((columns, list(zip(*values))))
    return header, tables


class TestWriterMatchesCSVModule:
    """The one-pass writer against csv.writer over the same rows."""

    @given(csv_tables())
    @settings(max_examples=300, deadline=None)
    def test_text_equals_csv_writer(self, case):
        import csv

        header, tables = case
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for _, rows in tables:
            writer.writerows(
                [["" if v is None else v if isinstance(v, str) else f"{v:.9g}" for v in row]
                 for row in rows]
            )
        assert csv_text(header, [columns for columns, _ in tables]) == buf.getvalue()


class TestGoldenOutputs:
    """The shipped scenarios' outputs, pinned byte for byte."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["curve", "--scenario", "paper_fig4.json"],
             "9e9ec2c6b3cd5c5b400eb4cafc6b5d281eab787381f7d31de02b4ab04bcf15a3"),
            (["region", "--scenario", "paper_fig5.json"],
             "16166fef0635c2a8b65f47c48553434c2c88426f8a57a7989a07ae9b91f5c4c9"),
            (["region", "--scenario", "paper_fig5.json", "--convex-hull"],
             "82f169d19087d6f3ca8b8f3854f07002e9ba7946c24916ef9778e07d427ac972"),
            (["dmc-eval", "--scenario", "dmc_demo.json"],
             "b73a0d4e6221cb2186bf6cc5e31d6c52a6f045fe464beda4a2d2d6bb007af055"),
        ],
    )
    def test_output_bytes(self, tmp_path, argv, digest):
        out = tmp_path / "o.csv"
        argv = [scenario_path(a) if a.endswith(".json") else a for a in argv]
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # q = 0.5 cannot pay for its compression on the paper network; 40 and 300 can.
    @pytest.mark.parametrize(
        "command, scenario, digest",
        [
            ("curve",
             {"model": "B", "strategies": ["cf"],
              "grid": {"alpha_steps": 41, "beta_steps": 41, "q_values": [300.0, 0.5, 40.0],
                       "rstar_policy": "grid", "rstar_steps": 3}},
             "3502038236b46f98072dd713204749fd1f48c6a5b7852c9cca33b7de363112ac"),
            ("region",
             {"model": "C", "strategies": ["baseline", "df", "nf", "cf"],
              "grid": {"alpha_steps": 61, "beta_steps": 2, "q_values": [300.0, 0.5, 40.0],
                       "rstar_policy": "grid", "rstar_steps": 4}},
             "7e9be2919e1a464811847a68f9b16b21000ec7e97fe1ae0766821613ece3705e"),
        ],
    )
    def test_compress_forward_grid_bytes(self, tmp_path, command, scenario, digest):
        path = write_json(tmp_path, "s.json", dict(scenario, net=PAPER_NET))
        out = tmp_path / "o.csv"
        assert main([command, "--scenario", path, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (["--model", "B", "--strategy", "nf", "--alpha", "0.5", "--beta", "0.25"],
             "15e8304d6e75ad3bdd82646927656dd43d86357aae88bf186e0793ade432572c"),
            (["--model", "C", "--strategy", "cf", "--alpha", "0.5", "--q", "300"],
             "99464c660fe1afca1b137517708bda05b13dcd855e537fbd988d2f8ead4962e8"),
        ],
    )
    def test_gaussian_bytes(self, tmp_path, flags, digest):
        out = tmp_path / "o.csv"
        assert main(TestGaussianCommand.BASE + flags + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_dmc_search_bytes(self, tmp_path):
        out, coupling = tmp_path / "o.csv", tmp_path / "c.json"
        argv = ["dmc-search", "--scenario", scenario_path("dmc_demo.json"),
                "--aux-sizes", "U=1,V1=2,V2=1", "--grid-steps", "3", "--objective", "0,1,0",
                "--out", str(out), "--best-coupling-out", str(coupling)]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "ec8247acccfac2d312d0129e978f774f557d45e857d3fc1fffaa5bf0db631b0d"
        )
        assert hashlib.sha256(coupling.read_bytes()).hexdigest() == (
            "b30849a59b8026f0d61df41d116ebb9dfab0f61c2b8d60888ae5a6122578ef44"
        )

    # One search per theorem on the shipped model, U=1 and every other auxiliary 2,
    # at grid steps 3 where the grid stays under about 2500 couplings, else 2.
    @pytest.mark.parametrize(
        "theorem, aux_sizes, steps, csv_digest, coupling_digest",
        [
            ("T2", "U=1,V1=2,V2=2", 2,
             "90eb5215f2cb6da1b442568ad8b2b5a5051eb49e3ce5eabcf97820d43c2557e0",
             "505f8c84a00e268817b44b22eb6cef5137d8e7420c8094491283ab658b00fabc"),
            ("T3", "U=1,V1=2,V2=2", 3,
             "da9f813ce3cf649f25ccafec46b1abb40c8d4bad718f3243240e10d4639c2657",
             "d3cecb9e5c1c4de025a605dfe689f61998c530a95ea2da24fc967563892afc48"),
            ("T4", "U=1,V1=2,V2=2,Yh=2", 2,
             "e44bc63ad6272737958bd1f7ab4f79d9298e9afafecd1912939aa5c8bf3dc8b0",
             "aec95f249baf8b761d3c148e390d61d952294344441acbb31cf1a1a1ab6e4a0e"),
            ("T6", "U=1,V1=2,V2=2", 2,
             "cf89a2eb6749fe14d45c2eb01620105b6fb849e5ff0c0db5d1190a6af23c5932",
             "f4e5107e42b98f9226d14c7157274c212997238bacf0919594b69d55fc30b390"),
            ("T7", "U=1,V1=2,V2=2", 3,
             "6cb54be1f2c925df4a497943a54afe8bfb0d4dbff0e98d578013276ceea573b6",
             "e7ab4e64864048905e2c940466e972b021159c073f6df08273a299ea943716c3"),
            ("T8", "U=1,V1=2,V2=2,Yh=2", 2,
             "defb1f718bfda3aeecfb52134bc7982e9d327247cf0f9508b0a6e2604113ce7a",
             "efbd92a60b47afffd186fbdd2385082433467d6bc4d8e920529615c6bb4a0870"),
            ("T10", "U=1,V=2", 3,
             "e2f5c9d829e97772f5be7ecbb3420fbf222703ccee93e2375ccb71cfa440adc8",
             "bf738d8878c4388e5911f568bd885498fa0c0c747cb9cf08eb96dfdd841835c0"),
            ("T11", "U=1,V=2", 3,
             "5966472ff14136c44c65d161b54d3f786d3cef87c3cdef351bf84e1ebc78bc43",
             "75e8e080c0c1146b9cd558914d4c54257a07cc6760b90c0b592bd3d5c94592e6"),
            ("T12", "U=1,V=2,Yh=2", 2,
             "1e93b2646d8f0c9f9054fca7469f135e7dadcb08135ceadbd806d0cec082f3a6",
             "7aced8fc3adaed2ab63d146e52af114b95f614d3578ca3d2394090ff009895e8"),
        ],
        ids=["T2", "T3", "T4", "T6", "T7", "T8", "T10", "T11", "T12"],
    )
    def test_dmc_search_bytes_per_theorem(
        self, tmp_path, theorem, aux_sizes, steps, csv_digest, coupling_digest
    ):
        scenario = write_json(tmp_path, "s.json", {
            "model": "DMC", "dmc_model": scenario_path("dmc_model.json"), "theorem": theorem,
        })
        out, coupling = tmp_path / "o.csv", tmp_path / "c.json"
        argv = ["dmc-search", "--scenario", scenario, "--aux-sizes", aux_sizes,
                "--grid-steps", str(steps), "--objective", "0,1,0",
                "--out", str(out), "--best-coupling-out", str(coupling)]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256(coupling.read_bytes()).hexdigest() == coupling_digest

    def test_stdout_equals_the_file(self, tmp_path, capsys):
        scenario = scenario_path("paper_fig4.json")
        out = tmp_path / "o.csv"
        assert main(["curve", "--scenario", scenario, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["curve", "--scenario", scenario, "--out", "-"]) == 0
        text = capsys.readouterr().out.encode("utf-8")
        assert text == out.read_bytes()
        assert hashlib.sha256(text).hexdigest() == (
            "9e9ec2c6b3cd5c5b400eb4cafc6b5d281eab787381f7d31de02b4ab04bcf15a3"
        )


class TestFigureScripts:
    """The figure scripts write the same bytes as the CLI (the `TestGoldenOutputs` digests)."""

    @pytest.mark.parametrize(
        "script, flags, digest",
        [
            ("make_fig4.py", [], "9e9ec2c6b3cd5c5b400eb4cafc6b5d281eab787381f7d31de02b4ab04bcf15a3"),
            ("make_fig5.py", [], "16166fef0635c2a8b65f47c48553434c2c88426f8a57a7989a07ae9b91f5c4c9"),
            ("make_fig5.py", ["--convex-hull"],
             "82f169d19087d6f3ca8b8f3854f07002e9ba7946c24916ef9778e07d427ac972"),
        ],
    )
    def test_script_bytes(self, tmp_path, script, flags, digest):
        out = tmp_path / "o.csv"
        argv = [sys.executable, os.path.join(REPO, "scripts", script), "--out", str(out), *flags]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestGridBudgetRefusal:
    @pytest.mark.parametrize(
        "command, model, grid",
        [
            ("curve", "B", {"alpha_steps": 10**9, "beta_steps": 401}),
            ("curve", "B", {"alpha_steps": 401, "beta_steps": 10**9}),
            ("curve", "C", {"alpha_steps": 10**9, "beta_steps": 2}),
            ("region", "C", {"alpha_steps": 10**9, "beta_steps": 2}),
            ("region", "C", {"alpha_steps": 401, "beta_steps": 2, "q_values": [300.0, 500.0],
                             "rstar_policy": "grid", "rstar_steps": 10**9}),
        ],
    )
    def test_oversized_grid_is_refused_before_allocating(self, tmp_path, capsys, command,
                                                         model, grid):
        path = write_json(tmp_path, "s.json", {"model": model, "net": PAPER_NET, "grid": grid})
        tracemalloc.start()
        try:
            code = main([command, "--scenario", path, "--out", str(tmp_path / "o.csv")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        estimate = float(re.search(r"needs about (\S+) cells", err).group(1))
        assert estimate >= max(v for v in grid.values() if isinstance(v, int)) > MAX_GRID_CELLS
        assert peak < 2**20  # no array on the scale of the request was ever allocated
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", ["curve", "region"])
    def test_model_c_ignores_beta_steps(self, tmp_path, command):
        # Model C's beta axis is {0} whatever beta_steps says, so a huge value costs nothing.
        outputs = []
        for beta_steps in (20_000_000, 2):
            grid = {"alpha_steps": 11, "beta_steps": beta_steps}
            path = write_json(tmp_path, "s.json", {"model": "C", "net": PAPER_NET, "grid": grid})
            out = tmp_path / f"{beta_steps}.csv"
            assert main([command, "--scenario", path, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


_FLAG_JUNK = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["", "x", "1e309", "-0", "1,2", "U=1"]),
)


def _spoil(draw, flags):
    """argv from a dict of valid flag values, with at most one value replaced by junk."""
    spoiled = draw(st.sampled_from([None, *flags]))
    if spoiled is not None:
        flags[spoiled] = draw(_FLAG_JUNK)
    # FLAG=VALUE, so that a negative value is not taken for a flag.
    return [flag if value is True else f"{flag}={value}"
            for flag, value in flags.items() if value not in (None, False)]


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


@st.composite
def _gaussian_flags(draw):
    p1, n1 = draw(st.floats(0.5, 10.0)), draw(st.floats(0.2, 4.0))
    flags = {
        "--model": draw(st.sampled_from(["B", "C"])),
        "--strategy": draw(st.sampled_from(["df", "nf", "cf", "baseline"])),
        "--p1": repr(p1), "--p2": draw(_floats(0.2, 8.0)), "--n1": repr(n1),
        "--n2": repr((p1 + n1) * draw(st.floats(0.8, 2.5))), "--nr": draw(_floats(0.2, 5.0)),
        "--alpha": draw(_floats(0.0, 1.0)),
        "--beta": draw(st.one_of(st.none(), _floats(0.0, 1.0))),
        "--q": draw(st.one_of(st.none(), _floats(0.01, 1000.0))),
        "--rstar": draw(st.one_of(st.none(), _floats(0.0, 0.5))),
    }
    return ["gaussian"] + _spoil(draw, flags)


@st.composite
def _dmc_eval_flags(draw):
    flags = {
        "--rates": draw(st.one_of(st.none(), st.lists(_floats(0.0, 0.6), min_size=5,
                                                      max_size=5).map(",".join))),
        "--rstar": draw(st.one_of(st.none(), _floats(0.0, 1.0))),
        "--tol": draw(st.one_of(st.none(), _floats(0.0, 1e-3))),
        "--clamp-equivocation": draw(st.booleans()),
    }
    return ["dmc-eval", "--scenario", scenario_path("dmc_demo.json")] + _spoil(draw, flags)


@st.composite
def _dmc_search_flags(draw):
    sizes = {name: draw(st.integers(1, 2)) for name in ("U", "V1", "V2")}
    flags = {
        "--aux-sizes": ",".join(f"{k}={v}" for k, v in sizes.items()),
        "--grid-steps": str(draw(st.integers(1, 3))),
        "--objective": draw(st.lists(_floats(-1.0, 1.0), min_size=3, max_size=3).map(",".join)),
        "--budget": draw(st.sampled_from(["1", "100", "2500"])),  # keeps every search small
        "--clamp-equivocation": draw(st.booleans()),
    }
    return ["dmc-search", "--scenario", scenario_path("dmc_demo.json")] + _spoil(draw, flags)


def _run_flags(argv):
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out", os.path.join(tmp, "o.csv")])
    return code, err.getvalue()


class TestFlagFuzz:
    """Flag values, valid or not, end in a documented exit code, never a traceback."""

    @pytest.mark.parametrize("flags", [_gaussian_flags, _dmc_eval_flags, _dmc_search_flags])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_only_documented_exit_codes(self, flags, data):
        argv = data.draw(flags())
        code, err = _run_flags(argv)
        assert code in range(5) and "Traceback" not in err, (argv, err)
