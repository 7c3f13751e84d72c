import hashlib
import json

import numpy as np
import pytest

from localglauber.cli import main

from helpers import address_space_limit


def run(*argv):
    return main(list(argv))


def read(path):
    return path.read_bytes()


class TestSample:
    def test_zero_rounds_echoes_initial_coloring(self, tmp_path):
        out = tmp_path / "s.json"
        code = run(
            "sample", "--gen", "cycle", "--gen-args", "n=6", "--q", "4",
            "--gamma", "0.3", "--rounds", "0", "--out", str(out),
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["colors"] == [0] * 6
        assert data["rounds"] == 0

    def test_cycle_alpha3_auto_gives_proper_coloring(self, tmp_path):
        out = tmp_path / "s.json"
        code = run(
            "sample", "--gen", "cycle", "--gen-args", "n=100", "--alpha", "3",
            "--gamma", "auto", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["proper"] is True
        assert data["q"] == 6

    def test_alpha_two_auto_infeasible_exit_2(self):
        assert run("sample", "--gen", "cycle", "--gen-args", "n=4", "--alpha", "2", "--gamma", "auto") == 2

    def test_missing_instance_is_usage_error(self):
        assert run("sample", "--q", "3", "--gamma", "0.2") == 1

    def test_q_and_alpha_conflict(self):
        assert run(
            "sample", "--gen", "cycle", "--gen-args", "n=4", "--q", "5",
            "--alpha", "3", "--gamma", "0.2", "--rounds", "1",
        ) == 1

    def test_trace_csv(self, tmp_path):
        out = tmp_path / "s.json"
        trace = tmp_path / "t.csv"
        code = run(
            "sample", "--gen", "path", "--gen-args", "n=5", "--q", "4",
            "--gamma", "0.5", "--rounds", "3", "--seed", "0",
            "--out", str(out), "--trace", str(trace),
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "round,marked,accepted,conflicts,proper"
        assert len(lines) == 4

    def test_graph_file_input(self, tmp_path):
        edges = tmp_path / "g.txt"
        edges.write_text("# toy\n0 1\n1 2\n")
        out = tmp_path / "s.json"
        code = run(
            "sample", "--graph", str(edges), "--q", "5", "--gamma", "0.3",
            "--rounds", "2", "--out", str(out),
        )
        assert code == 0
        assert json.loads(out.read_text())["nodes"] == 3

    def test_hostile_sizes_exit_3(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        edges.write_text("0 1000000000\n")
        with address_space_limit():
            assert run("sample", "--graph", str(edges), "--q", "5", "--gamma", "0.3") == 3
            assert run(
                "sample", "--gen", "grid2d", "--gen-args", "rows=100000,cols=100000",
                "--q", "9", "--gamma", "0.1", "--rounds", "1",
            ) == 3
        assert capsys.readouterr().err.count("resource cap:") == 2

    @pytest.mark.parametrize("init", ["zeros", "random", "greedy"])
    def test_init_modes(self, tmp_path, init):
        out = tmp_path / "s.json"
        code = run(
            "sample", "--gen", "cycle", "--gen-args", "n=8", "--q", "5",
            "--gamma", "0.3", "--rounds", "0", "--init", init, "--out", str(out),
        )
        assert code == 0
        data = json.loads(out.read_text())
        if init == "greedy":
            assert data["proper"] is True

    def test_random_init_golden_stdout(self, capsys):
        # Recorded before the CLI's hand-built Philox key became stream(seed, 2**32).
        code = run(
            "sample", "--gen", "erdos_renyi", "--gen-args", "n=60,p=0.08", "--q", "9",
            "--gamma", "0.3", "--rounds", "40", "--init", "random", "--seed", "5",
        )
        assert code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "fe62a710d346397d35d29251f1eb7877469826b39344653b3ee2c49f47e433e1")

    def test_no_contraction_margin_needs_explicit_rounds(self, capsys):
        # gamma 0.9 at alpha 2.5 lies inside the bound's domain with a negative
        # margin; at alpha 1.5 it lies outside (2*gamma/alpha >= 1).
        for q in ("5", "3"):
            assert run("sample", "--gen", "cycle", "--gen-args", "n=6", "--q", q, "--gamma", "0.9") == 1
        assert capsys.readouterr().err.count("pass --rounds explicitly") == 2


class TestExact:
    def test_triangle_all_checks_pass(self, tmp_path):
        out = tmp_path / "e.json"
        code = run(
            "exact", "--gen", "complete", "--gen-args", "n=3", "--q", "5",
            "--gamma", "0.4", "--out", str(out),
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert all(c["passed"] for c in data["checks"].values())
        assert data["proper_colorings"] == 60

    def test_cap_exceeded_exit_3(self):
        assert run("exact", "--gen", "path", "--gen-args", "n=13", "--q", "5", "--gamma", "0.3") == 3
        assert run("exact", "--gen", "cycle", "--gen-args", "n=6", "--q", "5", "--gamma", "0.3") == 3

    def test_eps_sweep_mixing_nonincreasing(self, tmp_path):
        out = tmp_path / "e.json"
        code = run(
            "exact", "--gen", "complete", "--gen-args", "n=3", "--q", "5",
            "--gamma", "0.5", "--eps", "0.5,0.25,0.1", "--out", str(out),
        )
        assert code == 0
        mixing = json.loads(out.read_text())["mixing_rounds"]
        taus = [mixing[k] for k in ("0.5", "0.25", "0.1")]
        assert taus == sorted(taus)

    def test_tv_curve_csv(self, tmp_path):
        out = tmp_path / "e.json"
        tv = tmp_path / "tv.csv"
        code = run(
            "exact", "--gen", "path", "--gen-args", "n=3", "--q", "5",
            "--gamma", "0.3", "--out", str(out), "--tv-out", str(tv),
        )
        assert code == 0
        lines = tv.read_text().splitlines()
        assert lines[0] == "t,max_tv,tv_from_default_start"
        assert lines[1].startswith("0,1,")  # TV starts at 1 from the worst start


class TestCouple:
    def test_zero_trials_empty_summary(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(
            "couple", "--gen", "cycle", "--gen-args", "n=8", "--q", "5",
            "--gamma", "0.3", "--trials", "0", "--out", str(out),
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["trials"] == 0
        assert "mean_phi" not in data

    def test_contraction_summary(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(
            "couple", "--gen", "cycle", "--gen-args", "n=8", "--q", "5",
            "--gamma", "auto", "--trials", "3000", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["lemma_violations"] == 0
        assert data["within_bound"] is True

    def test_theory_fields_only_inside_the_bound_domain(self, capsys):
        # 2*gamma/alpha = 0.72 at q=5, 1.2 at q=3 (outside the domain of delta).
        for q, has_theory in (("5", True), ("3", False)):
            assert run(
                "couple", "--gen", "cycle", "--gen-args", "n=6", "--q", q,
                "--gamma", "0.9", "--trials", "20",
            ) == 0
            data = json.loads(capsys.readouterr().out)
            assert ("delta_theory" in data) is has_theory
            assert ("within_bound" in data) is has_theory


class TestAnalyze:
    def test_sweep_rows_and_infeasible_flag(self, tmp_path):
        out = tmp_path / "a.csv"
        table = tmp_path / "gstar.csv"
        code = run(
            "analyze", "--alphas", "2,2.1,2.5,3,4", "--out", str(out),
            "--table-out", str(table),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,gamma,path_bound,v0_bound,combined,delta,mixing_bound_rounds"
        assert len(lines) == 6
        assert lines[1].endswith("infeasible")  # the alpha=2 row
        for line in lines[2:]:
            delta = float(line.split(",")[5])
            assert delta > 0
        tbl = table.read_text().splitlines()
        assert tbl[0] == "alpha,gamma_star,delta_star,feasible"
        assert tbl[1].endswith("false")

    def test_explicit_gamma_sweep(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run("analyze", "--alphas", "3", "--gamma", "0.1", "--out", str(out)) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[1]) == 0.1


class TestFormatFlag:
    def test_sample_csv_format(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(
            "sample", "--gen", "path", "--gen-args", "n=4", "--q", "4",
            "--gamma", "0.3", "--rounds", "0", "--format", "csv", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "node,color"
        assert lines[1:] == ["0,0", "1,0", "2,0", "3,0"]

    def test_exact_csv_format(self, tmp_path):
        out = tmp_path / "e.csv"
        code = run(
            "exact", "--gen", "path", "--gen-args", "n=3", "--q", "5",
            "--gamma", "0.3", "--format", "csv", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "check,passed,value"
        assert any(line.startswith("detailed_balance,true,") for line in lines)

    def test_analyze_json_format(self, tmp_path):
        out = tmp_path / "a.json"
        assert run("analyze", "--alphas", "3", "--format", "json", "--out", str(out)) == 0
        rows = json.loads(out.read_text())
        assert rows[0]["alpha"] == 3 and rows[0]["delta"] > 0

    def test_couple_csv_format(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run(
            "couple", "--gen", "cycle", "--gen-args", "n=8", "--q", "5",
            "--gamma", "0.3", "--trials", "200", "--format", "csv", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("nodes,q,gamma,seed,pair_sampler,trials,lemma_violations")
        assert len(lines) == 2


class TestConfigAndDeterminism:
    def test_config_file_supplies_values_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gen = cycle\ngen-args = n=8\nq = 5\ngamma = 0.3\nrounds = 2\nseed = 7\n")
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run("sample", "--config", str(cfg), "--out", str(out1)) == 0
        assert run("sample", "--config", str(cfg), "--rounds", "0", "--out", str(out2)) == 0
        assert json.loads(out1.read_text())["rounds"] == 2
        assert json.loads(out2.read_text())["rounds"] == 0

    @pytest.mark.parametrize("command", ["sample", "exact", "couple"])
    def test_non_integer_q_in_config_rejected(self, tmp_path, capsys, command):
        # q = 2.5 used to be truncated to 2 and the run went ahead.
        cfg = tmp_path / "run.cfg"
        extra = {"sample": "rounds = 2\n", "exact": "", "couple": "trials = 2\n"}[command]
        cfg.write_text("gen = cycle\ngen-args = n=4\nq = 2.5\ngamma = 0.3\n" + extra)
        assert run(command, "--config", str(cfg)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "q must be an integer, got 2.5" in captured.err

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 12\n")
        assert run("sample", "--config", str(cfg)) == 1

    def test_byte_identical_reruns(self, tmp_path):
        spec = [
            (
                "sample", "--gen", "erdos_renyi", "--gen-args", "n=30,p=0.1",
                "--q", "8", "--gamma", "0.4", "--rounds", "25", "--seed", "5",
            ),
            ("exact", "--gen", "cycle", "--gen-args", "n=4", "--q", "5", "--gamma", "0.5"),
            ("couple", "--gen", "cycle", "--gen-args", "n=8", "--q", "5", "--gamma", "0.3", "--trials", "500"),
            ("analyze", "--alphas", "2.5,3"),
        ]
        for argv in spec:
            a = tmp_path / "a.out"
            b = tmp_path / "b.out"
            assert run(*argv, "--out", str(a)) in (0,)
            assert run(*argv, "--out", str(b)) in (0,)
            assert read(a) == read(b)
