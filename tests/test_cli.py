import hashlib
import itertools
import json

import numpy as np
import pytest

from localglauber import cli, generate, mixing_bound, optimize_gamma
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

    def test_negative_max_rounds_is_usage_error(self, capsys):
        # Used to exit 0 and report "exceeded max_rounds=-3".
        assert run("exact", "--gen", "path", "--gen-args", "n=3", "--q", "5", "--gamma", "0.3",
                   "--max-rounds", "-3") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_rounds must be >= 0, got -3\n"

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

    @pytest.mark.parametrize("trials", ["3", "0"])
    def test_one_color_is_usage_error(self, capsys, trials):
        # Ended in numpy's "high <= 0" traceback from the pair sampler's shift
        # draw; with no trial it exited 0.
        assert run("couple", "--gen", "cycle", "--gen-args", "n=5", "--q", "1", "--gamma", "0.3",
                   "--trials", trials) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: coupling needs q >= 2") and captured.err.count("\n") == 1

    def test_largest_q(self, capsys):
        # Ended in an OverflowError traceback: Y's color at v0 was computed
        # in int64, where x[v0] + shift does not fit.
        assert run("couple", "--gen", "cycle", "--gen-args", "n=3", "--q", str(2**63), "--gamma", "0.1",
                   "--trials", "20") == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["q"] == 2**63


C6 = ("--gen", "cycle", "--gen-args", "n=6", "--q", "5", "--gamma", "0.3")


class TestWorkBudgets:
    @pytest.mark.parametrize("command,flag,budget,driver", [
        ("sample", "--rounds", "_NODE_ROUND_BUDGET", (cli.dynamics, "run_chain_trace")),
        ("couple", "--trials", "_NODE_TRIAL_BUDGET", (cli.coupling, "contraction_experiment")),
    ])
    def test_boundary(self, monkeypatch, capsys, command, flag, budget, driver):
        monkeypatch.setattr(cli, budget, 60)
        assert run(command, *C6, flag, "10") == 0          # 6 nodes x 10 = 60: at the budget
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("work started over the budget")

        monkeypatch.setattr(*driver, refuse)
        assert run(command, *C6, flag, "11") == 3          # 66 is over it
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"resource cap: 6 nodes x 11 {flag[2:]} = 66 node-{flag[2:]}, over the budget of 60\n"

    def test_hostile_counts_exit_3(self, capsys):
        with address_space_limit():
            assert run("sample", *C6, "--rounds", str(10**18)) == 3
            assert run("couple", *C6, "--trials", str(10**18)) == 3
        assert capsys.readouterr().err.count("resource cap:") == 2

    def test_benchmark_chain_within_budget(self):
        # The whole-chain run of the grid-sample benchmark: 316x316 nodes for
        # the mixing-bound rounds at alpha=3.
        n = generate("grid2d", rows=316, cols=316).node_count
        assert n * mixing_bound(optimize_gamma(3.0).delta, n, 0.25) <= cli._NODE_ROUND_BUDGET


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

    def test_seed_is_refused(self, capsys):
        # analyze reads no seed; it accepted one and ignored it.
        assert run("analyze", "--alphas", "3", "--seed", "5") == 1
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag,argv,config", [
        ("gamma", ("sample", "--q", "5", "--gamma", "abc", "--rounds", "1"), ""),
        ("eps", ("sample", "--q", "5", "--gamma", "0.3", "--eps", "abc"), ""),
        ("alpha", ("sample", "--config", "run.cfg", "--gamma", "0.3", "--rounds", "1"), 'alpha = "abc"'),
        ("alpha", ("sample", "--alpha", "nan", "--gamma", "0.3", "--rounds", "1"), ""),
        ("rounds", ("sample", "--config", "run.cfg", "--q", "5", "--gamma", "0.3"), "rounds = abc"),
        ("rounds", ("sample", "--config", "run.cfg", "--q", "5", "--gamma", "0.3", "--rounds", "1"), "rounds = abc"),
        ("seed", ("sample", "--config", "run.cfg", "--q", "5", "--gamma", "0.3", "--rounds", "1"), "seed = abc"),
        ("trials", ("couple", "--config", "run.cfg", "--q", "5", "--gamma", "0.3"), "trials = abc"),
        ("init", ("sample", "--config", "run.cfg", "--q", "5", "--gamma", "0.3", "--rounds", "1"), "init = bogus"),
    ], ids=["gamma", "eps", "config-alpha", "alpha-nan", "config-rounds", "config-rounds-overridden", "config-seed",
            "config-trials", "config-init"])
    def test_non_numeric_value_is_usage_error(self, tmp_path, monkeypatch, capsys, flag, argv, config):
        # These ended in a ValueError or TypeError traceback; init = bogus
        # ran a greedy start; a config value that a flag overrode went
        # unchecked.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(config + "\n")
        assert run(argv[0], "--gen", "cycle", "--gen-args", "n=5", *argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be ") and err.count("\n") == 1

    @pytest.mark.parametrize("command,count", [("sample", "--rounds"), ("couple", "--trials")])
    def test_q_beyond_int64_is_usage_error(self, capsys, command, count):
        # Used to end in numpy's "high is out of bounds for int64" traceback.
        assert run(command, "--gen", "cycle", "--gen-args", "n=5", "--q", str(10**20), "--gamma", "0.1",
                   count, "2") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: q must be <= 2^63") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("gen,gen_args,message", [
        ("cycle", "n=5.5", "parameter 'n' must be an integer"),
        ("grid2d", "rows=2.9,cols=3", "parameter 'rows' must be an integer"),
        ("cycle", "n=5,p=0.3", "cycle takes no parameter 'p'"),
        ("erdos_renyi", "n=5,P=0.1", "erdos_renyi takes no parameter 'P'"),
        ("cycle", "n=5,seed=3", "--gen-args cannot set 'seed'"),
        ("cycle", "n=5,n=7", "--gen-args sets 'n' twice"),
    ], ids=["float-size", "float-rows", "foreign-key", "typo", "seed", "repeated-key"])
    def test_bad_generator_parameters_are_usage_errors(self, capsys, gen, gen_args, message):
        # Sizes used to be truncated and unknown keys dropped, with exit 0;
        # seed ended in a TypeError traceback; a repeated key overwrote the
        # earlier one.
        assert run("sample", "--gen", gen, "--gen-args", gen_args, "--q", "5", "--gamma", "0.3",
                   "--rounds", "1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv,message", [
        (["--config", "{missing}", "--gen", "cycle", "--gen-args", "n=4"], "{missing}: No such file or directory"),
        (["--graph", "{missing}"], "{missing}: No such file or directory"),
        (["--gen", "cycle", "--gen-args", "n=4", "--out", "{missing}"], "{missing}: No such file or directory"),
        (["--gen", "cycle", "--gen-args", "n=4", "--trace", "{missing}"], "{missing}: No such file or directory"),
        (["--graph", "{dir}"], "{dir}: Is a directory"),
        (["--graph", "{latin1}"], "line 2: not UTF-8 text"),
        (["--config", "{latin1}", "--gen", "cycle", "--gen-args", "n=4"], "{latin1}: not UTF-8 text"),
    ], ids=["config-missing", "graph-missing", "out-dir-missing", "trace-dir-missing", "graph-is-dir",
            "graph-not-utf8", "config-not-utf8"])
    def test_file_errors_end_in_one_error_line(self, tmp_path, capsys, argv, message):
        # Each of these once ended in a traceback.
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes(b"0 1\n1 2 # caf\xe9\n")
        paths = {"missing": tmp_path / "missing" / "f.txt", "dir": tmp_path, "latin1": latin1}
        argv = [arg.format(**paths) for arg in argv]
        assert run("sample", *argv, "--q", "3", "--gamma", "0.3", "--rounds", "1") == 1
        assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"

    @pytest.mark.parametrize("argv,written,failing", [
        (("sample", "--gen", "cycle", "--gen-args", "n=4", "--q", "3", "--gamma", "0.3", "--rounds", "2"),
         "--trace", "--out"),
        (("exact", "--gen", "cycle", "--gen-args", "n=3", "--q", "3", "--gamma", "0.3"), "--tv-out", "--out"),
        (("analyze", "--alphas", "2.5,3"), "--out", "--table-out"),
    ], ids=["sample", "exact", "analyze"])
    def test_output_path_error_leaves_no_output(self, tmp_path, capsys, argv, written, failing):
        # Each command wrote its `written` file before it opened `failing`,
        # so the run exited 1 and left that file behind.
        good, bad = tmp_path / "good.csv", tmp_path / "missing" / "f.csv"
        assert run(*argv, written, str(good), failing, str(bad)) == 1
        assert capsys.readouterr().err == f"error: {bad}: No such file or directory\n"
        assert list(tmp_path.iterdir()) == []
        # A file that was there before is left as it was.
        good.write_text("kept\n")
        assert run(*argv, written, str(good), failing, str(bad)) == 1
        assert good.read_text() == "kept\n" and list(tmp_path.iterdir()) == [good]

    def test_graph_file_with_byte_order_mark(self, tmp_path):
        # The mark ended in "non-integer token in '\ufeff0 1'", exit 1.
        edges = b"0 1\n1 2\n2 3\n3 0\n"
        outs = []
        for name, data in (("plain", edges), ("bom", b"\xef\xbb\xbf" + edges)):
            (tmp_path / f"{name}.txt").write_bytes(data)
            outs.append(tmp_path / f"{name}.json")
            assert run("sample", "--graph", str(tmp_path / f"{name}.txt"), "--q", "4", "--gamma", "0.3",
                       "--rounds", "3", "--out", str(outs[-1])) == 0
        assert read(outs[0]) == read(outs[1])

    def test_config_file_with_byte_order_mark(self, tmp_path):
        # The mark ended in "unknown key '\ufeffgen'", exit 1.
        config = b"gen = cycle\ngen-args = n=6\nq = 4\ngamma = 0.3\nrounds = 3\n"
        outs = []
        for name, data in (("plain", config), ("bom", b"\xef\xbb\xbf" + config)):
            (tmp_path / f"{name}.cfg").write_bytes(data)
            outs.append(tmp_path / f"{name}.json")
            assert run("sample", "--config", str(tmp_path / f"{name}.cfg"), "--out", str(outs[-1])) == 0
        assert read(outs[0]) == read(outs[1])

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        # func and command, which name no flag, and config, which a file
        # cannot set, were accepted and ignored, with exit 0.
        cfg = tmp_path / "run.cfg"
        for key in ("bogus", "func", "command", "config"):
            cfg.write_text(f"gen = cycle\ngen-args = n=4\nq = 3\ngamma = 0.3\nrounds = 1\n{key} = x\n")
            assert run("sample", "--config", str(cfg)) == 1
            assert capsys.readouterr().err == f"error: {cfg}:6: unknown key {key!r}\n"

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


# A base run of each command, and two values for each flag that takes one.
# A flag's value replaces the base's; --graph drops --gen and --gen-args,
# --alpha drops --q, and --eps drops --rounds, which would leave it unread.
FLAG_BASES = {
    "sample": {"--gen": "cycle", "--gen-args": "n=3", "--q": "6", "--gamma": "0.1", "--rounds": "3"},
    "exact": {"--gen": "cycle", "--gen-args": "n=3", "--q": "6", "--gamma": "0.1"},
    "couple": {"--gen": "cycle", "--gen-args": "n=3", "--q": "6", "--gamma": "0.1", "--trials": "20"},
    "analyze": {"--alphas": "2.5,3"},
}
FLAG_VALUES = {
    "--graph": ("../c4.txt", "../p3.txt"), "--gen": ("cycle", "path"), "--gen-args": ("n=3", "n=4"),
    "--q": ("6", "7"), "--alpha": ("2.5", "3"), "--seed": ("1", "2"), "--gamma": ("0.1", "auto"),
    "--out": ("a.txt", "b.txt"), "--format": ("csv", "json"), "--rounds": ("2", "5"), "--eps": ("0.5", "0.1"),
    "--init": ("random", "greedy"), "--trace": ("t1.csv", "t2.csv"), "--max-rounds": ("3", "2000"),
    "--tv-out": ("tv1.csv", "tv2.csv"), "--trials": ("10", "20"),
    "--pair-sampler": ("proper_random", "uniform_random"), "--alphas": ("3", "2.5,4"), "--delta-max": ("3", "2"),
    "--mix-n": ("50", "100"), "--table-out": ("g1.csv", "g2.csv"),
}
FLAG_DROPS = {"--graph": ("--gen", "--gen-args"), "--alpha": ("--q",), "--eps": ("--rounds",)}
# exact reads its seed only through a random graph.
FLAG_BASE_OVERRIDES = {("exact", "--seed"): {"--gen": "erdos_renyi", "--gen-args": "n=4,p=0.5"}}


def _value_flags(command):
    parser = cli._build_parser()[1][command]
    return [action.option_strings[0] for action in parser._actions
            if action.option_strings and action.nargs != 0 and action.dest != "config"]


class TestFlagsAndConfigLines:
    @pytest.fixture
    def outputs(self, tmp_path, monkeypatch, capsys):
        """Runs a command in a new directory, with optional config lines; returns code, stdout, stderr and files."""
        (tmp_path / "c4.txt").write_text("0 1\n1 2\n2 3\n3 0\n")
        (tmp_path / "p3.txt").write_text("0 1\n1 2\n")
        runs = itertools.count()

        def go(argv, config=None):
            cwd = tmp_path / f"run{next(runs)}"
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            if config is not None:
                (tmp_path / "run.cfg").write_text(config)
                argv = [*argv, "--config", str(tmp_path / "run.cfg")]
            code = run(*argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err, {p.name: read(p) for p in sorted(cwd.iterdir())}

        return go

    def test_every_flag_that_takes_a_value_is_covered(self):
        assert sorted({flag for command in FLAG_BASES for flag in _value_flags(command)}) == sorted(FLAG_VALUES)

    @pytest.mark.parametrize("command,flag", [(c, f) for c in FLAG_BASES for f in _value_flags(c)])
    def test_config_line_equals_flag_and_flag_wins(self, outputs, command, flag):
        base = {**FLAG_BASES[command], **FLAG_BASE_OVERRIDES.get((command, flag), {})}
        kept = {k: v for k, v in base.items() if k != flag and k not in FLAG_DROPS.get(flag, ())}
        argv = [command, *(arg for item in kept.items() for arg in item)]
        value, other = FLAG_VALUES[flag]
        key = flag[2:]
        by_flag = outputs([*argv, flag, value])
        assert by_flag[0] == 0 and by_flag != outputs([*argv, flag, other])
        assert outputs(argv, f"{key} = {value}\n") == by_flag
        assert outputs([*argv, flag, value], f"{key} = {other}\n") == by_flag


GRID = ("--gen", "grid2d", "--gen-args", "rows=20,cols=20", "--alpha", "3", "--gamma", "auto", "--seed", "1")
ER = ("--gen", "erdos_renyi", "--gen-args", "n=200,p=0.03", "--q", "16", "--gamma", "0.5", "--seed", "202")
C5 = ("--gen", "cycle", "--gen-args", "n=5", "--q", "5", "--gamma", "auto")

# sha256 of the primary output and of the side file (--trace or --tv-out),
# recorded before apply_proposals resolved only the marked nodes' edges.
GOLDEN_RUNS = {
    "sample-grid-zeros": (("sample", *GRID, "--init", "zeros"), "--trace",
        "a2010f45a342d556b9c8ef71f2980a1b15f9f0d306d6ea4f9565d19962609c16",
        "145c6ca92b6ae162ed617179d0c2ce75e50ffc0ea063cf6f54c784d2461e9cdb"),
    "sample-grid-greedy": (("sample", *GRID, "--init", "greedy"), "--trace",
        "d917bd26ce847524daa7faf1b2867744c2f9124e24c4571d9ad9f64db2574024",
        "5b0b5849ed63b01f8140919f4d650cc46039c87feb1cc3b928ef5b06ad50987e"),
    "sample-grid-random": (("sample", *GRID, "--init", "random"), "--trace",
        "abb545abc1a82f0d9e18eb0bddfe14260d29c97c74bb88a96a7aa068595ced87",
        "8feb4ce4a7db973c843f1f588daef2e83b4d869e4b603e4fafe891f37a4f4fa2"),
    "sample-er-zeros": (("sample", *ER, "--rounds", "300", "--init", "zeros"), "--trace",
        "639439841d59249882cd7c8c3175bc6b4060dc2172f6fffb5b7a1a9b4c22ed3a",
        "b3c8c9e41323f66fd865783d385332fdd49ecf4452ced4779fa2a3ce2a61d609"),
    "sample-er-greedy": (("sample", *ER, "--rounds", "300", "--init", "greedy"), "--trace",
        "6409fa5cb701cb3388094b8829b4e0e51b8c708eddb675a0586156edc3850071",
        "3d07257cb2d4e16846a3cfea95acc2b4ce0587c47213c19d251ba3a919acf473"),
    "sample-er-random": (("sample", *ER, "--rounds", "300", "--init", "random"), "--trace",
        "2c003c8db41da41f29aa7a27f861898107fad5534f397383fc4c7d8a834a98a9",
        "83762759079100f0f099dfa8f29bbff459d0af522942eb8938c18c33bf96d407"),
    "sample-c5-zeros": (("sample", *C5, "--init", "zeros"), "--trace",
        "d746f8faf4d04457b31719920a683416bb5e7aced6da5059bcd0a95942501add",
        "3d0d79a41deafa15f9c588ebf5a46769ecda2100890c5df78af7d3a25cdf497c"),
    "sample-c5-greedy": (("sample", *C5, "--init", "greedy"), "--trace",
        "56934affccb22a658785633edba0d4819f15e01a92f26dbebcbc8675b2ea53db",
        "c63fc639f61e52050e71fe9ac996bc151a278236bfad0bb198d1ab41e0aee5bb"),
    "sample-c5-random": (("sample", *C5, "--init", "random"), "--trace",
        "c9a336faa1f6448fd3ad88076de26494790318457ced6b069cd64a57655bec6e",
        "b62dbfc28cdcd6378d70529d825867f47d2d985d1d49c1aad45f825cdc9ab7db"),
    "couple-grid": (("couple", *GRID, "--trials", "300"), None,
        "6627c563fe0eb9501a72c34c610eeaa381ff8877ca79c95bc04e9f8dfa22ba15", None),
    "couple-er": (("couple", *ER, "--trials", "300"), None,
        "e1a1169106e0cd15ac6469d2a3eac336e57c5b8bfc1b7b3769181ce972b6de11", None),
    "couple-c5-proper": (("couple", *C5, "--trials", "300", "--pair-sampler", "proper_random"), None,
        "379f08fe8606aac477249432deaf8a781ef276b234fcb47f55399b1101abf8de", None),
    # q = 4 keeps the dense matrix small; the run propagates one start per
    # orbit under rotations, reflections and color relabelling.
    "exact-c5": (("exact", "--gen", "cycle", "--gen-args", "n=5", "--q", "4", "--gamma", "0.3"), "--tv-out",
        "de7c11fba888a76ffadf787cc2931b07abc2f0eecb5f6374dc2a77a643fe5380",
        "a9be1beee227c121b4b1ae2800858946cc2a9f2ddfe9f9a760e39fc36a2f2a96"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_stdout_and_files_match_recorded_bytes(self, tmp_path, capsys, name):
        argv, side_flag, out_digest, side_digest = GOLDEN_RUNS[name]
        assert run(*argv) == 0
        stdout = capsys.readouterr().out.encode()
        out, side = tmp_path / "out", tmp_path / "side"
        extra = (side_flag, str(side)) if side_flag else ()
        assert run(*argv, "--out", str(out), *extra) == 0
        assert capsys.readouterr().out == ""
        assert read(out) == stdout
        assert _sha(stdout) == out_digest
        if side_flag:
            assert _sha(read(side)) == side_digest
