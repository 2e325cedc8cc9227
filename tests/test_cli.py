import contextlib
import io
import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from dirhopset import cli
from dirhopset.experiment import (ExperimentConfig, ExperimentError,
                                  read_hopset, run_experiment, write_hopset)
from dirhopset.graph import EdgeSet, Graph, load_graph, save_graph
from dirhopset.hopset import hopset_unweighted, hopset_weighted
from dirhopset.parallel import phopset
from dirhopset.params import OVERRIDES, derive_params


class TestGen:
    def test_writes_graph(self, tmp_path):
        out = str(tmp_path / "g.txt")
        assert cli.main(["gen", "--family", "path", "--n", "6",
                         "--out", out]) == 0
        g = load_graph(out)
        assert g.n == 6 and g.m == 5

    def test_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        args = ["gen", "--family", "random-gnm", "--n", "30", "--m", "90",
                "--seed", "4"]
        cli.main(args + ["--out", a])
        cli.main(args + ["--out", b])
        assert open(a).read() == open(b).read()

    def test_stdout_equals_out_file(self, tmp_path, capsys):
        out = str(tmp_path / "g.txt")
        args = ["gen", "--family", "random-gnm", "--n", "30", "--m", "90",
                "--max-weight", "5", "--seed", "4"]
        cli.main(args + ["--out", out])
        cli.main(args)
        assert capsys.readouterr().out == open(out).read()


class TestBuildVerify:
    def test_build_path_exit_zero(self, tmp_path):
        out = str(tmp_path / "h.txt")
        report = str(tmp_path / "r.json")
        code = cli.main(["build", "--family", "path", "--n", "32",
                         "--epsilon", "0", "--mode", "practical",
                         "--lambda", "1", "--seed", "3",
                         "--out", out, "--report", report])
        assert code == 0
        rep = json.loads(open(report).read())
        assert rep["ok"] is True
        assert rep["max_ratio"] == 1.0
        sidecar = json.loads(open(out + ".json").read())
        assert sidecar["n"] == 32
        assert sidecar["edge_count"] == len(read_hopset(out))

    def test_verify_roundtrip(self, tmp_path):
        graph = str(tmp_path / "g.txt")
        out = str(tmp_path / "h.txt")
        cli.main(["gen", "--family", "path", "--n", "24", "--out", graph])
        cli.main(["build", "--graph", graph, "--epsilon", "0",
                  "--mode", "practical", "--lambda", "1", "--out", out])
        assert cli.main(["verify", "--graph", graph, "--hopset", out,
                         "--epsilon", "0"]) == 0

    @pytest.mark.parametrize("argv", [
        ["--family", "path", "--n", "1"],
        ["--family", "path", "--n", "5", "--k", "1", "--lambda", "0"],
        ["--family", "path", "--n", "5", "--mode", "paper",
         "--shortcut-levels", "3"]])
    def test_verify_derives_no_build_params(self, tmp_path, argv):
        hopset = tmp_path / "h.txt"
        hopset.write_text("")
        assert cli.main(["verify", "--hopset", str(hopset)] + argv) == 0

    def test_corrupted_hopset_rejected(self, tmp_path):
        graph = str(tmp_path / "g.txt")
        bad = str(tmp_path / "bad.txt")
        cli.main(["gen", "--family", "path", "--n", "10", "--out", graph])
        with open(bad, "w") as fh:
            fh.write("0 9 1.0\n")  # weight far below the true distance
        assert cli.main(["verify", "--graph", graph, "--hopset", bad,
                         "--epsilon", "0"]) != 0

    def test_hopset_in_input_units(self, tmp_path):
        graph, out = str(tmp_path / "g.txt"), str(tmp_path / "h.txt")
        with open(graph, "w") as fh:
            fh.write("3 2\n0 1 0.5\n1 2 0.5\n")
        assert cli.main(["build", "--graph", graph, "--algorithm",
                         "weighted", "--out", out,
                         "--verify", "all-pairs"]) == 0
        assert open(out).read() == "0 2 1.0\n"
        assert cli.main(["verify", "--graph", graph, "--hopset", out]) == 0
        with open(out, "w") as fh:
            fh.write("0 2 0.9\n")  # lighter than the distance 1.0
        assert cli.main(["verify", "--graph", graph, "--hopset", out]) == 1

    def test_report_and_pairs_in_input_units(self, tmp_path):
        graph, hopset = str(tmp_path / "g.txt"), str(tmp_path / "h.txt")
        report, pairs = str(tmp_path / "r.json"), str(tmp_path / "p.csv")
        with open(graph, "w") as fh:
            fh.write("3 2\n0 1 0.5\n1 2 0.5\n")
        assert cli.main(["build", "--graph", graph, "--algorithm",
                         "weighted", "--csv", pairs]) == 0
        rows = open(pairs).read().splitlines()
        assert "0,1,0.5,0.5,1.0" in rows and "0,2,1.0,1.0,1.0" in rows
        with open(hopset, "w") as fh:
            fh.write("0 2 0.9\n")  # lighter than the distance 1.0
        assert cli.main(["verify", "--graph", graph, "--hopset", hopset,
                         "--report", report, "--csv", pairs]) == 1
        edge, pair = json.loads(open(report).read())["validity_violations"]
        assert (edge["weight"], edge["distance"]) == (0.9, 1.0)
        assert (pair["beta_dist"], pair["distance"]) == (0.9, 1.0)
        assert "0,2,1.0,0.9,0.9" in open(pairs).read().splitlines()

    @pytest.mark.parametrize("algorithm", ["weighted", "parallel",
                                           "unweighted"])
    def test_api_equals_cli(self, tmp_path, algorithm):
        # the same hopset, in the same units, from the API and the CLI
        rng = random.Random(30)
        weights = [1.0] if algorithm == "unweighted" else \
            [0.3, 0.7, 1.1, 2.9]
        edges = [(rng.randrange(30), rng.randrange(30), rng.choice(weights))
                 for _ in range(90)]
        g = Graph(30, edges)
        epsilon = 0.5 if algorithm == "parallel" else 0.0
        params = derive_params(30, epsilon, 2, 1, "practical")
        if algorithm == "parallel":
            h = phopset(g, params, 0.2, 3, beta=4.0, sweeps=2)
        else:
            driver = hopset_weighted if algorithm == "weighted" \
                else hopset_unweighted
            h = driver(g, params, 3)
        graph, out = str(tmp_path / "g.txt"), str(tmp_path / "h.txt")
        save_graph(g, graph)
        assert cli.main(["build", "--graph", graph, "--algorithm", algorithm,
                         "--epsilon", str(epsilon), "--mode", "practical",
                         "--lambda", "1", "--seed", "3", "--delta", "0.2",
                         "--beta", "4", "--sweeps", "2", "--ratio-bound",
                         "3", "--out", out]) == 0
        assert len(h) > 0
        assert open(out).read() == "".join(
            f"{u} {v} {w!r}\n" for u, v, w in h)

    def test_rerun_byte_identical(self, tmp_path):
        outs, reports = [], []
        for name in ("1", "2"):
            out = str(tmp_path / f"h{name}.txt")
            report = str(tmp_path / f"r{name}.json")
            cli.main(["build", "--family", "random-gnm", "--n", "40",
                      "--m", "120", "--epsilon", "0", "--mode", "practical",
                      "--lambda", "1", "--seed", "9",
                      "--out", out, "--report", report])
            outs.append(open(out).read())
            reports.append(open(report).read())
        assert outs[0] == outs[1]
        assert reports[0] == reports[1]

    def test_parallel_algorithm(self, tmp_path):
        out = str(tmp_path / "h.txt")
        code = cli.main(["build", "--family", "path", "--n", "24",
                         "--epsilon", "0.5", "--mode", "practical",
                         "--lambda", "1", "--algorithm", "parallel",
                         "--delta", "0.2", "--beta", "4", "--sweeps", "2",
                         "--ratio-bound", "3.0", "--out", out])
        assert code == 0
        sidecar = json.loads(open(out + ".json").read())
        assert sidecar["algorithm"] == "parallel"
        assert sidecar["delta"] == 0.2


class TestBench:
    def test_times_build_and_verify_apart(self, tmp_path, capsys):
        out_csv = str(tmp_path / "bench.csv")
        assert cli.main(["bench", "--family", "path", "--sizes", "8,12",
                         "--epsilon", "0", "--mode", "practical",
                         "--lambda", "1", "--out-csv", out_csv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["n=8", "n=12"]
        assert all("build_seconds=" in line and "verify_seconds=" in line
                   for line in lines)
        rows = open(out_csv).read().splitlines()
        assert rows[0] == ("n,hopset_size,max_ratio,build_seconds,"
                           "verify_seconds")
        for row, n in zip(rows[1:], (8, 12)):
            fields = row.split(",")
            assert int(fields[0]) == n and float(fields[2]) == 1.0
            assert float(fields[3]) >= 0 and float(fields[4]) >= 0


class TestConfig:
    def test_json_config_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "path", "n": 16,
                                   "epsilon": 0.0, "mode": "practical",
                                   "lam": 1, "seed": 1}))
        report = str(tmp_path / "r.json")
        code = cli.main(["build", "--config", str(cfg), "--n", "20",
                         "--report", report])
        assert code == 0
        # the flag wins over the config file
        rep = json.loads(open(report).read())
        assert rep["pairs_checked"] == 20 * 21 // 2

    def test_key_value_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family = path\nn = 12\nepsilon = 0\n"
                       "mode = practical\nlam = 1\n")
        assert cli.main(["build", "--config", str(cfg)]) == 0

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "path", "n": 8, "bogus": 1}))
        assert cli.main(["build", "--config", str(cfg)]) == 2

    def test_flags_over_config_overrides(self, tmp_path):
        # each flag lands in the field or override named by its dest,
        # over the config file's value; the file's other overrides stay
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": "path", "n": 8, "lam": 1, "seed": 4,
            "algorithm": "weighted", "overrides": {"L": 3, "c": 0.5}}))
        out = str(tmp_path / "h.txt")
        assert cli.main(["build", "--config", str(cfg), "--shortcut-levels",
                         "1", "--repetitions", "2", "--scale-range", "1:3",
                         "--seed", "5", "--out", out]) == 0
        sidecar = json.loads(open(out + ".json").read())
        assert {k: sidecar["params"][k] for k in ("L", "c", "repetitions",
                                                  "lam")} == \
            {"L": 1, "c": 0.5, "repetitions": 2, "lam": 1}
        assert sidecar["scale_range"] == [1, 3] and sidecar["seed"] == 5
        assert sidecar["algorithm"] == "weighted"


class TestRunExperiment:
    def test_trace_counters_present(self):
        cfg = ExperimentConfig(family="path", n=24, epsilon=0.0,
                               mode="practical", lam=1)
        report, code = run_experiment(cfg)
        assert code == 0
        assert report.per_level_counters  # at least level 0 recorded

    def test_verify_only_mode(self, tmp_path):
        out = str(tmp_path / "h.txt")
        write_hopset(out, EdgeSet([(0, 2, 2.0)]), {"n": 3})
        cfg = ExperimentConfig(family="path", n=3, epsilon=0.0,
                               algorithm=None, hopset_path=out)
        report, code = run_experiment(cfg)
        assert code == 0
        assert report.hopset_size == 1

    def test_read_hopset_skips_comments_and_keeps_lighter(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# hopset\n\n2 0 4.0\n0 1 3.0\n  \n# 2 0 0.5\n"
                        "2 0 1.5\n0 1 3.5\n")
        h = read_hopset(str(path))
        assert list(h) == [(0, 1, 3.0), (2, 0, 1.5)]

    def test_needs_algorithm_or_hopset(self):
        cfg = ExperimentConfig(family="path", n=4, algorithm=None)
        with pytest.raises(ExperimentError):
            run_experiment(cfg)

    def test_csv_output(self, tmp_path):
        csv_path = str(tmp_path / "pairs.csv")
        cfg = ExperimentConfig(family="path", n=8, epsilon=0.0,
                               mode="practical", lam=1, csv_path=csv_path)
        run_experiment(cfg)
        lines = open(csv_path).read().strip().splitlines()
        assert lines[0] == "source,target,true_dist,beta_dist,ratio"
        assert len(lines) == 1 + 8 * 9 // 2

class TestMalformedInput:
    """Malformed files and flags end in exit 2 with a JSON error."""

    def expect_error(self, capsys, argv, fragment):
        assert cli.main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert fragment in err["error"]

    @pytest.mark.parametrize("w", ["nan", "inf"])
    def test_non_finite_weight(self, tmp_path, capsys, w):
        graph = tmp_path / "g.txt"
        graph.write_text(f"3 2\n0 1 1.0\n1 2 {w}\n")
        self.expect_error(capsys, ["build", "--graph", str(graph),
                                   "--mode", "practical", "--lambda", "1",
                                   "--algorithm", "weighted"], "graph:")

    @pytest.mark.parametrize("line", ["0 7 3.0", "-1 2 3.0", "0 4 nan",
                                      "0 4 -1", "0 4 x", "0 4", "0 4 1.0 9",
                                      f"{2 ** 70} 0 1.0"])
    def test_bad_hopset_line(self, tmp_path, capsys, line):
        graph, bad = str(tmp_path / "g.txt"), str(tmp_path / "h.txt")
        cli.main(["gen", "--family", "path", "--n", "5", "--out", graph])
        with open(bad, "w") as fh:
            fh.write(line + "\n")
        self.expect_error(capsys, ["verify", "--graph", graph,
                                   "--hopset", bad], "hopset:")

    def test_non_utf8_hopset(self, tmp_path, capsys):
        graph, bad = str(tmp_path / "g.txt"), tmp_path / "h.txt"
        cli.main(["gen", "--family", "path", "--n", "5", "--out", graph])
        bad.write_bytes(b"0 1 1.0\n\xff 2 3.0\n")
        self.expect_error(capsys, ["verify", "--graph", graph,
                                   "--hopset", str(bad)], "hopset:")

    @pytest.mark.parametrize("flags", [["--beta", "0"], ["--beta", "-3"],
                                       ["--delta", "-1"],
                                       ["--delta", "1e-310", "--beta", "1"]])
    def test_bad_rounding(self, capsys, flags):
        self.expect_error(capsys, ["build", "--family", "path", "--n", "8",
                                   "--algorithm", "parallel",
                                   "--epsilon", "0.5"] + flags, "params:")

    @pytest.mark.parametrize("text", [
        "{bad json", None,
        pytest.param('{"k": 1%s}' % ("0" * 5000), id="json-int-5001-digits"),
        pytest.param("k = 1%s\n" % ("0" * 5000), id="key-int-5001-digits")])
    def test_bad_config_file(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        self.expect_error(capsys, ["build", "--config", str(cfg)],
                          "config:")

    @pytest.mark.parametrize("name, text", [
        ("cfg.json", '{"delta": "x", "algorithm": "parallel", "n": 16}'),
        ("cfg.txt", "family = path\nn = 8\nscale_range = 5:6\n"),
        ("cfg.json", '{"n": true}'),
        ("cfg.json", '{"n": 8.0}'),
        ("cfg.json", '{"scale_range": [1, 2, 3]}'),
        ("cfg.json", '{"overrides": [1]}'),
        ("cfg.json", '{"overrides": {"repetitions": 1.5}}'),
        ("cfg.json", '{"overrides": {"rho_min": null}}')])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, name, text):
        cfg = tmp_path / name
        cfg.write_text(text)
        self.expect_error(capsys, ["build", "--config", str(cfg)],
                          "config:")

    @pytest.mark.parametrize("overrides, fragment", [
        ('{"c": NaN}', "params: c must be finite"),
        ('{"interval_count": 0}', "params: interval_count must be >= 1"),
        ('{"rho_min": Infinity}', "params: need 1 < rho_min"),
        pytest.param('{"interval_width": 1%s}' % ("0" * 399),
                     "config: overrides.interval_width must be at most",
                     id="interval_width-400-digits"),
        pytest.param('{"interval_count": 1%s, "interval_width": 1%s}'
                     % ("0" * 200, "0" * 200),
                     "params: need 1 < rho_min and rho_max <= 2^53",
                     id="interval-span-401-digits")])
    def test_config_value_without_meaning(self, tmp_path, capsys, overrides,
                                          fragment):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"family": "path", "n": 8, "overrides": %s}'
                       % overrides)
        self.expect_error(capsys, ["build", "--config", str(cfg)], fragment)

    def test_config_values_of_right_type(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": "path", "n": 8, "epsilon": 0, "mode": "practical",
            "lam": 1, "scale_range": [1, 3], "beta": None,
            "overrides": {"L": 1, "c": 0}}))
        assert cli.main(["build", "--config", str(cfg)]) == 0

    def test_unknown_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": "path", "n": 8, "algorithm": "weighted",
            "overrides": {"rho_mn": 99, "Lx": 7}}))
        self.expect_error(capsys, ["build", "--config", str(cfg)],
                          "config: unknown overrides ['Lx', 'rho_mn']")
        with pytest.raises(ExperimentError, match="unknown overrides"):
            ExperimentConfig.from_dict({"overrides": {"n": 5}})

    @pytest.mark.parametrize("text", [
        "100000000000000000000 1\n0 99999999999999999999 1\n",
        "-100000000000000000000 0\n", "9223372036854775808 0\n"])
    def test_graph_ids_beyond_64_bits(self, tmp_path, capsys, text):
        graph = tmp_path / "g.txt"
        graph.write_text(text)
        self.expect_error(capsys, ["build", "--graph", str(graph),
                                   "--algorithm", "weighted"],
                          "n does not fit in 64 bits")

    def test_graph_unfit_for_driver(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("3 2\n0 1 0.5\n1 2 2.0\n")
        self.expect_error(capsys, ["build", "--graph", str(graph),
                                   "--algorithm", "unweighted"], "build:")

    VERIFY = ["verify", "--family", "path", "--n", "8", "--hopset", "{h}",
              "--verify-beta", "1"]

    @pytest.mark.parametrize("argv, fragment", [
        (["bench", "--family", "path", "--sizes", "8,x"],
         "config: bad --sizes '8,x'"),
        (["gen", "--family", "path", "--n", "-4"], "graph: n must be >= 1"),
        (["gen", "--family", "cycle", "--n", "1"], "graph: cycle needs"),
        (["build", "--family", "path", "--n", "8", "--epsilon", "nan"],
         "epsilon must be finite"),
        (["build", "--family", "path", "--n", "8", "--epsilon", "inf",
          "--verify", "sampled:1"], "epsilon must be finite"),
        (["build", "--family", "path", "--n", "8", "--epsilon", "-1"],
         "epsilon must be finite and >= 0"),
        (["build", "--family", "path", "--n", "8", "--verify-beta", "0"],
         "verify: beta must be >= 1"),
        (VERIFY + ["--epsilon", "nan"], "verify: epsilon must be finite"),
        (VERIFY + ["--ratio-bound", "nan"],
         "verify: ratio bound must be finite"),
        (VERIFY + ["--ratio-bound", "inf"],
         "verify: ratio bound must be finite"),
        (VERIFY + ["--verify-beta", "0"], "verify: beta must be >= 1"),
        (VERIFY + ["--verify-beta", "-1"], "verify: beta must be >= 1"),
        (["build", "--graph", "{tiny}", "--algorithm", "weighted"],
         "build: weight range overflows a float"),
        (["build", "--graph", "{tiny}", "--algorithm", "parallel",
          "--epsilon", "0.5"], "build: weight range overflows a float"),
        (["build", "--graph", "{huge}", "--algorithm", "weighted"],
         "build: weight range overflows a float"),
        (["build", "--graph", "{huge}", "--algorithm", "parallel",
          "--epsilon", "0.5"], "build: weight range overflows a float"),
        (["verify", "--graph", "{huge}", "--hopset", "{empty}"],
         "verify: weight range overflows a float"),
        (["build", "--family", "path", "--n", "8", "--algorithm",
          "weighted", "--scale-range", "0:1100"],
         "build: weight range overflows a float"),
        (["build", "--family", "path", "--n", "8", "--mode", "paper",
          "--shortcut-levels", "3"], "params: paper mode derives ['L']"),
        (["build", "--family", "path", "--n", "8", "--repetitions", "-3"],
         "params: repetitions must be >= 1"),
        (["build", "--graph", "{negative}"], "graph: {negative}:1: n must "
                                             "be >= 0"),
        (["build", "--family", "path", "--n", "8", "--algorithm", "parallel",
          "--epsilon", "0.5", "--sweeps", "-1"],
         "params: sweeps must be >= 1"),
        (["build", "--family", "path", "--n", "8", "--algorithm", "parallel",
          "--epsilon", "0.5", "--sweeps", "0"],
         "params: sweeps must be >= 1"),
        (["build", "--family", "path", "--n", "8", "--k", "9" * 340],
         "config: k must be at most 1.7976931348623157e+308 in "
         "magnitude, got an integer of 1130 bits"),
        (["build", "--family", "path", "--n", "8", "--repetitions",
          "9" * 340], "config: overrides.repetitions must be at most"),
        (["build", "--family", "path", "--n", "8", "--mode", "paper",
          "--lambda", "1" + "0" * 30],
         "params: paper mode's constants overflow a float"),
        (["build", "--family", "path", "--n", "8", "--mode", "paper",
          "--k", "9" * 301],
         "params: paper mode's constants overflow a float"),
        (["build", "--family", "path", "--n", "8", "--algorithm", "parallel",
          "--epsilon", "0.5", "--lambda", "9" * 301],
         "params: the default beta overflows a float"),
        (["gen", "--family", "random-gnm", "--n", "5", "--m", "-3"],
         "graph: m must be >= 0, got -3"),
        (["gen", "--family", "layered-dag", "--n", "9", "--m", "-1"],
         "graph: m must be >= 0, got -1"),
        # outputs into a directory that does not exist
        (["gen", "--family", "path", "--n", "4", "--out", "{missing}/g.txt"],
         "output: [Errno 2] No such file or directory: '{missing}/g.txt'"),
        (["build", "--family", "path", "--n", "4", "--out",
          "{missing}/h.txt"], "output: [Errno 2]"),
        (["build", "--family", "path", "--n", "4", "--report",
          "{missing}/r.json"], "output: [Errno 2]"),
        (["build", "--family", "path", "--n", "4", "--csv",
          "{missing}/p.csv"], "output: [Errno 2]"),
        (["bench", "--family", "path", "--sizes", "4", "--out-csv",
          "{missing}/b.csv"], "output: [Errno 2]")])
    def test_malformed_flag(self, tmp_path, capsys, argv, fragment):
        # exit 2, one JSON object on stderr, no traceback
        files = {"h": tmp_path / "h.txt", "tiny": tmp_path / "g.txt",
                 "huge": tmp_path / "huge.txt", "empty": tmp_path / "e.txt",
                 "negative": tmp_path / "n.txt",
                 "missing": tmp_path / "missing"}
        files["h"].write_text("0 7 100.0\n")
        files["tiny"].write_text("3 2\n0 1 5e-324\n1 2 1.0\n")
        # 1e308 + 1e308 overflows: the path 0 -> 1 -> 2 has no float length
        files["huge"].write_text("3 2\n0 1 1e308\n1 2 1e308\n")
        files["empty"].write_text("")
        files["negative"].write_text("-3 0\n")
        fragment = fragment.format(**files)
        argv = [a.format(**files) for a in argv]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert fragment in json.loads(err)["error"]
        assert "Traceback" not in err

    def test_verify_beta_gates_the_claim(self, tmp_path, capsys):
        # the hopset edge 0 -> 7 is far too heavy to give 1-hop paths
        # within 1 + epsilon, so the check must fail with exit 1
        hopset = tmp_path / "h.txt"
        hopset.write_text("0 7 100.0\n")
        assert cli.main(["verify", "--family", "path", "--n", "8",
                         "--hopset", str(hopset), "--verify-beta", "1"]) == 1
        assert "ratio violations: 21" in capsys.readouterr().out

    def test_bad_scale_range(self, capsys):
        self.expect_error(capsys, ["build", "--family", "path", "--n", "8",
                                   "--scale-range", "abc"], "config:")

    @pytest.mark.parametrize("spec", ["sampled:x", "sampled:0",
                                      "sampled:-2", "some"])
    def test_bad_pair_sample(self, tmp_path, capsys, spec):
        graph, out = str(tmp_path / "g.txt"), str(tmp_path / "h.txt")
        cli.main(["gen", "--family", "path", "--n", "5", "--out", graph])
        write_hopset(out, EdgeSet([(0, 2, 2.0)]), {"n": 5})
        self.expect_error(capsys, ["verify", "--graph", graph,
                                   "--hopset", out, "--verify", spec],
                          "verify:")


@pytest.fixture(scope="module")
def path5(tmp_path_factory):
    """The graph file of the path 0 -> 1 -> 2 -> 3 -> 4."""
    graph = tmp_path_factory.mktemp("fuzz") / "g.txt"
    graph.write_text("5 4\n0 1 1.0\n1 2 1.0\n2 3 1.0\n3 4 1.0\n")
    return graph


def run_cli(argv):
    """(exit code, stderr) of ``cli.main(argv)``, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


# a line that verifies on path5: u <= v, at no less than the distance
valid_lines = st.tuples(st.integers(0, 4), st.integers(0, 4),
                        st.floats(0, 10)).map(
    lambda e: (f"{min(e[:2])} {max(e[:2])} "
               f"{float(abs(e[0] - e[1])) + e[2]!r}").encode())


@st.composite
def bad_lines(draw):
    """A line that no hopset file of path5 may hold, as bytes."""
    cols = [str(draw(st.integers(0, 4))), str(draw(st.integers(0, 4))),
            repr(draw(st.floats(0, 10)))]
    at = draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["columns", "text", "weight", "id",
                                 "wide id", "bytes"]))
    if kind == "columns":
        cols = draw(st.lists(st.sampled_from(cols), min_size=1,
                             max_size=6).filter(lambda c: len(c) != 3))
    elif kind == "text":
        cols[at] = draw(st.text("abcxyz_.", min_size=1, max_size=4))
    elif kind == "weight":
        cols[2] = draw(st.sampled_from(["nan", "NaN", "inf", "-inf",
                                        "-1", "-2.5", "-1e-300"]))
    elif kind == "id":
        cols[at % 2] = str(draw(st.one_of(st.integers(5, 10 ** 6),
                                          st.integers(-10 ** 6, -1))))
    elif kind == "wide id":
        cols[at % 2] = str(draw(st.integers(2 ** 63, 2 ** 80))
                           * draw(st.sampled_from([1, -1])))
    line = " ".join(cols).encode()
    if kind == "bytes":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from(
            [b"\xff", b"\x80", b"\xc3\x28", b"\xed\xa0\x80"])) + line[at:]
    return line


class TestFuzzHopsetFile:
    """Generated hopset files through ``cli.main verify``: a malformed
    one exits 2 with one JSON line on stderr and no traceback."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(valid_lines, max_size=5), bad_lines(), st.data())
    def test_malformed_file_exits_2(self, path5, lines, bad, data):
        lines.insert(data.draw(st.integers(0, len(lines))), bad)
        hopset = path5.parent / "bad.txt"
        hopset.write_bytes(b"\n".join(lines) + b"\n")
        code, err = run_cli(["verify", "--graph", str(path5),
                             "--hopset", str(hopset)])
        assert code == 2
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert json.loads(err)["error"].startswith("hopset: ")

    @settings(max_examples=20, deadline=None)
    @given(st.lists(valid_lines, min_size=1, max_size=6))
    def test_valid_unsorted_file_with_duplicates_exits_0(self, path5,
                                                         lines):
        hopset = path5.parent / "good.txt"
        hopset.write_bytes(b"\n".join(lines + lines[::-1]) + b"\n")
        assert run_cli(["verify", "--graph", str(path5),
                        "--hopset", str(hopset)]) == (0, "")
        pairs = {tuple(line.split()[:2]) for line in lines}
        assert len(read_hopset(str(hopset))) == len(pairs)


def exits_cleanly(argv) -> None:
    """Run ``cli.main(argv)``: it must exit 0, 1 or 2 with no traceback
    on stderr, and on 2 print one JSON object with an "error" there."""
    code, err = run_cli(argv)
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert len(err.splitlines()) == 1
        assert list(json.loads(err)) == ["error"]


# weights a graph file may hold; the drivers refuse two 1e308 edges in
# a row, and 5e-324 beside 1 as a range
WEIGHTS = ["1", "2.5", "0", "-0.0", "1e308", "5e-324"]
BUILDS = [["build", "--algorithm", "unweighted"],
          ["build", "--algorithm", "weighted"],
          ["build", "--algorithm", "parallel", "--epsilon", "0.5"]]
VERIFY = ["verify", "--hopset", "{empty}"]


@st.composite
def graph_files(draw):
    """A graph file of at most 8 vertices as bytes, with at most one
    fault: a bad header, id, column count, weight or edge count, or a
    non-UTF-8 byte.  Its good weights include 1e308 and 5e-324."""
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    weight = st.sampled_from([""] + WEIGHTS)  # "": the default weight 1
    lines = [f"{draw(vertex)} {draw(vertex)} {draw(weight)}".strip()
             for _ in range(draw(st.integers(0, 6)))]
    header = f"{n} {len(lines)}"
    fault = draw(st.sampled_from([None, None, None, "header", "id", "columns",
                                  "weight", "count", "bytes"]))
    if fault == "header":
        header = draw(st.sampled_from([f"{n}", f"{n} {len(lines)} 1",
                                       f"x {len(lines)}", f"-{n} 0",
                                       f"{2 ** 70} 0", f"{n} 1.5"]))
    elif fault == "count":
        header = f"{n} {len(lines) + draw(st.sampled_from([1, -1]))}"
    elif lines and fault in ("id", "columns", "weight"):
        at = draw(st.integers(0, len(lines) - 1))
        cols = (lines[at].split() + ["1"])[:3]
        if fault == "id":
            cols[draw(st.integers(0, 1))] = str(draw(st.sampled_from(
                [-1, n, 2 ** 70, "x"])))
        elif fault == "weight":
            cols[2] = draw(st.sampled_from(["nan", "inf", "-1", "w"]))
        else:
            cols = cols[:1] if draw(st.booleans()) else cols + ["7"]
        lines[at] = " ".join(cols)
    data = "\n".join([header] + lines).encode() + b"\n"
    if fault == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3\x28"])) \
            + data[at:]
    return data


GOOD = {  # config values that run a build of at most 8 vertices
    "family": ["path", "grid", "random-gnm", "layered-dag"],
    "n": [2, 5, 8], "max_weight": [1, 4], "seed": [0, 3],
    "mode": ["practical", "paper"], "epsilon": [0, 0.5], "k": [2, 3],
    "lam": [1, 2], "algorithm": ["unweighted", "weighted", "parallel"],
    "delta": [0.05, 0.2], "beta": [None, 4.0], "sweeps": [None, 1, 2],
    "scale_range": [None, [0, 3]], "verify": ["all-pairs", "sampled:2"],
    "verify_beta": [None, 1, 3], "ratio_bound": [None, 2.0]}
GOOD_OVERRIDES = {"L": [0, 1, 3], "c": [0, 0.5], "repetitions": [1, 2],
                  "interval_count": [1, 3], "interval_width": [2, 3],
                  "rho_min": [2.0, 3]}
BAD = ["x", [1], {}, True, 1.5, math.nan, math.inf, -math.inf, 1e308,
       -1e308, -1, 0, None]


@st.composite
def configs(draw):
    """A config's JSON text (NaN and Infinity allowed) for a graph of at
    most 8 vertices, with up to two faults: a value of the wrong type,
    non-finite or out of range, at the top or in ``overrides``; an
    unknown key or override; or overrides in paper mode."""
    def pick(table):
        keys = draw(st.lists(st.sampled_from(sorted(table)), unique=True,
                             max_size=len(table)))
        return {key: draw(st.sampled_from(table[key])) for key in keys}

    cfg = {"n": 6, **pick(GOOD)}
    overrides = cfg["overrides"] = pick(GOOD_OVERRIDES)
    for fault in draw(st.lists(st.sampled_from(
            ["value", "override", "key", "unknown override", "paper"]),
            max_size=2)):
        if fault == "value":
            cfg[draw(st.sampled_from(sorted(GOOD)))] = draw(
                st.sampled_from(BAD))
        elif fault == "override":
            overrides[draw(st.sampled_from(OVERRIDES))] = draw(
                st.sampled_from(BAD))
        elif fault == "key":
            cfg[draw(st.sampled_from(["bogus", "rho_max", "L"]))] = 1
        elif fault == "unknown override":
            overrides[draw(st.sampled_from(["rho_max", "Lx"]))] = 8.0
        else:
            cfg["mode"] = "paper"
            overrides.setdefault("L", 1)
    return json.dumps(cfg)


class TestFuzzGraphFileAndConfig:
    """Generated graph files and configs through ``cli.main``: every run
    exits 0, 1 or 2, and exit 2 prints one JSON object on stderr."""

    @settings(max_examples=60, deadline=None)
    @given(graph_files(), st.sampled_from(BUILDS + [VERIFY]))
    @example(b"3 2\n0 1 1e308\n1 2 1e308\n", BUILDS[1])
    @example(b"3 2\n0 1 1e308\n1 2 1e308\n", BUILDS[2])
    @example(b"3 2\n0 1 1e308\n1 2 1e308\n", VERIFY)
    def test_graph_file(self, tmp_path_factory, data, command):
        tmp = tmp_path_factory.mktemp("graph")
        files = {"empty": tmp / "e.txt"}
        files["empty"].write_text("")
        (tmp / "g.txt").write_bytes(data)
        exits_cleanly([a.format(**files) for a in command]
                      + ["--graph", str(tmp / "g.txt")])

    @settings(max_examples=60, deadline=None)
    @given(configs(), st.sampled_from([["build"], VERIFY]))
    @example('{"n": 6, "overrides": {"c": NaN}}', ["build"])
    @example('{"n": 6, "mode": "paper", "overrides": {"L": 1}}', ["build"])
    def test_config(self, tmp_path_factory, text, command):
        tmp = tmp_path_factory.mktemp("config")
        files = {"empty": tmp / "e.txt"}
        files["empty"].write_text("")
        (tmp / "cfg.json").write_text(text)
        exits_cleanly([a.format(**files) for a in command]
                      + ["--config", str(tmp / "cfg.json")])
