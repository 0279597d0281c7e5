import functools
import itertools
import json
import operator
import random
from pathlib import Path

import pytest

from tqograph import analysis, cli, gf2, oracle, stabilizer
from tqograph.cli import main
from tqograph.graphs import Graph

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out)


class TestGen:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, ["gen", "star", "4"])
        assert code == 0
        assert out == "4 3\n0 1\n0 2\n0 3\n"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        code, out, _ = run(capsys, ["gen", "toric", "3", "--out", str(path)])
        assert code == 0
        assert path.read_text().splitlines()[0] == "18 30"
        assert "wrote 18 vertices, 30 edges" in out

    @pytest.mark.parametrize("argv, why", [
        (["toric", "2", "--open-boundary"],
         "periodic=False (--open-boundary) applies only to lattice, not toric"),
        (["star", "3", "--graph-file", "/nonexistent"],
         "path (--graph-file) applies only to custom, not star"),
        (["lattice", "3", "1", "--graph-file", "/nonexistent"],
         "path (--graph-file) applies only to custom, not lattice"),
        (["custom", "3", "--graph-file", "g.txt"], "custom takes 0 parameter(s), got 1"),
    ])
    def test_options_the_family_does_not_read(self, capsys, argv, why):
        code, out, err = run(capsys, ["gen"] + argv)
        assert code == 1 and out == ""
        assert err == f"error: {why}\n"

    def test_custom_round_trip(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        run(capsys, ["gen", "complete", "3", "--out", str(path)])
        code, out, _ = run(capsys, ["gen", "custom", "--graph-file", str(path)])
        assert code == 0 and out == "3 3\n0 1\n0 2\n1 2\n"

    def test_bad_family(self, capsys):
        code, _, err = run(capsys, ["gen", "nope"])
        assert code == 1 and "error:" in err


class TestCset:
    def test_star(self, capsys):
        code, rep = run_json(capsys, ["cset", "star", "4", "--d", "2"])
        assert code == 0
        assert rep["schema"] == "tqograph-report/1"
        assert rep["results"]["member_count"] == 6
        assert not rep["results"]["empty"]
        assert rep["results"]["zperp_dim"] == 4
        assert "0110" in rep["results"]["members"]

    def test_empty(self, capsys):
        code, rep = run_json(capsys, ["cset", "star", "4", "--d", "3"])
        assert code == 0 and rep["results"]["empty"]

    def test_truncation(self, capsys):
        code, rep = run_json(
            capsys, ["cset", "star", "4", "--d", "2", "--max-members", "2"]
        )
        assert code == 0
        assert rep["results"]["member_count"] == 2
        assert not rep["results"]["exhaustive"]

    def test_max_members_below_one(self, capsys):
        for bad in ("0", "-3"):
            code, out, err = run(
                capsys, ["cset", "star", "4", "--d", "2", "--max-members", bad]
            )
            assert code == 1 and out == ""
            assert err == f"error: need max_members >= 1, got {bad}\n"

    @pytest.mark.parametrize("argv", [
        ["toric", "4", "--d", "1"],
        ["connected_multi_star", "4", "--d", "4"],
    ])
    def test_zperp_beyond_dimension_30(self, capsys, argv):
        # Z^perp has dimension 32; the walk stops at the member limit
        code, rep = run_json(capsys, ["cset", *argv])
        assert code == 0 and rep["results"]["zperp_dim"] == 32
        assert rep["results"]["member_count"] == 1024
        assert not rep["results"]["exhaustive"]

    def test_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TQO_BUDGET_MS", "0.0001")
        code, rep = run_json(capsys, ["cset", "line_of_complete", "5", "--d", "3"])
        assert code == 2 and rep["budget_exceeded"]
        assert "time budget" in rep["results"]["error"]
        assert rep["results"] == {"error": "time budget of 0.000s exhausted"}  # no progress

    def test_z_span_dim_is_the_rank_of_z(self, capsys, tmp_path):
        # reported as n - dim Zp: by rank-nullity, the size of z_span_basis
        rng = random.Random("z-span-dim")
        path = tmp_path / "g.txt"
        for _ in range(25):
            n = rng.randint(2, 9)
            g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                     if rng.random() < 0.4])
            path.write_text(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
            d = rng.randint(1, n + 1)
            _, rep = run_json(capsys, ["cset", "custom", "--graph-file", str(path),
                                       "--d", str(d), "--max-members", "1"])
            want = len(analysis.z_span_basis(analysis.SetQuery(g, d)))
            assert rep["results"]["z_span_dim"] == want
            assert rep["results"]["zperp_dim"] == n - want


class TestDmax:
    def test_complete(self, capsys):
        code, rep = run_json(capsys, ["dmax", "complete", "8"])
        assert code == 0
        assert rep["results"]["d_max"] == 2
        assert rep["results"]["certificate"] is not None

    def test_deterministic_modulo_elapsed(self, capsys):
        _, a = run_json(capsys, ["dmax", "toric", "2"])
        _, b = run_json(capsys, ["dmax", "toric", "2"])
        a.pop("elapsed_ms")
        b.pop("elapsed_ms")
        assert a == b

    def test_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TQO_BUDGET_MS", "0.0001")
        code, rep = run_json(capsys, ["dmax", "multi_star", "4", "4"])
        assert code == 2
        assert rep["budget_exceeded"]
        assert rep["results"]["bracket"] is not None

    def test_budget_zero_stops_the_toric_5_cset(self, capsys, monkeypatch):
        monkeypatch.setenv("TQO_BUDGET_MS", "0")
        code, rep = run_json(capsys, ["cset", "toric", "5", "--d", "5"])
        assert code == 2 and rep["budget_exceeded"] and not rep["ok"]
        assert rep["results"] == {"error": "time budget of 0.000s exhausted"}

    def test_budget_stop_on_toric_8(self, capsys, monkeypatch):
        # d_max is 8, but its probes take about a second, far past the budget
        monkeypatch.setenv("TQO_BUDGET_MS", "50")
        code, rep = run_json(capsys, ["dmax", "toric", "8"])
        assert code == 2 and rep["budget_exceeded"]
        assert rep["results"]["d_max"] is None and rep["results"]["certificate"] is None
        lo, hi = rep["results"]["bracket"]
        assert 1 <= lo < 8 and hi is None

    def test_toric_4_beyond_the_dimension_cap(self, capsys):
        # Z^perp has dimension 32 > 30 at d = 1, but each walk stops early
        code, rep = run_json(capsys, ["dmax", "toric", "4"])
        assert code == 0 and rep["results"]["d_max"] == 4

    def test_empty_graph_is_an_error_line(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("0 0\n")
        code, out, err = run(capsys, ["dmax", "custom", "--graph-file", str(path)])
        assert code == 1 and out == ""
        assert err == "error: empty graph\n"

    def test_cap_flags_are_gone(self, capsys):
        for flag in ("--max-span-dim", "--max-weight", "--max-members"):
            with pytest.raises(SystemExit) as exc:
                main(["dmax", "star", "4", flag, "3"])
            assert exc.value.code == 2
        capsys.readouterr()


class TestVerify:
    def test_codeword_file_pass(self, capsys, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0110\n")
        code, rep = run_json(
            capsys, ["verify", "star", "4", "--d", "2", "--codewords", str(path)]
        )
        assert code == 0 and rep["results"]["pass"]

    def test_codeword_file_fail(self, capsys, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1000\n")
        code, rep = run_json(
            capsys, ["verify", "star", "4", "--d", "2", "--codewords", str(path)]
        )
        assert code == 1
        assert not rep["results"]["pass"]
        assert rep["results"]["witness"]

    @pytest.mark.parametrize("labels", ["0110\n", "0110\n0110\n"], ids=["once", "twice"])
    def test_out_of_range_d_is_an_error_line(self, capsys, tmp_path, labels):
        # a repeated label is no verdict on a d the graph cannot have
        path = tmp_path / "labels.txt"
        path.write_text(labels)
        code, out, err = run(
            capsys, ["verify", "star", "4", "--d", "99", "--codewords", str(path)])
        assert code == 1 and out == ""
        assert err == "error: need 1 <= d <= n+1, got d=99\n"

    def test_ldpc(self, capsys, tmp_path):
        path = tmp_path / "code.txt"
        path.write_text("111\n")
        code, rep = run_json(
            capsys,
            ["verify", "multi_star", "3", "3", "--d", "3", "--ldpc", str(path), "--m", "3"],
        )
        assert code == 0 and rep["results"]["pass"]
        assert rep["results"]["label_count"] == 1

    def test_budget_env(self, capsys, monkeypatch, tmp_path):
        # 2000 random words of the [24,18,4] shortened extended Hamming code
        # (even weight, positions xoring to zero) on the hubs: a set that is
        # not a subspace, so all 2 million pairs are walked, with about 2^18
        # distinct xors to test against W (about 10 s uncapped); the
        # deadline is checked at every pair, so the stop comes soon after
        # the 200 ms budget
        rng = random.Random("verify-budget")
        words = set()
        while len(words) < 2000:
            x = rng.getrandbits(24)
            if x and bin(x).count("1") % 2 == 0 and functools.reduce(
                    operator.xor, (i for i in range(24) if x >> i & 1), 0) == 0:
                words.add(x)
        path = tmp_path / "labels.txt"
        path.write_text("".join(
            "".join("1" if v % 4 == 0 and x >> (v // 4) & 1 else "0" for v in range(96)) + "\n"
            for x in sorted(words)))
        monkeypatch.setenv("TQO_BUDGET_MS", "200")
        code, rep = run_json(capsys, ["verify", "multi_star", "24", "4", "--d", "4",
                                      "--codewords", str(path)])
        assert code == 2 and rep["budget_exceeded"]
        assert rep["results"] == {"error": "time budget of 0.200s exhausted"}
        assert rep["elapsed_ms"] < 1200

    def test_linear_ldpc_set_tests_only_the_zero_row(self, capsys, monkeypatch, tmp_path):
        # the 2047 labels of the [16,11,4] extended Hamming code (monomials
        # of degree <= 2 in 4 variables) form a subspace with zero, so the
        # 2047 pairs with the zero label test every xor: about 0.1 s, where
        # the walk of all 2.1 million pairs outlasts the 500 ms budget
        rows = [sum(1 << x for x in range(16) if all((x >> v) & 1 for v in mono))
                for deg in range(3) for mono in itertools.combinations(range(4), deg)]
        path = tmp_path / "hamming.txt"
        path.write_text("".join(format(r, "016b")[::-1] + "\n" for r in rows))
        monkeypatch.setenv("TQO_BUDGET_MS", "500")
        code, rep = run_json(capsys, ["verify", "multi_star", "16", "4", "--d", "4",
                                      "--ldpc", str(path), "--m", "4"])
        assert code == 0 and rep["results"]["pass"]
        assert rep["results"]["label_count"] == 2047

    def test_ldpc_walks_check_the_deadline(self, capsys, monkeypatch, tmp_path):
        # the [8,4,4] code's 15 nonzero codewords are walked once, for the
        # embedding and the classical distance, one check each, before
        # verify_codewords runs; a stop at any of those 15 checks exits 2
        path = tmp_path / "hamming.txt"
        path.write_text("11110000\n00111100\n00001111\n10101010\n")
        argv = ["verify", "multi_star", "8", "4", "--d", "4", "--ldpc", str(path), "--m", "4"]

        class StopAtCheck:
            def __init__(self, stop):
                self.stop, self.checks = stop, 0

            def check(self):
                self.checks += 1
                if self.checks == self.stop:
                    raise analysis.BudgetExceededError("time budget of 0.000s exhausted")

        calls, verify = [], analysis.verify_codewords
        monkeypatch.setattr(analysis, "verify_codewords",
                            lambda *a: calls.append(a[3].checks) or verify(*a))
        counted = StopAtCheck(None)
        monkeypatch.setattr(cli, "_deadline", lambda: counted)
        code, rep = run_json(capsys, argv)
        assert code == 0 and rep["results"]["pass"] and calls == [15]
        for stop in (1, 8, 15, 16):
            calls.clear()
            monkeypatch.setattr(cli, "_deadline", lambda: StopAtCheck(stop))
            code, rep = run_json(capsys, argv)
            assert code == 2 and rep["budget_exceeded"]
            assert rep["results"] == {"error": "time budget of 0.000s exhausted"}
            assert calls == ([15] if stop == 16 else [])

    def test_ldpc_budget_env_stops_the_classical_walk(self, capsys, monkeypatch, tmp_path):
        # a 20-row parity code has 2^20 codewords; uncapped, walking them
        # takes seconds and over 150 MiB before any label pair is reached
        path = tmp_path / "parity.txt"
        path.write_text("".join("0" * i + "11" + "0" * (19 - i) + "\n" for i in range(20)))
        monkeypatch.setenv("TQO_BUDGET_MS", "0")
        code, rep = run_json(capsys, ["verify", "multi_star", "21", "2", "--d", "2",
                                      "--ldpc", str(path), "--m", "2"])
        assert code == 2 and rep["budget_exceeded"]
        assert rep["results"] == {"error": "time budget of 0.000s exhausted"}
        assert rep["elapsed_ms"] < 500

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_ldpc_m_below_one(self, capsys, tmp_path, m):
        path = tmp_path / "code.txt"
        path.write_text("111\n")
        code, out, err = run(capsys, ["verify", "multi_star", "3", "3", "--d", "3",
                                      "--ldpc", str(path), "--m", m])
        assert code == 1 and out == ""
        assert err == f"error: need m >= 1, got {m}\n"

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, ["verify", "star", "4", "--d", "2"])
        assert code == 1 and "codewords" in err

    @pytest.mark.parametrize("argv, why", [
        (["multi_star", "3", "3", "--d", "3", "--codewords", "LABELS", "--ldpc", "CODE",
          "--m", "3"], "--codewords cannot be combined with --ldpc"),
        (["multi_star", "3", "3", "--d", "3", "--codewords", "LABELS", "--ldpc", "CODE"],
         "--codewords cannot be combined with --ldpc"),
        (["star", "4", "--d", "2", "--codewords", "LABELS", "--m", "3"],
         "--m applies only to --ldpc"),
        (["star", "4", "--d", "2", "--m", "3"], "--m applies only to --ldpc"),
    ], ids=["codewords-ldpc-m", "codewords-ldpc", "codewords-m", "m"])
    def test_options_of_the_other_mode(self, capsys, tmp_path, argv, why):
        # alone, each file passes: the labels, and the code at m = 3
        labels, code_file = tmp_path / "labels.txt", tmp_path / "code.txt"
        labels.write_text("100100100\n" if argv[0] == "multi_star" else "0110\n")
        code_file.write_text("111\n")
        argv = [{"LABELS": str(labels), "CODE": str(code_file)}.get(a, a) for a in argv]
        code, out, err = run(capsys, ["verify"] + argv)
        assert code == 1 and out == ""
        assert err == f"error: {why}\n"

    @pytest.mark.parametrize("text", ["", "# no labels\n\n"], ids=["empty", "comment"])
    def test_no_labels_is_an_error_line(self, capsys, tmp_path, text):
        path = tmp_path / "labels.txt"
        path.write_text(text)
        code, out, err = run(capsys, ["verify", "star", "3", "--d", "2", "--codewords", str(path)])
        assert code == 1 and out == ""
        assert err == f"error: {path}: no labels\n"

    def test_ldpc_too_many_rows_is_an_error_line(self, capsys, tmp_path):
        # 25 independent rows: too many codewords to exhaust, refused at once
        path = tmp_path / "code.txt"
        path.write_text("".join("0" * i + "1" + "0" * (25 - i) + "\n" for i in range(25)))
        code, out, err = run(
            capsys,
            ["verify", "multi_star", "26", "2", "--d", "2", "--ldpc", str(path), "--m", "2"],
        )
        assert code == 1 and out == ""
        assert err == "error: k_c = 25 too large for exhaustion (cap 24)\n"


class TestInputFiles:
    """A rejected input file is named in the error line, with the line it
    rejects."""

    @pytest.mark.parametrize("bad", ["0 1 2", "0 x", "1"])
    def test_bad_edge_line(self, capsys, tmp_path, bad):
        path = tmp_path / "g.txt"
        path.write_text(f"3 2\n0 1\n{bad}\n")
        code, out, err = run(capsys, ["dmax", "custom", "--graph-file", str(path)])
        assert code == 1 and out == ""
        assert err == f"error: {path}: bad edge {bad!r}\n"

    def test_bad_header(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3\n0 1\n")
        code, _, err = run(capsys, ["dmax", "custom", "--graph-file", str(path)])
        assert code == 1 and err == f"error: {path}: bad header '3'\n"

    @pytest.mark.parametrize("argv", [["gen", "custom"], ["dmax", "custom"],
                                      ["cset", "custom", "--d", "1"],
                                      ["oracle", "custom", "--matrix-elements"]])
    def test_negative_vertex_count(self, capsys, tmp_path, argv):
        path = tmp_path / "g.txt"
        path.write_text("-2 0\n")
        code, out, err = run(capsys, argv + ["--graph-file", str(path)])
        assert code == 1 and out == ""
        assert err == f"error: {path}: negative vertex count -2\n"

    @pytest.mark.parametrize("line, why", [("01x0", "invalid bit character 'x'"),
                                           ("01100", "label length 5 != 4")])
    def test_bad_codeword_line(self, capsys, tmp_path, line, why):
        path = tmp_path / "labels.txt"
        path.write_text(f"0110\n{line}\n")
        code, out, err = run(
            capsys, ["verify", "star", "4", "--d", "2", "--codewords", str(path)])
        assert code == 1 and out == ""
        assert err == f"error: {path}: {why} in {line!r}\n"

    def test_bad_ldpc_line(self, capsys, tmp_path):
        path = tmp_path / "code.txt"
        path.write_text("1 1 1\n")
        code, _, err = run(capsys, ["verify", "multi_star", "3", "3", "--d", "3",
                                    "--ldpc", str(path), "--m", "3"])
        assert code == 1 and err == f"error: {path}: invalid bit character ' ' in '1 1 1'\n"


class TestOracle:
    def test_pair_check(self, capsys):
        code, rep = run_json(
            capsys, ["oracle", "star", "4", "--h", "0110", "--d", "2"]
        )
        assert code == 0
        assert rep["results"]["pass"]
        assert rep["results"]["agreement"]
        assert rep["results"]["operators_checked"] == 13

    def test_pair_check_failure_witness(self, capsys):
        code, rep = run_json(
            capsys, ["oracle", "star", "4", "--h", "1000", "--d", "2"]
        )
        assert code == 1
        assert not rep["results"]["pass"]
        assert rep["results"]["agreement"]  # analytic route predicted the failure
        assert rep["results"]["witness"] is not None

    def test_matrix_elements(self, capsys):
        code, rep = run_json(
            capsys,
            ["oracle", "complete", "4", "--matrix-elements", "--samples", "50"],
        )
        assert code == 0
        assert rep["results"]["pass"]
        assert rep["results"]["max_deviation"] <= 1e-9

    @pytest.mark.parametrize("argv", [["lattice", "3", "2"], ["toric", "2"],
                                      ["line_of_complete", "5"]])
    def test_matrix_elements_catch_a_wrong_sign(self, capsys, monkeypatch, argv):
        # every other sample is a nonzero element (A.k ^ l = h ^ g), so a
        # sigma replaced by 0 or flipped fails, where uniform samples of
        # n >= 9 qubits almost always compare 0 with 0
        argv = ["oracle", *argv, "--matrix-elements", "--samples", "40"]
        calls, sigma = [], analysis.sigma
        monkeypatch.setattr(analysis, "sigma", lambda a, k: calls.append(k) or sigma(a, k))
        code, rep = run_json(capsys, argv)
        assert code == 0 and rep["results"]["max_deviation"] <= 1e-9
        assert len(calls) >= 20
        for mutant in (lambda a, k: 0, lambda a, k: 1 - sigma(a, k)):
            monkeypatch.setattr(analysis, "sigma", mutant)
            code, rep = run_json(capsys, argv)
            assert code == 1 and not rep["results"]["pass"]
            assert rep["results"]["max_deviation"] == 2.0

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_matrix_elements_need_a_sample(self, capsys, samples):
        # with no sample drawn nothing is checked, so there is no pass to report
        code, out, err = run(
            capsys, ["oracle", "star", "3", "--matrix-elements", "--samples", samples])
        assert code == 1 and out == ""
        assert err == "error: --samples must be at least 1\n"

    @pytest.mark.parametrize("stop,weight", [(1, 0), (2, 1), (10, 2)])
    def test_budget_stop_reports_the_weight_class(self, capsys, monkeypatch, stop, weight):
        # one window per chunk, so check t comes before window t - 1: 1 of
        # weight 0, then the 4 blocks of two qubits of weight 1, then the 6
        # pairs of blocks of weight 2
        class StopAtCheck:
            checks = 0

            def check(self):
                self.checks += 1
                if self.checks == stop:
                    raise analysis.BudgetExceededError("time budget of 0.000s exhausted")

        monkeypatch.setattr(oracle, "BLOCK_BYTES", 1)
        monkeypatch.setattr(cli, "_deadline", StopAtCheck)
        code, rep = run_json(capsys, ["oracle", "toric", "2", "--h", "10100101", "--d", "3"])
        assert code == 2 and rep["budget_exceeded"] and not rep["ok"]
        assert rep["results"] == {"error": "time budget of 0.000s exhausted",
                                  "operator_weight": weight}

    def test_zero_label_is_an_error_line(self, capsys):
        code, out, err = run(capsys, ["oracle", "star", "3", "--h", "000", "--d", "2"])
        assert code == 1 and out == ""
        assert err == "error: label must be nonzero\n"

    def test_requires_mode(self, capsys):
        code, _, err = run(capsys, ["oracle", "star", "4"])
        assert code == 1 and "need --h/--d or --matrix-elements" in err

    @pytest.mark.parametrize("argv, why", [
        (["--h", "011", "--d", "2"], "--h and --d cannot be combined with --matrix-elements"),
        (["--h", "011"], "--h cannot be combined with --matrix-elements"),
        (["--d", "2"], "--d cannot be combined with --matrix-elements"),
    ], ids=["h-d", "h", "d"])
    def test_pair_options_with_matrix_elements(self, capsys, argv, why):
        code, out, err = run(capsys, ["oracle", "star", "3", "--matrix-elements"] + argv)
        assert code == 1 and out == ""
        assert err == f"error: {why}\n"

    @pytest.mark.parametrize("argv, why", [
        (["--h", "0110", "--d", "2", "--samples", "5", "--seed", "3"], "--samples and --seed"),
        (["--h", "0110", "--d", "2", "--samples", "5"], "--samples"),
        (["--seed", "3"], "--seed"),
    ], ids=["h-samples-seed", "h-samples", "seed"])
    def test_sample_options_without_matrix_elements(self, capsys, argv, why):
        code, out, err = run(capsys, ["oracle", "star", "4"] + argv)
        assert code == 1 and out == ""
        assert err == f"error: {why} cannot be used without --matrix-elements\n"

    def test_config_shows_the_samples_used(self, capsys):
        # the pair check draws no sample; --matrix-elements reports the
        # count and seed it drew with, given or not
        _, rep = run_json(capsys, ["oracle", "star", "4", "--h", "0110", "--d", "2"])
        assert rep["config"]["samples"] is None and rep["config"]["seed"] is None
        _, rep = run_json(capsys, ["oracle", "star", "3", "--matrix-elements"])
        assert (rep["config"]["samples"], rep["config"]["seed"]) == (100, 0)
        assert rep["results"]["samples"] == 100
        _, rep = run_json(capsys, ["oracle", "star", "3", "--matrix-elements",
                                   "--samples", "7", "--seed", "3"])
        assert (rep["config"]["samples"], rep["config"]["seed"]) == (7, 3)

    def test_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TQO_BUDGET_MS", "0.0001")
        code, rep = run_json(capsys, ["oracle", "star", "4", "--h", "0110", "--d", "2"])
        assert code == 2 and rep["budget_exceeded"]
        assert "time budget" in rep["results"]["error"]

    def test_qubit_cap_is_an_error_line(self, capsys):
        code, out, err = run(
            capsys, ["oracle", "lattice", "4", "2", "--h", "0" * 15 + "1", "--d", "2"]
        )
        assert code == 1 and out == ""
        assert err == "error: 16 qubits exceeds cap 14\n"


class TestCode3D:
    def test_L2(self, capsys):
        code, rep = run_json(capsys, ["code3d", "--L", "2"])
        # structure checks pass individually but the measured code dimension
        # exceeds the target, so the overall verdict is a failure
        assert code == 1
        r = rep["results"]
        assert r["params"] == "[[8,4,2]]"
        assert r["constraints_hold"] and r["derivation_ok"] and r["logicals_ok"]
        assert r["rank_deficiency"] == 4 and r["distance"] == 2

    def test_L4_scan(self, capsys):
        # grown by the check-guided kernel from the one translation-orbit
        # minimum, the scan takes about 0.01 s
        code, rep = run_json(capsys, ["code3d", "--L", "4"])
        r = rep["results"]
        assert r["params"] == "[[64,8,4]]"
        assert r["distance_operator"] == "+" + "Z" * 4 + "I" * 60
        assert rep["elapsed_ms"] < 1500

    def test_k_matches_closed_form(self, capsys):
        for L in range(2, 9):
            code, rep = run_json(capsys, ["code3d", "--L", str(L), "--no-distance-scan"])
            assert rep["results"]["k"] == rep["results"]["k_formula"] == 2 * L - L % 2

    def test_no_scan(self, capsys):
        code, rep = run_json(capsys, ["code3d", "--L", "2", "--no-distance-scan"])
        assert rep["results"]["distance"] is None

    def test_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TQO_BUDGET_MS", "0.0001")
        code, rep = run_json(capsys, ["code3d", "--L", "4"])
        assert code == 2 and rep["budget_exceeded"]
        assert "time budget" in rep["results"]["error"]

    def test_budget_stop_without_the_scan(self, capsys, monkeypatch):
        # without the scan the deadline is checked between the structural
        # phases, so an expired budget stops L = 16 after its build
        monkeypatch.setenv("TQO_BUDGET_MS", "0")
        code, rep = run_json(capsys, ["code3d", "--L", "16", "--no-distance-scan"])
        assert code == 2 and rep["budget_exceeded"] and not rep["ok"]
        assert rep["config"] == {"L": 16, "distance_scan": False}
        assert rep["results"] == {"error": "time budget of 0.000s exhausted"}

    def test_budget_stop_before_the_scan(self, capsys, monkeypatch):
        # one budget rule with the scan on: an expired budget stops L = 16
        # in its structural phases, before the scan starts
        monkeypatch.setenv("TQO_BUDGET_MS", "0")
        scans = []
        monkeypatch.setattr(stabilizer, "normalizer_min_weight", lambda *a, **k: scans.append(a))
        code, rep = run_json(capsys, ["code3d", "--L", "16"])
        assert code == 2 and rep["budget_exceeded"] and not rep["ok"]
        assert rep["config"] == {"L": 16, "distance_scan": True}
        assert rep["results"] == {"error": "time budget of 0.000s exhausted"}
        assert scans == []

    def test_budget_stops_the_L9_scan_soon(self, capsys, monkeypatch):
        # the scan grows from qubit 0 alone; the kernel checks the deadline
        # every few dozen nodes, so the stop comes well within a second of
        # the 200 ms budget, not seconds later
        monkeypatch.setenv("TQO_BUDGET_MS", "200")
        code, rep = run_json(capsys, ["code3d", "--L", "9"])
        assert code == 2 and rep["budget_exceeded"]
        r = rep["results"]
        assert r["error"] == "time budget of 0.200s exhausted"
        assert r["distance_lower_bound"] >= 1 and r["params"] == "[[729,17,?]]"
        assert rep["elapsed_ms"] < 1200

    def test_budget_stop_reports_structure_and_bound(self, capsys, monkeypatch):
        # a deadline that expires at the first check of weight class 3, after
        # the four structural checks
        class StopAtCheck:
            def __init__(self, stop):
                self.stop, self.checks = stop, 0

            def check(self):
                self.checks += 1
                if self.checks == self.stop:
                    raise analysis.BudgetExceededError("time budget of 0.000s exhausted")

        counter = StopAtCheck(None)
        stabilizer.normalizer_min_weight(stabilizer.gen_3d_code(4), 2, counter)
        _, plain = run_json(capsys, ["code3d", "--L", "4", "--no-distance-scan"])
        monkeypatch.setattr(cli, "_deadline", lambda: StopAtCheck(4 + counter.checks + 1))
        code, rep = run_json(capsys, ["code3d", "--L", "4"])
        assert code == 2 and rep["budget_exceeded"] and not rep["ok"]
        assert rep["config"] == {"L": 4, "distance_scan": True}
        r = rep["results"]
        assert r.pop("error") == "time budget of 0.000s exhausted"
        assert r.pop("distance_lower_bound") == 3
        assert r == plain["results"]


class TestScan:
    def test_multi_star(self, capsys):
        code, rep = run_json(capsys, ["scan", "multi_star", "2,2", "3,3", "4,4"])
        assert code == 0
        assert [e["d_max"] for e in rep["results"]["entries"]] == [2, 3, 4]
        assert abs(rep["results"]["exponent"] - 0.5) < 0.1

    def test_empty_graph_entry_is_an_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "gen_family", lambda spec: Graph.from_edges(0, []))
        code, out, err = run(capsys, ["scan", "star", "3"])
        assert code == 1 and out == ""
        assert err == "error: empty graph\n"

    @pytest.mark.parametrize("chunk", ["x", "3,x", "2,,2", ""], ids=repr)
    def test_parameters_that_are_not_integers(self, capsys, chunk):
        code, out, err = run(capsys, ["scan", "multi_star", "2,2", chunk])
        assert code == 1 and out == ""
        assert err == f"error: scan parameters {chunk!r} are not comma-joined integers\n"


class TestOutputFormats:
    def test_table(self, capsys):
        code, out, _ = run(capsys, ["dmax", "star", "4", "--format", "table"])
        assert code == 0
        lines = dict(
            line.split("\t", 1) for line in out.strip().splitlines()
        )
        assert lines["results.d_max"] == "2"
        assert lines["command"] == "dmax"

    def test_json_sorted_keys(self, capsys):
        _, out, _ = run(capsys, ["dmax", "star", "4"])
        rep = json.loads(out)
        assert list(rep) == sorted(rep)


class TestParserReuse:
    """One parser serves every main call of a process: a report must not
    depend on the calls made before it."""

    @staticmethod
    def report(capsys, argv, fresh):
        if fresh:
            cli.build_parser.cache_clear()
        code, out, err = run(capsys, argv)
        lines = [line for line in out.splitlines()
                 if not line.lstrip().startswith(('"elapsed_ms"', "elapsed_ms\t"))]
        return code, lines, err

    @pytest.mark.parametrize("calls", [
        [["cset", "star", "4", "--d", "2", "--max-members", "3"],
         ["cset", "star", "4", "--d", "2"]],
        [["dmax", "star", "4", "--format", "table"], ["dmax", "star", "4"]],
        [["oracle", "complete", "4", "--matrix-elements", "--samples", "5", "--seed", "5"],
         ["oracle", "complete", "4", "--matrix-elements", "--samples", "5"]],
    ])
    def test_report_equals_fresh_call(self, capsys, calls):
        fresh = [self.report(capsys, argv, True) for argv in calls]
        cli.build_parser.cache_clear()
        reused = [self.report(capsys, argv, False) for argv in calls]
        assert reused == fresh

    def test_defaults_come_back(self, capsys):
        run(capsys, ["cset", "star", "4", "--d", "2", "--max-members", "3"])
        _, rep = run_json(capsys, ["cset", "star", "4", "--d", "2"])
        assert rep["config"]["max_members"] == 1024
        run(capsys, ["oracle", "complete", "4", "--matrix-elements", "--seed", "5"])
        _, rep = run_json(capsys, ["oracle", "complete", "4", "--matrix-elements"])
        assert rep["config"]["seed"] == 0
        run(capsys, ["dmax", "star", "4", "--format", "table"])
        json.loads(run(capsys, ["dmax", "star", "4"])[1])

    def test_after_argparse_error(self, capsys):
        argv = ["dmax", "toric", "2"]
        want = self.report(capsys, argv, True)
        with pytest.raises(SystemExit) as exc:
            main(["dmax", "toric", "2", "--d", "3"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert self.report(capsys, argv, False) == want

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()


def reference_cases():
    ref = json.loads(REFERENCE.read_text())
    return [
        pytest.param(key, entry, id=f"{workload}: {key}")
        for workload in ("toric-cset", "family-sweep")
        for key, entry in sorted(ref[workload].items())
        if key.split()[0] in ("cset", "dmax", "scan")
    ]


@pytest.mark.parametrize("key,entry", reference_cases())
def test_benchmark_reference_replay(capsys, key, entry):
    """The benchmark's pinned answers (seed 0: the families' own labels)."""
    code, rep = run_json(capsys, key.split())
    for path, want in {**entry["expect"], **entry.get("seed0", {})}.items():
        got = code
        if path != "exit":
            got = rep
            for part in path.split("."):
                got = got[part]
        assert got == want, path


ENVELOPE = {"schema", "version", "command", "config", "results", "ok",
            "budget_exceeded", "elapsed_ms"}


class TestReportPath:
    """main writes every report: one envelope, one exit-code rule, and a
    config that each command fills in before it enumerates anything."""

    class StopAtOnce:
        def check(self):
            raise gf2.BudgetExceededError("time budget of 0.000s exhausted")

    @staticmethod
    def check_envelope(code, rep, cmd):
        assert set(rep) == ENVELOPE
        assert rep["command"] == cmd
        assert code == (2 if rep["budget_exceeded"] else 0 if rep["ok"] else 1)

    @pytest.mark.parametrize("argv", [
        ["cset", "star", "4", "--d", "2"],
        ["dmax", "multi_star", "4", "4"],
        ["verify", "star", "4", "--d", "2", "--codewords", "LABELS"],
        ["oracle", "star", "4", "--h", "0110", "--d", "2"],
        ["oracle", "complete", "4", "--matrix-elements", "--samples", "5"],
        ["code3d", "--L", "3"],
        ["scan", "multi_star", "2,2", "3,3"],
    ], ids=["cset", "dmax", "verify", "oracle --h", "oracle --matrix-elements",
            "code3d", "scan"])
    def test_one_envelope_and_config_before_the_stop(self, capsys, monkeypatch,
                                                     tmp_path, argv):
        labels = tmp_path / "labels.txt"
        labels.write_text("0110\n1001\n")
        argv = [str(labels) if a == "LABELS" else a for a in argv]
        code, plain = run_json(capsys, argv)
        self.check_envelope(code, plain, argv[0])
        assert not plain["budget_exceeded"]
        monkeypatch.setattr(cli, "_deadline", self.StopAtOnce)
        code, stopped = run_json(capsys, argv)
        self.check_envelope(code, stopped, argv[0])
        assert code == 2 and stopped["budget_exceeded"] and not stopped["ok"]
        assert stopped["config"] == plain["config"]


class TestBudget:
    """TQO_BUDGET_MS: one deadline path, with or without a budget."""

    @pytest.mark.parametrize("value", ["nan", "-5", "abc"])
    def test_bad_value_is_an_error_line(self, capsys, monkeypatch, value):
        monkeypatch.setenv("TQO_BUDGET_MS", value)
        code, out, err = run(capsys, ["dmax", "toric", "4"])
        assert code == 1 and out == ""
        assert err == f"error: TQO_BUDGET_MS must be a number >= 0, got {value!r}\n"

    @pytest.mark.parametrize("value", [None, ""], ids=["unset", "empty"])
    def test_no_budget_never_expires(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("TQO_BUDGET_MS", raising=False)
        else:
            monkeypatch.setenv("TQO_BUDGET_MS", value)
        deadline = cli._deadline()
        monkeypatch.setattr(gf2, "monotonic", lambda: 1e300)
        deadline.check()
