import json
from fractions import Fraction

import pytest

from graphoncalc import graph_to_json, kernel_to_json, quantum_to_json
from graphoncalc import (Multigraph, QuantumGraph, StepKernel, complete_graph,
                         graph_from_json, kernel_from_json, single_edge)
from graphoncalc.cli import run


@pytest.fixture()
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


def _k2_json():
    return graph_to_json(single_edge())


def _kernel_json(value="1/2", parts=1):
    return kernel_to_json(StepKernel.constant(Fraction(value), parts))


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert run([]) == 1

    def test_malformed_json(self, files, capsys):
        bad = files("bad.json", {})  # valid JSON, invalid graph
        kern = files("kern.json", _kernel_json())
        assert run(["density", "--graph", bad, "--kernel", kern]) == 1
        assert "invalid input" in capsys.readouterr().err

    def test_cap_exceeded_is_exit_two(self, files, capsys):
        big = files("big.json", graph_to_json(
            Multigraph(9, [(i, (i + 1) % 9) for i in range(9)])))
        kern = files("kern.json", _kernel_json())
        assert run(["density", "--graph", big, "--kernel", kern]) == 2
        assert "resource cap" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0


class TestSubcommands:
    def test_enumerate_canonical_order(self, capsys):
        assert run(["enumerate", "-n", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3

    def test_enumerate_json_round_trips(self, capsys):
        assert run(["--format", "json", "enumerate", "-n", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 3
        for obj in payload["classes"]:
            graph_from_json(obj)  # schema round trip

    def test_enumerate_with_vertex_count(self, capsys):
        assert run(["enumerate", "-n", "1", "--pvertices", "3"]) == 0
        assert "3v" in capsys.readouterr().out

    def test_enumerate_many_isolated_vertices(self, capsys):
        assert run(["--format", "json", "enumerate", "-n", "4",
                    "--pvertices", "15"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 23

    def test_hom_surj_aut(self, files, capsys):
        k2 = files("k2.json", _k2_json())
        k3 = files("k3.json", graph_to_json(complete_graph(3)))
        assert run(["hom", "--graph", k2, "--target", k3]) == 0
        assert capsys.readouterr().out.strip() == "6"
        assert run(["surj", "--graph", k3, "--target", k3]) == 0
        assert capsys.readouterr().out.strip() == "6"
        assert run(["aut", "--graph", k3]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_density_table_format(self, files, capsys):
        k2 = files("k2.json", _k2_json())
        half = files("half.json", _kernel_json())
        assert run(["density", "--graph", k2, "--kernel", half]) == 0
        assert capsys.readouterr().out.strip() == "1/2 (0.5)"

    def test_density_with_pins(self, files, capsys):
        g = files("g.json", graph_to_json(
            Multigraph(2, [(0, 1)], {1: 0, 2: 1})))
        kern = files("kern.json", kernel_to_json(
            StepKernel([["0", "2/3"], ["2/3", "1/3"]])))
        pins = files("pins.json", {"1": "1/4", "2": "3/4"})
        assert run(["density", "--graph", g, "--kernel", kern,
                    "--pins", pins]) == 0
        assert capsys.readouterr().out.startswith("2/3")

    def test_cutnorm(self, files, capsys):
        kern = files("kern.json",
                     {"parts": 2, "matrix": [["1", "-1"], ["-1", "1"]]})
        assert run(["cutnorm", "--kernel", kern]) == 0
        assert capsys.readouterr().out.strip() == "1/4 (0.25)"

    def test_tensor_output_parses(self, files, capsys):
        a = files("a.json", _kernel_json("1/2"))
        b = files("b.json", _kernel_json("1/3"))
        assert run(["--format", "json", "tensor", "--left", a,
                    "--right", b]) == 0
        kernel_from_json(json.loads(capsys.readouterr().out))

    def test_sidorenko(self, files, capsys):
        kern = files("kern.json", _kernel_json("1/2"))
        assert run(["sidorenko", "-k", "3", "--kernel", kern]) == 0
        out = capsys.readouterr().out
        assert "holds: True" in out and "equality: True" in out

    def test_derivative_with_numeric_check(self, files, capsys):
        F = files("F.json", quantum_to_json(
            QuantumGraph.from_graph(complete_graph(3))))
        base = files("base.json", _kernel_json("1/2"))
        d1 = files("d1.json", _kernel_json("1/4"))
        d2 = files("d2.json", _kernel_json("1/8"))
        assert run(["derivative", "--F", F, "--base", base,
                    "--dirs", d1, d2, "--numeric"]) == 0
        out = capsys.readouterr().out
        assert "order 2" in out and "numeric cross-check" in out

    def test_extract_T(self, files, capsys):
        F = files("F.json", quantum_to_json(QuantumGraph.from_graph(single_edge())))
        assert run(["--format", "json", "extractT", "--F", F,
                    "-n", "1", "-p", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"][0]["value"] == "2/9"

    def test_pi_and_oracle_agree(self, capsys):
        assert run(["--format", "json", "pi", "-n", "2", "-k", "2"]) == 0
        formula = json.loads(capsys.readouterr().out)
        assert run(["--format", "json", "pi", "-n", "2", "-k", "2",
                    "--oracle", "-p", "4"]) == 0
        oracle = json.loads(capsys.readouterr().out)
        assert formula["rows"] == oracle["rows"]

    def test_verify_pass(self, capsys):
        assert run(["verify", "consistency", "-n", "2", "-p", "4",
                    "-k", "2"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_taylor_recover_round_trip(self, files, capsys):
        F = files("F.json", quantum_to_json(
            QuantumGraph.from_graph(single_edge(), 3)
            + QuantumGraph.from_graph(complete_graph(3), -2)))
        assert run(["--format", "json", "taylor-recover", "--F", F,
                    "-N", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matches_input"] is True

    def test_whitney(self, capsys):
        assert run(["whitney", "-n", "2"]) == 0
        assert "determinant" in capsys.readouterr().out
        assert run(["whitney", "-n", "1", "-k", "1", "--pins", "1/3"]) == 0

    def test_interpolate(self, files, capsys):
        a = files("a.json", _kernel_json("1/4"))
        b = files("b.json", _kernel_json("3/4"))
        assert run(["--format", "json", "interpolate", "--points", a, b,
                    "--values", "1", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["achieved"] == ["1", "0"]

    def test_series_eval(self, files, capsys):
        F = files("F.json", quantum_to_json(
            QuantumGraph.from_graph(single_edge(), 1)
            + QuantumGraph.from_graph(complete_graph(3), 1)))
        kern = files("kern.json", _kernel_json("1/2"))
        assert run(["series-eval", "--terms", F, "--kernel", kern,
                    "-N", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("1/2")
        assert "tail bound 1/8" in out
