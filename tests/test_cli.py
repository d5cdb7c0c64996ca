import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from fractions import Fraction

import pytest

from graphoncalc import graph_to_json, kernel_to_json, quantum_to_json
from graphoncalc import (Limits, Multigraph, QuantumGraph, StepKernel,
                         complete_graph, cycle_graph, graph_from_json,
                         kernel_from_json, matching, parallel_edges,
                         path_graph, single_edge, star_graph)
from graphoncalc import cli
from graphoncalc.cli import run
from graphoncalc.limits import flag


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

    @pytest.mark.parametrize("argv", [
        ["taylor-recover", "--F", "array", "-N", "1"],
        ["series-eval", "--terms", "array", "--kernel", "kernel", "-N", "1"],
        ["density", "--graph", "graph", "--kernel", "kernel",
         "--pins", "array"]])
    def test_json_array_is_invalid_input(self, files, capsys, argv):
        # a JSON array where an object is expected is malformed input, as
        # it already is for --graph and --kernel
        paths = {"array": files("array.json", [1, 2]),
                 "graph": files("graph.json", _k2_json()),
                 "kernel": files("kernel.json", _kernel_json())}
        assert run([paths.get(x, x) for x in argv]) == 1
        err = capsys.readouterr().err
        assert "invalid input: malformed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, payload, message", [
        (["aut", "--graph", "x"], {"vertices": 2, "edges": [[0, 1]],
                                   "labels": [1]},
         "malformed graph object"),
        # each number below was truncated to an integer and read as
        # another input
        (["aut", "--graph", "x"], {"vertices": 2.7, "edges": [[0, 1]]},
         "malformed graph object: 2.7 is not an integer"),
        (["aut", "--graph", "x"], {"vertices": 2, "edges": [[0, 1.9]]},
         "malformed graph object: 1.9 is not an integer"),
        (["aut", "--graph", "x"], {"vertices": 2, "edges": [[0, 1, 2.0]]},
         "malformed graph object: 2.0 is not an integer"),
        (["aut", "--graph", "x"], {"vertices": 2, "edges": [[0, 1]],
                                   "labels": {"1": 0.5}},
         "malformed graph object: 0.5 is not an integer"),
        (["density", "--graph", "k2", "--kernel", "x"],
         {"parts": 2.5, "matrix": [["1/2", "1/2"], ["1/2", "1/2"]]},
         "malformed kernel object: 2.5 is not an integer"),
        (["derivative", "--F", "x", "--base", "kernel"],
         {"k": 1.5, "terms": []},
         "malformed quantum graph object: 1.5 is not an integer")],
        ids=["labels-array", "vertices", "endpoint", "multiplicity",
             "label-vertex", "parts", "k"])
    def test_malformed_fields(self, files, capsys, argv, payload, message):
        paths = {"x": files("x.json", payload),
                 "k2": files("k2.json", _k2_json()),
                 "kernel": files("kernel.json", _kernel_json())}
        assert run([paths.get(x, x) for x in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"invalid input: {message}" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["--max-maps", "-5", "aut", "--graph", "k2"],
         "invalid input: max_maps must be at least 0, not -5"),
        (["enumerate", "-n", "2", "-k", "1", "--pvertices", "3"],
         "error: --pvertices only applies to unlabelled classes"),
        (["aut", "--graph", "missing"], "error: cannot read {missing}"),
        (["aut", "--graph", "truncated"],
         "invalid input: malformed JSON in {truncated}"),
        (["interpolate", "--points", "kernel", "kernel", "--values", "1"],
         "error: need exactly one value per point"),
        (["series-eval", "--terms", "labelled", "--kernel", "kernel",
          "-N", "1"],
         "error: series-eval handles unlabelled polynomial series"),
        (["series-eval", "--terms", "negative", "--kernel", "kernel",
          "-N", "1"],
         "invalid input: label count k must be at least 0, not -1"),
        (["derivative", "--F", "negative", "--base", "kernel"],
         "invalid input: label count k must be at least 0, not -1")],
        ids=["negative-cap", "pvertices-with-labels", "unreadable-file",
             "malformed-json", "values-short-of-points", "labelled-series",
             "negative-labels-series", "negative-labels-derivative"])
    def test_refused_input(self, tmp_path, files, capsys, argv, message):
        (tmp_path / "truncated.json").write_text('{"vertices": 2,')
        paths = {"k2": files("k2.json", _k2_json()),
                 "kernel": files("kernel.json", _kernel_json()),
                 "labelled": files("labelled.json", quantum_to_json(
                     QuantumGraph.from_graph(Multigraph(2, [(0, 1)],
                                                        {1: 0})))),
                 "negative": files("negative.json", {"k": -1, "terms": []}),
                 "missing": str(tmp_path / "missing.json"),
                 "truncated": str(tmp_path / "truncated.json")}
        assert run([paths.get(x, x) for x in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message.format(**paths) in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("args", [
        ["-n", "0"], ["-n", "2", "-k", "1"], ["-n", "2", "-k", "0"],
        ["-n", "2", "-p", "1"]])
    def test_verify_with_nothing_to_check(self, args, capsys):
        assert run(["verify", "consistency", *args]) == 1
        assert "must be at least" in capsys.readouterr().err

    def test_cap_exceeded_is_exit_two(self, files, capsys):
        big = files("big.json", graph_to_json(
            Multigraph(9, [(i, (i + 1) % 9) for i in range(9)])))
        kern = files("kern.json", _kernel_json())
        assert run(["density", "--graph", big, "--kernel", kern]) == 2
        err = capsys.readouterr().err
        assert "resource cap" in err
        assert ("9 integrated vertices, over the max_vertices cap of 8 "
                "(raise it with --max-vertices)") in err

    def test_density_parts_cap_names_its_flag(self, files, capsys):
        kern = files("kern.json", _kernel_json(parts=13))
        k2 = files("k2.json", _k2_json())
        assert run(["density", "--graph", k2, "--kernel", kern]) == 2
        assert ("over the max_parts cap of 12 (raise it with --max-parts)"
                in capsys.readouterr().err)

    def test_tensor_parts_cap_names_its_flag(self, files, capsys):
        kern = files("kern.json", _kernel_json(parts=4))
        assert run(["--max-parts", "3", "tensor", "--left", kern,
                    "--right", kern]) == 2
        assert ("16 parts, over the max_parts cap of 3 (raise it with "
                "--max-parts)") in capsys.readouterr().err
        # the product is capped as its density would be: 16 > 12 parts
        assert run(["tensor", "--left", kern, "--right", kern]) == 2
        assert ("16 parts, over the max_parts cap of 12 (raise it with "
                "--max-parts)") in capsys.readouterr().err

    def test_index_tuple_cap_names_its_flag(self, capsys):
        assert run(["--max-index-tuples", "10", "pi", "--oracle",
                    "-n", "2", "-k", "2"]) == 2
        assert ("16 index tuples, over the max_index_tuples cap of 10 "
                "(raise it with --max-index-tuples)") in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_pi_refuses_p_without_the_oracle(self, capsys):
        assert run(["pi", "-n", "3", "-k", "2", "-p", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "-p applies only with --oracle" in captured.err

    def test_reader_closing_early_prints_no_traceback(self):
        """A reader that stops after one line (`| head -1`) leaves the exit
        code alone and sees no traceback.  The JSON listing of the 7-edge
        classes (~260 kB) overfills the pipe, so the command is still
        writing when the pipe closes."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "graphoncalc.cli", "--format", "json",
             "enumerate", "-n", "7"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert b"Traceback" not in err


class TestCapFlags:
    def test_max_maps_reaches_limits(self, monkeypatch):
        seen = []
        monkeypatch.setitem(cli._HANDLERS, "aut",
                            lambda args, limits: seen.append(limits) or 0)
        assert run(["--max-parts", "2", "--max-vertices", "3",
                    "--max-maps", "7", "--max-index-tuples", "11",
                    "--max-classes", "13", "--max-cut-parts", "17",
                    "aut", "--graph", "unread.json"]) == 0
        assert seen[0] == Limits(max_parts=2, max_vertices=3, max_maps=7,
                                 max_index_tuples=11, max_classes=13,
                                 max_cut_parts=17)
        caps = {option for action in cli._build_parser()._actions
                for option in action.option_strings
                if option.startswith("--max-")}
        assert caps == {flag(cap.name) for cap in fields(Limits)}

    def test_aut_of_matching(self, files, capsys):
        m4 = files("m4.json", graph_to_json(matching(4)))
        assert run(["aut", "--graph", m4]) == 0
        assert capsys.readouterr().out.strip() == "384"
        assert run(["--max-maps", "10", "aut", "--graph", m4]) == 2
        assert ("visited 11 nodes, over the max_maps cap of 10 (raise it with "
                "--max-maps)") in capsys.readouterr().err

    def test_max_classes(self, capsys):
        # the 4-edge listing holds 23 classes
        assert run(["--max-classes", "22", "enumerate", "-n", "4"]) == 2
        assert ("over the max_classes cap of 22 (raise it with "
                "--max-classes)") in capsys.readouterr().err
        assert run(["--max-classes", "23", "--format", "json", "enumerate",
                    "-n", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 23

    def test_max_separating_edges(self, files, capsys, monkeypatch):
        # no simple graph separates a kernel from itself, so the search for
        # one runs to its cap
        kern = files("kern.json", _kernel_json("1/2"))
        argv = ["interpolate", "--points", kern, kern, "--values", "1", "2"]
        assert run(argv) == 2
        assert ("no simple graph with up to 4 edges separates the kernels, "
                "over the max_separating_edges cap of 4 (raise it with "
                "--max-separating-edges)") in capsys.readouterr().err
        assert run(["--max-separating-edges", "2", *argv]) == 2
        assert ("up to 2 edges separates the kernels, over the "
                "max_separating_edges cap of 2") in capsys.readouterr().err
        seen = []
        monkeypatch.setitem(cli._HANDLERS, "interpolate",
                            lambda args, limits: seen.append(limits) or 0)
        assert run(["--max-separating-edges", "6", *argv]) == 0
        assert seen == [Limits(max_separating_edges=6)]

    def test_max_cut_parts(self, files, capsys):
        kern = files("kern.json", {"parts": 3, "matrix": [
            ["1", "-1", "0"], ["-1", "1", "0"], ["0", "0", "0"]]})
        assert run(["--max-cut-parts", "2", "cutnorm", "--kernel", kern]) == 2
        assert ("cut norm over 3 parts, over the max_cut_parts cap of 2 "
                "(raise it with --max-cut-parts)") in capsys.readouterr().err
        assert run(["--max-cut-parts", "3", "cutnorm", "--kernel", kern]) == 0
        assert capsys.readouterr().out.strip() == "1/9 (0.1111111111)"


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

    def test_labelled_density_without_pins_names_the_labels(self, files,
                                                            capsys):
        # the CLI has one density call; the message names what is missing,
        # not a library function the CLI user cannot call
        g = files("g.json", graph_to_json(Multigraph(2, [(0, 1)], {1: 0})))
        kern = files("kern.json", _kernel_json(parts=2))
        assert run(["density", "--graph", g, "--kernel", kern]) == 1
        err = capsys.readouterr().err
        assert "pins must cover all labels; missing [1]" in err
        assert "labelled_density" not in err

    def test_density_refuses_pins_for_missing_labels(self, files, capsys):
        g = files("g.json", graph_to_json(Multigraph(2, [(0, 1)], {1: 0})))
        kern = files("kern.json", _kernel_json(parts=2))
        pins = files("pins.json", {"1": "1/3", "7": "1/5"})
        assert run(["density", "--graph", g, "--kernel", kern,
                    "--pins", pins]) == 1
        assert "[7]" in capsys.readouterr().err

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

    def test_taylor_recover_refuses_negative_degree(self, files, capsys):
        F = files("F.json", quantum_to_json(
            QuantumGraph.from_graph(single_edge(), 3)))
        assert run(["taylor-recover", "--F", F, "-N", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "N must be nonnegative" in captured.err

    def test_whitney(self, capsys):
        assert run(["whitney", "-n", "2"]) == 0
        assert "determinant" in capsys.readouterr().out
        assert run(["whitney", "-n", "1", "-k", "1", "--pins", "1/3"]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["-n", "1", "-p", "-3"], "at least 1"),
        (["-n", "1", "-p", "0"], "at least 1"),
        (["-n", "1", "-k", "1", "--pins", "1/2", "-p", "2"], "part boundary"),
        (["-n", "1", "-k", "2", "--pins", "1/3", "2/5", "-p", "2"],
         "distinct parts"),
    ])
    def test_whitney_refuses_bad_parts(self, capsys, argv, message):
        assert run(["whitney", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid input" in captured.err and message in captured.err

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


class TestPinnedOutputs:
    """The sha256 of stdout of the CLI outputs a change to the tables or
    the structure report should leave alone; `whitney` lists its classes
    in the surjection order, so its matrices print lower triangular."""

    @pytest.mark.parametrize("argv, digest", [
        (["verify", "consistency", "-n", "3"],
         "b39a1a0ef9e28b79b9a3fc6fa850e5544613104cc4f7f4c075d7cb57797310fb"),
        (["--format", "json", "verify", "consistency", "-n", "4"],
         "07af64615f19c6bb74758502ece64ff8099805f9a7cc3886d2217c6a432ffb9b"),
        (["pi", "-n", "4", "-k", "2"],
         "9aaacea0a73700065ce0e278e228ebc6ac0830cd369a0e8039c4a77b23ce45a6"),
        (["pi", "-n", "3", "-k", "3", "--oracle"],
         "52e445398c548f298485c61130b1c2cdd2e5ad44a38dfd7da19926a495e3c8d1"),
        (["whitney", "-n", "3", "-k", "1", "--pins", "1/3"],
         "ce9dc11170a8fb570d885577a2a62c77be0400c54bf5b43e2caa2b85160f752a"),
        (["whitney", "-n", "2", "-k", "2", "--pins", "1/3", "2/3"],
         "e3a2e3dabcfc4070f2e5cfead999e6f60917d9ba61165ccd9ef312cb4c63a6bf"),
        (["enumerate", "-n", "3", "--pvertices", "5"],
         "46d68b4ccc924227e39bac5b2071acaf924354b58c973785e530f01089b8e2b9"),
        # the fiber oracle's output does not depend on p
        (["pi", "-n", "2", "-k", "2", "--oracle", "-p", "4"],
         "97defb7cf5d4c7d4324177bbadaec3b9a4d2889800bb36681371efe4e3d104f0"),
        (["pi", "-n", "2", "-k", "2", "--oracle", "-p", "40"],
         "97defb7cf5d4c7d4324177bbadaec3b9a4d2889800bb36681371efe4e3d104f0"),
    ])
    def test_stdout_digest(self, capsys, argv, digest):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("before, digest", [
        ([], "48557b7aed993e1ef8863b4daaadf535a3eefaa8b20855295e0ab94db7e3651a"),
        (["--format", "json"],
         "060883443301a68eb5165c301800f2fcd025441d08bf48ee45e7a3feeefab0a5"),
    ])
    def test_extract_t_digest(self, files, capsys, before, digest):
        F = files("c4.json", quantum_to_json(
            QuantumGraph.from_graph(cycle_graph(4))))
        self.test_stdout_digest(
            capsys, [*before, "extractT", "--F", F, "-n", "4", "-p", "8"],
            digest)

    @pytest.mark.parametrize("before, after, digest", [
        ([], [],
         "f53645326c84c606e4ccc1e9ca7866f08a9711a9abfc1f166d8118137212af40"),
        ([], ["-p", "9"],
         "f53645326c84c606e4ccc1e9ca7866f08a9711a9abfc1f166d8118137212af40"),
        (["--format", "json"], [],
         "9ebabe48253701e6dbcb89a22ee7bbbe6354d22839a8a7903a15ee2a557797c3"),
    ])
    def test_taylor_recover_digest(self, files, capsys, before, after, digest):
        paw = Multigraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        graphs = [Multigraph(0), single_edge(), path_graph(2),
                  parallel_edges(2), complete_graph(3), star_graph(3),
                  cycle_graph(4), paw]
        coeffs = ["1", "-2", "3/2", "-4/3", "5/4", "-6/5", "7/6", "-8/7"]
        F = files("f.json", quantum_to_json(QuantumGraph(
            (g, Fraction(c)) for g, c in zip(graphs, coeffs))))
        assert run([*before, "taylor-recover", "--F", F, "-N", "4",
                    *after]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
