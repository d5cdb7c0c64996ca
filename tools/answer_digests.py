"""Print a sha256 digest of each of a fixed set of the library's answers.

Two source trees give the same answers when this prints the same lines for
both, so "answers unchanged" is one diff:

    python tools/answer_digests.py > after.txt
    python tools/answer_digests.py OTHER/src > before.txt
    diff before.txt after.txt

SRC defaults to the `src` directory beside this script's parent; the
package is imported from there.  Prints one `name sha256` line per answer,
in a fixed order.  Each digest is of the answer's text: rationals as
num/den, graphs by `graph_signature`, a CLI run as its exit code and
stdout.  Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from fractions import Fraction
from pathlib import Path


def answers():
    """(name, thunk) per answer; the thunk returns the answer's value."""
    from graphoncalc import (DerivativeRequest, Multigraph, QuantumGraph,
                             StepKernel, cli, complete_graph, cycle_graph,
                             enumerate_Hn, extract_T, gateaux_exact,
                             gateaux_numeric, parallel_edges, path_graph,
                             pi_formula, single_edge, star_graph,
                             taylor_recover, whitney_matrix)
    from graphoncalc.morphisms import surjection_table

    def whitney(n, k, pins, p=None):
        W = whitney_matrix(n, k, pins, p)
        return W.p, W.classes, W.rows, W.determinant()

    def pi(n, k):
        matrix = pi_formula(n, k)
        return matrix.classes, matrix.rows()

    def extract(n, p):
        return [extract_T(QuantumGraph.from_graph(H), n, p).as_items()
                for H in enumerate_Hn(n)]

    def taylor():
        paw = Multigraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        F = QuantumGraph(zip(
            [Multigraph(0), single_edge(), path_graph(2), parallel_edges(2),
             complete_graph(3), star_graph(3), cycle_graph(4), paw],
            map(Fraction, ["1", "-2", "3/2", "-4/3", "5/4", "-6/5", "7/6",
                           "-8/7"])))

        def oracle(dirs):
            base = StepKernel.zero(dirs[0].parts if dirs else 8)
            return gateaux_exact(F, DerivativeRequest(base, dirs))

        report = taylor_recover(oracle, 4, 8)
        return report.degree_coefficients, report.residual_ok

    # an order-0 derivative is the value at the base
    order0_F = QuantumGraph(zip(
        [Multigraph(0), Multigraph(2), single_edge(), path_graph(2),
         complete_graph(3), parallel_edges(3)],
        map(Fraction, ["2", "-1/3", "5", "-7/2", "3/4", "1/9"])))
    order0 = DerivativeRequest(StepKernel(
        [["0", "1/2", "1"], ["1/2", "0", "1/3"], ["1", "1/3", "2/5"]]), ())

    def run_cli(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(list(argv))
        return code, out.getvalue()

    named = [(f"S_{n}", lambda n=n: surjection_table(n)) for n in range(6)]
    named += [(f"pi_formula_{n}_{k}", lambda n=n, k=k: pi(n, k))
              for n, k in ((3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (4, 1))]
    named += [
        ("whitney_4_2_p13", lambda: whitney(
            4, 2, {1: Fraction(3, 31), 2: Fraction(30, 37)}, 13)),
        ("whitney_3_3", lambda: whitney(
            3, 3, {1: Fraction(1, 5), 2: Fraction(2, 5), 3: Fraction(3, 5)}))]
    named += [(f"extract_T_{n}_p{p}", lambda n=n, p=p: extract(n, p))
              for n in range(1, 5) for p in (2 * n, 2 * n + 1)]
    named += [
        ("taylor_recover_4_p8", taylor),
        ("derivative_order0_exact", lambda: gateaux_exact(order0_F, order0)),
        ("derivative_order0_numeric",
         lambda: gateaux_numeric(order0_F, order0)),
        ("cli_verify_consistency_n3",
         lambda: run_cli("verify", "consistency", "-n", "3")),
        ("cli_verify_consistency_n4",
         lambda: run_cli("verify", "consistency", "-n", "4")),
        ("cli_pi_n5_k2", lambda: run_cli("pi", "-n", "5", "-k", "2"))]
    return named


def main(argv: list[str]) -> int:
    root = (Path(argv[1]) if len(argv) > 1 else
            Path(__file__).resolve().parent.parent / "src").resolve()
    sys.path.insert(0, str(root))
    import graphoncalc
    from graphoncalc import Multigraph, graph_signature

    where = Path(graphoncalc.__file__).resolve().parent.parent
    if where != root:
        print(f"graphoncalc is already imported from {where}, not {root}",
              file=sys.stderr)
        return 1

    def plain(x):
        """x with rationals as num/den strings and graphs as signatures."""
        if isinstance(x, (list, tuple)):
            return tuple(map(plain, x))
        if isinstance(x, Fraction):
            return str(x)
        if isinstance(x, Multigraph):
            return graph_signature(x)
        return x

    for name, thunk in answers():
        text = repr(plain(thunk()))
        print(name, hashlib.sha256(text.encode()).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
