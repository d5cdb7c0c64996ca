import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "answer_digests.py"
spec = importlib.util.spec_from_file_location("answer_digests", TOOL)
answer_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(answer_digests)

NAMES = [
    *(f"S_{n}" for n in range(6)),
    *(f"pi_formula_{n}_{k}"
      for n, k in ((3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (4, 1))),
    "whitney_4_2_p13", "whitney_3_3",
    *(f"extract_T_{n}_p{p}" for n in range(1, 5) for p in (2 * n, 2 * n + 1)),
    "taylor_recover_4_p8", "derivative_order0_exact",
    "derivative_order0_numeric", "cli_verify_consistency_n3",
    "cli_verify_consistency_n4", "cli_pi_n5_k2"]


def test_prints_one_digest_per_named_answer(capsys):
    assert answer_digests.main(["answer_digests.py"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == NAMES
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    # distinct answers have distinct digests
    assert len({line.split()[1] for line in lines}) == len(NAMES)
