import importlib.util
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "answer_digests.py"
spec = importlib.util.spec_from_file_location("answer_digests", TOOL)
answer_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(answer_digests)

# The sha256 of each answer's text.  A change that keeps every answer keeps
# these; a change that means to move one updates its line and says why.
PINNED = [
    ("S_0",
     "5a9c6784ef11ee38fd96740727a112dda5c643a0c5220e7781fe5de9778aa3d4"),
    ("S_1",
     "6028b31c68c15ab893088839b8ab999cbb592f5859a9e84fe063ecbad557dd76"),
    ("S_2",
     "c7550adfaea541cc1def67fe2c5cbee113285cd5168c8870bbb612c31e176987"),
    ("S_3",
     "4179fc475ce64dcb726e147835f4c06461b2b4a67f7a9737807432f435f3a1e0"),
    ("S_4",
     "9b844116ccd7567d7aa842fbe37f1959acce8ad94fe5f402312baada93ced602"),
    ("S_5",
     "11803ad87796c4fa59936b8f87632108c62c56f923527214af8f597817d9d6bb"),
    ("pi_formula_3_2",
     "9b5335904737b05e078e47092ae475a5d94c0440f1a9c40c1d6de997480cd442"),
    ("pi_formula_4_2",
     "010edf73f6567ef793eabb5f414e0757965195f068e6d5f21f74675a515b57db"),
    ("pi_formula_5_2",
     "3f3b5b8a34a0be7bb03d3296803dab81a7a7c9f7f480788fafc8f73600b1e450"),
    ("pi_formula_3_3",
     "de787ff8ba2e85c0bba6b885ee2aff537d5ae0d4607f271e6a5a789f1bd9e01d"),
    ("pi_formula_4_3",
     "5ad114a98916415cc1e9923cd6f07c1ae276cb803536b7031f87988e24fda6ea"),
    ("pi_formula_4_1",
     "d5a9ab29b00bfb5c6ccdf49a2f07c15cb722cec1cfbe4f44685a61136c5423bc"),
    ("whitney_4_2_p13",
     "a7fe58909ec80d332b83b3aa212c7f9e272192a9ac295e5edc207623a3a34c59"),
    ("whitney_3_3",
     "206b1a5c7654f6c61474bff966eeb87eea95f894b90fc55672f3a94f4aff1180"),
    ("extract_T_1_p2",
     "31ddd840f0b69870c5a39872867fcfb42316362651bea945cb7cbc5b6483cf81"),
    ("extract_T_1_p3",
     "41b2b5453d3dcf136408ea62e50fae92b0e105a398082bf893157b33b91dda20"),
    ("extract_T_2_p4",
     "baed022899fb39a7b4f8329c31160a04ff17c829b1fc0499302f283aa5400e30"),
    ("extract_T_2_p5",
     "644e564bc237ac5127a63649fecb3d467cd52999f738828f08937981c86a93d2"),
    ("extract_T_3_p6",
     "2013d344cd1c4e1412e36f1eb4ad4450d4dcda09499ba150d4a3256f31831186"),
    ("extract_T_3_p7",
     "4caa31ed65de1913e7011e6f96d14fcb12963f65a5927fc3fd9cd8d0c0946a24"),
    ("extract_T_4_p8",
     "478a414d97ab70b948e90e7e9027f2c7c70e686139a205b5b98e89fea14482c1"),
    ("extract_T_4_p9",
     "7f93554f10d7e43093846d8382d09ad71c71cd2042f66c8104b4935dfcf98272"),
    ("taylor_recover_4_p8",
     "8350060bab4d56a46c8d4691966580ac8948ea36af600d706407eeead91b4a87"),
    ("derivative_order0_exact",
     "d8c5c852e9f951ec7fcea3a7f3a0ef2d6c3baaf6b4bfed47245be16da9045664"),
    ("derivative_order0_numeric",
     "347e54b84d3b75bc5f1de3d807eb6244c4cf54de83f1781de619a78d7f151741"),
    ("cli_verify_consistency_n3",
     "aeee1c470b003bde64c3af58e93fc3e39a4b6928a6f2dbfdb2616619b07bfd03"),
    ("cli_verify_consistency_n4",
     "139f657148c0b21b66726ad27696dfff5fcaaadc1c9dad5c7af408a92ac75024"),
    ("cli_pi_n5_k2",
     "918c7524ef45066419842468b5d7fc8b55312113ac7c977c05646def87b9970b"),
]


@pytest.fixture
def lines(capsys):
    assert answer_digests.main(["answer_digests.py"]) == 0
    return capsys.readouterr().out.splitlines()


def test_prints_one_digest_per_named_answer(lines):
    assert [line.split()[0] for line in lines] == [name for name, _ in PINNED]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    # distinct answers have distinct digests
    assert len({line.split()[1] for line in lines}) == len(PINNED)


def test_answers_match_the_pinned_digests(lines):
    assert [tuple(line.split()) for line in lines] == PINNED
