"""The output contract, pinned byte for byte.

Each classification hash is the sha256 of ``to_json() + to_text() +
to_csv()`` of one classification, as ``tools/contract_digest.py`` prints
it.  The grid leaves out the dimensions whose output is expected to
change.  Each ``gbsclass invariants`` hash covers the exit code and the
output of one example in one format, as the ``cli invariants k fmt``
lines of the same tool print them.
"""

from __future__ import annotations

import hashlib

import pytest
from click.testing import CliRunner

from gbsclass.classify import enumerate_pairs, enumerate_triples
from gbsclass.cli import main

CONTRACT = {
    ("triples", 8, False): "3f9caa81b117320ee0c1d2e0c8fb14cf5eafd53b22f1785790d13b38cf626b92",
    ("triples", 8, True): "7aad647481636bc4989f172f9774756e669a02de2c81f24c8c4e16f6f80dceaf",
    ("triples", 9, False): "28fdbc838f6da3d106c9e0897e5e672cb9d82c79b8f43b1a8224c19d2d0bac25",
    ("triples", 9, True): "c16e4aef788a0eebb62e8294cafc2d67aa051dc959a81c8ac41c774a862192f5",
    ("triples", 12, False): "120bb477e50a1d47fe5a8c76488fa36130b239e0d017c770ee891e6dc47018ee",
    ("triples", 12, True): "4dcc46fc24278b5fcd8f5f22050a9260450abd39aeba1762884b81b96095be54",
    ("triples", 16, False): "c08ccd84063f9acda89441dc3ad2752c192b43bdd381b6a5b13fbc94ce5dee5f",
    ("triples", 16, True): "184a499ed2417bb96d3c851f83291a5b378db1e1763b447a1efe475cc1b55e8e",
    ("triples", 25, False): "8fe3d296d819fa776251b55883a8a3e69d7702998c5657c55570e1ebf6f73bf3",
    ("triples", 25, True): "9b7ab58fef24aab60a1e251d3ed7acde29866b6068a731a05306411d271fc340",
    ("triples", 27, False): "c4a6459a79fdf74129d023f2bb6a58910f1d73de86a5691086bdc74f70006f97",
    ("triples", 27, True): "74d17cc4c8bb36fd2aa5f37057e57f12c0cad1238064ce40ce53b158898bd88b",
    ("pairs", 2, True): "4d49d20021840e344839f34dcf74e57633de39a964cec80c65be68f3419c9baa",
    ("pairs", 12, False): "916775217bbcd705648204c3ffb7eb35b3a392bf4e062e8f3cf0537bc19989f4",
    ("pairs", 12, True): "3d06a3b1a50c5165b90f5a86ded2e31bea9162ea5c5576cad47aefdb7b14ed48",
    ("pairs", 36, False): "265e8d18f6915fcc146b5574a805a98f4c1dfb9c7d19899ca10373c85b3cb7a0",
    ("pairs", 36, True): "01458ee21f128d4cecf9edfe8ef55e0077317af3c7d72d7ec8b6bfb87d14392a",
    ("pairs", 720, False): "bd234091871257300d9fb48866241f462db41a95c2401b7d33b9a19677a2d3cf",
    ("pairs", 720, True): "21cafce849b20020027b5eded1d516045397cd79851ad51f3e05bb414b3379b3",
    ("pairs", 997, False): "599e6675b46c1dbe10610cb9e340bc254c3582419c69d1c739294520cc1dedc1",
    ("pairs", 997, True): "ddec12a9e8a962e02e39d85e2d02328cc39d43319ab18e15f147777dbcfa7c08",
    ("pairs", 1024, False): "0f4e2f453b88bad71882246117b307fb186a4a168d107b9b662e288f09830fd9",
    ("pairs", 1024, True): "d9a3b3167b2deadcb5427edd3854cc906551379d1f21864abcb93224a1afd6da",
}


@pytest.mark.parametrize("mode, d, witnesses", list(CONTRACT))
def test_output_contract_is_pinned(mode: str, d: int, witnesses: bool) -> None:
    run = enumerate_pairs if mode == "pairs" else enumerate_triples
    cls = run(d, witnesses)
    text = cls.to_json() + cls.to_text() + cls.to_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == CONTRACT[mode, d, witnesses]


INVARIANTS_EXAMPLES = {
    1: ["--dim", "9", "--set", "0,0;0,1;3,0", "--a", "3", "--pow", "3"],
    2: ["--dim", "8", "--set", "0,0;0,1;4,2", "--a", "4", "--pow", "2"],
}

INVARIANTS_CONTRACT = {
    (1, "json"): "93a6a7ce25af4b83f990dac990a01d05c6ab516a36431cbd9c74508560882e37",
    (1, "csv"): "a9435a1d79fb741d02868168fa6a22750c91f7dc2c030e97190fc44e983ea8bf",
    (1, "text"): "7f97622172ccc9e5aa23af1f4a49b062fe67a216b7cdf6786e20e381e0637ce3",
    (2, "json"): "5b6316217ee4ad34fc6d53b89bcebb5170e2dafe316c33b2c0004da44c5ad726",
    (2, "csv"): "154e8bc34061e6d37f8970e680e815407eb0b4445a784dd2e359e0287bbb8c84",
    (2, "text"): "5576eaa30379ef4cfa610c8e6f0db989559ec68f5e33a37cf1a2a2aaa32b13b6",
}


@pytest.mark.parametrize("k, fmt", list(INVARIANTS_CONTRACT))
def test_invariants_command_output_is_pinned(k: int, fmt: str) -> None:
    res = CliRunner().invoke(main, ["invariants", *INVARIANTS_EXAMPLES[k], "--format", fmt])
    text = f"{res.exit_code}\n{res.output}"
    assert hashlib.sha256(text.encode()).hexdigest() == INVARIANTS_CONTRACT[k, fmt]
