"""Print one sha256 per piece of the output contract.

Each classification line is ``mode d witnesses sha256`` over
``to_json() + to_text() + to_csv()`` of one classification.  The grid is
triples at d = 2..32 and pairs at d = 2..64, 100, 128, 210, 243, 256,
360, 500, 720, 729, 997, 1000 and 1024, each with and without witnesses.

Each ``mode d invariants sha256`` line covers the numbers behind the
labels: ``invariant_vector(rep, range(1, d), range(1, d))`` of every
class representative, as ``repr`` of its key and of its I1 values, for
triples at d <= 32 and pairs at d <= 64.  The ``cli invariants k fmt
sha256`` lines cover the exit code and output of ``gbsclass invariants``
on the README example and the second ``--help`` example, in every
format.  The ``cli pairs|triples args sha256`` lines cover the exit code
and output of the classification commands: ``triples --dim 9`` in every
format, ``pairs --dim 12`` with witnesses as JSON, and the refusals of
``triples --dim 33`` (exit 3) and ``pairs --dim 1`` (exit 2).  The
``cli verify args sha256`` lines cover the exit code and output of the
dense-matrix suite: ``verify --prime-power 2 3``, ``verify --dim 6`` and
the refusal of ``verify --dim 80`` (exit 3).  Each
``locate d sha256`` line covers ``locate_class(d, S)`` of every normalized
triple S at d = 8, 9, 12 and 16, in sorted order.  Each ``keys d sha256``
line covers the key rows ``classify._key_rows(d)`` beyond the CLI caps,
at d = 33..128, 256, 512 and 1024: the class roots, the orbit sizes and
the bytes of every row's class index.  They take about 3 s together.
Each ``witnesses d sha256`` line covers ``json.dumps([witnesses,
notes])`` of ``classify._triple_witnesses(d, classify._key_rows(d))``
beyond the CLI caps, at d = 33..70, 72, 80, 81, 96, 100, 108, 120, 121,
125 and 128, including the classes the moves split and the ``None`` of
a class whose start reaches no root.  They take about 2 s together.

Run it against two trees and diff the output to check that a change
keeps the contract byte-identical:

    PYTHONPATH=src python3 tools/contract_digest.py > after.txt
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations

from click.testing import CliRunner

from gbsclass import classify
from gbsclass.cli import main as cli_main
from gbsclass.pauli import GpmSet, invariant_vector

GRID = [("triples", d) for d in range(2, 33)] + [
    ("pairs", d)
    for d in [*range(2, 65), 100, 128, 210, 243, 256, 360, 500, 720, 729, 997, 1000, 1024]
]
INVARIANT_CAP = {"triples": 32, "pairs": 64}
CLI_EXAMPLES = [
    ["--dim", "9", "--set", "0,0;0,1;3,0", "--a", "3", "--pow", "3"],
    ["--dim", "8", "--set", "0,0;0,1;4,2", "--a", "4", "--pow", "2"],
]
CLI_COMMANDS = [
    *(["triples", "--dim", "9", "--format", fmt] for fmt in ("json", "csv", "text")),
    ["pairs", "--dim", "12", "--emit-witnesses", "--format", "json"],
    ["triples", "--dim", "33"],
    ["pairs", "--dim", "1"],
    ["verify", "--prime-power", "2", "3"],
    ["verify", "--dim", "6"],
    ["verify", "--dim", "80"],
]
LOCATE_DIMS = (8, 9, 12, 16)
KEY_DIMS = (*range(33, 129), 256, 512, 1024)
WITNESS_DIMS = (*range(33, 71), 72, 80, 81, 96, 100, 108, 120, 121, 125, 128)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def invariant_text(cls: classify.Classification) -> str:
    """Every invariant at every power and shift of each representative."""
    d = cls.dimension
    parts = []
    for c in cls.classes:
        iv = invariant_vector(c.representative, range(1, d), range(1, d))
        values = [iv.i1.value()] + [pb.i1.value() for _, pb in sorted(iv.powered.items())]
        parts.append(f"{c.representative.to_text()} {iv.key()!r} {values!r}\n")
    return "".join(parts)


def locate_text(d: int) -> str:
    """The class of every normalized triple at d, one line each."""
    return "".join(
        f"{classify.locate_class(d, GpmSet(d, ((0, 0), divmod(a, d), divmod(b, d))))}\n"
        for a, b in combinations(range(1, d * d), 2)
    )


def key_rows_digest(d: int) -> str:
    """sha256 of the key rows at d: roots, orbit sizes, and each row's index."""
    rows = classify._key_rows(d)
    digest = hashlib.sha256(f"{rows.roots!r}\n{rows.sizes!r}\n".encode())
    for g, index in rows.index.items():
        digest.update(f"{g}\n".encode() + index.tobytes())
    classify._key_rows.cache_clear()
    return digest.hexdigest()


def witness_digest(d: int) -> str:
    """sha256 of the row-graph witnesses at d and the notes on split classes."""
    digest = sha(json.dumps(classify._triple_witnesses(d, classify._key_rows(d))))
    classify._key_rows.cache_clear()
    return digest


def main() -> None:
    run = {"triples": classify.enumerate_triples, "pairs": classify.enumerate_pairs}
    for mode, d in GRID:
        for witnesses in (False, True):
            cls = run[mode](d, witnesses)
            print(mode, d, int(witnesses), sha(cls.to_json() + cls.to_text() + cls.to_csv()),
                  flush=True)
        if d <= INVARIANT_CAP[mode]:
            print(mode, d, "invariants", sha(invariant_text(cls)), flush=True)
    runner = CliRunner()
    for k, args in enumerate(CLI_EXAMPLES, start=1):
        for fmt in ("json", "csv", "text"):
            res = runner.invoke(cli_main, ["invariants", *args, "--format", fmt])
            print("cli invariants", k, fmt, sha(f"{res.exit_code}\n{res.output}"), flush=True)
    for args in CLI_COMMANDS:
        res = runner.invoke(cli_main, args)
        print("cli", " ".join(args), sha(f"{res.exit_code}\n{res.output}"), flush=True)
    for d in LOCATE_DIMS:
        print("locate", d, sha(locate_text(d)), flush=True)
    for d in KEY_DIMS:
        print("keys", d, key_rows_digest(d), flush=True)
    for d in WITNESS_DIMS:
        print("witnesses", d, witness_digest(d), flush=True)


if __name__ == "__main__":
    main()
