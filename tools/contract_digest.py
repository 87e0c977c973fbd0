"""Print one sha256 of every output format per (mode, d, witnesses).

Each line is ``mode d witnesses sha256`` over ``to_json() + to_text() +
to_csv()`` of one classification.  The grid is triples at d = 2..32 and
pairs at d = 2..64, 100, 128, 243, 256, 500, 729, 1000 and 1024, each
with and without witnesses.  Run it against two trees and diff the
output to check that a change keeps the contract byte-identical:

    PYTHONPATH=src python3 tools/contract_digest.py > after.txt
"""

from __future__ import annotations

import hashlib

from gbsclass import classify

GRID = [("triples", d) for d in range(2, 33)] + [
    ("pairs", d) for d in [*range(2, 65), 100, 128, 243, 256, 500, 729, 1000, 1024]
]


def main() -> None:
    run = {"triples": classify.enumerate_triples, "pairs": classify.enumerate_pairs}
    for mode, d in GRID:
        for witnesses in (False, True):
            cls = run[mode](d, witnesses)
            text = cls.to_json() + cls.to_text() + cls.to_csv()
            digest = hashlib.sha256(text.encode()).hexdigest()
            print(mode, d, int(witnesses), digest, flush=True)
        # the per-d state caches are unbounded; keep the sweep's memory flat
        classify._TRIPLE_STATE.clear()
        classify._PAIR_STATE.clear()


if __name__ == "__main__":
    main()
