"""Capture the correctness references in ``refs/`` from the current source tree.

    python3 perfbench/make_refs.py

Run it only when a change is meant to alter the classification output,
and review the diff of ``refs/`` like any other change of results.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

import check  # noqa: E402
from run import ROOT, child_env, cli_command  # noqa: E402


def main() -> None:
    os.makedirs(check.REFS, exist_ok=True)
    for workload in check.WORKLOADS:
        proc = subprocess.run(cli_command(workload), cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, check=False)
        ref = {"workload": workload, "argv": check.cli_args(workload),
               **check.summarize(json.loads(proc.stdout), proc.returncode)}
        path = os.path.join(check.REFS, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{path}: {len(ref['classes'])} classes, exit {proc.returncode}")


if __name__ == "__main__":
    main()
