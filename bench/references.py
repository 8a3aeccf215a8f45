"""Record and confirm the byte-exact references of the full-size workloads.

    python3 bench/references.py            # compare the working tree with references.json
    python3 bench/references.py --write    # record the working tree's outputs

references.json was recorded from the seed code.  The CLI's output is meant
to stay byte-identical, so --write is for a deliberate format change only.
Where the pure-Python oracle in tests/bruteforce.py can afford it, the
outputs are also confirmed against it:

  export           every arc, at full size
  joint-audit      every edge-joint direct value on the 40 x 40 grid, the
                   recursion rows of its first section and the anchor line
  recursion-sweep  direct values for orders up to ORACLE_MAX_ORDER only
  gutman-large     not affordable at n = 3000; the self-test checks
                   `gutman` against the oracle at small n instead
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import REFERENCES, ROOT, WORKLOADS, OracleReferences, SeedReferences, digest, split_anchor_line

ORACLE_MAX_ORDER = 120
SEED = 0


def current_outputs() -> dict[str, bytes]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = {}
    for name, workload in WORKLOADS.items():
        argv = [sys.executable, "-m", "jaco_gutman", *workload.argv(SEED)]
        outputs[name] = subprocess.run(argv, env=env, capture_output=True, check=True).stdout
    return outputs


def table_of(outputs: dict[str, bytes]) -> dict:
    table = {name: digest(out) for name, out in outputs.items()}
    body, _ = split_anchor_line(outputs["joint-audit"])
    table["joint-audit"] = {"body": digest(body)}
    return table


def confirm_with_oracle(outputs: dict[str, bytes]) -> list[str]:
    oracle = OracleReferences(tiny=False)
    problems = [f"{name}: {oracle.check(name, SEED, outputs[name])}" for name in ("export", "joint-audit")]
    rows = outputs["recursion-sweep"].split(b"\n")[1 : ORACLE_MAX_ORDER - 1]
    problems.append(f"recursion-sweep: {oracle.check_recursion_rows(rows, ORACLE_MAX_ORDER - 1)}")
    return [p for p in problems if not p.endswith(": None")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    outputs = current_outputs()
    problems = confirm_with_oracle(outputs)
    print(f"oracle: {'; '.join(problems) or 'agrees where checked'}")
    table = table_of(outputs)
    if args.write:
        REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {REFERENCES.relative_to(ROOT)}")
        return 1 if problems else 0
    stored = SeedReferences().table
    for name in WORKLOADS:
        same = stored[name] == table[name]
        print(f"{name}: {'matches' if same else 'differs from'} the stored reference")
        if not same:
            problems.append(name)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
