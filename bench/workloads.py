"""The benchmark's workloads and the checks that decide whether an output is correct.

Each workload is one `jaco` subcommand.  At full size its output is compared
byte for byte with `references.json`, which was recorded from the seed code
(see `references.py`).  At tiny size, used by the self-test, the expected
values come from the pure-Python oracle in `tests/bruteforce.py`, which is
imported read-only.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import re
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"

# The trivial process behind setup_s: interpreter, numpy, package import, argparse.
SETUP_ARGV = ("gutman", "--n", "2")
SETUP_OUTPUT = b"1\n"

# Closed-form checks per grid point in the anchor audit (`erratum` passes per_pair=5).
ANCHORS_PER_POINT = 5


@dataclass(frozen=True)
class Workload:
    name: str
    full: tuple[str, ...]
    tiny: tuple[str, ...]
    seeded: bool = False  # the subcommand takes the workload seed as --seed

    def argv(self, seed: int, tiny: bool = False) -> list[str]:
        args = list(self.tiny if tiny else self.full)
        if self.seeded:
            args += ["--seed", str(seed)]
        return args

    def flags(self, tiny: bool = False) -> dict[str, int]:
        """The integer-valued flags of the subcommand, e.g. {"--n": 3000}."""
        args = self.tiny if tiny else self.full
        return {k: int(v) for k, v in zip(args[1::2], args[2::2]) if v.isdigit()}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gutman-large", ("gutman", "--n", "3000"), ("gutman", "--n", "40")),
        Workload(
            "recursion-sweep",
            ("recursion-check", "--n-max", "500"),
            ("recursion-check", "--n-max", "24"),
        ),
        Workload(
            "joint-audit",
            ("erratum", "--n-max", "40", "--m-max", "40"),
            ("erratum", "--n-max", "8", "--m-max", "6"),
            seeded=True,
        ),
        Workload(
            "export",
            ("build", "--m", "2", "--c", "1", "--n", "2000", "--format", "json"),
            ("build", "--m", "2", "--c", "1", "--n", "60", "--format", "json"),
        ),
    )
}

_ANCHOR_LINE = re.compile(
    rb"# anchor audit: (\d+)/(\d+) non-trivial anchor checks passed \(seed=(-?\d+)\)\n\Z"
)


def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def digest_file(path: Path) -> dict:
    """digest() of a file's content, read in blocks to keep the reader's RSS small."""
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return {"sha256": sha.hexdigest(), "bytes": path.stat().st_size}


def split_anchor_line(out: bytes) -> tuple[bytes, bytes]:
    """Split `erratum` output into the seed-independent body and its last line."""
    cut = out.rstrip(b"\n").rfind(b"\n") + 1
    return out[:cut], out[cut:]


def anchor_checks(n_max: int, m_max: int) -> int:
    """Number of non-trivial anchor checks `erratum` runs on its (n, m) grid."""
    return ANCHORS_PER_POINT * sum(min(n, m_max) - 1 for n in range(2, n_max + 1))


def check_anchor_line(line: bytes, seed: int, expected_checks: int) -> str | None:
    match = _ANCHOR_LINE.match(line)
    if match is None:
        return f"malformed anchor line {line[:120]!r}"
    passed, total, echoed = (int(g) for g in match.groups())
    if (passed, total, echoed) != (expected_checks, expected_checks, seed):
        return f"anchor line reports {passed}/{total} (seed={echoed}), expected {expected_checks}/{expected_checks} (seed={seed})"
    return None


class SeedReferences:
    """Byte-exact references for the full-size workloads, recorded from the seed code.

    Called with a workload name, the seed and the file holding its stdout;
    returns None for a correct output and the reason otherwise.
    """

    def __init__(self, path: Path = REFERENCES):
        self.table = json.loads(path.read_text())

    def __call__(self, name: str, seed: int, out: Path) -> str | None:
        ref = self.table[name]
        if name == "joint-audit":
            body, last = split_anchor_line(out.read_bytes())
            if digest(body) != ref["body"]:
                return "output body differs from the seed reference"
            flag = WORKLOADS[name].flags()
            return check_anchor_line(last, seed, anchor_checks(flag["--n-max"], flag["--m-max"]))
        got = digest_file(out)
        if got != ref:
            return f"output differs from the seed reference ({got['bytes']} bytes)"
        return None


# --- checks against the pure-Python oracle ---------------------------------------


def load_oracle():
    """tests/bruteforce.py, imported read-only as a standalone module."""
    spec = importlib.util.spec_from_file_location("bruteforce", ROOT / "tests" / "bruteforce.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class OracleReferences:
    """Expected outputs computed by the pure-Python oracle (tiny sizes by default)."""

    def __init__(self, tiny: bool = True):
        self.tiny = tiny
        self.bf = load_oracle()
        self._gutman: dict[int, int] = {}

    def jaco_gutman(self, n: int) -> int:
        """Gutman index of the identity Jaco graph of order n (memoized)."""
        if n not in self._gutman:
            self._gutman[n] = self.bf.brute_gutman(n, self.bf.slow_jaco_arcs(1, 0, n))
        return self._gutman[n]

    def joint_gutman(self, n: int, m: int) -> int:
        """Gutman index of J_n and J_m joined by the bridge v_1 -- u_1."""
        edges = self.bf.slow_jaco_arcs(1, 0, n)
        edges += [(a + n, b + n) for a, b in self.bf.slow_jaco_arcs(1, 0, m)]
        edges.append((1, n + 1))
        return self.bf.brute_gutman(n + m, edges)

    def arcs_json(self, m: int, c: int, n: int) -> bytes:
        arcs = [[a, b] for a, b in self.bf.slow_jaco_arcs(m, c, n)]
        payload = {"m": m, "c": c, "n": n, "arcs": arcs}
        return (json.dumps(payload, separators=(",", ":")) + "\n").encode()

    def check_recursion_rows(self, lines: list[bytes], n_max: int) -> str | None:
        rows = [[int(v) for v in line.split(b",")] for line in lines]
        if [row[0] for row in rows] != list(range(2, n_max + 1)):
            return "recursion rows do not cover n = 2..n_max"
        for n, _i, paper, exact, direct, delta, *_ in rows:
            if direct != self.jaco_gutman(n + 1):
                return f"recursion direct value wrong at n={n}"
            if exact != direct or delta != paper - direct:
                return f"recursion row inconsistent at n={n}"
        return None

    def check_joint_rows(self, lines: list[bytes], n_max: int, m_max: int) -> str | None:
        grid = [(n, m) for n in range(2, n_max + 1) for m in range(2, min(n, m_max) + 1)]
        rows = [[int(v) for v in line.split(b",")] for line in lines]
        if [tuple(row[:2]) for row in rows] != grid:
            return "edge-joint rows do not cover the (n, m) grid"
        for n, m, paper, closed, direct, delta, block, residual in rows:
            if direct != self.joint_gutman(n, m) or closed != direct:
                return f"edge-joint value wrong at (n, m) = ({n}, {m})"
            if delta != paper - direct or residual != paper + block - direct:
                return f"edge-joint row inconsistent at (n, m) = ({n}, {m})"
        return None

    def __call__(self, name: str, seed: int, out: Path) -> str | None:
        return self.check(name, seed, out.read_bytes())

    def check(self, name: str, seed: int, out: bytes) -> str | None:
        flag = WORKLOADS[name].flags(self.tiny)
        if name == "gutman-large":
            expected = f"{self.jaco_gutman(flag['--n'])}\n".encode()
            return None if out == expected else f"expected {expected!r}, got {out[:80]!r}"
        if name == "export":
            expected = self.arcs_json(flag["--m"], flag["--c"], flag["--n"])
            return None if out == expected else "graph JSON differs from the oracle's arcs"
        lines = out.split(b"\n")[:-1]
        if name == "recursion-sweep":
            return self.check_recursion_rows(lines[1:], flag["--n-max"])
        # joint-audit: three labeled sections from `erratum`
        n_max, m_max = flag["--n-max"], flag["--m-max"]
        try:
            split = lines.index(b"# edge-joint audit")
        except ValueError:
            return "no edge-joint section"
        if lines[0] != b"# recursion audit" or lines[split - 1] != b"":
            return "malformed erratum sections"
        problem = self.check_recursion_rows(lines[2 : split - 1], n_max)
        problem = problem or self.check_joint_rows(lines[split + 2 : -1], n_max, m_max)
        return problem or check_anchor_line(lines[-1] + b"\n", seed, anchor_checks(n_max, m_max))
