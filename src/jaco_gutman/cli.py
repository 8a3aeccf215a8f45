"""Command-line interface.

Subcommands: build, gutman, wiener, recursion-check, joint, sequences,
erratum.  Exit codes: 0 success, 1 usage error (bad flags, unknown names,
out-of-range anchors, an --out path that cannot be written), 2 domain error
(disconnected graph where an index needs connectivity, failed structural
precondition, mismatched audit) or a command that ran out of memory.  A
reader that closes stdout before the output ends (`| head -1`) gives exit 1
with no message.

All output is deterministic; the only randomized piece, the non-trivial
anchor audit inside `erratum`, draws from a seeded generator (--seed,
default 0).

A process runs one subcommand, so each `_cmd_*` imports the modules it uses
(`serialize`, `edge_joint`, `recursion`, `sequences`) when it runs: `gutman`
and `wiener` load `graph_core` and `jaco` only.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

# Lowest layer first: without a bytecode cache each module then compiles with
# fewer half-run modules above it, which keeps about 0.5 MB off the peak RSS.
# The commands import their other layers in the same order, `serialize` last.
from .graph_core import StructureAssumptionViolated, gutman_index, wiener_index
from .jaco import SEQUENCE_NAMES, LinearFunction, build_jaco

if TYPE_CHECKING:
    from .edge_joint import AnchorCheck, JointDelta
    from .recursion import RecursionDelta


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise UsageError(message)


def _integer(text: str) -> int:
    """The value of `text` if it is ASCII decimal digits after an optional '-'.

    int() alone would also accept '1_0', ' 10', '+10' and non-ASCII digits.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer in ASCII decimal digits")
    return int(text)


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonneg(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def _add_function_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=_nonneg, default=1, help="slope of f(x) = mx + c (default 1)")
    parser.add_argument("--c", type=_nonneg, default=0, help="offset of f(x) = mx + c (default 0)")


def build_parser() -> _Parser:
    parser = _Parser(prog="jaco", description="Linear Jaco graphs, Gutman index, formula audits")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("build", help="construct a graph and serialize it")
    _add_function_flags(p)
    p.add_argument("--n", type=_positive, required=True, help="graph order")
    p.add_argument("--format", choices=("dot", "json", "csv"), default="json")
    p.add_argument("--directed", action="store_true", help="emit arcs instead of undirected edges (dot)")
    p.add_argument("--out", type=Path, help="write to this file instead of stdout")
    p.set_defaults(func=_cmd_build)

    for name, help_text in (("gutman", "Gutman index"), ("wiener", "Wiener index")):
        p = sub.add_parser(name, help=f"print the {help_text} of the underlying graph")
        _add_function_flags(p)
        p.add_argument("--n", type=_positive, required=True, help="graph order")
        p.add_argument("--out", type=Path)
        p.set_defaults(func=_cmd_gutman if name == "gutman" else _cmd_wiener)

    p = sub.add_parser("recursion-check", help="audit the order recursion (f(x) = x)")
    p.add_argument("--n-max", type=_positive, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=Path)
    p.set_defaults(func=_cmd_recursion_check)

    p = sub.add_parser("joint", help="compose two identity Jaco graphs and compare formulas")
    p.add_argument("--n", type=_positive, required=True, help="order of the first graph")
    p.add_argument("--m", type=_positive, required=True, help="order of the second graph")
    p.add_argument("--vi", type=_positive, default=1, help="anchor in the first graph (default 1)")
    p.add_argument("--uj", type=_positive, default=1, help="anchor in the second graph (default 1)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=Path)
    p.set_defaults(func=_cmd_joint)

    p = sub.add_parser("sequences", help="tabulate per-order sequences")
    _add_function_flags(p)
    p.add_argument("--n-max", type=_positive, required=True)
    p.add_argument(
        "--which",
        default=",".join(SEQUENCE_NAMES),
        help="comma-separated subset of: " + ", ".join(SEQUENCE_NAMES),
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=Path, help="file for one table, directory for several")
    p.set_defaults(func=_cmd_sequences)

    p = sub.add_parser("erratum", help="run both formula audits with per-term deltas")
    p.add_argument("--n-max", type=_positive, default=20)
    p.add_argument("--m-max", type=_positive, default=10)
    p.add_argument("--seed", type=_integer, default=0, help="seed for the anchor audit (default 0)")
    p.add_argument("--out", type=Path)
    p.set_defaults(func=_cmd_erratum)

    return parser


# Characters per write.  A text stream encodes what it is given in one go, so
# writing a large export whole would hold a second, encoded copy of it.
_WRITE_CHARS = 1 << 18


def _write_slices(stream: TextIO, text: str) -> None:
    for start in range(0, len(text), _WRITE_CHARS):
        stream.write(text[start : start + _WRITE_CHARS])


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        _write_slices(sys.stdout, text)
    else:
        with out.open("w") as handle:
            _write_slices(handle, text)


def _cmd_build(args: argparse.Namespace) -> int:
    from . import serialize

    j = build_jaco(LinearFunction(args.m, args.c), args.n)
    if args.format == "json":
        text = serialize.jaco_to_json(j)
    elif args.format == "csv":
        text = serialize.jaco_to_csv(j)
    else:
        text = serialize.jaco_to_dot(j, directed=args.directed)
    _emit(text, args.out)
    return 0


def _cmd_gutman(args: argparse.Namespace) -> int:
    j = build_jaco(LinearFunction(args.m, args.c), args.n)
    _emit(f"{gutman_index(j.underlying)}\n", args.out)
    return 0


def _cmd_wiener(args: argparse.Namespace) -> int:
    j = build_jaco(LinearFunction(args.m, args.c), args.n)
    _emit(f"{wiener_index(j.underlying)}\n", args.out)
    return 0


def _cmd_recursion_check(args: argparse.Namespace) -> int:
    if args.n_max < 2:
        raise UsageError("--n-max must be at least 2")
    from .recursion import recursion_delta_report
    from . import serialize

    rows = recursion_delta_report(args.n_max)
    if args.format == "csv":
        text = serialize.recursion_report_csv(rows)
    else:
        text = serialize.recursion_report_json(rows)
    _emit(text, args.out)
    return _audit_exit(_first_audit_failure(rows, [], []))


def _cmd_joint(args: argparse.Namespace) -> int:
    if args.n < 2 or args.m < 2:
        raise UsageError("joint requires both orders to be at least 2")
    if args.vi > args.n:
        raise UsageError(f"--vi {args.vi} out of range 1..{args.n}")
    if args.uj > args.m:
        raise UsageError(f"--uj {args.uj} out of range 1..{args.m}")
    from .edge_joint import joint_check
    from . import serialize

    row = joint_check(args.n, args.m, args.vi, args.uj)
    if args.format == "csv":
        text = serialize.joint_single_csv(row)
    else:
        text = serialize.joint_single_json(row)
    _emit(text, args.out)
    failure = None
    if row["closed_form"] != row["direct"]:
        failure = (
            f"joint (n, m, vi, uj) = ({args.n}, {args.m}, {args.vi}, {args.uj}): "
            f"closed form {row['closed_form']}, direct {row['direct']}"
        )
    return _audit_exit(failure)


def _cmd_sequences(args: argparse.Namespace) -> int:
    names = [w.strip() for w in args.which.split(",") if w.strip()]
    if not names:
        raise UsageError("--which selected no sequences")
    unknown = [w for w in names if w not in SEQUENCE_NAMES]
    if unknown:
        raise UsageError(f"unknown sequence name {unknown[0]!r}")
    from .sequences import sequence_tables
    from . import serialize

    f = LinearFunction(args.m, args.c)
    tables = sequence_tables(names, f, args.n_max)
    render = serialize.sequence_to_csv if args.format == "csv" else serialize.sequence_to_json
    suffix = ".csv" if args.format == "csv" else ".json"
    if args.out is not None and len(tables) > 1:
        args.out.mkdir(parents=True, exist_ok=True)
        for table in tables:
            _emit(render(table), args.out / f"{table.name}{suffix}")
        return 0
    if len(tables) == 1:
        _emit(render(tables[0]), args.out)
        return 0
    # several tables on stdout: comment-labeled sections a blank line apart,
    # each written as soon as it is rendered
    gap = ""
    for table in tables:
        sys.stdout.write(f"{gap}# {table.name}\n")
        _write_slices(sys.stdout, render(table))
        gap = "\n"
    return 0


def _cmd_erratum(args: argparse.Namespace) -> int:
    if args.n_max < 2:
        raise UsageError("--n-max must be at least 2")
    if args.m_max < 2:
        raise UsageError("--m-max must be at least 2")
    from .edge_joint import anchor_checks, joint_delta_report
    from .recursion import recursion_delta_report
    from . import serialize

    recursion_rows = recursion_delta_report(args.n_max)
    joint_rows = joint_delta_report(args.n_max, args.m_max)
    # each check is counted as it is made, and only the first failing one kept
    checks = anchors_ok = 0
    failed: list[AnchorCheck] = []
    for check in anchor_checks(args.n_max, args.m_max, per_pair=5, seed=args.seed):
        checks += 1
        anchors_ok += check.ok
        if not (check.ok or failed):
            failed.append(check)
    text = (
        "# recursion audit\n"
        + serialize.recursion_report_csv(recursion_rows, per_term=True)
        + "\n# edge-joint audit\n"
        + serialize.joint_report_csv(joint_rows)
        + f"# anchor audit: {anchors_ok}/{checks} non-trivial anchor checks "
        f"passed (seed={args.seed})\n"
    )
    _emit(text, args.out)
    return _audit_exit(_first_audit_failure(recursion_rows, joint_rows, failed))


def _first_audit_failure(
    recursion_rows: list[RecursionDelta], joint_rows: list[JointDelta], anchors: list[AnchorCheck]
) -> str | None:
    """The first audited value that differs from its direct oracle, named, or None."""
    for row in recursion_rows:
        if not row.exact_matches_direct:
            return f"recursion row n={row.n}: exact {row.exact_rhs}, direct {row.direct}"
    for row in joint_rows:
        if not row.closed_matches_direct:
            return f"edge-joint point (n, m) = ({row.n}, {row.m}): closed form {row.closed_form}, direct {row.direct}"
    for check in anchors:
        if not check.ok:
            return (
                f"anchor check (n, m, vi, uj) = ({check.n}, {check.m}, {check.vi}, {check.uj}): "
                f"closed form {check.closed_form}, direct {check.direct}"
            )
    return None


def _audit_exit(failure: str | None) -> int:
    """Exit code of an audit: 0, or 2 after naming its first failure on stderr."""
    if failure is None:
        return 0
    print(f"error: an audited value mismatched the direct oracle at {failure}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        # The reader closed the output early (`jaco build ... | head -1`):
        # the output is cut short, but no flag was wrong.
        return 1
    except (UsageError, OSError) as exc:
        # OSError: an --out path that cannot be written
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, StructureAssumptionViolated) as exc:
        # DisconnectedGraphError subclasses ValueError and lands here too.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's error for an array too large to allocate subclasses MemoryError.
        command = args.command if args is not None else "jaco"
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {command} ran out of memory{detail}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    code = main(sys.argv[1:])
    try:
        # Output still buffered meets a closed reader here, not at teardown.
        sys.stdout.flush()
    except BrokenPipeError:
        # As the `signal` docs advise: point stdout at devnull, so that the
        # flush at exit has nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = code or 1
    sys.exit(code)
