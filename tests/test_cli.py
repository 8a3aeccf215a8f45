"""Command-line contract: formats, exit codes, file output."""
import dataclasses
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from jaco_gutman import IDENTITY, StructureAssumptionViolated, build_jaco
from jaco_gutman import cli, edge_joint, graph_core, recursion, sequences
from jaco_gutman.base import SMALL_ORDER
from jaco_gutman.cli import entrypoint, main
from jaco_gutman.serialize import jaco_from_json, jaco_to_json

class _ArrayMemoryError(MemoryError):
    """Like numpy's error for an array too large to allocate, a MemoryError with a message."""


_TOO_LARGE = "Unable to allocate 931. GiB for an array with shape (1000000, 1000000) and data type int8"


J5_JSON = '{"m":1,"c":0,"n":5,"arcs":[[1,2],[2,3],[3,4],[3,5],[4,5]]}\n'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_json_byte_exact(self, capsys):
        code, out, _ = run(capsys, "build", "--m", "1", "--c", "0", "--n", "5")
        assert code == 0
        assert out == J5_JSON

    def test_json_defaults(self, capsys):
        code, out, _ = run(capsys, "build", "--n", "5")
        assert code == 0 and out == J5_JSON

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "build", "--n", "3", "--format", "csv")
        assert code == 0
        assert out == "tail,head\n1,2\n2,3\n"

    def test_dot_undirected(self, capsys):
        code, out, _ = run(capsys, "build", "--n", "3", "--format", "dot")
        assert code == 0
        assert out == "graph J3 {\n  v1;\n  v2;\n  v3;\n  v1 -- v2;\n  v2 -- v3;\n}\n"

    def test_dot_directed(self, capsys):
        code, out, _ = run(capsys, "build", "--n", "3", "--format", "dot", "--directed")
        assert code == 0
        assert "digraph J3 {" in out
        assert "  v1 -> v2;" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "graph.json"
        code, out, _ = run(capsys, "build", "--n", "5", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == J5_JSON

    @pytest.mark.parametrize("fmt", ["json", "csv", "dot"])
    def test_out_file_matches_stdout_across_write_slices(self, capsys, monkeypatch, tmp_path, fmt):
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

        argv = ["build", "--m", "2", "--c", "1", "--n", "600", "--format", fmt]
        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(argv) == 0
        monkeypatch.undo()
        printed = "".join(writes)
        assert len(writes) > 3 and max(map(len, writes)) == cli._WRITE_CHARS
        target = tmp_path / f"graph.{fmt}"
        code, out, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_bytes() == printed.encode()

    def test_round_trip(self):
        j = build_jaco(IDENTITY, 9)
        assert jaco_from_json(jaco_to_json(j)) == j

    def test_round_trip_rejects_malformed(self):
        with pytest.raises(ValueError):
            jaco_from_json("not json at all {")
        with pytest.raises(ValueError):
            jaco_from_json('{"m":1,"c":0}')
        with pytest.raises(ValueError, match="^graph JSON must be an object$"):
            jaco_from_json("[1, 2]")

    @pytest.mark.parametrize(
        "text",
        [
            '{"m":1,"c":0,"n":3.7,"arcs":[[1,2],[2,3]]}',
            '{"m":1,"c":0,"n":"3","arcs":[[1,2],[2,3]]}',
            '{"m":true,"c":0,"n":3,"arcs":[[1,2],[2,3]]}',
            '{"m":1,"c":0.0,"n":3,"arcs":[[1,2],[2,3]]}',
        ],
    )
    def test_json_rejects_non_integer_fields(self, text):
        with pytest.raises(ValueError, match="must be integers"):
            jaco_from_json(text)

    def test_json_rejects_non_integer_arcs(self):
        with pytest.raises(ValueError):
            jaco_from_json('{"m":1,"c":0,"n":3,"arcs":[["1",2.9],[2,3]]}')

    @pytest.mark.parametrize(
        "arcs, message",
        [
            ("5", "must be a list"),
            ("null", "must be a list"),
            ("[5]", "edge 5 is not a pair"),
            ("[[1,2,3]]", r"edge \[1, 2, 3\] is not a pair"),
        ],
    )
    def test_json_rejects_arcs_that_are_not_pairs(self, arcs, message):
        with pytest.raises(ValueError, match=message):
            jaco_from_json(f'{{"m":1,"c":0,"n":3,"arcs":{arcs}}}')

    def test_json_rejects_arcs_breaking_the_rule(self):
        with pytest.raises(ValueError, match="arc rule"):
            jaco_from_json('{"m":1,"c":0,"n":3,"arcs":[[1,2]]}')


class TestScalarCommands:
    def test_gutman(self, capsys):
        code, out, _ = run(capsys, "gutman", "--n", "5")
        assert code == 0 and out == "58\n"

    def test_wiener(self, capsys):
        code, out, _ = run(capsys, "wiener", "--m", "0", "--c", "3", "--n", "3")
        assert code == 0 and out == "3\n"

    def test_gutman_disconnected_is_domain_error(self, capsys):
        code, _, err = run(capsys, "gutman", "--m", "0", "--c", "2", "--n", "7")
        assert code == 2
        assert "disconnected" in err


class TestRecursionCheck:
    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "recursion-check", "--n-max", "4")
        assert code == 0
        assert out == (
            "n,i,paper_rhs,exact_rhs,direct,delta_paper\n"
            "2,1,5,6,6,-1\n"
            "3,2,17,19,19,-2\n"
            "4,2,58,58,58,0\n"
        )

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "recursion-check", "--n-max", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["paper_rhs"] == 5
        assert rows[0]["term_deltas"]["constants"] == -1
        assert rows[1]["direct"] == 19

    def test_names_the_first_mismatch(self, capsys, monkeypatch):
        real = recursion.recursion_delta_report
        monkeypatch.setattr(
            recursion, "recursion_delta_report", lambda *a, **k: _corrupt(real(*a, **k), {1, 2}, _off_by_one_recursion)
        )
        code, out, err = run(capsys, "recursion-check", "--n-max", "4")
        assert code == 2
        assert err == (
            "error: an audited value mismatched the direct oracle at recursion row n=3: "
            "exact 19, direct 20\n"
        )
        # The report itself still prints, and shows the corrupted values.
        assert out == (
            "n,i,paper_rhs,exact_rhs,direct,delta_paper\n"
            "2,1,5,6,6,-1\n"
            "3,2,17,19,20,-3\n"
            "4,2,58,58,59,-1\n"
        )

    def test_low_bound_is_usage_error(self, capsys):
        code, _, err = run(capsys, "recursion-check", "--n-max", "1")
        assert code == 1 and "usage error" in err


class TestJoint:
    def test_trivial_csv(self, capsys):
        code, out, _ = run(capsys, "joint", "--n", "2", "--m", "2")
        assert code == 0
        assert out == (
            "n,m,vi,uj,direct,closed_form,paper_rhs,delta_paper,missing_block\n"
            "2,2,1,1,19,19,15,-4,4\n"
        )

    def test_nontrivial_csv_omits_paper_columns(self, capsys):
        code, out, _ = run(capsys, "joint", "--n", "4", "--m", "3", "--vi", "2")
        assert code == 0
        assert out == "n,m,vi,uj,direct,closed_form\n4,3,2,1,122,122\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "joint", "--n", "3", "--m", "2", "--format", "json")
        assert code == 0
        row = json.loads(out)
        assert row["paper_rhs"] == 30 and row["direct"] == 44

    def test_nontrivial_direct_equals_closed(self, capsys):
        code, out, _ = run(capsys, "joint", "--n", "5", "--m", "4", "--vi", "3", "--uj", "2")
        assert code == 0
        header, values = out.splitlines()
        assert header == "n,m,vi,uj,direct,closed_form"
        row = dict(zip(header.split(","), values.split(",")))
        assert row["direct"] == row["closed_form"]
        assert "paper_rhs" not in header

    def test_mismatch_exits_2_naming_the_joint(self, capsys, monkeypatch):
        argv = ("joint", "--n", "4", "--m", "3", "--vi", "2")
        code, clean, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        real = edge_joint.joint_check
        monkeypatch.setattr(edge_joint, "joint_check", lambda *a: {**real(*a), "direct": 123})
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err == (
            "error: an audited value mismatched the direct oracle at joint (n, m, vi, uj) = (4, 3, 2, 1): "
            "closed form 122, direct 123\n"
        )
        # The row itself still prints, and shows the corrupted value.
        assert out == clean.replace("122,122", "123,122")

    def test_ball_that_never_fills_is_domain_error(self, capsys, monkeypatch):
        # lo and hi frozen at each vertex: no side is the interval graph its
        # reach describes, so the direct value's balls never fill
        real = edge_joint._side_tables

        def frozen(sides):
            offset, lo, _, pre = real(sides)
            return offset, np.arange(len(lo)), np.arange(len(lo)), pre

        monkeypatch.setattr(edge_joint, "_side_tables", frozen)
        code, out, err = run(capsys, "joint", "--n", "5", "--m", "4")
        assert (code, out) == (2, "")
        assert err == "error: a ball has not filled its joint after 9 rounds, more than the joint's order allows\n"

    def test_anchor_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "joint", "--n", "3", "--m", "2", "--vi", "9")
        assert code == 1 and "out of range" in err

    def test_order_one_is_usage_error(self, capsys):
        code, _, err = run(capsys, "joint", "--n", "3", "--m", "1")
        assert code == 1 and "at least 2" in err


class TestSequences:
    def test_single_table_byte_exact(self, capsys):
        code, out, _ = run(capsys, "sequences", "--which", "edges", "--n-max", "7")
        assert code == 0
        assert out == "n,value\n1,0\n2,1\n3,2\n4,3\n5,5\n6,7\n7,10\n"

    def test_multi_table_sections(self, capsys):
        code, out, _ = run(capsys, "sequences", "--n-max", "3")
        assert code == 0
        sections = [s for s in out.split("\n\n") if s]
        assert len(sections) == 4
        assert sections[0].startswith("# edges\nn,value\n")

    def test_multi_table_directory(self, capsys, tmp_path):
        target = tmp_path / "tables"
        code, _, _ = run(
            capsys, "sequences", "--n-max", "5", "--out", str(target)
        )
        assert code == 0
        names = sorted(p.name for p in target.iterdir())
        assert names == [
            "edges.csv",
            "gutman.csv",
            "jaconian_cardinality.csv",
            "v1_vn_distance.csv",
        ]
        assert (target / "edges.csv").read_text().startswith("n,value\n1,0\n")

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "sequences", "--which", "gutman", "--n-max", "5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] == [[1, 0], [2, 1], [3, 6], [4, 19], [5, 58]]

    def test_unknown_name_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sequences", "--which", "girth", "--n-max", "4")
        assert code == 1 and "unknown sequence" in err

    @pytest.mark.parametrize("which", ["edges,edges", "gutman, edges,gutman"])
    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out-dir"])
    def test_repeated_name_is_usage_error_before_any_table(self, capsys, tmp_path, monkeypatch, which, out):
        def refuse(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(sequences, "sequence_tables", refuse)
        target = tmp_path / "tables"
        argv = ["sequences", "--n-max", "3", "--which", which, *(["--out", str(target)] if out else [])]
        code, stdout, err = run(capsys, *argv)
        name = which.split(",")[0].strip()
        assert (code, stdout, err) == (1, "", f"usage error: sequence name {name!r} is repeated\n")
        assert not target.exists()

    def test_disconnected_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "sequences", "--which", "gutman", "--m", "0", "--c", "2", "--n-max", "7"
        )
        assert code == 2 and "disconnected" in err


class TestErratum:
    def test_sections_and_exit(self, capsys):
        code, out, _ = run(capsys, "erratum", "--n-max", "4", "--m-max", "4")
        assert code == 0
        assert out.startswith("# recursion audit\n")
        assert "\n# edge-joint audit\n" in out
        assert "# anchor audit: " in out
        assert "passed (seed=0)" in out
        lines = out.splitlines()
        assert "2,1,5,6,6,-1,0,0,0,0,0,-1" in lines
        assert "2,2,15,19,19,-4,4,0" in lines

    def test_seed_recorded(self, capsys):
        code, out, _ = run(capsys, "erratum", "--n-max", "3", "--m-max", "3", "--seed", "9")
        assert code == 0 and "(seed=9)" in out

    def test_default_bounds_exit_zero(self, capsys):
        code, out, _ = run(capsys, "erratum")
        assert code == 0
        assert out.count("# recursion audit") == 1
        assert out.count("# edge-joint audit") == 1


def _corrupt(rows, picks, change):
    """`rows` with the rows at the indices in `picks` replaced by change(row)."""
    return [change(row) if k in picks else row for k, row in enumerate(rows)]


def _off_by_one_recursion(row):
    return dataclasses.replace(row, direct=row.direct + 1)


class TestErratumNamesTheFirstFailure:
    ARGV = ("erratum", "--n-max", "6", "--m-max", "4")
    # `erratum` evaluates one closed form per trivial grid point, in grid
    # order, and then one per anchor check: 12 points on this grid
    GRID = 12

    def _patch(self, monkeypatch, module, name, picks, change):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: _corrupt(real(*a, **k), picks, change))

    def _wrong_closed_forms(self, monkeypatch, picks):
        """The closed form, one too large at the calls numbered in `picks`, counting from 0."""
        real, calls = edge_joint.closed_form_joint_gutman, itertools.count()
        monkeypatch.setattr(edge_joint, "closed_form_joint_gutman", lambda joint: real(joint) + (next(calls) in picks))

    def test_recursion_row(self, capsys, monkeypatch):
        self._patch(monkeypatch, recursion, "recursion_delta_report", {1, 3}, _off_by_one_recursion)
        self._wrong_closed_forms(monkeypatch, {0})
        code, _, err = run(capsys, *self.ARGV)
        assert code == 2
        assert err == (
            "error: an audited value mismatched the direct oracle at recursion row n=3: "
            "exact 19, direct 20\n"
        )

    def test_joint_point(self, capsys, monkeypatch):
        code, clean, _ = run(capsys, *self.ARGV)
        self._wrong_closed_forms(monkeypatch, {2, 4, self.GRID})
        code, out, err = run(capsys, *self.ARGV)
        assert code == 2
        assert err == (
            "error: an audited value mismatched the direct oracle at edge-joint point (n, m) = (3, 3): "
            "closed form 86, direct 85\n"
        )
        # The report itself still prints, and shows the corrupted value.
        assert out.splitlines()[:8] == clean.splitlines()[:8] and out != clean

    def test_anchor_check(self, capsys, monkeypatch):
        code, clean, _ = run(capsys, *self.ARGV)
        checks = edge_joint.anchor_audit(6, 4, per_pair=5, seed=0)
        bad = checks[7]
        self._wrong_closed_forms(monkeypatch, {self.GRID + 7})
        code, out, err = run(capsys, *self.ARGV)
        assert code == 2
        assert err == (
            f"error: an audited value mismatched the direct oracle at anchor check "
            f"(n, m, vi, uj) = ({bad.n}, {bad.m}, {bad.vi}, {bad.uj}): "
            f"closed form {bad.closed_form + 1}, direct {bad.direct}\n"
        )
        total = len(checks)
        assert out == clean.replace(f"{total}/{total} non-trivial", f"{total - 1}/{total} non-trivial")


class TestExitCodes:
    def test_malformed_flag(self, capsys):
        code, _, err = run(capsys, "build", "--n", "not-a-number")
        assert code == 1 and "usage error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "build")
        assert code == 1

    def test_out_in_missing_directory_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "build", "--n", "3", "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and str(target) in err and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["json", "csv", "dot"])
    def test_out_that_is_a_directory_is_usage_error(self, capsys, tmp_path, fmt):
        code, out, err = run(capsys, "build", "--n", "3", "--format", fmt, "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and str(tmp_path) in err and err.count("\n") == 1

    def test_out_directory_that_is_a_file_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "README.md"
        target.write_text("kept\n")
        code, out, err = run(capsys, "sequences", "--n-max", "3", "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and str(target) in err and err.count("\n") == 1
        assert target.read_text() == "kept\n"

    # Integer flags take ASCII decimal digits only, so nothing that int()
    # would coerce (underscores, spaces, a sign, other scripts' digits) passes.
    @pytest.mark.parametrize("text", ["1_0", " 10", "10 ", "+10", "\u0661\u0660", "\uff11\uff10", "1e1", "0x10", "10.0", "", "-"])
    @pytest.mark.parametrize(
        "argv",
        [["gutman", "--n"], ["sequences", "--n-max", "3", "--m"], ["erratum", "--n-max", "3", "--seed"]],
        ids=["positive", "nonnegative", "seed"],
    )
    def test_integer_flags_take_ascii_decimal_digits_only(self, capsys, argv, text):
        code, out, err = run(capsys, *argv, text)
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["gutman", "--n"], ["sequences", "--n-max", "3", "--m"]])
    def test_counts_reject_a_minus_sign(self, capsys, argv):
        code, out, err = run(capsys, *argv, "-1")
        assert code == 1 and out == "" and "must be a " in err

    @pytest.mark.parametrize("text", ["010", "0010"])
    def test_leading_zeros_are_decimal(self, capsys, text):
        assert run(capsys, "gutman", "--n", text) == run(capsys, "gutman", "--n", "10") == (0, "1137\n", "")

    @pytest.mark.parametrize("seed", ["-7", "0", "-0", "007"])
    def test_seed_takes_a_leading_minus(self, capsys, seed):
        code, out, _ = run(capsys, "erratum", "--n-max", "4", "--m-max", "3", "--seed", seed)
        assert code == 0 and out.endswith(f"passed (seed={int(seed)})\n")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["gutman", "--n", "5"], 0),
            (["frobnicate"], 1),
            (["gutman", "--m", "0", "--c", "2", "--n", "7"], 2),
        ],
    )
    def test_entrypoint_exit_codes(self, capsys, monkeypatch, argv, expected):
        monkeypatch.setattr(sys, "argv", ["jaco", *argv])
        with pytest.raises(SystemExit) as stop:
            entrypoint()
        assert stop.value.code == expected
        assert capsys.readouterr().out == ("58\n" if expected == 0 else "")

    # A failed allocation is raised, never made: each command's callee is
    # patched, in the module the command reads it from, to raise what numpy
    # raises for an array too large to allocate.  The index commands call
    # numpy's layers only above SMALL_ORDER.
    @pytest.mark.parametrize(
        "callee, argv",
        [
            ("gutman_index", ["gutman", "--n", str(SMALL_ORDER + 1)]),
            ("wiener_index", ["wiener", "--n", str(SMALL_ORDER + 1)]),
            ("sequence_tables", ["sequences", "--n-max", "5"]),
            ("joint_check", ["joint", "--n", "5", "--m", "5"]),
        ],
    )
    @pytest.mark.parametrize(
        "error, detail",
        [(MemoryError(), ""), (_ArrayMemoryError(_TOO_LARGE), f": {_TOO_LARGE}")],
        ids=["bare", "numpy"],
    )
    def test_running_out_of_memory_is_a_domain_error(self, capsys, monkeypatch, callee, argv, error, detail):
        def exhausted(*args, **kwargs):
            raise error

        owner = {"sequence_tables": sequences, "joint_check": edge_joint}.get(callee, graph_core)
        monkeypatch.setattr(owner, callee, exhausted)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {argv[0]} ran out of memory{detail}\n")

    def test_subprocess_domain_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "jaco_gutman", "gutman", "--m", "0", "--c", "2", "--n", "7"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "disconnected" in proc.stderr

    def test_subprocess_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "jaco_gutman", "build", "--n", "-3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1

    def test_subprocess_success(self):
        proc = subprocess.run(
            [sys.executable, "-m", "jaco_gutman", "build", "--n", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == J5_JSON

    def test_structure_violation_is_a_domain_error(self, capsys, monkeypatch):
        def violated(deg, dist, i):
            raise StructureAssumptionViolated(f"Hope vertices of the order-{len(deg)} graph are not pairwise adjacent")

        monkeypatch.setattr(recursion, "_check_structure", violated)
        code, out, err = run(capsys, "recursion-check", "--n-max", "3")
        assert (code, out, err) == (2, "", "error: Hope vertices of the order-2 graph are not pairwise adjacent\n")

    def test_structure_violation_is_a_domain_error_in_a_fresh_process(self):
        # `recursion` loads only when the command runs, so it imports the
        # doctored `build_jaco` (K3, built as the order-3 graph of 2x), on
        # which its structure check fails.
        code = (
            "import sys\n"
            "from jaco_gutman import LinearFunction, jaco\n"
            "doctored = jaco.build_jaco(LinearFunction(2, 0), 3)\n"
            "jaco.build_jaco = lambda f, n: doctored\n"
            "assert 'jaco_gutman.recursion' not in sys.modules\n"
            "sys.argv = ['jaco', 'recursion-check', '--n-max', '2']\n"
            f"{_ENTRY['module']}\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: prime index disagreement at n=2: ") and proc.stderr.count("\n") == 1

    # A reader that closes stdout early, like `| head -1`, cuts the output
    # short: exit 1, with neither a usage error nor a traceback at teardown.
    def test_reader_closing_stdout_early_exits_1_silently(self):
        argv = [sys.executable, "-m", "jaco_gutman", "build", "--n", "3000", "--format", "csv"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"tail,head\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=120), err) == (1, b"")

    @pytest.mark.parametrize("argv", [["gutman", "--n", "5"], ["build", "--n", "600", "--format", "csv"]])
    def test_stdout_closed_before_the_first_write_exits_1_silently(self, argv):
        # "58\n" stays buffered until the entry point flushes it; the export
        # fails inside the command.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "jaco_gutman", *argv], stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")


def _fresh(code, blas_threads=None):
    """Stdout lines of `code` run in a new interpreter, with OPENBLAS_NUM_THREADS unset or set."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


# Each entry point as the process runs it: `python -m jaco_gutman` executes
# the submodule as __main__, and the `jaco` script imports it and calls entrypoint.
_ENTRY = {
    "module": "import runpy; runpy.run_module('jaco_gutman', run_name='__main__', alter_sys=True)",
    "script": "from jaco_gutman.__main__ import entrypoint; entrypoint()",
}


# `sequences` loads numpy at every order; `build` and small `gutman` and `wiener` load none.
_NUMPY_ARGV = ["sequences", "--n-max", "5", "--which", "edges", "--format", "json"]
_NUMPY_OUT = '{"name":"edges","m":1,"c":0,"rows":[[1,0],[2,1],[3,2],[4,3],[5,5]]}\n'


def _entry_run(entry):
    """Code that runs `jaco sequences --n-max 5 --which edges --format json`, a
    command that loads numpy, through `entry`, then prints the BLAS variable
    and the process's thread count."""
    return (
        "import os, sys\n"
        f"sys.argv = ['jaco', *{_NUMPY_ARGV!r}]\n"
        "try:\n"
        f"    {_ENTRY[entry]}\n"
        "except SystemExit as stop:\n"
        "    assert stop.code == 0, stop.code\n"
        "assert 'numpy' in sys.modules\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None)\n"
    )


class TestEntryPoints:
    def test_package_import_loads_no_numpy(self):
        code = "import sys, jaco_gutman, jaco_gutman.__main__; dir(jaco_gutman); print('numpy' in sys.modules)"
        assert _fresh(code) == ["False"]

    def test_every_public_name_resolves(self):
        code = (
            "import jaco_gutman\n"
            "from jaco_gutman import *\n"
            "from jaco_gutman import cli, edge_joint, graph_core, jaco, recursion, sequences\n"
            "layers = (edge_joint, graph_core, jaco, recursion, sequences)\n"
            "for name in jaco_gutman.__all__:\n"
            "    value = globals()[name]\n"
            "    assert value is getattr(jaco_gutman, name), name\n"
            "    assert any(getattr(layer, name, None) is value for layer in layers), name\n"
            "    assert name in dir(jaco_gutman), name\n"
            "assert not hasattr(jaco_gutman, 'no_such_name')\n"
            "print(len(jaco_gutman.__all__), cli.__name__)"
        )
        assert _fresh(code) == ["44 jaco_gutman.cli"]

    def test_names_defined_in_base_load_no_numpy(self):
        names = ["DisconnectedGraphError", "StructureAssumptionViolated", "SEQUENCE_NAMES"]
        code = (
            "import sys, jaco_gutman\n"
            f"values = [getattr(jaco_gutman, name) for name in {names!r}]\n"
            "print('numpy' in sys.modules)\n"
            "from jaco_gutman import graph_core, jaco\n"
            f"print([value is getattr(graph_core, name, None) or value is getattr(jaco, name, None) for name, value in zip({names!r}, values)])\n"
        )
        assert _fresh(code) == ["False", "[True, True, True]"]

    def test_library_imports_set_no_blas_threads(self):
        code = "import os, jaco_gutman.cli, jaco_gutman.__main__; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        assert _fresh(code) == ["None"]

    def test_library_imports_and_main_leave_the_collector_alone(self):
        code = (
            "import gc, jaco_gutman, jaco_gutman.cli, jaco_gutman.__main__\n"
            "print(gc.isenabled(), gc.get_freeze_count())\n"
            "jaco_gutman.cli.main(['gutman', '--n', '5'])\n"
            "print(gc.isenabled(), gc.get_freeze_count())\n"
        )
        assert _fresh(code) == ["True 0", "58", "True 0"]

    # Each subcommand imports only the layers it runs, and no stdlib module
    # it does not use; site may have loaded `random` before the entry runs.
    # `gutman` and `wiener` of small orders run on `base` alone, and `build`
    # in every format and at every order on `base` and `serialize`.
    @pytest.mark.parametrize(
        "argv, layers, unused",
        [
            pytest.param(["gutman", "--n", "5"], [], ["json", "numpy", "random"], id="gutman"),
            pytest.param(["wiener", "--n", "5"], [], ["json", "numpy", "random"], id="wiener"),
            pytest.param(["build", "--n", "5"], ["serialize"], ["json", "numpy", "random"], id="build"),
            pytest.param(
                ["build", "--m", "1000000000000", "--c", "7", "--n", "40", "--format", "csv"],
                ["serialize"],
                ["json", "numpy", "random"],
                id="build-csv",
            ),
            pytest.param(["build", "--n", "300", "--format", "dot"], ["serialize"], ["json", "numpy", "random"], id="build-dot"),
            pytest.param(
                ["build", "--m", "0", "--c", "50", "--n", "10", "--format", "dot", "--directed"],
                ["serialize"],
                ["json", "numpy", "random"],
                id="build-directed",
            ),
            pytest.param(["build", "--n", "5", "--out", os.devnull], ["serialize"], ["json", "numpy", "random"], id="build-out"),
            pytest.param(
                ["erratum", "--n-max", "4", "--m-max", "3"],
                ["edge_joint", "graph_core", "jaco", "recursion", "serialize"],
                ["json"],
                id="erratum",
            ),
        ],
    )
    def test_entry_imports_only_the_subcommands_layers_and_keeps_the_collector_on(self, argv, layers, unused):
        code = (
            "import gc, sys\n"
            "before = set(sys.modules)\n"
            f"sys.argv = ['jaco', *{argv!r}]\n"
            "try:\n"
            f"    {_ENTRY['module']}\n"
            "except SystemExit as stop:\n"
            "    assert stop.code == 0, stop.code\n"
            f"print(sorted(set({unused!r}) & (set(sys.modules) - before)))\n"
            "print(sorted(name for name in sys.modules if name.startswith('jaco_gutman.')))\n"
            "print(gc.isenabled(), gc.get_freeze_count() > 0)\n"
        )
        loaded = sorted(f"jaco_gutman.{name}" for name in ["base", "cli", *layers])
        assert _fresh(code)[-3:] == ["[]", str(loaded), "True True"]

    @pytest.mark.parametrize("entry", sorted(_ENTRY))
    @pytest.mark.parametrize("blas_threads, seen", [(None, "1"), ("2", "2")])
    def test_entry_points_default_to_one_blas_thread(self, entry, blas_threads, seen):
        out, variable, _ = _fresh(_entry_run(entry), blas_threads)
        assert (out + "\n", variable) == (_NUMPY_OUT, seen)

    # numpy loads only above SMALL_ORDER, and then after the entry point has
    # set the BLAS default: the import of numpy records the variable it sees.
    @pytest.mark.parametrize(
        "argv, seen",
        [
            (["gutman", "--n", "5"], "numpy not loaded"),
            (["wiener", "--n", "5"], "numpy not loaded"),
            (["wiener", "--n", str(SMALL_ORDER)], "numpy not loaded"),
            (["gutman", "--n", str(SMALL_ORDER + 1)], "numpy loaded with OPENBLAS_NUM_THREADS=1"),
        ],
    )
    def test_index_commands_load_numpy_only_above_the_small_order(self, argv, seen):
        code = (
            "import os, sys\n"
            "seen = ['numpy not loaded']\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy':\n"
            "            threads = os.environ.get('OPENBLAS_NUM_THREADS')\n"
            "            seen[0] = f'numpy loaded with OPENBLAS_NUM_THREADS={threads}'\n"
            "sys.meta_path.insert(0, Spy())\n"
            f"sys.argv = ['jaco', *{argv!r}]\n"
            "try:\n"
            f"    {_ENTRY['module']}\n"
            "except SystemExit as stop:\n"
            "    assert stop.code == 0, stop.code\n"
            "print(seen[0])\n"
        )
        assert _fresh(code)[-1] == seen

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task")
    @pytest.mark.parametrize("entry", sorted(_ENTRY))
    def test_entry_process_has_one_thread_after_numpy_loads(self, entry):
        assert _fresh(_entry_run(entry))[2] == "1"
