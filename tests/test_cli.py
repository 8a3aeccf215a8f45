"""Command-line contract: formats, exit codes, file output."""
import dataclasses
import json
import subprocess
import sys

import pytest

from jaco_gutman import IDENTITY, build_jaco
from jaco_gutman import cli
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
        real = cli.recursion_delta_report
        monkeypatch.setattr(
            cli, "recursion_delta_report", lambda *a, **k: _corrupt(real(*a, **k), {1, 2}, _off_by_one_recursion)
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
        real = cli.joint_check
        monkeypatch.setattr(cli, "joint_check", lambda *a: {**real(*a), "direct": 123})
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err == (
            "error: an audited value mismatched the direct oracle at joint (n, m, vi, uj) = (4, 3, 2, 1): "
            "closed form 122, direct 123\n"
        )
        # The row itself still prints, and shows the corrupted value.
        assert out == clean.replace("122,122", "123,122")

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


def _off_by_one_joint(row):
    return dataclasses.replace(row, closed_form=row.closed_form + 1)


class TestErratumNamesTheFirstFailure:
    ARGV = ("erratum", "--n-max", "6", "--m-max", "4")

    def _patch(self, monkeypatch, name, picks, change):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, **k: _corrupt(real(*a, **k), picks, change))

    def test_recursion_row(self, capsys, monkeypatch):
        self._patch(monkeypatch, "recursion_delta_report", {1, 3}, _off_by_one_recursion)
        self._patch(monkeypatch, "joint_delta_report", {0}, _off_by_one_joint)
        code, _, err = run(capsys, *self.ARGV)
        assert code == 2
        assert err == (
            "error: an audited value mismatched the direct oracle at recursion row n=3: "
            "exact 19, direct 20\n"
        )

    def test_joint_point(self, capsys, monkeypatch):
        code, clean, _ = run(capsys, *self.ARGV)
        self._patch(monkeypatch, "joint_delta_report", {2, 4}, _off_by_one_joint)
        self._patch(monkeypatch, "anchor_audit", {0}, _off_by_one_joint)
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
        checks = cli.anchor_audit(6, 4, per_pair=5, seed=0)
        bad = checks[7]
        self._patch(monkeypatch, "anchor_audit", {7}, _off_by_one_joint)
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
    # patched to raise what numpy raises for an array too large to allocate.
    @pytest.mark.parametrize(
        "callee, argv",
        [
            ("gutman_index", ["gutman", "--n", "5"]),
            ("wiener_index", ["wiener", "--n", "5"]),
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

        monkeypatch.setattr(cli, callee, exhausted)
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
