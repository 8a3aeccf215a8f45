"""Command-line contract: formats, exit codes, file output."""
import json
import subprocess
import sys

import pytest

from jaco_gutman import IDENTITY, build_jaco
from jaco_gutman.cli import main
from jaco_gutman.serialize import jaco_from_json, jaco_to_json

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
