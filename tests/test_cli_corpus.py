"""Every case of the byte-exact CLI corpus gives its recorded exit code and bytes."""
import json

import pytest

from cli_corpus import CORPUS, run_case

CASES = json.loads(CORPUS.read_text())["cases"]


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case["argv"]) or "(no arguments)" for case in CASES])
def test_case_matches_its_record(case):
    # On a deliberate change of output, `python tests/cli_corpus.py` re-records.
    assert {"argv": case["argv"], **run_case(case["argv"])} == case
