"""The numpy-free indices of `base` against the numpy path and the brute-force oracle, and its reach check."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jaco_gutman import LinearFunction, build_jaco, gutman_index, wiener_index
from jaco_gutman import base, cli
from jaco_gutman.base import StructureAssumptionViolated, small_order_index

from bruteforce import brute_gutman, brute_wiener, slow_jaco_arcs


def _outcome(compute):
    """The value of compute(), or the type and message of the exception it raises."""
    try:
        return compute()
    except ValueError as exc:
        return type(exc), str(exc)


@given(st.integers(0, 4), st.integers(0, 6), st.integers(1, 500), st.booleans())
@settings(max_examples=300, deadline=None)
def test_small_order_index_equals_the_numpy_index(m, c, n, gutman):
    # m = 0 graphs are disconnected past order c + 1: both sides must raise alike.
    index = gutman_index if gutman else wiener_index
    expected = _outcome(lambda: index(build_jaco(LinearFunction(m, c), n).underlying))
    assert _outcome(lambda: small_order_index(m, c, n, gutman)) == expected


@pytest.mark.parametrize("m, c", [(0, 0), (0, 3), (1, 0), (1, 2), (2, 1), (3, 0)])
def test_small_order_index_equals_the_brute_force_oracle(m, c):
    for n in range(1, 26):
        arcs = slow_jaco_arcs(m, c, n)
        for gutman, brute in ((True, brute_gutman), (False, brute_wiener)):
            expected = _outcome(lambda: brute(n, arcs))
            got = _outcome(lambda: small_order_index(m, c, n, gutman))
            if isinstance(expected, tuple):  # the oracle's own message differs
                assert got[0] is base.DisconnectedGraphError, (m, c, n)
            else:
                assert got == expected, (m, c, n, gutman)


@pytest.mark.parametrize("reach", [[1, 1, 3], [2, 3, 4]], ids=["below v", "above n"])
def test_a_reach_outside_v_to_n_is_refused_and_build_prints_nothing(monkeypatch, capsys, reach):
    # `build` renders the checked reach, so it exits 2 before any output.
    monkeypatch.setattr(base, "arc_rule_reach", lambda m, c, n: iter(reach))
    with pytest.raises(StructureAssumptionViolated, match="leave v..n"):
        base.jaco_reach(1, 0, 3)
    assert cli.main(["build", "--n", "3"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: the reaches of the order-3 graph of 1x + 0 leave v..n or decrease\n")


def test_a_decreasing_reach_is_refused(monkeypatch):
    # No linear f gives one; the forest identity would be wrong on it.
    monkeypatch.setattr(base, "arc_rule_reach", lambda m, c, n: iter([4, 3, 4, 4]))
    with pytest.raises(StructureAssumptionViolated, match="decrease"):
        small_order_index(1, 0, 4, True)
