"""Built-in invariant check suite."""

import pytest

from spectra_svi.checks import CheckResult, run_checks


@pytest.fixture(scope="module")
def results():
    # The suite takes about a second; both tests share one run.
    return run_checks(seed=7)


def test_all_checks_pass(results):
    failing = [r for r in results if not r.ok]
    assert not failing, "\n".join(r.line() for r in failing)


def test_check_suite_covers_core_invariants(results):
    assert [r.name for r in results] == [
        "gibbs-feasibility",
        "pinsker-lower-bound",
        "coupling-smoothness",
        "fenchel-bregman-identity",
        "gibbs-is-conjugate-gradient",
        "strong-gap-closed-form",
        "mirror-step-descends",
        "averaging-recursion",
        "throughput-gradient",
        "game-monotonicity",
        "oracle-statistics",
    ]


def test_check_line_format():
    ok = CheckResult("demo", True, "all good")
    bad = CheckResult("demo", False, "broke")
    assert ok.line().startswith("PASS")
    assert bad.line().startswith("FAIL")
    assert "demo" in ok.line()
