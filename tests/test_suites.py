"""Suite runner: determinism, limits, report structure."""

import pytest

from macdo.suites import build_suite, run_cases


def _strip_ms(reports):
    return [{k: v for k, v in r.items() if k != "ms"} for r in reports]


def test_reports_are_ordered_and_complete():
    cases = build_suite("chu", max_weight=2, max_n=2)
    reports, ok = run_cases(cases)
    assert ok and len(reports) == len(cases)
    for rec, case in zip(reports, cases):
        assert rec["suite"] == case.suite
        assert rec["case"] == case.name
        assert rec["params"] == case.params
        assert rec["pass"] is True


def test_shuffle_leaves_output_identical():
    cases = build_suite("qbinom", max_weight=2, max_n=2)
    base, _ = run_cases(cases)
    shuffled, _ = run_cases(cases, shuffle_seed=1234)
    assert _strip_ms(shuffled) == _strip_ms(base)


def test_run_cases_accepts_only_one_thread():
    cases = build_suite("qbinom", max_weight=1, max_n=1)
    assert run_cases(cases, threads=1)[1]
    with pytest.raises(ValueError):
        run_cases(cases, threads=2)


def test_explicit_max_m_caps_the_iterated_build():
    default = build_suite("raising")
    built = [c for c in default if c.name == "iterated_build"]
    assert len(default) == 100 and len(built) == 25
    assert {c.params["n"] for c in built if c.params["lambda"] == "4"} == {1, 2, 3}
    capped = build_suite("raising", max_m=2)
    firsts = {int(c.params["lambda"].split(",")[0] or 0)
              for c in capped if c.name == "iterated_build"}
    assert firsts == {0, 1, 2}
    assert max(c.params.get("m", 0) for c in capped) == 2


def test_keyid_pairs_obey_the_limits():
    assert len(build_suite("keyid")) == 16
    narrow = build_suite("keyid", max_n=1)
    assert narrow and {c.params["n"] for c in narrow} == {1}
    assert {c.params["m"] for c in build_suite("keyid", max_m=0)} == {0}


def test_build_suite_all_concatenates():
    names = {"raising", "qbinom", "chu", "oracles", "keyid", "cauchy", "hl"}
    cases = build_suite("all", max_m=1, max_n=1, max_weight=1)
    assert {c.suite for c in cases} == names
    with pytest.raises(KeyError):
        build_suite("bogus")


def test_failing_case_carries_detail():
    from macdo.suites import _diff_case
    from macdo.algebra import Frac, universe

    u = universe(1)
    bad = _diff_case("demo", "broken", {}, lambda: Frac(u.one() - u.gen("q")))
    reports, ok = run_cases([bad])
    assert not ok
    assert reports[0]["pass"] is False
    assert reports[0]["detail"]  # the cross-multiplied difference text


def test_crashing_case_is_reported_not_raised():
    from macdo.suites import _bool_case

    def boom():
        raise RuntimeError("kaput")

    reports, ok = run_cases([_bool_case("demo", "crash", {}, boom)])
    assert not ok and "kaput" in reports[0]["detail"]
