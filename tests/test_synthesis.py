"""Recovering a global type from a compatible system."""
import pytest

from mpst import (NotBasic, NotCompatible, alpha_equiv, parse_global,
                  print_type, synthesize, verify_roundtrip)
from conftest import load


def test_commit_synthesis_matches_the_source_type(commit_type, commit_system):
    g = synthesize(commit_system)
    assert alpha_equiv(g, commit_type)
    assert print_type(g) == ("rec t0. A->B:{act. B->C:sig. A->C:commit. t0, "
                             "quit. B->C:save. A->C:finish. end}")


def test_remark_synthesis_is_the_expected_type(remark_aprime):
    g = synthesize(remark_aprime)
    assert print_type(g) == ("B->A:{a. C->A:{c. end, d. end}, "
                             "b. C->A:{c. end, d. end}}")
    assert alpha_equiv(g, parse_global(load("remark_good.gt")))


def test_buyer_seller_synthesis(buyer_seller):
    g = synthesize(buyer_seller)
    assert print_type(g) == ("rec t0. B->S:title. S->B:quote. "
                             "B->S:{ok. B->S:addrs. S->B:date. end, "
                             "retry. t0}")


def test_incompatible_system_is_refused(remark_abc):
    with pytest.raises(NotCompatible, match="not multiparty compatible"):
        synthesize(remark_abc)


def test_nonbasic_system_is_refused(race_system):
    with pytest.raises(NotBasic):
        synthesize(race_system)


def test_roundtrip_verification_reports_per_bound(commit_system):
    ok, per = verify_roundtrip(commit_system, max_len=8)
    assert ok
    assert sorted(per) == [1, 2, 3]
    assert all(v == (True, None) for v in per.values())


def test_roundtrip_verification_accepts_a_candidate(commit_type,
                                                    commit_system):
    ok, _ = verify_roundtrip(commit_system, g=commit_type, max_len=8)
    assert ok
    wrong = parse_global("A -> B : act. end")
    ok, per = verify_roundtrip(commit_system, g=wrong, max_len=8,
                               bounds=(1,))
    assert not ok
    bad, witness = per[1]
    assert not bad and witness is not None
