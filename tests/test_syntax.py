"""Parsing, printing, and structural helpers for types and machines."""
import inspect
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpst
from mpst import (Action, GBranch, GEnd, GRec, LEnd, LRecv, LSend, ParseError,
                  alpha_canonical, alpha_equiv, glabels, gparticipants,
                  make_system, parse_global, parse_local, parse_system,
                  print_system, print_type, unfold)
from mpst.syntax import tokenize


def test_package_exports_no_submodules():
    assert not [n for n in mpst.__all__ if inspect.ismodule(getattr(mpst, n))]


def test_action_rendering_and_fields():
    a = Action("A", "B", "!", "act")
    assert str(a) == "AB!act"
    assert a.subject == "A"
    assert a.channel == ("A", "B")
    r = Action("A", "B", "?", "act")
    assert str(r) == "AB?act"
    assert r.subject == "B"


def test_action_ordering_is_total():
    acts = [Action("B", "C", "!", "x"), Action("A", "B", "?", "a"),
            Action("A", "B", "!", "a")]
    assert sorted(map(str, acts)) == [str(a) for a in sorted(acts)]


def test_parse_global_commit(commit_type):
    g = commit_type
    assert isinstance(g, GRec)
    body = g.body
    assert isinstance(body, GBranch)
    assert body.src == "A" and body.dst == "B"
    assert [lbl for lbl, _ in body.branches] == ["act", "quit"]
    assert gparticipants(g) == {"A", "B", "C"}
    assert glabels(g) == {"act", "quit", "sig", "save", "commit", "finish"}


def test_print_parse_roundtrip_global(commit_type):
    assert parse_global(print_type(commit_type)) == commit_type


def test_print_parse_roundtrip_local(commit_c_type):
    assert parse_local(print_type(commit_c_type)) == commit_c_type


def test_parse_single_exchange_sugar():
    g = parse_global("A -> B : hello. end")
    assert g == GBranch("A", "B", (("hello", GEnd()),), None)


def test_parse_errors_are_reported_with_positions():
    with pytest.raises(ParseError):
        parse_global("A -> A : x. end")  # self-message
    with pytest.raises(ParseError):
        parse_global("rec t. t")  # unguarded recursion
    with pytest.raises(ParseError):
        parse_global("A -> B : { x. end, x. end }")  # duplicate label
    with pytest.raises(ParseError):
        parse_global("t")  # unbound variable
    with pytest.raises(ParseError):
        parse_global("A -> B : x. end trailing")


def test_parse_system_validates_participants():
    with pytest.raises(ParseError):
        parse_system("machine A { init q0; q0 -- A B ! x --> q1; }")


def test_system_channels_are_all_ordered_pairs(commit_system):
    chans = commit_system.channels
    assert chans == (("A", "B"), ("A", "C"), ("B", "A"),
                     ("B", "C"), ("C", "A"), ("C", "B"))


def test_print_parse_roundtrip_system(commit_system):
    assert parse_system(print_system(commit_system)) == commit_system


def test_machine_state_predicates(commit_system):
    b = commit_system.machine("B")
    assert b.is_receiving("q0")
    assert b.is_sending("q2")
    assert b.is_final("q3")
    assert not b.is_mixed("q0")
    assert b.final_states == frozenset({"q3"})


def test_unfold_substitutes_binder(commit_type):
    u = unfold(commit_type)
    assert isinstance(u, GBranch)
    # the loop variable has been replaced by a copy of the recursion
    assert "rec t." in print_type(u)
    assert unfold(parse_global("rec t. A -> B : x. t")) == parse_global(
        "A -> B : x. rec t. A -> B : x. t")


def test_alpha_equiv_ignores_binder_names():
    g1 = parse_global("rec t. A -> B : x. t")
    g2 = parse_global("rec u. A -> B : x. u")
    assert alpha_equiv(g1, g2)
    assert alpha_canonical(g1) == alpha_canonical(g2)


def test_alpha_canonical_sorts_branches():
    g1 = parse_global("A -> B : { b. end, a. end }")
    g2 = parse_global("A -> B : { a. end, b. end }")
    assert alpha_canonical(g1) == alpha_canonical(g2)


def test_keywords_rejected_as_identifiers():
    with pytest.raises(ParseError):
        parse_global("end -> B : x. end")


def test_tokenize_flags_bad_characters():
    with pytest.raises(ParseError):
        tokenize("A -> B : x @ end")


# --- randomized round-trips -------------------------------------------------

_parts = st.sampled_from(["A", "B", "C", "D"])
_labels = st.sampled_from(list(string.ascii_lowercase[:6]))


def _globals(depth):
    if depth == 0:
        return st.sampled_from([GEnd()])
    sub = _globals(depth - 1)
    exchange = st.builds(
        lambda src, dst, items: GBranch(
            src, dst, tuple(sorted(dict(items).items())), None),
        _parts, _parts, st.lists(st.tuples(_labels, sub), min_size=1,
                                 max_size=3),
    ).filter(lambda g: g.src != g.dst)
    return st.one_of(sub, exchange)


@settings(max_examples=60, deadline=None)
@given(_globals(3))
def test_print_parse_roundtrip_random_global(g):
    assert parse_global(print_type(g)) == g


_locals_leaf = st.sampled_from([LEnd()])


def _locals(depth):
    if depth == 0:
        return _locals_leaf
    sub = _locals(depth - 1)
    send = st.builds(
        lambda peer, items: LSend(peer, tuple(sorted(dict(items).items()))),
        _parts, st.lists(st.tuples(_labels, sub), min_size=1, max_size=3))
    recv = st.builds(
        lambda peer, items: LRecv(peer, tuple(sorted(dict(items).items()))),
        _parts, st.lists(st.tuples(_labels, sub), min_size=1, max_size=3))
    return st.one_of(sub, send, recv)


@settings(max_examples=60, deadline=None)
@given(_locals(3))
def test_print_parse_roundtrip_random_local(t):
    assert parse_local(print_type(t)) == t


def test_make_system_sorts_by_owner(commit_system):
    ms = [m for _, m in commit_system.machines]
    s2 = make_system(list(reversed(ms)))
    assert s2 == commit_system


# --- parse errors: message, line and column ----------------------------------

# id: (reader, input, message, line, column); the reader is the id's prefix
PARSE_ERRORS = {
    "global-self-message": (
        "A -> A : x. end", "self-message A->A", 1, 6),
    "global-self-message-line-3": (
        "rec t.\n  A -> B : x.\n  C ->   C : y. t", "self-message C->C", 3, 10),
    "global-in-flight-marker": (
        "A ~> B : x. end", "the in-flight marker ~> is runtime-only", 1, 3),
    "local-in-flight-marker": (
        "A ~> B : x. end", "unbound recursion variable 'A'", 1, 1),
    "global-unguarded-rec": ("rec t. t", "unguarded recursion on 't'", 1, 5),
    "global-unguarded-nested-rec": (
        "rec t.\nrec u. t", "unguarded recursion on 't'", 1, 5),
    "local-unguarded-rec": ("rec t. t", "unguarded recursion on 't'", 1, 5),
    "local-unguarded-nested-rec": (
        "rec t.\nrec u. t", "unguarded recursion on 't'", 1, 5),
    "global-shadowed-binder": (
        "rec t. A -> B : x. rec t. t",
        "recursion variable 't' shadows an outer binding", 1, 24),
    "local-shadowed-binder": (
        "rec t. B ! x. rec t. t",
        "recursion variable 't' shadows an outer binding", 1, 19),
    "global-unbound-variable": (
        "A -> B : x. u", "unbound recursion variable 'u'", 1, 13),
    "global-unbound-variable-alone": (
        "t", "unbound recursion variable 't'", 1, 1),
    "local-unbound-variable": (
        "B ? x. u", "unbound recursion variable 'u'", 1, 8),
    "global-duplicate-label": (
        "A -> B : { x. end, y. end,\n x. end }",
        "duplicate branch label 'x'", 2, 10),
    "local-duplicate-label": (
        "B ! { x. end, y. end,\n x. end }", "duplicate branch label 'x'", 2, 10),
    "global-trailing-input": (
        "A -> B : x. end\ntrailing", "trailing input 'trailing'", 2, 1),
    "local-trailing-input": (
        "B ! x. end\ntrailing", "trailing input 'trailing'", 2, 1),
    "global-send-in-global": (
        "A ! x. end", "unbound recursion variable 'A'", 1, 1),
    "local-arrow-in-local": (
        "A -> B : x. end", "unbound recursion variable 'A'", 1, 1),
    "global-keyword-as-participant": (
        "end -> B : x. end", "trailing input '->'", 1, 5),
    "local-keyword-as-participant": ("end ! x. end", "trailing input '!'", 1, 5),
    "global-empty-input": (
        "", "expected a global type, found 'end of input'", 1, 1),
    "global-comment-only-input": (
        "  // only a comment\n", "expected a global type, found 'end of input'",
        2, 1),
    "local-empty-input": (
        "", "expected a local type, found 'end of input'", 1, 1),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_table(case):
    text, message, line, col = PARSE_ERRORS[case]
    parse = parse_global if case.startswith("global-") else parse_local
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.col) == (
        f"{line}:{col}: {message}", line, col)
