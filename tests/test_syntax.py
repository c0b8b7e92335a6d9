"""Parsing, printing, and structural helpers for types and machines."""
import inspect
import random
import string
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpst
from mpst import (Action, GBranch, GEnd, GRec, GVar, LEnd, LRecv, LSend,
                  ParseError, alpha_canonical, alpha_equiv, glabels,
                  gparticipants, make_system, parse_gglobal, parse_global,
                  parse_glocal, parse_local, parse_system, print_system,
                  print_type, project, step_global, unfold)
from mpst.syntax import _Parser, tokenize

import oracles
from conftest import DATA
from global_types import global_types


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


def test_identifiers_may_start_with_an_underscore():
    g = parse_global("rec _t. _A -> B_ : _x1. _t")
    assert g == GRec("_t", GBranch("_A", "B_", (("_x1", GVar("_t")),)))
    assert parse_local("_B ! _x. end") == LSend("_B", (("_x", LEnd()),))
    s = parse_system("machine _A { init _q; _q -- _A _B ! _m --> q_; }\n"
                     "machine _B { init _q; _q -- _A _B ? _m --> q_; }")
    assert s.participants == ("_A", "_B")
    assert parse_gglobal("init _x; _x = end;").entry == "_x"


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


def _shuffled(g, data):
    """g with the branches of each exchange in a drawn order."""
    if isinstance(g, GRec):
        return GRec(g.var, _shuffled(g.body, data))
    if isinstance(g, GBranch):
        return GBranch(g.src, g.dst, tuple(
            (l, _shuffled(b, data))
            for l, b in data.draw(st.permutations(g.branches))))
    return g


@settings(max_examples=150, deadline=None)
@given(global_types(), st.data())
def test_printing_and_canonical_forms_agree_with_the_first_written(g, data):
    # the branches out of label order, so that sorting them moves the
    # binders' numbers and, in a marked type, the in-flight index
    g = _shuffled(g, data)
    views = [g, *(project(g, p) for p in sorted(gparticipants(g)))]
    for _ in range(data.draw(st.integers(0, 8))):
        steps = step_global(g, 2)
        if not steps:
            break
        g = data.draw(st.sampled_from(steps))[1]
        views.append(g)
    for t in views:
        assert print_type(t) == oracles.print_type(t)
        assert alpha_canonical(t) == oracles.alpha_canonical(t)


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
    "global-keyword-end-as-receiver": (
        "A -> end : x. end", "expected participant, found keyword 'end'",
        1, 6),
    "global-keyword-rec-as-receiver": (
        "rec t. A -> B : x.\n  B -> rec : y. t",
        "expected participant, found keyword 'rec'", 2, 8),
    "global-keyword-end-as-binder": (
        "rec end. A -> B : x. end",
        "expected recursion variable, found keyword 'end'", 1, 5),
    "global-keyword-rec-as-binder": (
        "rec rec. A -> B : x. rec",
        "expected recursion variable, found keyword 'rec'", 1, 5),
    "local-keyword-end-as-binder": (
        "rec end. B ! x. end",
        "expected recursion variable, found keyword 'end'", 1, 5),
    "local-keyword-rec-as-binder": (
        "B ? x. rec rec. B ! y. rec",
        "expected recursion variable, found keyword 'rec'", 1, 12),
    "global-empty-input": (
        "", "expected a global type, found 'end of input'", 1, 1),
    "global-comment-only-input": (
        "  // only a comment\n", "expected a global type, found 'end of input'",
        2, 1),
    "local-empty-input": (
        "", "expected a local type, found 'end of input'", 1, 1),
    "system-empty-input": (
        "", "expected 'machine', found 'end of input'", 1, 1),
    "system-comment-only-input": (
        "// no machines\n", "expected 'machine', found 'end of input'", 2, 1),
    # every other error site of the type parser
    "global-missing-colon": ("A -> B x. end", "expected ':', found 'x'", 1, 8),
    "global-missing-dot": ("A -> B : x end", "expected '.', found 'end'", 1, 12),
    "local-missing-dot": ("B ! x end", "expected '.', found 'end'", 1, 7),
    "global-unclosed-braces": (
        "A -> B : { x. end, y. end", "expected '}', found 'end of input'",
        1, 26),
    "local-unclosed-braces": (
        "B ? { x. end", "expected '}', found 'end of input'", 1, 13),
    "global-missing-label": (
        "A -> B : . end", "expected message label, found '.'", 1, 10),
    "local-missing-label": (
        "B ! ; end", "expected message label, found ';'", 1, 5),
    "global-type-starts-with-brace": (
        "{ x. end }", "expected a global type, found '{'", 1, 1),
    "local-type-starts-with-op": (
        "! x. end", "expected a local type, found '!'", 1, 1),
    "global-missing-continuation": (
        "A -> B : x.", "expected a global type, found 'end of input'", 1, 12),
    "global-rec-missing-dot": (
        "rec t A -> B : x. t", "expected '.', found 'A'", 1, 7),
    "global-rec-missing-binder": (
        "rec . end", "expected recursion variable, found '.'", 1, 5),
    "global-missing-receiver": (
        "A -> : x. end", "expected participant, found ':'", 1, 6),
    # a character that starts no token, after a comment and under CRLF
    "global-bad-character": (
        "A -> B : x @ end", "unexpected character '@'", 1, 12),
    "global-bad-character-after-comment": (
        "// c\nA -> B : x. @ end", "unexpected character '@'", 2, 13),
    "global-bad-character-crlf-line-3": (
        "A -> B :\r\n x.\r\n  # end", "unexpected character '#'", 3, 3),
    "local-bad-character-after-comment": (
        "B ! x. // ok\n // ok ~ too\n  end ~ ", "unexpected character '~'",
        3, 7),
    "global-bad-single-dash": (
        "A - B : x. end", "unexpected character '-'", 1, 3),
    # every error site of the system parser
    "system-missing-owner": (
        "machine { init q0; }", "expected participant, found '{'", 1, 9),
    "system-missing-open-brace": (
        "machine A init q0; }", "expected '{', found 'init'", 1, 11),
    "system-missing-init": (
        "machine A { q0; }", "expected 'init', found 'q0'", 1, 13),
    "system-missing-initial-state": (
        "machine A { init ; }", "expected state, found ';'", 1, 18),
    "system-missing-semicolon-after-init": (
        "machine A { init q0 }", "expected ';', found '}'", 1, 21),
    "system-missing-source": (
        "machine A { init q0; ; }", "expected state, found ';'", 1, 22),
    "system-single-dash": (
        "machine A { init q0; q0 - A B ! x --> q1; }",
        "unexpected character '-'", 1, 25),
    "system-missing-sender": (
        "machine A { init q0; q0 -- ! B ! x --> q1; }",
        "expected participant, found '!'", 1, 28),
    "system-missing-receiver": (
        "machine A { init q0; q0 -- A ! x --> q1; }",
        "expected participant, found '!'", 1, 30),
    "system-missing-direction": (
        "machine A { init q0; q0 -- A B x --> q1; }",
        "expected '!' or '?', found 'x'", 1, 32),
    "system-missing-label": (
        "machine A { init q0; q0 -- A B ! --> q1; }",
        "expected message label, found '-->'", 1, 34),
    "system-short-arrow": (
        "machine A { init q0; q0 -- A B ! x -> q1; }",
        "expected '-->', found '->'", 1, 36),
    "system-missing-target": (
        "machine A { init q0; q0 -- A B ! x --> ; }",
        "expected state, found ';'", 1, 40),
    "system-missing-semicolon-after-edge": (
        "machine A { init q0; q0 -- A B ! x --> q1 }",
        "expected ';', found '}'", 1, 43),
    "system-self-channel": (
        "machine A { init q0; q0 -- A A ! x --> q1; }", "self-channel AA",
        1, 28),
    "system-subject-not-owner": (
        "machine A { init q0;\n  q0 -- B A ! x --> q1; }\n"
        "machine B { init q0; }",
        "subject of BA!x is B, not machine owner A", 2, 3),
    "system-unknown-participant": (
        "machine A { init q0; q0 -- A B ! x --> q1; }",
        "unknown participant 'B' in machine A", 1, 9),
    "system-disconnected-state": (
        "machine A { init q0; q1 -- A B ! x --> q2; }\n"
        "machine B { init q0; }",
        "disconnected state 'q1' in machine A", 1, 9),
    "system-duplicate-block": (
        "machine A { init q0; }\nmachine A { init q0; }",
        "duplicate machine block for 'A'", 2, 9),
    "system-duplicate-block-first-owner-repeated": (
        "machine B { init q0; }\nmachine A { init q0; }\n"
        "machine A { init q0; }\nmachine B { init q0; }",
        "duplicate machine block for 'B'", 4, 9),
    "system-stray-brace": (
        "machine A { init q0; }\nmachine B { init q0; } }",
        "expected 'machine', found '}'", 2, 24),
    "system-bad-character-after-comment": (
        "// A\nmachine A { init q0; } // B\nmachine B { init q0; $ }",
        "unexpected character '$'", 3, 22),
    "system-bad-character-crlf-line-3": (
        "machine A { init q0; }\r\n\r\nmachine B { init q0; $ }",
        "unexpected character '$'", 3, 22),
    # every error site of the equation parser, global and local
    "gglobal-no-init": (
        "x0 = end;", "equation systems start with 'init <var>;'", 1, 1),
    "gglobal-no-identifier": (";", "expected identifier, found ';'", 1, 1),
    "gglobal-empty-input": (
        "", "expected identifier, found 'end of input'", 1, 1),
    "gglobal-missing-entry": (
        "init ;", "expected entry variable, found ';'", 1, 6),
    "glocal-missing-entry": (
        "init", "expected entry variable, found 'end of input'", 1, 5),
    "gglobal-missing-semicolon-after-init": (
        "init x0 x1", "expected ';', found 'x1'", 1, 9),
    "gglobal-missing-lhs": (
        "init x0; ; ", "expected variable, found ';'", 1, 10),
    "gglobal-missing-equals": (
        "init x0; x0 ; ", "expected '=', '+' or '|', found ';'", 1, 13),
    "glocal-missing-equals": (
        "init x0; x0 x1", "expected '=', '+' or '|', found 'x1'", 1, 13),
    "gglobal-join-missing-second": (
        "init x0; x0 + ; ", "expected variable, found ';'", 1, 15),
    "gglobal-join-missing-equals": (
        "init x0; x0 + x1 x2; ", "expected '=', found 'x2'", 1, 18),
    "gglobal-join-missing-rhs": (
        "init x0; x0 + x1 = ; ", "expected variable, found ';'", 1, 20),
    "gglobal-join-missing-semicolon": (
        "init x0; x0 + x1 = x2 ", "expected ';', found 'end of input'",
        1, 23),
    "gglobal-end-missing-semicolon": (
        "init x0; x0 = end ", "expected ';', found 'end of input'", 1, 19),
    "gglobal-missing-rhs": (
        "init x0; x0 = ; ", "expected variable or participant, found ';'",
        1, 15),
    "glocal-rhs-starts-with-arrow": (
        "init x0; x0 = -> ;", "expected variable or participant, found '->'",
        1, 15),
    "gglobal-fork-missing-right": (
        "init x0; x0 = x1 | ; ", "expected variable, found ';'", 1, 20),
    "glocal-choice-missing-right": (
        "init x0; x0 = x1 (+) ;", "expected variable, found ';'", 1, 22),
    "gglobal-fork-missing-semicolon": (
        "init x0; x0 = x1 | x2 ", "expected ';', found 'end of input'", 1, 23),
    "glocal-choice-missing-semicolon": (
        "init x0; x0 = x1 & x2 ", "expected ';', found 'end of input'", 1, 23),
    "gglobal-message-missing-receiver": (
        "init x0; x0 = A -> ; ", "expected participant, found ';'", 1, 20),
    "gglobal-message-missing-colon": (
        "init x0; x0 = A -> B x; ", "expected ':', found 'x'", 1, 22),
    "gglobal-message-missing-label": (
        "init x0; x0 = A -> B : ; ", "expected label, found ';'", 1, 24),
    "glocal-message-missing-label": (
        "init x0; x0 = B ! ; x1;", "expected label, found ';'", 1, 19),
    "gglobal-message-missing-semicolon": (
        "init x0; x0 = A -> B : a x1;", "expected ';', found 'x1'", 1, 26),
    "glocal-message-missing-semicolon": (
        "init x0; x0 = B ? a x1;", "expected ';', found 'x1'", 1, 21),
    "gglobal-message-missing-continuation": (
        "init x0; x0 = A -> B : a ; ;", "expected variable, found ';'", 1, 28),
    "glocal-message-missing-continuation": (
        "init x0; x0 = B ? a ; ;", "expected variable, found ';'", 1, 23),
    "gglobal-message-missing-final-semicolon": (
        "init x0; x0 = A -> B : a ; x1 ", "expected ';', found 'end of input'",
        1, 31),
    "glocal-message-missing-final-semicolon": (
        "init x0; x0 = B ! a ; x1 ", "expected ';', found 'end of input'",
        1, 26),
    "gglobal-rhs-cut-off": (
        "init x0; x0 = x1", "unexpected 'end of input' in equation", 1, 17),
    "gglobal-lhs-cut-off": (
        "init x0; x0", "expected '=', '+' or '|', found 'end of input'",
        1, 12),
    "gglobal-message-cut-off": (
        "init x0; x0 = A ->", "expected participant, found 'end of input'",
        1, 19),
    "gglobal-lhs-followed-by-in-flight-marker": (
        "init x0; x0 + x1 = x2 ; x3 ~> x4;",
        "expected '=', '+' or '|', found '~>'", 1, 28),
    "gglobal-local-send": (
        "init x0; x0 = A ! a ; x1;", "unexpected '!' in equation", 1, 17),
    "gglobal-internal-choice": (
        "init x0; x0 = x1 (+) x2;", "unexpected '(+)' in equation", 1, 18),
    "gglobal-external-choice": (
        "init x0; x0 = x1 & x2;", "unexpected '&' in equation", 1, 18),
    "glocal-global-message": (
        "init x0; x0 = B -> C : a ; x1;", "unexpected '->' in equation", 1, 17),
    "glocal-global-choice": (
        "init x0; x0 = x1 + x2;", "unexpected '+' in equation", 1, 18),
    "gglobal-bad-character-after-comment": (
        "init x0; // c\nx0 = ` end;", "unexpected character '`'", 2, 6),
    "gglobal-bad-character-crlf-line-3": (
        "init x0;\r\nx0 = x1;\r\n x1 = ^;", "unexpected character '^'", 3, 7),
    "glocal-bad-character-after-comment": (
        "init x0; // c ^\n// d\nx0 = B ! a ; x1;\n x1 = end; ^",
        "unexpected character '^'", 4, 12),
    # the checks on a whole equation system point at the equation they
    # name, the first in sorted order, or at the entry variable
    "gglobal-self-message": (
        "init x0;\nx0 = A -> A : a ; x1;\nx1 = end;",
        "x0: a participant cannot message itself", 2, 1),
    "gglobal-defined-twice": (
        "init x0; x0 = end; x0 = end;",
        "variable x0 is defined more than once", 1, 20),
    "glocal-defined-twice": (
        "init x0; x0 = end;\nx0 = end;",
        "variable x0 is defined more than once", 2, 1),
    "gglobal-undefined-entry": (
        "init x9; x0 = end;", "entry variable x9 has no defining equation",
        1, 6),
    "glocal-undefined-entry": (
        "init x1; x0 = end;", "entry variable x1 has no defining equation",
        1, 6),
    "gglobal-undefined-variable": (
        "init x0; x0 = x1;", "variable x1 is used but never defined",
        1, 10),
    "glocal-undefined-variable": (
        "init x0; x0 = x1 | x2; x1 = end;",
        "variable x2 is used but never defined", 1, 10),
    "gglobal-defined-twice-sorted": (
        "init x0;\nx1 = x0;\nx0 = A -> B : a ; x1;\nx1 = end;",
        "variable x1 is defined more than once", 2, 1),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_table(case):
    text, message, line, col = PARSE_ERRORS[case]
    parse = {"global": parse_global, "local": parse_local,
             "system": parse_system, "gglobal": parse_gglobal,
             "glocal": parse_glocal}[case.split("-")[0]]
    with pytest.raises(ParseError) as err:
        parse(text)
    where = "" if line is None else f"{line}:{col}: "
    assert (str(err.value), err.value.line, err.value.col) == (
        f"{where}{message}", line, col)


# --- the scanner against the per-token oracle --------------------------------

# characters a mutation inserts: token characters, whitespace (also
# Unicode's), and characters that start no token
_NOISE = " \n\r\t\u00a0\ufeff@#$%-~/>(+)_09aZ{}.,;:!?=|&\u00e9"


def _mutants(seed: int, n: int):
    """n corpus inputs, each with one to three random edits."""
    rnd = random.Random(seed)
    texts = [p.read_text() for p in sorted(DATA.iterdir())]
    for _ in range(n):
        text = rnd.choice(texts)
        for _ in range(rnd.randint(1, 3)):
            at = rnd.randrange(len(text) + 1)
            edit = rnd.randrange(5)
            if edit == 0:
                text = text[:at] + rnd.choice(_NOISE) + text[at:]
            elif edit == 1:
                text = text[:at] + text[at + 1:]
            elif edit == 2:
                text = text[:at] + rnd.choice(_NOISE) + text[at + 1:]
            elif edit == 3:
                text = f"{text[:at]}// {rnd.choice(_NOISE)}\n{text[at:]}"
            else:
                text = text.replace("\n", "\r\n")
        yield text


def test_tokenize_agrees_with_the_per_token_scanner():
    errors = 0
    for text in _mutants(seed=20, n=400):
        try:
            want = oracles.scan(text)
        except oracles.ScanError as e:
            errors += 1
            message, line, col = e.args
            with pytest.raises(ParseError) as err:
                tokenize(text)
            assert (str(err.value), err.value.line, err.value.col) == (
                f"{line}:{col}: {message}", line, col)
            continue
        toks = tokenize(text)
        assert toks == [t[1] for t in want]
        assert [t.isidentifier() for t in toks] == [
            t[0] == "ident" for t in want]
        p = _Parser(text)
        got = [p.fail("m", i) for i in range(len(toks))]
        assert [(e.line, e.col) for e in got] == [t[2:] for t in want]
    assert 0 < errors < 400  # both outcomes are exercised


def test_a_late_bad_character_is_found_in_linear_time():
    text = "A -> B : x. " * 33_334 + "@"  # about 200,000 tokens
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_global(text)
    assert time.perf_counter() - start < 5
    assert (err.value.line, err.value.col) == (1, len(text))
    assert str(err.value).endswith("unexpected character '@'")
