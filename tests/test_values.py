"""The value types: actions, type nodes, machines, configurations, reports
and equation forms.  Every one is a record of `syntax._Record`; these
tests pin what a record is on one sample of each class."""
import copy
import pickle
import weakref

import pytest

from mpst import (Action, CompatFailure, CompatReport, Config, EndEq, Fork,
                  GBranch, GEnd, GeneralGlobal, GeneralLocal, GGChoice,
                  GGMsg, GLEChoice, GLIChoice, GLRecv, GLSend, GRec, GVar,
                  Indir, Join, LEnd, LocalConfig, LRec, LRecv, LSend, LVar,
                  Machine, Merge, ParseError, SafetyReport, SessionReport,
                  System, WellFormedReport, check_safety, gproject,
                  make_system, parse_gglobal, reach, to_petri)
from mpst.syntax import _Record

DIAMOND = """init x0;
x0 = x1 | x2;
x1 = A -> B : a ; x3;
x2 = A -> C : b ; x4;
x3 | x4 = x5;
x5 = end;
"""


def _samples() -> dict:
    """One instance of every record class, by class."""
    a = Action("A", "B", "!", "x")
    m = Machine("A", "0", (("0", a, "1"),))
    s = make_system([m, Machine("B", "0", (("0", Action("A", "B", "?", "x"),
                                            "1"),))])
    g = parse_gglobal(DIAMOND)
    rs = reach(s, 1)
    failure = CompatFailure("A", "0", "unhandled", "m", a, (a,))
    values = [
        a, GEnd(), GVar("t"), GRec("t", GBranch("A", "B", (("x", GVar("t")),))),
        GBranch("A", "B", (("x", GEnd()), ("y", GEnd())), 1),
        LEnd(), LVar("t"), LRec("t", LSend("B", (("x", LVar("t")),))),
        LSend("B", (("x", LEnd()),)), LRecv("B", (("x", LEnd()),)),
        m, s, rs.initial, rs,
        check_safety(s, 1), failure, CompatReport(False, (failure,)),
        WellFormedReport(True, ()),
        LocalConfig((("A", LEnd()), ("B", LEnd())), ((), ())),
        Fork("x0", "x1", "x2"), Join("x1", "x2", "x3"),
        Merge("x1", "x2", "x3"), Indir("x0", "x1"), EndEq("x0"),
        GGMsg("x0", "A", "B", "a", "x1"), GGChoice("x0", "x1", "x2"),
        GLSend("x0", "B", "a", "x1"), GLRecv("x0", "A", "a", "x1"),
        GLIChoice("x0", "x1", "x2"), GLEChoice("x0", "x1", "x2"),
        g, gproject(g, "A"), to_petri(g), SessionReport(True, ()),
    ]
    return {type(v): v for v in values}


SAMPLES = _samples()


def _record_classes(cls=_Record):
    for sub in cls.__subclasses__():
        if not sub.__name__.startswith("_"):
            yield sub
        yield from _record_classes(sub)


def _fields(x) -> tuple:
    return tuple(getattr(x, f) for f in type(x)._fields)


each = pytest.mark.parametrize("x", list(SAMPLES.values()),
                               ids=lambda x: type(x).__name__)


def test_every_record_class_has_a_sample():
    assert set(_record_classes()) == set(SAMPLES)
    assert len(SAMPLES) == 34


@each
def test_a_record_equals_a_copy_and_hashes_as_its_fields(x):
    twin = type(x)(*_fields(x))
    assert twin == x and not twin != x and twin is not x
    assert hash(x) == hash(twin) == hash(_fields(x))
    assert hash(x) == hash(x)


@each
def test_a_record_equals_no_tuple(x):
    assert x != _fields(x) and _fields(x) != x
    assert x != list(_fields(x))


def test_equal_fields_of_another_class_are_not_equal():
    pairs = [(a, b) for a in SAMPLES.values() for b in SAMPLES.values()
             if type(a) is not type(b) and type(a)._fields == type(b)._fields]
    # GEnd/LEnd, GVar/LVar, GRec/LRec, LSend/LRecv, the three-variable
    # forms, Join/Merge, GLSend/GLRecv, GeneralGlobal/GeneralLocal...
    assert len(pairs) >= 20
    for a, b in pairs:
        if isinstance(a, (GeneralGlobal, GeneralLocal)):
            continue  # their forms differ, so a copy would not validate
        other = type(b)(*_fields(a))
        assert other != a and a != other
        assert hash(other) == hash(a)
    assert GVar("t") != LVar("t") and GEnd() != LEnd()
    assert LSend("B", (("x", LEnd()),)) != LRecv("B", (("x", LEnd()),))
    assert {GEnd(), LEnd(), GEnd()} == {GEnd(), LEnd()}


@each
def test_keyword_construction(x):
    cls = type(x)
    assert cls(**dict(zip(cls._fields, _fields(x)))) == x
    with pytest.raises(TypeError):
        cls(*_fields(x), no_such_field=1)
    with pytest.raises(TypeError):
        cls(*_fields(x), None)


def test_defaults():
    b = GBranch("A", "B", (("x", GEnd()),))
    assert b.mid is None and b == GBranch("A", "B", (("x", GEnd()),), None)
    assert GBranch(src="A", dst="B", branches=()).mid is None
    a = Action("A", "B", "!", "x")
    m = Machine("A", "0", (("1", a, "0"), ("0", a, "1")))
    assert m.states == frozenset({"0", "1"})
    assert m.transitions == (("0", a, "1"), ("1", a, "0"))  # kept sorted
    assert Machine("A", "0", (), frozenset({"0", "9"})).states == {"0", "9"}
    assert SafetyReport(1, (), None).liveness_counterexample is None
    with pytest.raises(TypeError, match="missing argument 'label'"):
        Action("A", "B", "!")
    with pytest.raises(TypeError, match="missing argument 'branches'"):
        GBranch("A", "B")


def test_normalisation_in_constructors():
    m1, m2 = (Machine(p, "0", ()) for p in "BA")
    assert System(((m1.owner, m1), (m2.owner, m2))).participants == ("A", "B")
    g = SAMPLES[GeneralGlobal]
    assert GeneralGlobal(g.entry, g.equations[::-1]) == g
    with pytest.raises(ParseError):
        GeneralGlobal("x9", g.equations)


def test_action_ordering_is_the_order_of_its_fields():
    acts = [Action(s, r, op, lbl) for s in "BA" for r in "CB" for op in "?!"
            for lbl in "yx"]
    assert sorted(acts) == [Action(*t) for t in sorted(
        (a.sender, a.receiver, a.op, a.label) for a in acts)]
    a, b = Action("A", "B", "!", "x"), Action("A", "B", "!", "y")
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (b < a or b <= a or a > b or a >= b)
    with pytest.raises(TypeError):
        a < ("A", "B", "!", "y")  # noqa: B015
    with pytest.raises(TypeError):
        GEnd() < GEnd()  # noqa: B015  (only actions are ordered)


@each
def test_assignment_raises_attribute_error(x):
    for f in type(x)._fields:
        with pytest.raises(AttributeError):
            setattr(x, f, None)
        with pytest.raises(AttributeError):
            delattr(x, f)
    with pytest.raises(AttributeError):
        x.no_such_field = 1


@each
def test_repr_names_every_field_and_evaluates_back(x):
    fields = ", ".join(f"{f}={getattr(x, f)!r}" for f in type(x)._fields)
    assert repr(x) == f"{type(x).__qualname__}({fields})"
    names = {cls.__name__: cls for cls in SAMPLES}
    assert eval(repr(x), names) == x  # noqa: S307


def test_repr_of_nested_records():
    assert repr(Action("A", "B", "!", "x")) == (
        "Action(sender='A', receiver='B', op='!', label='x')")
    assert repr(GBranch("A", "B", (("x", GEnd()),))) == (
        "GBranch(src='A', dst='B', branches=(('x', GEnd()),), mid=None)")
    assert repr(LRecv("A", (("x", LVar("t")),))) == (
        "LRecv(peer='A', branches=(('x', LVar(var='t')),))")
    assert repr(Config(("0",), ((),))) == "Config(states=('0',), buffers=((),))"


@each
def test_records_copy_pickle_and_take_weak_references(x):
    assert copy.copy(x) == x and copy.deepcopy(x) == x
    assert pickle.loads(pickle.dumps(x)) == x
    assert weakref.ref(x)() is x


def test_cached_properties_stay_on_machines_and_systems():
    s = SAMPLES[System]
    assert s.participants == ("A", "B") and "participants" in vars(s)
    m = SAMPLES[Machine]
    assert m.final_states == {"1"} and "final_states" in vars(m)
    # a record's hash is cached: deep types hash in time linear in depth
    t = LEnd()
    for i in range(300):
        t = LSend("B", ((f"l{i}", t),))
        hash(t)
    assert hash(LSend("B", (("top", t),))) == hash(("B", (("top", t),)))
