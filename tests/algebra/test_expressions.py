"""Tests for the WHERE-predicate expression trees."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import (
    And,
    AttrRef,
    BinaryOp,
    Constant,
    Not,
    Or,
    attr,
    binding_from_event,
    conjoin,
    conjuncts,
    const,
    split_guard,
)
from repro.errors import ExpressionError
from repro.events.event import Event
from repro.events.types import EventType

REPORT = EventType.define("Report", vid="int", sec="int", lane="str")


def bind(**attrs):
    """A binding with one event per keyword: bind(p={'vid': 1})."""
    return {
        var: Event(REPORT, 0, payload) for var, payload in attrs.items()
    }


class TestLeaves:
    def test_constant(self):
        assert const(5).evaluate({}) == 5
        assert const("exit").attributes() == set()

    def test_attr_ref_qualified(self):
        binding = bind(p={"vid": 9, "sec": 0, "lane": "exit"})
        assert AttrRef("p", "vid").evaluate(binding) == 9

    def test_attr_ref_unqualified_single_event(self):
        event = Event(REPORT, 0, {"vid": 3, "sec": 0, "lane": "x"})
        assert attr("vid").evaluate(binding_from_event(event)) == 3

    def test_attr_ref_unbound_variable(self):
        with pytest.raises(ExpressionError, match="no event bound"):
            AttrRef("q", "vid").evaluate(bind(p={"vid": 1, "sec": 0, "lane": ""}))

    def test_attr_ref_missing_attribute(self):
        binding = {"p": Event(REPORT, 0, {"vid": 1})}
        with pytest.raises(ExpressionError, match="no attribute"):
            AttrRef("p", "speed").evaluate(binding)

    def test_attributes_extraction(self):
        expr = (attr("sec", "p1") + 30).eq(attr("sec", "p2"))
        assert expr.attributes() == {("p1", "sec"), ("p2", "sec")}
        assert expr.variables() == {"p1", "p2"}


class TestArithmetic:
    def test_operations(self):
        binding = bind(p={"vid": 10, "sec": 4, "lane": ""})
        v = attr("vid", "p")
        assert (v + 5).evaluate(binding) == 15
        assert (v - 5).evaluate(binding) == 5
        assert (v * 2).evaluate(binding) == 20
        assert (v / 4).evaluate(binding) == 2.5

    def test_division_by_zero(self):
        with pytest.raises(ExpressionError, match="division by zero"):
            (const(1) / const(0)).evaluate({})

    def test_type_mismatch(self):
        with pytest.raises(ExpressionError, match="cannot apply"):
            (const("a") - const(1)).evaluate({})

    def test_unknown_operator_rejected(self):
        with pytest.raises(ExpressionError, match="unknown binary operator"):
            BinaryOp("%", const(1), const(2))


class TestComparisons:
    @pytest.mark.parametrize(
        "op,left,right,expected",
        [
            ("=", 3, 3, True),
            ("=", 3, 4, False),
            ("!=", 3, 4, True),
            (">", 4, 3, True),
            (">=", 3, 3, True),
            ("<", 3, 4, True),
            ("<=", 4, 3, False),
        ],
    )
    def test_comparison_table(self, op, left, right, expected):
        assert BinaryOp(op, const(left), const(right)).evaluate({}) is expected

    def test_is_comparison_flag(self):
        assert BinaryOp("=", const(1), const(1)).is_comparison
        assert not BinaryOp("+", const(1), const(1)).is_comparison


class TestLogic:
    def test_and_or_not(self):
        t, f = const(True), const(False)
        assert And(t, t).evaluate({}) is True
        assert And(t, f).evaluate({}) is False
        assert Or(f, t).evaluate({}) is True
        assert Or(f, f).evaluate({}) is False
        assert Not(f).evaluate({}) is True

    def test_short_circuit_and(self):
        # right side would raise; short circuit avoids it
        bad = AttrRef("missing", "x")
        assert And(const(False), bad).evaluate({}) is False

    def test_short_circuit_or(self):
        bad = AttrRef("missing", "x")
        assert Or(const(True), bad).evaluate({}) is True

    def test_operator_sugar(self):
        expr = const(True) & const(False) | ~const(False)
        assert expr.evaluate({}) is True


class TestConjunctHelpers:
    def test_conjuncts_flattens(self):
        a, b, c = const(1), const(2), const(3)
        expr = And(And(a, b), c)
        assert conjuncts(expr) == [a, b, c]

    def test_conjuncts_of_non_conjunction(self):
        expr = Or(const(1), const(2))
        assert conjuncts(expr) == [expr]

    def test_conjoin_empty_is_true(self):
        assert conjoin([]).evaluate({}) is True

    def test_conjoin_roundtrip(self):
        parts = [const(True), const(True), const(False)]
        assert conjoin(parts).evaluate({}) is False

    def test_conjoin_single(self):
        single = const(42)
        assert conjoin([single]) is single


class TestSplitGuard:
    def test_paper_guard_keys_on_the_bare_attribute(self):
        key = attr("vid", "p1").eq(attr("vid", "p2"))
        shifted = (attr("sec", "p1") + 30).eq(attr("sec", "p2"))
        keys, own, residual = split_guard(And(shifted, key), "p1")
        assert keys == [("vid", attr("vid", "p2"))]
        assert own == []
        assert residual == [shifted]

    def test_key_on_either_side_and_own_conjuncts(self):
        reversed_key = attr("vid", "p").eq(attr("vid", "n"))
        own = attr("volume", "n").gt(950)
        constant = const(True)
        keys, owns, residual = split_guard(
            conjoin([reversed_key, own, constant]), "n"
        )
        assert keys == [("vid", attr("vid", "p"))]
        assert owns == [own, constant]
        assert residual == []

    def test_non_keys_stay_residual(self):
        shapes = [
            # negated side is not a bare attribute
            (attr("vid", "n") + 0).eq(attr("vid", "p")),
            # other side reads the negated variable too
            attr("vid", "n").eq(attr("sec", "n") + attr("vid", "p")),
            # not an equality
            attr("vid", "n").ne(attr("vid", "p")),
            Or(attr("vid", "n").eq(attr("vid", "p")), const(False)),
        ]
        for shape in shapes:
            assert split_guard(shape, "n") == ([], [], [shape])

    def test_constant_equality_is_own(self):
        conjunct = attr("lane", "n").eq("exit")
        assert split_guard(conjunct, "n") == ([], [conjunct], [])


# Random expression trees for the compile/evaluate parity check.  "speed"
# is never present in the generated payloads, so referencing it drives the
# missing-attribute ExpressionError path; unbound variables come from
# bindings that omit "p" or "q".
_PARITY_VARS = ("p", "q")
_PARITY_ATTRS = ("vid", "sec", "lane", "speed")

_parity_values = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.sampled_from(["exit", "middle", ""]),
)

_parity_leaves = st.one_of(
    st.builds(Constant, _parity_values),
    st.builds(
        AttrRef, st.sampled_from(_PARITY_VARS + ("",)), st.sampled_from(_PARITY_ATTRS)
    ),
)

_parity_ops = st.sampled_from(
    ["+", "-", "*", "/", "=", "!=", ">", ">=", "<", "<="]
)

_parity_exprs = st.recursive(
    _parity_leaves,
    lambda children: st.one_of(
        st.builds(BinaryOp, _parity_ops, children, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Not, children),
    ),
    max_leaves=12,
)

_parity_bindings = st.fixed_dictionaries(
    {},
    optional={
        var: st.fixed_dictionaries(
            {"vid": st.integers(0, 50), "sec": st.integers(0, 100)},
            optional={"lane": st.sampled_from(["exit", "middle"])},
        )
        for var in _PARITY_VARS
    },
)


class TestCompiledParity:
    """The compiled closures must agree with the interpreted walker.

    ``Expr.compile()`` is the hot-path twin of ``Expr.evaluate()``: same
    value on success, same ``ExpressionError`` message on failure.  We
    check both over random expression trees, deliberately including
    references to unbound variables and missing attributes so the error
    paths are exercised too.
    """

    @settings(max_examples=60, deadline=None)
    @given(expr=_parity_exprs, payloads=_parity_bindings)
    def test_compile_matches_evaluate(self, expr, payloads):
        binding = {
            var: Event(REPORT, 0, payload) for var, payload in payloads.items()
        }
        compiled = expr.compile()
        try:
            expected = expr.evaluate(binding)
        except ExpressionError as exc:
            with pytest.raises(ExpressionError) as caught:
                compiled(binding)
            assert str(caught.value) == str(exc)
        else:
            got = compiled(binding)
            assert got == expected
            assert type(got) is type(expected)

    def test_compile_is_memoized(self):
        expr = (attr("sec", "p") + 30).eq(attr("sec", "q"))
        assert expr.compile() is expr.compile()

    def test_compiled_unqualified_self_fallback(self):
        event = Event(REPORT, 0, {"vid": 3, "sec": 0, "lane": "x"})
        fn = attr("vid").compile()
        assert fn({"the_only_var": event}) == 3

    def test_compiled_short_circuit(self):
        bad = AttrRef("missing", "x")
        assert And(const(False), bad).compile()({}) is False
        assert Or(const(True), bad).compile()({}) is True


class TestPaperPredicates:
    def test_query2_predicate(self):
        """p1.sec + 30 = p2.sec AND p1.vid = p2.vid (Figure 3, query 2)."""
        predicate = (attr("sec", "p1") + 30).eq(attr("sec", "p2")) & attr(
            "vid", "p1"
        ).eq(attr("vid", "p2"))
        match = bind(
            p1={"vid": 1, "sec": 0, "lane": "middle"},
            p2={"vid": 1, "sec": 30, "lane": "middle"},
        )
        assert predicate.evaluate(match) is True
        wrong_gap = bind(
            p1={"vid": 1, "sec": 0, "lane": "middle"},
            p2={"vid": 1, "sec": 60, "lane": "middle"},
        )
        assert predicate.evaluate(wrong_gap) is False

    def test_lane_exclusion(self):
        predicate = attr("lane", "p2").ne("exit")
        assert predicate.evaluate(bind(p2={"vid": 1, "sec": 0, "lane": "middle"}))
        assert not predicate.evaluate(bind(p2={"vid": 1, "sec": 0, "lane": "exit"}))

    def test_str_rendering(self):
        expr = (attr("sec", "p1") + 30).eq(attr("sec", "p2"))
        assert str(expr) == "((p1.sec + 30) = p2.sec)"
