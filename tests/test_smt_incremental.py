"""Tests for the incremental SMT backend.

The load-bearing property is *equivalence*: an :class:`IncrementalSolver`
must agree with the one-shot pipeline (:func:`solve_formula` /
:func:`is_valid`) on every query, no matter how much state it has retained
from earlier checks.  The randomized differential tests below drive both
backends over the same formulas; the directed tests pin down the stack
discipline and the assumption handling of the SAT core.
"""

import random

import pytest

from repro.logic.expr import (
    App,
    BinOp,
    IntConst,
    Ite,
    Var,
    add,
    and_,
    eq,
    ge,
    gt,
    implies,
    le,
    lt,
    mul,
    not_,
    or_,
    sub,
)
from repro.logic.sorts import BOOL, INT
from repro.smt import IncrementalSolver, SatResult, is_valid
from repro.smt.sat import SatSolver
from repro.smt.solver import SmtError, solve_formula


# -- random formula generator -------------------------------------------------

_VARS = [Var("x"), Var("y"), Var("z")]
_CONSTS = [IntConst(-2), IntConst(0), IntConst(1), IntConst(3)]


def _random_term(rng, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(_VARS + _CONSTS)
    op = rng.choice([add, sub])
    return op(_random_term(rng, depth - 1), _random_term(rng, depth - 1))


def _random_atom(rng):
    op = rng.choice(["<", "<=", ">", ">=", "="])
    return BinOp(op, _random_term(rng), _random_term(rng))


def _random_formula(rng, depth=2):
    if depth == 0 or rng.random() < 0.35:
        return _random_atom(rng)
    shape = rng.random()
    lhs = _random_formula(rng, depth - 1)
    rhs = _random_formula(rng, depth - 1)
    if shape < 0.35:
        return and_(lhs, rhs)
    if shape < 0.7:
        return or_(lhs, rhs)
    if shape < 0.85:
        return implies(lhs, rhs)
    return not_(lhs)


class TestRandomizedDifferential:
    def test_check_sat_matches_one_shot(self):
        rng = random.Random(20260729)
        for _ in range(80):
            formula = _random_formula(rng, depth=3)
            expected = solve_formula(formula).result
            solver = IncrementalSolver()
            solver.push()
            solver.assert_expr(formula)
            got = solver.check_sat().result
            assert got == expected, f"diverged on {formula}"
            solver.pop()

    def test_check_valid_matches_is_valid(self):
        rng = random.Random(42)
        for _ in range(40):
            hypotheses = [_random_atom(rng) for _ in range(rng.randint(1, 3))]
            goals = [_random_formula(rng, depth=2) for _ in range(4)]
            solver = IncrementalSolver()
            solver.push()
            for hypothesis in hypotheses:
                solver.assert_expr(hypothesis)
            for goal in goals:
                assert solver.check_valid(goal) == is_valid(hypotheses, goal), (
                    f"diverged on {hypotheses} |= {goal}"
                )
            solver.pop()

    def test_retained_state_does_not_change_answers(self):
        """One long-lived solver must answer like a fresh solver per query."""
        rng = random.Random(7)
        solver = IncrementalSolver()
        for _ in range(25):
            hypotheses = [_random_atom(rng) for _ in range(rng.randint(1, 2))]
            goal = _random_formula(rng, depth=2)
            solver.push()
            for hypothesis in hypotheses:
                solver.assert_expr(hypothesis)
            assert solver.check_valid(goal) == is_valid(hypotheses, goal)
            solver.pop()


class TestAssertionStack:
    def test_push_pop_restores_state(self):
        x = Var("x")
        solver = IncrementalSolver({"x": INT})
        solver.assert_expr(ge(x, 0))
        assert solver.check_sat().result is SatResult.SAT
        solver.push()
        solver.assert_expr(lt(x, 0))
        assert solver.check_sat().result is SatResult.UNSAT
        solver.pop()
        assert solver.check_sat().result is SatResult.SAT

    def test_nested_scopes(self):
        x = Var("x")
        solver = IncrementalSolver({"x": INT})
        solver.push()
        solver.assert_expr(ge(x, 0))
        solver.push()
        solver.assert_expr(le(x, 10))
        assert solver.check_valid(le(x, 10))
        assert not solver.check_valid(le(x, 5))
        solver.pop()
        assert not solver.check_valid(le(x, 10))
        assert solver.check_valid(ge(x, 0))
        solver.pop()
        assert not solver.check_valid(ge(x, 0))

    def test_goals_do_not_leak_between_checks(self):
        """A tested goal must leave no trace: the same checks answer the
        same way in any order, matching the one-shot oracle."""
        x, n = Var("x"), Var("n")
        goals = [gt(x, 0), lt(x, 0), eq(x, n), le(x, n)]
        hypotheses = [ge(x, 1), le(x, n)]
        expected = [is_valid(hypotheses, goal) for goal in goals]
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
            solver = IncrementalSolver({"x": INT, "n": INT})
            solver.push()
            for hypothesis in hypotheses:
                solver.assert_expr(hypothesis)
            for index in order:
                assert solver.check_valid(goals[index]) == expected[index]
            solver.pop()

    def test_repeated_goal_uses_cached_encoding(self):
        x = Var("x")
        solver = IncrementalSolver({"x": INT})
        for bound in (1, 2, 3):
            solver.push()
            solver.assert_expr(ge(x, bound))
            assert solver.check_valid(gt(x, 0))
            solver.pop()
        assert solver.assumption_checks == 3
        # clause database grew during the first visit, later ones reuse it
        assert solver.checks == 3

    def test_bool_sorted_variables(self):
        p = Var("p", BOOL)
        x = Var("x")
        solver = IncrementalSolver({"p": BOOL, "x": INT})
        solver.push()
        solver.assert_expr(implies(p, ge(x, 5)))
        solver.assert_expr(p)
        assert solver.check_valid(ge(x, 5))
        assert not solver.check_valid(ge(x, 6))
        solver.pop()


class TestEncodingReuse:
    def test_surviving_conjuncts_reuse_their_encoding(self):
        """A weakened hypothesis (one conjunct dropped) is a new conjunction
        of old conjuncts: re-asserting it costs no SAT variable beyond the
        new scope's selector."""
        x, y = Var("x"), Var("y")
        a, b, c = ge(x, 1), ge(y, 2), le(add(x, y), 10)
        solver = IncrementalSolver({"x": INT, "y": INT})
        solver.push()
        solver.assert_expr(and_(a, b, c))
        assert solver.check_valid(ge(y, 1))
        solver.pop()
        before = solver._sat.num_vars
        solver.push()
        solver.assert_expr(and_(a, c))
        assert solver._sat.num_vars == before + 1
        # The dropped conjunct is really gone from the scope.
        assert solver.check_valid(le(x, 10)) == is_valid([a, c], le(x, 10))
        assert not solver.check_valid(ge(y, 1))
        solver.pop()

    @pytest.mark.parametrize("valid", [True, False])
    def test_check_valid_shares_the_refute_any_encoding(self, valid):
        """``check_valid(g)`` assumes the negation of the root literal that
        ``refute_any`` already encoded for ``g``: no new Tseitin variable,
        and the same answer as a fresh solver.  The goal's if-then-else term
        is what a second encoding of ``!g`` would pay for again (a fresh
        lifted variable and its definition)."""
        x, y = Var("x"), Var("y")
        hypotheses = [ge(x, 1), le(y, 4)]
        goal = ge(Ite(ge(x, 0), x, y), 1 if valid else 2)
        other = ge(y, 3)

        def assert_hypotheses(solver):
            solver.push()
            for hypothesis in hypotheses:
                solver.assert_expr(hypothesis)

        solver = IncrementalSolver({"x": INT, "y": INT})
        assert_hypotheses(solver)
        assert solver.refute_any([goal, other]).result is SatResult.SAT
        before = solver._sat.num_vars
        answer = solver.check_valid(goal)
        assert solver._sat.num_vars == before
        fresh = IncrementalSolver({"x": INT, "y": INT})
        assert_hypotheses(fresh)
        assert answer == fresh.check_valid(goal) == valid


class TestFailedEncoding:
    @pytest.mark.parametrize("connective", [and_, or_])
    def test_ackermann_axioms_survive_a_failed_encoding(self, connective):
        """An assertion that raises half-way (non-linear term) must not lose
        the congruence axioms its applications generated: a later valid
        goal over the same applications must still be proved."""
        a, b, x, y = Var("a"), Var("b"), Var("x"), Var("y")
        fa, fb = App("f", (a,), INT), App("f", (b,), INT)
        goal = not_(and_(eq(a, b), gt(fa, fb)))
        solver = IncrementalSolver()
        with pytest.raises(SmtError):
            solver.assert_expr(connective(gt(fa, fb), gt(mul(x, y), 0)))
        assert solver.check_valid(goal)
        assert IncrementalSolver().check_valid(goal)


class TestSatAssumptionSoundness:
    def test_learned_clauses_do_not_bake_in_assumptions(self):
        """Regression: with assumptions planted at decision level 0, conflict
        analysis dropped them from learned clauses, so a clause learned under
        assumption ``a`` kept constraining later solves made without it."""
        solver = SatSolver()
        a, b, c = solver.new_var(), solver.new_var(), solver.new_var()
        solver.add_clause([-a, -b, c])
        solver.add_clause([-a, -b, -c])
        model = solver.solve(assumptions=[a])
        assert model is not None and model[a] is True and model[b] is False
        # Under the buggy scheme the first call could learn the unit (-b);
        # b must still be assignable once `a` is no longer assumed.
        model = solver.solve(assumptions=[b])
        assert model is not None and model[b] is True and model[a] is False

    def test_assumptions_after_backjump_are_reasserted(self):
        solver = SatSolver()
        variables = [solver.new_var() for _ in range(6)]
        a, b, c, d, e, f = variables
        solver.add_clause([-a, b])
        solver.add_clause([-c, d])
        solver.add_clause([-b, -d, e])
        solver.add_clause([-e, f])
        model = solver.solve(assumptions=[a, c])
        assert model is not None
        assert model[a] and model[b] and model[c] and model[d] and model[e] and model[f]

    def test_unsat_under_assumptions_is_not_permanent(self):
        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([-a, b])
        solver.add_clause([-a, -b])
        assert solver.solve(assumptions=[a]) is None
        model = solver.solve()
        assert model is not None and model[a] is False
        model = solver.solve(assumptions=[b])
        assert model is not None and model[b] is True
