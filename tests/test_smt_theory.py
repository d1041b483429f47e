"""Tests for the online DPLL(T) engine.

The load-bearing property is *equivalence with the offline oracle*: the
online engine (backtrackable simplex inside the CDCL search, theory
propagation, minimized explanations) must return the same SAT/UNSAT verdict
as the historical enumerate-block-repeat loop on every query, and every SAT
model must actually satisfy the asserted atoms (``verify_models`` re-checks
both the clause database and the theory side).  The directed tests pin down
the backtrackable-simplex trail discipline and the budget/unknown paths.
"""

import random

import pytest

from repro.logic.expr import (
    BinOp,
    IntConst,
    Var,
    add,
    and_,
    ge,
    gt,
    implies,
    le,
    lt,
    not_,
    or_,
    sub,
)
from repro.logic.sorts import INT
from repro.smt import IncrementalSolver, SatResult
from repro.smt.sat import SatSolver
from repro.smt.simplex import BacktrackableSimplex, DeltaRational
from repro.smt.solver import solve_formula
from repro.smt.theory import TheorySolver


@pytest.fixture(autouse=True)
def _verify_models():
    """Every SAT answer in this suite is re-checked, boolean and theory side."""
    SatSolver.verify_models = True
    yield
    SatSolver.verify_models = False


# -- random LIA skeleton generator -------------------------------------------

_VARS = [Var("x"), Var("y"), Var("z"), Var("w")]
_CONSTS = [IntConst(-3), IntConst(-1), IntConst(0), IntConst(1), IntConst(2), IntConst(5)]
_SMALL_CONSTS = [IntConst(-2), IntConst(0), IntConst(1), IntConst(3)]


def _random_term(rng, depth=2, variables=_VARS, consts=_CONSTS):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(variables + consts)
    op = rng.choice([add, sub])
    return op(
        _random_term(rng, depth - 1, variables, consts),
        _random_term(rng, depth - 1, variables, consts),
    )


def _random_atom(rng, variables=_VARS, consts=_CONSTS):
    op = rng.choice(["<", "<=", ">", ">=", "=", "!="])
    return BinOp(op, _random_term(rng, 2, variables, consts), _random_term(rng, 2, variables, consts))


def _random_formula(rng, depth=2, variables=_VARS, consts=_CONSTS):
    if depth == 0 or rng.random() < 0.3:
        return _random_atom(rng, variables, consts)
    shape = rng.random()
    lhs = _random_formula(rng, depth - 1, variables, consts)
    rhs = _random_formula(rng, depth - 1, variables, consts)
    if shape < 0.35:
        return and_(lhs, rhs)
    if shape < 0.7:
        return or_(lhs, rhs)
    if shape < 0.85:
        return implies(lhs, rhs)
    return not_(lhs)


class TestOnlineOfflineDifferential:
    """The randomized oracle gate: ~200 seeded LIA skeletons per run."""

    @pytest.mark.parametrize("seed", range(8))
    def test_one_shot_engines_agree(self, seed):
        rng = random.Random(987_000 + seed)
        for _ in range(25):
            formula = _random_formula(rng, depth=3)
            offline = solve_formula(formula, engine="offline")
            online = solve_formula(formula, engine="online")
            assert online.result == offline.result, f"diverged on {formula}"

    @pytest.mark.parametrize("seed", range(8))
    def test_small_vocabulary_engines_agree(self, seed):
        """Three variables and four constants: atoms share terms and bounds
        far more often, a denser mix of theory conflicts and propagations."""
        rng = random.Random(662_000 + seed)
        for _ in range(20):
            formula = _random_formula(rng, depth=3, variables=_VARS[:3], consts=_SMALL_CONSTS)
            offline = solve_formula(formula, engine="offline")
            online = solve_formula(formula, engine="online")
            assert online.result == offline.result, f"diverged on {formula}"

    def test_incremental_engines_agree_across_scopes(self):
        """One persistent online solver vs a fresh offline solver per query:
        retained tableau state must never change an answer."""
        rng = random.Random(424242)
        online = IncrementalSolver()
        for _ in range(40):
            hypotheses = [_random_atom(rng) for _ in range(rng.randint(1, 3))]
            goal = _random_formula(rng, depth=2)
            offline = IncrementalSolver(engine="offline")
            for solver in (online, offline):
                solver.push()
                for hypothesis in hypotheses:
                    solver.assert_expr(hypothesis)
            assert online.check_valid(goal) == offline.check_valid(goal), (
                f"diverged on {hypotheses} |= {goal}"
            )
            online.pop()
            offline.pop()

    def test_online_engine_exercises_new_machinery(self):
        """Sanity: the differential above actually runs the online paths."""
        rng = random.Random(7)
        solver = IncrementalSolver()
        for _ in range(30):
            solver.push()
            for _ in range(rng.randint(1, 3)):
                solver.assert_expr(_random_atom(rng))
            solver.check_valid(_random_formula(rng, depth=2))
            solver.pop()
        assert solver.partial_checks > 0
        assert solver.explanations >= 0  # populated field, not an AttributeError
        assert solver.theory_time >= 0.0


class TestBacktrackableSimplex:
    def test_assert_and_undo_restores_bounds(self):
        simplex = BacktrackableSimplex()
        x = simplex.term_var({"x": 1})
        mark = simplex.mark()
        assert simplex.assert_bound(x, True, DeltaRational(5), origin=3) is None
        assert simplex.assert_bound(x, False, DeltaRational(2), origin=4) is None
        assert simplex.feasible() is None
        inner = simplex.mark()
        conflict = simplex.assert_bound(x, False, DeltaRational(9), origin=5)
        assert conflict == {3, 5}  # lower 9 against upper 5
        simplex.undo_to(inner)
        assert simplex.lower_bound(x).value == DeltaRational(2)
        simplex.undo_to(mark)
        assert simplex.upper_bound(x) is None
        assert simplex.lower_bound(x) is None

    def test_row_conflict_explained_with_origins(self):
        simplex = BacktrackableSimplex()
        s = simplex.term_var({"x": 1, "y": 1})  # slack for x + y
        assert simplex.assert_bound(s, False, DeltaRational(10), origin=11) is None
        assert simplex.assert_bound(simplex.term_var({"x": 1}), True, DeltaRational(2), origin=12) is None
        assert simplex.assert_bound(simplex.term_var({"y": 1}), True, DeltaRational(3), origin=13) is None
        conflict = simplex.feasible()
        assert conflict == {11, 12, 13}

    def test_branch_and_bound_on_live_tableau(self):
        simplex = BacktrackableSimplex()
        s = simplex.term_var({"x": 2})  # 2x
        assert simplex.assert_bound(s, False, DeltaRational(1), origin=21) is None
        assert simplex.assert_bound(s, True, DeltaRational(1), origin=22) is None
        # 2x = 1 has no integer solution; the rational relaxation is feasible
        status, explanation, model, nodes = simplex.check_integer({"x"}, model_names={"x"})
        assert status == "unsat"
        assert nodes >= 1
        # bound state untouched by the search
        assert simplex.lower_bound(s).value == DeltaRational(1)

    def test_integer_model_is_integral(self):
        simplex = BacktrackableSimplex()
        x = simplex.term_var({"x": 1})
        assert simplex.assert_bound(x, False, DeltaRational(0, 1), origin=31) is None  # x > 0
        assert simplex.assert_bound(x, True, DeltaRational(3), origin=32) is None
        status, _, model, _ = simplex.check_integer({"x"}, model_names={"x"})
        assert status == "sat"
        assert model["x"] == int(model["x"])
        assert 0 < model["x"] <= 3


class TestNegativeLiteralOrigins:
    def test_feasible_keeps_negative_literal_in_explanation(self):
        """Regression: -1 is variable 1's negative literal, not a sentinel;
        it must survive into conflict explanations."""
        simplex = BacktrackableSimplex()
        s = simplex.term_var({"x": 1, "y": 1})
        assert simplex.assert_bound(s, True, DeltaRational(0), origin=5) is None
        assert (
            simplex.assert_bound(simplex.term_var({"y": 1}), False, DeltaRational(3), origin=7)
            is None
        )
        assert (
            simplex.assert_bound(simplex.term_var({"x": 1}), False, DeltaRational(-2), origin=-1)
            is None
        )
        conflict = simplex.feasible()
        assert conflict == {5, 7, -1}

    def test_goal_atom_as_variable_one_stays_sound(self):
        """End-to-end reproduction: when the goal's atom is SAT variable 1,
        assuming the negated goal asserts literal -1 into the theory.  A
        conflict explanation that dropped -1 learned an over-strong lemma,
        permanently latched the solver UNSAT, and certified false
        obligations afterwards."""
        x, y = Var("x"), Var("y")
        solver = IncrementalSolver({"x": INT, "y": INT})
        solver.literal_for(le(x, IntConst(2)))  # atom "x <= 2" becomes var 1
        solver.assert_expr(le(add(x, y), 0))
        solver.assert_expr(ge(y, 3))
        assert solver.check_valid(le(x, IntConst(2)))  # x <= -3 <= 2: valid
        # A genuinely invalid goal must stay refutable afterwards.
        assert not solver.check_valid(le(x, IntConst(-100)))
        answer = solver.check_sat()
        assert answer.result is SatResult.SAT


class TestTheoryPropagation:
    def test_bound_implies_weaker_atom(self):
        """Asserting x >= 5 must propagate x >= 3 as a theory consequence,
        not rediscover it through search."""
        x = Var("x")
        solver = IncrementalSolver({"x": INT})
        solver.push()
        # Mention both atoms so they are registered before the check.
        solver.assert_expr(ge(x, 5))
        solver.assert_expr(or_(ge(x, 3), le(x, 0)))
        answer = solver.check_sat()
        assert answer.result is SatResult.SAT
        assert solver.theory_propagations > 0
        solver.pop()

    def test_partial_checks_happen(self):
        x, y = Var("x"), Var("y")
        solver = IncrementalSolver({"x": INT, "y": INT})
        solver.push()
        solver.assert_expr(and_(ge(x, 0), le(add(x, y), 10)))
        solver.assert_expr(ge(y, 0))
        assert solver.check_valid(le(x, IntConst(10)))
        solver.pop()
        assert solver.partial_checks > 0


class TestBudgets:
    @staticmethod
    def _assert_branchy_conflict(solver):
        """Two slack-row conflicts that single-variable bound propagation
        cannot shortcut: each disjunct needs its own simplex refutation."""
        x, y, z = Var("x"), Var("y"), Var("z")
        solver.assert_expr(or_(ge(add(x, y), 10), ge(add(x, z), 10)))
        solver.assert_expr(le(x, 2))
        solver.assert_expr(le(y, 2))
        solver.assert_expr(le(z, 2))

    def test_round_budget_returns_unknown(self):
        """A theory-round budget too small for the search yields UNKNOWN with
        a reason, never a wrong verdict or a crash."""
        solver = IncrementalSolver(
            {"x": INT, "y": INT, "z": INT}, max_theory_rounds=1
        )
        self._assert_branchy_conflict(solver)
        answer = solver.check_sat()
        assert answer.result is SatResult.UNKNOWN
        assert "budget" in answer.reason

    def test_generous_budget_decides_the_same_problem(self):
        solver = IncrementalSolver(
            {"x": INT, "y": INT, "z": INT}, max_theory_rounds=5000
        )
        self._assert_branchy_conflict(solver)
        assert solver.check_sat().result is SatResult.UNSAT


class TestExplanationShrinking:
    def test_core_dropone_removes_padding(self):
        """Irrelevant asserted atoms must not survive into the explanation."""
        x = Var("x")
        pads = [Var(f"p{i}") for i in range(6)]
        solver = IncrementalSolver()
        solver.push()
        for pad in pads:
            solver.assert_expr(ge(pad, 0))
        solver.assert_expr(ge(x, 5))
        assert solver.check_valid(ge(x, 1))
        solver.pop()
        # The refutation's conflict is {x >= 5, x < 1}; with six padding
        # atoms asserted the average explanation must stay far below the
        # asserted-atom count.
        if solver.explanations:
            assert solver.explanation_literals / solver.explanations <= 4
