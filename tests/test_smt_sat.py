"""Unit tests for the CDCL SAT core."""

import itertools
import random

import pytest

from repro.smt.sat import SatSolver


@pytest.fixture(autouse=True)
def _verify_models():
    """Every SAT answer in this suite is re-checked against the clause DB."""
    SatSolver.verify_models = True
    yield
    SatSolver.verify_models = False


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {i + 1: bits[i] for i in range(num_vars)}
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            return True
    return False


def _random_cnf(rng):
    num_vars = rng.randint(4, 9)
    clauses = []
    for _ in range(rng.randint(8, 40)):
        size = rng.randint(1, 3)
        clause = [
            var if rng.random() < 0.5 else -var
            for var in (rng.randint(1, num_vars) for _ in range(size))
        ]
        clauses.append(clause)
    return num_vars, clauses


def _pigeonhole(pigeons, holes):
    """CNF for 'each pigeon gets a hole, no hole two pigeons' (UNSAT when
    pigeons > holes); the classic resolution-hard family, a reliable source
    of conflicts and backjumps."""
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


def _solve_cnf(num_vars, clauses):
    solver = SatSolver()
    for _ in range(num_vars):
        solver.new_var()
    for clause in clauses:
        if not solver.add_clause(clause):
            return None, solver
    return solver.solve(), solver


class TestBasics:
    def test_empty_formula_is_sat(self):
        solver = SatSolver()
        assert solver.solve() == {}

    def test_single_unit_clause(self):
        solver = SatSolver()
        v = solver.new_var()
        solver.add_clause([v])
        model = solver.solve()
        assert model == {v: True}

    def test_conflicting_units(self):
        solver = SatSolver()
        v = solver.new_var()
        solver.add_clause([v])
        solver.add_clause([-v])
        assert solver.solve() is None

    def test_empty_clause_is_unsat(self):
        solver = SatSolver()
        solver.new_var()
        assert solver.add_clause([]) is False
        assert solver.solve() is None

    def test_tautology_ignored(self):
        solver = SatSolver()
        v = solver.new_var()
        assert solver.add_clause([v, -v]) is True
        assert solver.solve() is not None

    def test_unknown_variable_rejected(self):
        solver = SatSolver()
        with pytest.raises(ValueError):
            solver.add_clause([1])

    def test_simple_implication_chain(self):
        solver = SatSolver()
        a, b, c = solver.new_var(), solver.new_var(), solver.new_var()
        solver.add_clause([a])
        solver.add_clause([-a, b])
        solver.add_clause([-b, c])
        model = solver.solve()
        assert model[a] and model[b] and model[c]

    def test_pigeonhole_2_in_1_unsat(self):
        # two pigeons, one hole
        solver = SatSolver()
        p1, p2 = solver.new_var(), solver.new_var()
        solver.add_clause([p1])
        solver.add_clause([p2])
        solver.add_clause([-p1, -p2])
        assert solver.solve() is None

    def test_model_satisfies_clauses(self):
        solver = SatSolver()
        variables = [solver.new_var() for _ in range(4)]
        clauses = [
            [variables[0], variables[1]],
            [-variables[0], variables[2]],
            [-variables[1], -variables[2], variables[3]],
            [-variables[3], variables[0]],
        ]
        for clause in clauses:
            solver.add_clause(clause)
        model = solver.solve()
        assert model is not None
        for clause in clauses:
            assert any(model[abs(lit)] == (lit > 0) for lit in clause)


class TestAssumptions:
    def test_assumption_forces_value(self):
        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([-a, b])
        model = solver.solve(assumptions=[a])
        assert model[a] is True and model[b] is True

    def test_contradictory_assumptions(self):
        solver = SatSolver()
        a = solver.new_var()
        assert solver.solve(assumptions=[a, -a]) is None

    def test_assumption_conflicts_with_clause(self):
        solver = SatSolver()
        a = solver.new_var()
        solver.add_clause([-a])
        assert solver.solve(assumptions=[a]) is None

    def test_resolvable_without_assumption(self):
        solver = SatSolver()
        a = solver.new_var()
        solver.add_clause([-a])
        model = solver.solve()
        assert model[a] is False


class TestIncremental:
    def test_clause_added_between_solves(self):
        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        assert solver.solve() is not None
        solver.add_clause([-a])
        solver.add_clause([-b])
        assert solver.solve() is None

    def test_blocking_clause_enumeration(self):
        solver = SatSolver()
        variables = [solver.new_var() for _ in range(3)]
        solver.add_clause(variables)  # at least one true
        models = []
        while True:
            model = solver.solve()
            if model is None:
                break
            models.append(tuple(model[v] for v in variables))
            solver.add_clause([-v if model[v] else v for v in variables])
        assert len(set(models)) == 7  # all assignments except all-false


class TestRandomAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_3sat(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 8)
        num_clauses = rng.randint(3, 25)
        clauses = []
        for _ in range(num_clauses):
            size = rng.randint(1, 3)
            clause = []
            for _ in range(size):
                var = rng.randint(1, num_vars)
                clause.append(var if rng.random() < 0.5 else -var)
            clauses.append(clause)
        expected = brute_force_sat(num_vars, clauses)

        solver = SatSolver()
        for _ in range(num_vars):
            solver.new_var()
        trivially_unsat = False
        for clause in clauses:
            if not solver.add_clause(clause):
                trivially_unsat = True
        model = None if trivially_unsat else solver.solve()
        assert (model is not None) == expected
        if model is not None:
            for clause in clauses:
                if any(-lit in clause for lit in clause):
                    continue  # tautologies are dropped by the solver
                assert any(model[abs(lit)] == (lit > 0) for lit in clause)


class TestPigeonhole:
    @pytest.mark.parametrize("pigeons,holes", [(4, 3), (5, 4), (6, 5), (7, 6)])
    def test_unsat(self, pigeons, holes):
        num_vars, clauses = _pigeonhole(pigeons, holes)
        model, solver = _solve_cnf(num_vars, clauses)
        assert model is None
        assert solver.solve_learned > 0
        # Pigeonhole backtracks constantly, so decisions after the first few
        # conflicts find saved polarities to reuse.
        assert solver.solve_phase_saving_hits > 0


# -- seeded differentials on the default solver -------------------------------


def _models(num_vars, clauses):
    """All satisfying assignments, by enumeration."""
    return [
        bits
        for bits in itertools.product([False, True], repeat=num_vars)
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in clauses)
    ]


def _random_3sat(rng, num_vars):
    """Uniform random 3-SAT at clause/variable ratio 4.3, the hard region
    where conflicts are plentiful even at ten variables."""
    return [
        [var if rng.random() < 0.5 else -var for var in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(round(4.3 * num_vars))
    ]


class TestSeededCnfDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_cnf_matches_brute_force(self, seed):
        rng = random.Random(58_000 + seed)
        for _ in range(40):
            num_vars, clauses = _random_cnf(rng)
            expected = brute_force_sat(num_vars, clauses)
            model, _ = _solve_cnf(num_vars, clauses)
            assert (model is not None) == expected


class TestIncrementalSequence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_fresh_solver_answer_for_answer(self, seed):
        """Interleaved add_clause/solve on one solver (trail reuse, learned
        clauses kept across calls, mid-trail clause installation) answers
        exactly like a fresh solver built from the clauses added so far."""
        rng = random.Random(77_123 + seed)
        for _ in range(10):
            num_vars, clauses = _random_cnf(rng)
            subject = SatSolver()
            for _ in range(num_vars):
                subject.new_var()
            for i, clause in enumerate(clauses):
                if not subject.add_clause(list(clause)):
                    assert not brute_force_sat(num_vars, clauses[: i + 1])
                    break
                if i % 4 == 3 or i == len(clauses) - 1:
                    fresh, _ = _solve_cnf(num_vars, clauses[: i + 1])
                    assert (subject.solve() is None) == (fresh is None)


class TestClauseDatabase:
    @pytest.mark.parametrize("seed", range(8))
    def test_every_stored_clause_is_a_consequence(self, seed):
        """Learned clauses (after minimisation) and level-0-simplified
        problem clauses are all entailed by the input: the database only
        ever grows by consequences, which is what lets incremental callers
        keep it across solves."""
        rng = random.Random(31_337 + seed)
        learned = 0
        for _ in range(6):
            num_vars = 10
            clauses = _random_3sat(rng, num_vars)
            models = _models(num_vars, clauses)
            _, solver = _solve_cnf(num_vars, clauses)
            learned += solver.num_learned
            for stored in solver._clauses:
                assert all(
                    any(bits[abs(lit) - 1] == (lit > 0) for lit in stored) for bits in models
                ), stored
        assert learned > 0, "no clause was learned; minimisation went unchecked"

    @pytest.mark.parametrize("seed", range(8))
    def test_two_watched_literals_after_each_solve(self, seed):
        """Every clause of two or more literals is watched by exactly its
        first two literals, and in a SAT answer a false watcher always has a
        true partner — the invariant that makes propagation complete."""
        rng = random.Random(93_500 + seed)
        for _ in range(10):
            num_vars, clauses = _random_cnf(rng)
            solver = SatSolver()
            for _ in range(num_vars):
                solver.new_var()
            for i, clause in enumerate(clauses):
                if not solver.add_clause(list(clause)):
                    break
                if i % 3 != 2:
                    continue
                model = solver.solve()
                watched = {}
                for literal_code, watch_list in enumerate(solver._watches):
                    for ci in watch_list:
                        watched.setdefault(ci, []).append(literal_code)
                for ci, stored in enumerate(solver._clauses):
                    if len(stored) < 2:
                        assert ci not in watched
                        continue
                    assert sorted(watched.pop(ci)) == sorted(
                        SatSolver._windex(lit) for lit in stored[:2]
                    )
                    if model is not None:
                        first, second = (solver._value(lit) for lit in stored[:2])
                        assert first is not False or second is True
                        assert second is not False or first is True
                assert not watched


class TestAssumptionSequences:
    @pytest.mark.parametrize("seed", range(8))
    def test_trail_reuse_matches_fresh_solver(self, seed):
        """Consecutive solves under assumption lists that share prefixes (the
        shape of a burst of checks under one hypothesis frame) answer like a
        fresh solver given the assumptions as unit clauses."""
        rng = random.Random(20_240 + seed)
        for _ in range(8):
            num_vars, clauses = _random_cnf(rng)
            subject = SatSolver()
            for _ in range(num_vars):
                subject.new_var()
            if not all(subject.add_clause(list(clause)) for clause in clauses):
                continue
            assumptions = []
            for _ in range(12):
                keep = rng.randint(0, len(assumptions))
                assumptions = assumptions[:keep]
                for _ in range(rng.randint(0, 2)):
                    assumptions.append(rng.choice([1, -1]) * rng.randint(1, num_vars))
                expected = brute_force_sat(num_vars, clauses + [[lit] for lit in assumptions])
                model = subject.solve(assumptions)
                assert (model is not None) == expected, assumptions
                if model is not None:
                    assert all(model[abs(lit)] == (lit > 0) for lit in assumptions)


class TestPhaseSaving:
    @pytest.mark.parametrize("seed", range(8))
    def test_resolve_after_satisfied_clause_keeps_the_model(self, seed):
        """Progress saving: after a clause the current model already
        satisfies is added, every decision replays its saved polarity and
        every propagation agrees with the model, so the solver returns the
        same model again."""
        rng = random.Random(4_096 + seed)
        checked = 0
        for _ in range(20):
            num_vars, clauses = _random_cnf(rng)
            model, solver = _solve_cnf(num_vars, clauses)
            if model is None:
                continue
            picked = rng.sample(range(1, num_vars + 1), 2)
            assert solver.add_clause([var if model[var] else -var for var in picked])
            assert solver.solve() == model
            checked += 1
        assert checked > 0
