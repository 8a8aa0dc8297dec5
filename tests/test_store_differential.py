"""Differential property tests: columnar store vs the dict store.

The columnar store (:class:`repro.core.store.ColumnarDatabase`, what
``Database(...)`` always builds) and the dict reference store
(:func:`repro.core.database.dict_database`) must agree observably on
every facade operation — add/contains/iterate/index probes — and produce
identical join results, Datalog fixpoints, and chase models on arbitrary
inputs.  Joins over the dict store run the reference interpreter, so
every engine case checks columnar store + compiled joins against dict
store + interpreter.  Snapshots must round-trip to an equal database
under both comparisons.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core import (
    Atom,
    Constant,
    Database,
    Variable,
    homomorphisms,
)
from repro.core.database import dict_database
from repro.core.store import load_snapshot, save_snapshot
from repro.core.terms import Null
from repro.bench.generators import (
    random_database,
    random_guarded_theory,
    random_signature,
)

VARIABLES = [Variable(name) for name in ("x", "y", "z")]
CONSTANTS = [Constant(name) for name in ("a", "b", "c", "d")]
NULLS = [Null(name) for name in ("n0", "n1")]
RELATIONS = {"E": 2, "R": 2, "S": 1, "T": 3}

terms = st.sampled_from(CONSTANTS + NULLS)
relation_names = st.sampled_from(sorted(RELATIONS))


@st.composite
def ground_atoms(draw):
    relation = draw(relation_names)
    args = tuple(draw(terms) for _ in range(RELATIONS[relation]))
    return Atom(relation, args)


@st.composite
def patterns(draw):
    relation = draw(relation_names)
    args = tuple(
        draw(st.sampled_from(CONSTANTS + VARIABLES))
        for _ in range(RELATIONS[relation])
    )
    return Atom(relation, args)


atom_lists = st.lists(ground_atoms(), max_size=24)


def assignments(pattern, database):
    return {
        tuple(sorted((v.name, t) for v, t in assignment.items()))
        for assignment in homomorphisms((pattern,), database)
    }


class TestFacadeAgreement:
    @given(atom_lists)
    @settings(max_examples=60, deadline=None)
    def test_add_contains_iterate(self, atoms):
        columnar, dictionary = Database(), dict_database()
        for atom in atoms:
            assert columnar.add(atom) == dictionary.add(atom)
        assert set(columnar) == set(dictionary)
        assert len(columnar) == len(dictionary)
        assert columnar == dictionary
        for atom in atoms:
            assert (atom in columnar) == (atom in dictionary)
        probe = Atom("E", (CONSTANTS[0], CONSTANTS[1]))
        assert (probe in columnar) == (probe in dictionary)
        assert columnar.relations() == dictionary.relations()
        assert columnar.constants() == dictionary.constants()
        assert columnar.nulls() == dictionary.nulls()
        assert columnar.terms() == dictionary.terms()
        assert columnar.content_hash() == dictionary.content_hash()

    @given(atom_lists, patterns())
    @settings(max_examples=60, deadline=None)
    def test_single_pattern_joins_agree(self, atoms, pattern):
        columnar, dictionary = Database(atoms), dict_database(atoms)
        assert assignments(pattern, columnar) == assignments(
            pattern, dictionary
        )

    @given(atom_lists, st.lists(patterns(), min_size=2, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_multi_pattern_joins_agree(self, atoms, body):
        columnar, dictionary = Database(atoms), dict_database(atoms)
        body = tuple(body)
        left = {
            tuple(sorted((v.name, t) for v, t in a.items()))
            for a in homomorphisms(body, columnar)
        }
        right = {
            tuple(sorted((v.name, t) for v, t in a.items()))
            for a in homomorphisms(body, dictionary)
        }
        assert left == right


class TestEngineAgreement:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_datalog_fixpoints_agree(self, seed):
        from repro.datalog import evaluate
        from repro.core.theory import Theory

        rng = random.Random(seed)
        signature = random_signature(rng, n_relations=3, max_arity=2)
        database = random_database(rng, signature, n_constants=5, n_atoms=10)
        theory = random_guarded_theory(
            rng, signature, n_rules=4, existential_probability=0.0
        )
        program = Theory([rule for rule in theory if rule.is_datalog()])
        columnar = evaluate(program, Database(database))
        dictionary = evaluate(program, dict_database(database))
        assert set(columnar) == set(dictionary)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_chase_models_agree(self, seed):
        from repro.chase.runner import ChaseBudget, RESTRICTED, chase

        rng = random.Random(seed)
        signature = random_signature(rng, n_relations=3, max_arity=2)
        database = random_database(rng, signature, n_constants=4, n_atoms=8)
        theory = random_guarded_theory(
            rng, signature, n_rules=3, existential_probability=0.4
        )
        budget = ChaseBudget(max_steps=200)
        columnar = chase(
            theory, Database(database), policy=RESTRICTED, budget=budget
        )
        dictionary = chase(
            theory, dict_database(database), policy=RESTRICTED, budget=budget
        )
        # The chase is deterministic given the trigger order, which both
        # stores preserve (append-ordered iteration), so the models match
        # atom for atom — including null names.
        assert set(columnar.database) == set(dictionary.database)
        assert columnar.complete == dictionary.complete


class TestSnapshotRoundTripProperty:
    @given(atoms=atom_lists)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_equals_both_stores(self, atoms, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("snap") / "model.snap")
        original = Database(atoms)
        save_snapshot(original, path)
        loaded = load_snapshot(path)
        assert loaded == original
        assert loaded == dict_database(atoms)
        assert loaded.content_hash() == original.content_hash()
        for key in original.relations():
            assert loaded.atoms_for(key) == original.atoms_for(key)
