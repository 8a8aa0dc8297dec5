"""Ground truth, computed in the benchmark process from the generated
inputs with :func:`repro.datalog.engine.evaluate`.  Datalog theories are
evaluated as written; the existential theories of ``kb_materialize``
through hand-written Datalog programs with the same answers (``inputs.CHASE_ORACLE_PROGRAM``,
``inputs.TRANSLATE_ORACLE_PROGRAM``), so the check shares neither the
registry's translation nor its chase."""

from __future__ import annotations

import json
from typing import Iterable, Optional

from repro.chase.runner import answers_in
from repro.core.database import Database
from repro.core.parser import parse_atom, parse_theory
from repro.datalog.engine import evaluate

Answers = frozenset  # of tuples of constant names


class Oracle:
    """Expected answers of a Datalog program, memoized per (database, output).
    Only the most recent model is kept, so callers that ask for every
    output of one database before moving on evaluate each database once
    without holding every model in memory."""

    def __init__(self, program_text: str) -> None:
        self.program = parse_theory(program_text)
        self._answers: dict = {}
        self._keys: dict = {}
        self._atoms: dict = {}
        self._last: tuple = (None, None)

    def database(self, facts_text: str) -> Database:
        """The database of a text ``inputs.render`` produced (one fact
        per line), each distinct fact parsed once per oracle."""
        atoms = []
        for line in facts_text.splitlines():
            atom = self._atoms.get(line)
            if atom is None:
                atom = self._atoms[line] = parse_atom(line.rstrip("."), data_mode=True)
            atoms.append(atom)
        return Database(atoms)

    def model(self, facts_text: str):
        if self._last[0] != facts_text:
            database = self.database(facts_text)
            self._keys[facts_text] = database.content_hash()
            self._last = (facts_text, evaluate(self.program, database))
        return self._last[1]

    def db_key(self, facts_text: str) -> str:
        """The structural content hash the server keys this database by."""
        if facts_text not in self._keys:
            self.model(facts_text)
        return self._keys[facts_text]

    def answers(self, facts_text: str, output: str) -> Answers:
        key = (facts_text, output)
        found = self._answers.get(key)
        if found is None:
            found = canonical_model_answers(answers_in(self.model(facts_text), output))
            self._answers[key] = found
        return found


def canonical_model_answers(tuples: Iterable) -> Answers:
    return frozenset(tuple(term.name for term in row) for row in tuples)


def canonical_wire_answers(rows: Iterable) -> Answers:
    return frozenset(tuple(row) for row in rows)


def decode(line: Optional[bytes]) -> Optional[dict]:
    if line is None:
        return None
    try:
        value = json.loads(line)
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def classify(response: Optional[dict], expected: Optional[Answers]) -> Optional[str]:
    """``None`` for a correct, complete answer; otherwise why the request
    counts as failed (transport, shed, error, partial or mismatch)."""
    if response is None:
        return "transport: no decodable response"
    if response.get("shed"):
        return f"shed: {response.get('error', {}).get('code')}"
    if not response.get("ok"):
        return f"error: {response.get('error')}"
    if response.get("complete") is False:
        return f"partial: {response.get('exhausted')}"
    if expected is not None and canonical_wire_answers(response.get("answers", [])) != expected:
        return "mismatch: answers differ from the oracle"
    return None


def fold_events(initial: Answers, events: Iterable[dict]) -> Answers:
    """Apply subscription diff events, in order, to an answer set."""
    current = set(initial)
    for event in events:
        current.difference_update(tuple(row) for row in event.get("removed", []))
        current.update(tuple(row) for row in event.get("added", []))
    return frozenset(current)
