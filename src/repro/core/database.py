"""Databases — indexed sets of ground atoms.

A database (Section 2) is a set of atoms over constants and labeled nulls.
This module defines the :class:`Database` facade and a dict-of-sets
implementation of it.  ``Database(...)`` always builds the columnar store
(:mod:`repro.core.store`); the dict-of-sets store is the test reference,
built only by :func:`dict_database`, and joins over it run the reference
interpreter (:func:`repro.core.homomorphism.naive_homomorphisms`).  Both
stores provide:

* a per-relation index (``atoms_for``),
* a per-(relation, position, term) index used by the homomorphism search,
* the *active constant domain* backing the built-in ``ACDom`` relation,
* an incrementally maintained term set (``has_term``) so the chase can
  mint fresh nulls without scanning every atom.

Per the paper, ``ACDom(c)`` holds exactly for the constants occurring in a
non-ACDom atom of the *input* database.  Because the chase must keep this
extension fixed while it adds inferred atoms, the store distinguishes the
constants present at construction (or at an explicit :meth:`freeze_acdom`)
from constants introduced later by rules.

The sorted active domain (:meth:`acdom_sorted`) is cached: once the
extension is frozen the cache survives every subsequent :meth:`add`, so
``ACDom`` enumeration in the join engines is an O(1) tuple fetch instead
of a fresh sort per pattern atom.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from typing import Iterable, Iterator, Mapping, Optional

from .atoms import Atom, RelationKey
from .terms import Constant, Null, Term
from .theory import ACDOM

__all__ = ["Database", "dict_database"]

#: Resolved lazily by ``Database.__new__`` to avoid an import cycle with
#: ``repro.core.store`` (which subclasses ``Database``).
_COLUMNAR_CLS = None


def _atom_fingerprint(atom: Atom) -> str:
    """A process-stable text form of one atom for content hashing.

    ``str(atom)`` would almost work, but the fingerprint must also be
    injective across term kinds (the constant ``a`` and a null labeled
    ``a`` are different databases), so kinds are spelled out explicitly.
    """
    parts = [atom.relation]
    for term in atom.args:
        parts.append(term.kind)
        parts.append(term.name)
    parts.append("|")
    for term in atom.annotation:
        parts.append(term.kind)
        parts.append(term.name)
    return "\x1f".join(parts)


class Database:
    """A mutable, indexed set of ground atoms.

    ``Database(...)`` always builds the columnar store
    (:class:`repro.core.store.ColumnarDatabase`, a subclass presenting
    this exact interface).  The dict-of-sets implementation defined in
    this module is the test reference, reachable only through
    :func:`dict_database`; joins over it run the reference interpreter.
    """

    #: True on the columnar subclass; lets hot paths (the join dispatch,
    #: the Datalog delta loop) branch on the store kind without an
    #: isinstance check.
    _columnar = False

    def __new__(cls, *args, **kwargs) -> "Database":
        if cls is Database:
            global _COLUMNAR_CLS
            columnar = _COLUMNAR_CLS
            if columnar is None:
                from .store import ColumnarDatabase as columnar

                _COLUMNAR_CLS = columnar
            return object.__new__(columnar)
        return object.__new__(cls)

    def __init__(self, atoms: Iterable[Atom] = (), freeze_acdom: bool = True) -> None:
        self._atoms: set[Atom] = set()
        self._by_relation: dict[RelationKey, set[Atom]] = defaultdict(set)
        self._by_position: dict[tuple[RelationKey, int, Term], set[Atom]] = defaultdict(set)
        self._terms: set[Term] = set()
        self._acdom: Optional[frozenset[Constant]] = None
        self._acdom_sorted: Optional[tuple[Constant, ...]] = None
        self._content_hash: Optional[str] = None
        for atom in atoms:
            self.add(atom)
        if freeze_acdom:
            self.freeze_acdom()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, atom: Atom) -> bool:
        """Insert an atom; returns True if it was new."""
        if not isinstance(atom, Atom):
            raise TypeError(f"databases contain atoms, got {atom!r}")
        if not atom.is_ground():
            raise ValueError(f"databases contain only ground atoms, got {atom}")
        if atom in self._atoms:
            return False
        self._atoms.add(atom)
        key = atom.relation_key
        self._by_relation[key].add(atom)
        by_position = self._by_position
        for position, term in enumerate(atom.all_terms):
            by_position[(key, position, term)].add(atom)
        self._terms.update(atom.all_terms)
        self._content_hash = None
        if self._acdom is None:
            # Unfrozen: the active domain tracks the current constants, so
            # the sorted cache may be stale.  Once frozen the extension is
            # fixed and the cache survives arbitrary adds.
            self._acdom_sorted = None
        return True

    def add_all(self, atoms: Iterable[Atom]) -> int:
        return sum(1 for atom in atoms if self.add(atom))

    def remove(self, atom: Atom) -> bool:
        """Delete an atom; returns True if it was present.

        The term-occurrence set (``has_term``) stays conservative: terms
        of removed atoms remain marked as occurring.  Freshness probes
        (the chase's null loop) only require "never free when taken", so
        a stale-taken name costs at most a skipped candidate.  The
        frozen ACDom extension likewise keeps the *input* database's
        constants — per the paper it is fixed at construction, not
        tracked through deletions.
        """
        if atom not in self._atoms:
            return False
        self._atoms.discard(atom)
        key = atom.relation_key
        self._by_relation[key].discard(atom)
        by_position = self._by_position
        for position, term in enumerate(atom.all_terms):
            entry = by_position.get((key, position, term))
            if entry is not None:
                entry.discard(atom)
        self._content_hash = None
        if self._acdom is None:
            self._acdom_sorted = None
        return True

    def freeze_acdom(self) -> None:
        """Fix the ACDom extension to the constants currently present."""
        self._acdom = frozenset(self._constants_now())
        self._acdom_sorted = None

    def ensure_acdom_frozen(self) -> None:
        """Freeze the ACDom extension unless already frozen.

        The chase calls this once at start-up so that atoms it adds later
        (and constants introduced by rules) never enlarge ``ACDom`` — per
        the paper the extension is fixed by the *input* database.
        """
        if self._acdom is None:
            self.freeze_acdom()

    @property
    def acdom_frozen(self) -> bool:
        return self._acdom is not None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, atom: Atom) -> bool:
        return atom in self._atoms

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

    def atoms(self) -> frozenset[Atom]:
        return frozenset(self._atoms)

    def atoms_for(self, key: RelationKey) -> frozenset[Atom]:
        """All atoms of the given relation identity."""
        return frozenset(self._by_relation.get(key, ()))

    def atoms_matching(
        self, key: RelationKey, bindings: Mapping[int, Term]
    ) -> set[Atom]:
        """Atoms of ``key`` whose position ``i`` holds ``bindings[i]``.

        Uses the positional index: intersects the smallest candidate sets.
        An empty ``bindings`` returns all atoms of the relation.
        """
        if not bindings:
            return set(self._by_relation.get(key, ()))
        candidate_sets = [
            self._by_position.get((key, position, term), set())
            for position, term in bindings.items()
        ]
        candidate_sets.sort(key=len)
        result = set(candidate_sets[0])
        for candidates in candidate_sets[1:]:
            result &= candidates
            if not result:
                break
        return result

    # ------------------------------------------------------------------
    # planner-facing index statistics
    # ------------------------------------------------------------------
    def relation_size(self, key: RelationKey) -> int:
        """Number of atoms of the given relation identity (O(1))."""
        atoms = self._by_relation.get(key)
        return len(atoms) if atoms is not None else 0

    def position_candidates(
        self, key: RelationKey, position: int, term: Term
    ) -> frozenset[Atom]:
        """Atoms of ``key`` holding ``term`` at ``position`` (index fetch)."""
        atoms = self._by_position.get((key, position, term))
        return frozenset(atoms) if atoms is not None else frozenset()

    def index_stats(self) -> dict[str, int]:
        """Summary sizes of the two indexes (exposed for ``--stats`` and
        the benchmark harness)."""
        return {
            "atoms": len(self._atoms),
            "relations": sum(1 for s in self._by_relation.values() if s),
            "position_index_entries": len(self._by_position),
            "terms": len(self._terms),
        }

    def store_stats(self) -> dict[str, int | str]:
        """O(1) size summary for the ``store.*`` observability gauges."""
        return {
            "kind": "dict",
            "atoms": len(self._atoms),
            "symbols": len(self._terms),
            "bytes": 0,
        }

    def content_hash(self) -> str:
        """A SHA-256 over the atom set, memoized until the next mutation.

        The hash is *structural* — order-independent and stable across
        processes and input formatting — so it can key both the
        registry's materialization LRU and the on-disk snapshot cache.
        Mutation (:meth:`add`) invalidates the memo; lookups between
        mutations are O(1).
        """
        cached = self._content_hash
        if cached is not None:
            return cached
        hasher = hashlib.sha256()
        for line in sorted(_atom_fingerprint(atom) for atom in self):
            hasher.update(line.encode("utf-8"))
            hasher.update(b"\n")
        digest = hasher.hexdigest()
        self._content_hash = digest
        return digest

    def relations(self) -> set[RelationKey]:
        return {key for key, atoms in self._by_relation.items() if atoms}

    def _constants_now(self) -> set[Constant]:
        found: set[Constant] = set()
        for atom in self._atoms:
            if atom.relation == ACDOM:
                continue
            found |= atom.constants()
        return found

    def active_constants(self) -> frozenset[Constant]:
        """The (frozen) extension of ``ACDom``."""
        if self._acdom is not None:
            return self._acdom
        return frozenset(self._constants_now())

    def acdom_sorted(self) -> tuple[Constant, ...]:
        """The active domain as a sorted tuple, cached.

        After :meth:`freeze_acdom` the cache is permanent (the extension
        can no longer change); before freezing it is invalidated by every
        :meth:`add`.
        """
        cached = self._acdom_sorted
        if cached is None:
            cached = tuple(sorted(self.active_constants()))
            self._acdom_sorted = cached
        return cached

    def has_term(self, term: Term) -> bool:
        """Does the term occur in any atom?  O(1) membership check."""
        return term in self._terms

    def terms(self) -> set[Term]:
        return set(self._terms)

    def nulls(self) -> set[Null]:
        return {term for term in self._terms if isinstance(term, Null)}

    def constants(self) -> set[Constant]:
        return {term for term in self._terms if isinstance(term, Constant)}

    # ------------------------------------------------------------------
    # comparisons and copies
    # ------------------------------------------------------------------
    def copy(self) -> "Database":
        # Clone the indexes structurally instead of re-adding (and thus
        # re-validating and re-indexing) every atom.  ``object.__new__``
        # on purpose: this must clone *this* implementation regardless of
        # what ``Database(...)`` currently dispatches to.
        clone = object.__new__(Database)
        clone._atoms = set(self._atoms)
        by_relation: dict[RelationKey, set[Atom]] = defaultdict(set)
        for key, facts in self._by_relation.items():
            by_relation[key] = set(facts)
        clone._by_relation = by_relation
        by_position: dict[tuple[RelationKey, int, Term], set[Atom]] = defaultdict(set)
        for key, facts in self._by_position.items():
            by_position[key] = set(facts)
        clone._by_position = by_position
        clone._terms = set(self._terms)
        clone._acdom = self._acdom
        clone._acdom_sorted = self._acdom_sorted
        clone._content_hash = self._content_hash
        return clone

    def restrict_to_relations(self, names: set[str]) -> "Database":
        """A new database keeping only atoms whose relation name is in ``names``."""
        # ``object.__new__`` keeps the store kind, as in :meth:`copy`:
        # ``Database(...)`` would always build the columnar store.
        restricted = object.__new__(type(self))
        restricted.__init__(
            (atom for atom in self if atom.relation in names),
            freeze_acdom=False,
        )
        restricted._acdom = self._acdom
        restricted._acdom_sorted = None
        return restricted

    def ground_atoms(self) -> frozenset[Atom]:
        """Atoms whose terms are all constants (no nulls)."""
        return frozenset(atom for atom in self._atoms if not atom.nulls())

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Database):
            return NotImplemented
        if type(other) is Database:
            return self._atoms == other._atoms
        # Mixed store kinds: compare the logical atom sets.
        return len(self) == len(other) and self.atoms() == other.atoms()

    def __str__(self) -> str:
        return "{" + ", ".join(str(atom) for atom in sorted(self)) + "}"

    def __repr__(self) -> str:
        return f"Database({len(self._atoms)} atoms)"


def dict_database(
    atoms: Iterable[Atom] = (), freeze_acdom: bool = True
) -> Database:
    """Build the dict-of-sets reference store.

    The only way to reach it: ``Database(...)`` always builds the
    columnar store.  Used by the differential tests, which check the
    columnar store and compiled joins against this store and the
    reference interpreter.
    """
    database = object.__new__(Database)
    database.__init__(atoms, freeze_acdom=freeze_acdom)
    return database
