"""Unit tests for relations and databases (repro.datalog.database)."""

import random
import uuid
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import refcount_only
from repro import (
    Constant,
    Database,
    IntegrityError,
    Literal,
    Relation,
    Session,
    Struct,
    Variable,
    parse_program,
    term_catalog,
)
from repro.datalog.planner import _slot_getter


def c(value):
    return Constant(value)


class TestRelation:
    def test_add_and_contains(self):
        rel = Relation("par")
        assert rel.add((c("a"), c("b")))
        assert not rel.add((c("a"), c("b")))  # duplicate
        assert (c("a"), c("b")) in rel
        assert len(rel) == 1

    def test_arity_fixed_by_first_tuple(self):
        rel = Relation("par")
        rel.add((c("a"), c("b")))
        with pytest.raises(ValueError):
            rel.add((c("a"),))

    def test_a_non_ground_first_row_leaves_the_arity_unknown(self):
        rel = Relation("e")
        with pytest.raises(ValueError, match=r"relation e: tuple .* not ground"):
            rel.add((Variable("X"), c(1)))
        assert rel.arity is None and len(rel) == 0 and rel.version == 0
        # the arity is still open: a unary first row is accepted
        assert rel.add((c(1),))
        assert rel.arity == 1 and rel.check_invariants()

    def test_term_row_resolves_the_columns_after_compaction(self):
        rel = Relation("e")
        rows = [(c(i), c(i + 1)) for i in range(80)]
        rel.add_many(rows)
        rel.register_index((0,))
        rel.discard_many(rows[:60])  # dead slots outnumber live ones
        assert not rel._dead and rel.slot_count() == 20  # compacted
        assert [rel.term_row(slot) for slot in rel.all_slots()] == rows[60:]
        assert rel.select({0: c(70)}, (0, 1)) == {(c(70), c(71))}
        assert rel.check_invariants()

    @pytest.mark.parametrize("seeded", [True, False])
    def test_add_id_rows_arity_mismatch_leaves_relation_untouched(
        self, seeded
    ):
        """Regression: rows ahead of the bad one kept their ``_rowmap``
        claims, so they looked present but were never stored."""
        db = Database()
        rel = db.relation("r")
        if seeded:
            rel.add_id_rows([(1, 2)])
        before = list(rel.id_rows()), rel.arity, rel.version
        with pytest.raises(ValueError):
            rel.add_id_rows([(5, 6), (7,)])
        assert (list(rel.id_rows()), rel.arity, rel.version) == before
        assert (5, 6) not in rel.id_rows()
        assert db.check_integrity()
        # a retry of the good row is a real insert, not a phantom duplicate
        assert rel.add_id_rows([(5, 6)]) == [(5, 6)]
        assert db.check_integrity()

    def test_rejects_non_ground(self):
        rel = Relation("par")
        with pytest.raises(ValueError):
            rel.add((Variable("X"), c("b")))

    def test_lookup_with_index(self):
        rel = Relation("par")
        rel.add_many([(c("a"), c("b")), (c("a"), c("x")), (c("b"), c("y"))])
        assert rel.select({0: c("a")}, (1,)) == {(c("b"),), (c("x"),)}

    def test_lookup_maintained_after_insert(self):
        rel = Relation("par")
        rel.add((c("a"), c("b")))
        assert len(rel.select({0: c("a")}, (0, 1))) == 1
        rel.add((c("a"), c("z")))  # index must be updated
        assert len(rel.select({0: c("a")}, (0, 1))) == 2

    def test_lookup_all_positions(self):
        rel = Relation("par")
        rel.add((c("a"), c("b")))
        assert rel.select({0: c("a"), 1: c("b")}, (0, 1)) == {(c("a"), c("b"))}
        assert rel.select({0: c("a"), 1: c("z")}, (0, 1)) == set()

    def test_lookup_no_positions_returns_all(self):
        rel = Relation("par")
        rel.add_many([(c("a"),), (c("b"),)])
        assert len(rel.select({}, (0,))) == 2

    def test_copy_is_independent(self):
        rel = Relation("par")
        rel.add((c("a"), c("b")))
        dup = rel.copy()
        dup.add((c("x"), c("y")))
        assert len(rel) == 1 and len(dup) == 2
        assert rel.check_invariants() and dup.check_invariants()

    def test_copy_preserves_registered_indexes(self):
        """Regression: copy() used to drop registered indexes, so every
        seeded_database()/Database.copy() consumer paid a lazy O(n)
        rebuild mid-join."""
        rel = Relation("par")
        rel.register_index((1,))
        rel.add_many([(c("a"), c("b")), (c("z"), c("b"))])
        dup = rel.copy()
        assert (1,) in dup._indexes
        # and the carried index stays maintained, not just present
        dup.add((c("q"), c("b")))
        assert len(dup.select({1: c("b")}, (0, 1))) == 3
        assert len(rel.select({1: c("b")}, (0, 1))) == 2
        assert rel.check_invariants() and dup.check_invariants()

    def test_copy_preserves_indexes_across_retraction(self):
        rel = Relation("par")
        rel.register_index((0,))
        rel.add_many([(c("a"), c("b")), (c("a"), c("x")), (c("b"), c("y"))])
        rel.discard((c("a"), c("x")))
        dup = rel.copy()
        assert dup.select({0: c("a")}, (0, 1)) == {(c("a"), c("b"))}
        dup.add((c("a"), c("x")))
        assert len(dup.select({0: c("a")}, (0, 1))) == 2
        assert len(rel.select({0: c("a")}, (0, 1))) == 1
        assert rel.check_invariants() and dup.check_invariants()


class TestLookupNormalization:
    """Regression: unsorted positions used to build a silently
    inconsistent shadow index (the docstring merely warned)."""

    def fixture_relation(self):
        rel = Relation("par")
        rel.add_many(
            [(c("a"), c("b")), (c("a"), c("x")), (c("b"), c("a"))]
        )
        return rel

    def test_unsorted_positions_equal_sorted(self):
        rel = self.fixture_relation()
        sorted_rows = rel.select([(0, c("a")), (1, c("b"))], (0, 1))
        unsorted_rows = rel.select([(1, c("b")), (0, c("a"))], (0, 1))
        assert sorted_rows == unsorted_rows == {(c("a"), c("b"))}

    def ternary_relation(self):
        # two bound positions of three: a key on all of them would be
        # answered by the rowmap and build no index (TestNeverFullWidth)
        rel = Relation("edge")
        rel.add_many(
            [
                (c("a"), c("b"), c(1)),
                (c("a"), c("x"), c(2)),
                (c("b"), c("a"), c(3)),
            ]
        )
        return rel

    def test_unsorted_after_sorted_shares_index(self):
        rel = self.ternary_relation()
        rel.select([(0, c("a")), (1, c("b"))], (2,))  # builds the index
        assert list(rel._indexes) == [(0, 1)]
        rows = rel.select([(1, c("x")), (0, c("a"))], (0, 1, 2))
        assert rows == {(c("a"), c("x"), c(2))}
        # normalization reuses the sorted index, no shadow index appears
        assert list(rel._indexes) == [(0, 1)]

    def test_duplicate_positions_consistent(self):
        rel = self.fixture_relation()
        rows = rel.select([(0, c("a")), (0, c("a"))], (1,))
        assert rows == {(c("b"),), (c("x"),)}

    def test_duplicate_positions_conflicting(self):
        rel = self.fixture_relation()
        assert rel.select([(0, c("a")), (0, c("b"))], (0, 1)) == set()

    def test_out_of_range_position_raises(self):
        rel = self.fixture_relation()
        with pytest.raises(ValueError):
            rel.select({5: c("a")}, (0,))
        with pytest.raises(ValueError):
            rel.select({-1: c("a")}, (0,))

    def test_register_index_is_maintained(self):
        rel = Relation("par")
        rel.add((c("a"), c("b")))
        rel.register_index((1,))
        assert (1,) in rel._indexes
        rel.add((c("z"), c("b")))
        assert len(rel.select({1: c("b")}, (0, 1))) == 2

    def test_register_index_normalizes_like_lookup(self):
        rel = self.ternary_relation()
        rel.register_index((1, 0, 1))  # unsorted, duplicated
        assert list(rel._indexes) == [(0, 1)]
        # select consults the registered index, no shadow index appears
        rows = rel.select([(1, c("b")), (0, c("a"))], (0, 1, 2))
        assert rows == {(c("a"), c("b"), c(1))}
        assert list(rel._indexes) == [(0, 1)]


class TestNeverFullWidth:
    """A key covering every column is the ID row itself: one rowmap
    probe answers it, and no index on all positions is ever built."""

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_full_width_lookup_probes_the_rowmap(self, arity):
        rel = Relation("r")
        rows = [tuple(c(10 * i + p) for p in range(arity)) for i in range(40)]
        rel.add_many(rows)
        rel.discard_many(rows[::3])  # tombstones, below the compaction bar
        assert rel._dead
        full = tuple(range(arity))
        rel.register_index(full)
        assert rel.probe_index(full) is None
        intern = term_catalog().intern
        for i, row in enumerate(rows):
            ids = tuple(intern(term) for term in row)
            slots = rel.lookup_ids(full, ids if arity > 1 else ids[0])
            # what the full-width hash index used to answer: the one
            # live slot holding the row, nothing for a retracted one
            assert [rel.term_row(slot) for slot in slots] == (
                [] if i % 3 == 0 else [row]
            )
            assert rel.select(zip(full, row), full) == (
                set() if i % 3 == 0 else {row}
            )
        absent = tuple(intern(c(-1 - p)) for p in range(arity))
        assert not rel.lookup_ids(full, absent if arity > 1 else absent[0])
        assert rel._indexes == {}
        assert rel.check_invariants()

    def test_index_registered_before_the_arity_is_known_is_dropped(self):
        rel = Relation("answers")
        rel.register_index((0, 1))  # e.g. QSQ's ``bb`` answer store
        rel.register_index((0,))
        rel.add((c("a"), c("b")))
        assert list(rel._indexes) == [(0,)]
        assert rel.select({0: c("a"), 1: c("b")}, (0, 1)) == {(c("a"), c("b"))}
        assert rel.check_invariants()

    @pytest.mark.parametrize("insert", ["add_many", "add_id_rows"])
    def test_an_index_past_the_first_rows_arity_rejects_it(self, insert):
        db = Database()
        rel = db.relation("p")
        rel.register_index((0,))
        rel.register_index((2,))  # the arity is not known yet
        with pytest.raises(
            ValueError, match=r"index positions \(2,\) out of range for arity 2"
        ):
            if insert == "add_many":
                db.add_values("p", [("x", "y")])
            else:
                intern = term_catalog().intern
                rel.add_id_rows([(intern(c("x")), intern(c("y")))])
        # nothing was applied: no row, no arity, no version bump
        assert len(rel) == 0 and rel.arity is None
        assert rel.version == db.version == 0
        assert db.check_integrity()

    def test_oracle_rejects_a_full_width_index(self):
        rel = Relation("par")
        rel.add((c("a"), c("b")))
        rel._build_index((0, 1))
        with pytest.raises(IntegrityError) as info:
            rel.check_invariants()
        assert info.value.invariant == "index"

    def test_maintenance_builds_none(self):
        """BOM maintenance probes ``component``, ``clean`` and
        ``subpart`` with every position bound (positive-ised
        ``not clean(P, S)``, head-seeded rederive plans)."""
        import random

        from repro.workloads import bom_source

        depth = 6
        session = Session(bom_source(depth, 2, 0.1, 3))
        session.materialize()
        rng = random.Random(3)
        parent = {part: (part - 1) // 2 for part in range(1, 2 ** (depth + 1) - 1)}
        movable = range(2 ** (depth - 2) - 1, 2 ** (depth - 1) - 1)
        parents = range(2 ** (depth - 3) - 1, 2 ** (depth - 2) - 1)
        for _ in range(50):
            part = rng.choice(movable)
            new = rng.choice([p for p in parents if p != parent[part]])
            with session.batch():
                session.retract(f"subpart(p{parent[part]}, p{part})")
                session.assert_(f"subpart(p{new}, p{part})")
            parent[part] = new
        materializer = session._materializer
        assert materializer.passes == 50 and not materializer.stale
        for rel in _relations(materializer.working).values():
            assert all(len(positions) < rel.arity for positions in rel._indexes)
        assert materializer.check_consistency()


class TestDatabase:
    def test_add_fact(self):
        db = Database()
        assert db.add_fact(Literal("par", (c("a"), c("b"))))
        assert db.has_fact(Literal("par", (c("a"), c("b"))))
        assert not db.has_fact(Literal("par", (c("x"), c("y"))))

    def test_add_fact_rejects_non_ground(self):
        db = Database()
        with pytest.raises(ValueError):
            db.add_fact(Literal("par", (Variable("X"), c("b"))))

    def test_add_values(self):
        db = Database()
        db.add_values("par", [("a", "b"), ("b", "c")])
        assert db.tuples("par") == {(c("a"), c("b")), (c("b"), c("c"))}

    def test_adorned_keys_are_distinct(self):
        db = Database()
        db.add_fact(Literal("sg", (c("a"), c("b")), "bf"))
        assert db.tuples("sg^bf") == {(c("a"), c("b"))}
        assert db.tuples("sg") == set()

    def test_counts(self):
        db = Database()
        db.add_values("par", [("a", "b")])
        db.add_values("up", [("a", "b"), ("b", "c")])
        assert db.total_facts() == 3
        assert db.fact_counts() == {"par": 1, "up": 2}

    def test_copy_independent(self):
        db = Database()
        db.add_values("par", [("a", "b")])
        dup = db.copy()
        dup.add_values("par", [("x", "y")])
        assert db.total_facts() == 1 and dup.total_facts() == 2


class TestBulkLoad:
    """``add_fact_rows(parsed.fact_rows)`` against ``add_facts(parsed.facts)``
    on a twin database that already has rows, an index and a log."""

    SOURCE = """
        par(a, b). par(b, c). size(b, 3).
        par(a, b).            % a duplicate within the source
        par(x, y).            % a row the database already holds
        name(b, "bee"). par(c, d). size(c, 4). tag(f(a)). done.
    """

    @staticmethod
    def seeded():
        db = Database()
        db.add_values("par", [("x", "y"), ("y", "z")])
        db.relation("par").register_index((0,))
        return db, db.start_mutation_log()

    def test_equals_add_facts(self):
        parsed = parse_program(self.SOURCE)
        bulk, bulk_log = self.seeded()
        twin, twin_log = self.seeded()
        before = bulk.version
        assert bulk.add_fact_rows(parsed.fact_rows) == 8
        assert twin.add_facts(parsed.facts) == 8
        assert bulk.version == twin.version == before + 8
        assert bulk.predicate_keys() == twin.predicate_keys()
        for key in twin.predicate_keys():
            assert bulk.tuples(key) == twin.tuples(key)
            assert bulk.get(key).version == twin.get(key).version
            assert bulk.get(key).check_invariants()
            # in source order within a predicate; only the interleaving
            # of predicates differs (the bulk load goes one at a time)
            assert [e for e in bulk_log if e[0] == key] == [
                e for e in twin_log if e[0] == key
            ]
        assert len(bulk_log) == len(twin_log) == 8
        assert set(bulk.get("par")._indexes) == {(0,)}
        assert bulk.get("par")._indexes == twin.get("par")._indexes
        assert bulk.get("par").select({0: c("a")}, (0, 1)) == {(c("a"), c("b"))}
        assert bulk.check_integrity() and twin.check_integrity()

    def test_reloading_is_a_no_op(self):
        parsed = parse_program(self.SOURCE)
        db, log = self.seeded()
        db.add_fact_rows(parsed.fact_rows)
        version = db.version
        del log[:]
        assert db.add_fact_rows(parsed.fact_rows) == 0
        assert db.version == version and not log

    def test_arity_mismatch_names_the_relation(self):
        parsed = parse_program("q(a). p(a). r(b). p(a, b).")
        db = Database()
        with pytest.raises(ValueError, match="relation p: arity mismatch"):
            db.add_fact_rows(parsed.fact_rows)
        assert db.tuples("q") == {(c("a"),)}  # loaded before p
        assert db.tuples("p") == set() and "r" not in db
        assert db.check_integrity()

    def test_catalog_grows_by_the_distinct_terms_as_add_facts_does(self):
        catalog = term_catalog()

        def growth(load, tag):
            before = len(catalog)
            load(Database(), tag)
            return len(catalog) - before

        def by_text(db, tag):
            db.add_fact_rows(
                parse_program(
                    f'e({tag}1, {tag}2). e({tag}2, {tag}1). '
                    f'e({tag}1, "{tag} 3"). e("{tag}1", {tag}2). '
                    f"t(f({tag}1))."
                ).fact_rows
            )

        def by_literal(db, tag):
            one, two, three = c(f"{tag}1"), c(f"{tag}2"), c(f"{tag} 3")
            db.add_facts(
                [
                    Literal("e", (one, two)),
                    Literal("e", (two, one)),
                    Literal("e", (one, three)),
                    Literal("e", (c(f"{tag}1"), two)),
                    Literal("t", (Struct("f", (one,)),)),
                ]
            )

        first, second = (f"k{uuid.uuid4().hex}" for _ in range(2))
        assert growth(by_text, first) == growth(by_literal, second) == 4


class TestRetraction:
    def test_discard_present_tuple(self):
        rel = Relation("par")
        rel.add((c("a"), c("b")))
        assert rel.discard((c("a"), c("b")))
        assert (c("a"), c("b")) not in rel
        assert len(rel) == 0
        assert rel.check_invariants()

    def test_discard_absent_tuple(self):
        rel = Relation("par")
        rel.add((c("a"), c("b")))
        assert not rel.discard((c("x"), c("y")))
        assert len(rel) == 1

    def test_discard_maintains_registered_indexes(self):
        rel = Relation("par")
        rel.register_index((0,))
        rel.add_many([(c("a"), c("b")), (c("a"), c("x")), (c("b"), c("y"))])
        assert rel.discard((c("a"), c("b")))
        assert rel.select({0: c("a")}, (1,)) == {(c("x"),)}
        # the emptied bucket is dropped, not left as a stale empty list
        assert rel.discard((c("b"), c("y")))
        assert rel.select({0: c("b")}, (0, 1)) == set()
        assert rel.check_invariants()

    def test_discard_maintains_lazily_built_indexes(self):
        rel = Relation("par")
        rel.add_many([(c("a"), c("b")), (c("b"), c("c"))])
        assert len(rel.select({1: c("b")}, (0, 1))) == 1  # builds the index
        rel.discard((c("a"), c("b")))
        assert rel.select({1: c("b")}, (0, 1)) == set()

    def test_discard_many(self):
        rel = Relation("par")
        rel.add_many([(c("a"), c("b")), (c("b"), c("c")), (c("c"), c("d"))])
        removed = rel.discard_many(
            [(c("a"), c("b")), (c("x"), c("y")), (c("c"), c("d"))]
        )
        assert removed == 2
        assert len(rel) == 1
        assert rel.check_invariants()

    def test_database_retract_fact(self):
        db = Database()
        db.add_fact(Literal("par", (c("a"), c("b"))))
        assert db.retract_fact(Literal("par", (c("a"), c("b"))))
        assert not db.has_fact(Literal("par", (c("a"), c("b"))))
        assert not db.retract_fact(Literal("par", (c("a"), c("b"))))
        assert db.check_integrity()

    def test_database_retract_fact_rejects_non_ground(self):
        db = Database()
        with pytest.raises(ValueError):
            db.retract_fact(Literal("par", (Variable("X"), c("b"))))

    def test_database_retract_unknown_predicate(self):
        db = Database()
        assert not db.retract_fact(Literal("par", (c("a"), c("b"))))
        assert db.retract_values("par", [("a", "b")]) == 0

    def test_database_retract_values(self):
        db = Database()
        db.add_values("par", [("a", "b"), ("b", "c")])
        assert db.retract_values("par", [("a", "b"), ("x", "y")]) == 1
        assert db.tuples("par") == {(c("b"), c("c"))}
        assert db.check_integrity()


class TestIntegrityOracle:
    """check_invariants/check_integrity must catch deliberate corruption.

    The fault-injection atomicity property (tests/test_limits.py) leans
    on this oracle; these tests prove it is not vacuously true.
    """

    def fixture_relation(self):
        rel = Relation("par")
        rel.register_index((0,))
        rel.add_many([(c("a"), c("b")), (c("a"), c("x")), (c("b"), c("y"))])
        rel.discard((c("a"), c("x")))
        assert rel.check_invariants()
        return rel

    def assert_trips(self, rel, invariant):
        with pytest.raises(IntegrityError) as info:
            rel.check_invariants()
        assert info.value.invariant == invariant

    def test_column_length_mismatch(self):
        rel = self.fixture_relation()
        rel._columns[1].append(0)
        self.assert_trips(rel, "columns")

    def test_tombstone_counter_drift(self):
        rel = self.fixture_relation()
        rel._dead += 1
        self.assert_trips(rel, "tombstones")

    def test_rowmap_points_at_dead_slot(self):
        rel = self.fixture_relation()
        slot = next(iter(rel._rowmap.values()))
        rel._live[slot] = 0
        rel._dead += 1
        self.assert_trips(rel, "rowmap")

    def test_rowmap_disagrees_with_columns(self):
        rel = self.fixture_relation()
        slot = next(iter(rel._rowmap.values()))
        rel._columns[0][slot] = rel._columns[0][slot] + 10_000
        self.assert_trips(rel, "rowmap")

    def test_index_bucket_slot_out_of_range(self):
        rel = self.fixture_relation()
        index = rel._indexes[(0,)]
        next(iter(index.values())).append(99)
        self.assert_trips(rel, "index")

    def test_rowmap_iterates_slots_out_of_order(self):
        rel = self.fixture_relation()
        # re-inserting the first row moves it behind a higher slot
        first = next(iter(rel._rowmap))
        rel._rowmap[first] = rel._rowmap.pop(first)
        self.assert_trips(rel, "rowmap")

    def test_index_bucket_lists_slots_out_of_order(self):
        rel = self.fixture_relation()
        index = rel._indexes[(0,)]
        # the bucket of ``a``: its live slot and the tombstoned one
        key, bucket = next(
            (key, bucket) for key, bucket in index.items() if len(bucket) > 1
        )
        index[key] = bucket[::-1]
        self.assert_trips(rel, "index")

    def test_index_misses_live_slot(self):
        rel = self.fixture_relation()
        index = rel._indexes[(0,)]
        for bucket in index.values():
            del bucket[:]
        self.assert_trips(rel, "index")

    def test_version_below_live_count(self):
        rel = self.fixture_relation()
        rel.version = 0
        self.assert_trips(rel, "version")

    def test_database_version_drift(self):
        db = Database()
        db.add_values("par", [("a", "b")])
        # a relation counter the database never heard about
        db.relation("par").version += 1
        with pytest.raises(IntegrityError) as info:
            db.check_integrity()
        assert info.value.invariant == "version"

    def test_database_owner_backreference(self):
        db = Database()
        db.add_values("par", [("a", "b")])
        # a relation detached from its database, as Relation.copy()
        # hands one out
        db.relation("par").owner = None
        with pytest.raises(IntegrityError) as info:
            db.check_integrity()
        assert info.value.invariant == "owner"


class TestVersionCounter:
    """Every mutation path that changes facts bumps the monotone version."""

    def test_new_database_is_version_zero(self):
        assert Database().version == 0

    def test_add_fact_bumps(self):
        db = Database()
        db.add_fact(Literal("par", (c("a"), c("b"))))
        assert db.version == 1

    def test_duplicate_add_does_not_bump(self):
        db = Database()
        db.add_fact(Literal("par", (c("a"), c("b"))))
        db.add_fact(Literal("par", (c("a"), c("b"))))
        assert db.version == 1

    def test_add_values_bumps_per_new_row(self):
        db = Database()
        db.add_values("par", [("a", "b"), ("b", "c"), ("a", "b")])
        assert db.version == 2

    def test_add_facts_bumps(self):
        db = Database()
        db.add_facts(
            [
                Literal("par", (c("a"), c("b"))),
                Literal("par", (c("b"), c("c"))),
            ]
        )
        assert db.version == 2

    def test_direct_relation_add_bumps(self):
        # mutations that bypass the Database convenience methods are
        # still visible: the version sums the relations' counters
        db = Database()
        db.relation("par").add((c("a"), c("b")))
        assert db.version == 1
        db.relation("par").add_many([(c("b"), c("c")), (c("c"), c("d"))])
        assert db.version == 3

    def test_retract_bumps(self):
        db = Database()
        db.add_values("par", [("a", "b")])
        db.retract_values("par", [("a", "b")])
        assert db.version == 2

    def test_noop_retract_does_not_bump(self):
        db = Database()
        db.add_values("par", [("a", "b")])
        db.retract_values("par", [("x", "y")])
        assert db.version == 1

    def test_version_is_monotone_across_mixed_mutations(self):
        db = Database()
        seen = [db.version]
        db.add_values("par", [("a", "b"), ("b", "c")])
        seen.append(db.version)
        db.retract_values("par", [("a", "b")])
        seen.append(db.version)
        db.add_values("par", [("a", "b")])
        seen.append(db.version)
        assert seen == sorted(seen) and len(set(seen)) == len(seen)

    def test_copy_preserves_version_then_diverges(self):
        db = Database()
        db.add_values("par", [("a", "b")])
        dup = db.copy()
        assert dup.version == db.version
        dup.add_values("par", [("x", "y")])
        assert dup.version == db.version + 1
        assert db.version == 1
        assert db.check_integrity() and dup.check_integrity()


class TestEstimatedBytes:
    """Regression: index bucket storage must be counted.

    ``estimated_bytes`` used to charge only the column cells, so an
    indexed relation reported the same footprint as an unindexed one
    and ``max_memory_bytes`` budgets undercounted index-heavy
    workloads by several x.
    """

    @staticmethod
    def _filled(n=200, index=False):
        rel = Relation("r")
        for i in range(n):
            rel.add((c(i), c(i % 7)))
        if index:
            rel.register_index((0,))
            rel.register_index((1,))
        return rel

    def test_indexes_increase_the_estimate(self):
        plain = self._filled()
        indexed = self._filled(index=True)
        assert indexed.estimated_bytes() > plain.estimated_bytes()

    def test_per_bucket_overhead_is_charged(self):
        # 200 rows under index (0,) is 200 singleton buckets; each one
        # owns an array object and a dict entry, so the increment must
        # be well above the 8-bytes-per-slot payload alone
        plain = self._filled()
        indexed = self._filled(index=True)
        delta = indexed.estimated_bytes() - plain.estimated_bytes()
        slots_only = 2 * 8 * 200  # two indexes, 8 bytes per stored slot
        assert delta > 2 * slots_only

    def test_database_rolls_up_relation_estimates(self):
        db = Database()
        db.add_values("par", [(i, i + 1) for i in range(50)])
        base = db.estimated_bytes()
        db.relation("par").register_index((0,))
        assert db.estimated_bytes() > base


# ----------------------------------------------------------------------
# the snapshot-sharing contract and the index-ownership rule
# ----------------------------------------------------------------------
FAMILY = """
par(a, b). par(b, c). par(c, d). par(b, e).
person(a). person(b).
anc(X, Y) :- par(X, Y).
anc(X, Z) :- par(X, Y), anc(Y, Z).
"""


def _facts(db):
    return {key: db.tuples(key) for key in db.predicate_keys()}


def _relations(db):
    return {key: db.get(key) for key in db.predicate_keys()}


class TestSharingContract:
    """A snapshot is free to take and free to drop.

    Every test runs with the cyclic collector off: a dropped snapshot
    must be released -- and the owner back to in-place writes -- by
    reference count alone.
    """

    @pytest.fixture(autouse=True)
    def _collector_off(self):
        with refcount_only():
            yield

    def test_dropped_snapshot_restores_in_place_writes(self):
        db = Database()
        db.add_values("par", [("a", "b")])
        par = db.get("par")
        snap = db.snapshot()
        db.add_values("par", [("b", "c")])
        cloned = db.get("par")
        assert cloned is not par and snap.get("par") is par
        # the clone is unshared; the held snapshot costs nothing more
        db.add_values("par", [("c", "d")])
        assert db.get("par") is cloned
        snap = db.snapshot()
        del snap
        db.add_values("par", [("d", "e")])
        assert db.get("par") is cloned
        assert db.check_integrity()

    def test_held_result_never_observes_later_writes(self):
        session = Session(FAMILY)
        db = session.database
        result = session.query("anc(a, Y)?", method="supplementary_magic")
        held = result.evaluation.database
        frozen = _facts(held)
        before = _relations(db)
        assert held.get("par") is before["par"]  # shared, not copied
        session.assert_("par(e, f)")
        session.retract("par(a, b)")
        assert _facts(held) == frozen
        assert held.get("par") is before["par"]
        # the live side cloned exactly the touched relation, once
        after = _relations(db)
        assert after["par"] is not before["par"]
        assert after["person"] is before["person"]
        assert db.tuples("par") == frozen["par"] - {(c("a"), c("b"))} | {
            (c("e"), c("f"))
        }
        assert held.check_integrity() and db.check_integrity()

    def test_dropped_result_costs_the_next_write_nothing(self):
        session = Session(FAMILY)
        db = session.database
        rows = session.query("anc(a, Y)?", method="supplementary_magic").rows
        assert len(rows) == 4
        par = db.get("par")
        indexes = dict(par._indexes)
        assert indexes  # the evaluation left its index on the base relation
        session.assert_("par(e, f)")
        session.retract("par(a, b)")
        assert db.get("par") is par
        assert all(par._indexes[p] is index for p, index in indexes.items())
        # ... and the writes kept it current
        assert par.select({0: c("e")}, (0, 1)) == {(c("e"), c("f"))}
        assert par.select({0: c("a")}, (0, 1)) == set()
        assert db.check_integrity()

    def test_snapshot_of_snapshot_outlives_the_middle_one(self):
        db = Database()
        db.add_values("par", [("a", "b"), ("b", "c")])
        seeded = db.snapshot()
        seeded.add_values("seed", [("a",)])
        working = seeded.snapshot()
        del seeded
        frozen = working.tuples("par")
        # `seed` belonged to the dead middle snapshot: still cloned
        seed = working.get("seed")
        working.add_values("seed", [("b",)])
        assert working.get("seed") is not seed
        db.add_values("par", [("c", "d")])
        db.retract_values("par", [("a", "b")])
        working.add_values("par", [("x", "y")])
        assert working.tuples("par") == frozen | {(c("x"), c("y"))}
        assert len(db.get("par")) == 2
        assert working.check_integrity() and db.check_integrity()
        del working
        par = db.get("par")
        db.add_values("par", [("d", "e")])
        assert db.get("par") is par


class TestIndexOwnership:
    """Indexes are a cache owned by the relation (ROADMAP 7g): whoever
    asks first builds one on the caller's relation, and that is all an
    evaluation ever leaves behind."""

    @staticmethod
    def _requests(session, query_text, rewritten):
        """(pred, positions) every plan behind the three routes probes."""
        from repro.core.adornment import adorn_program
        from repro.datalog.planner import (
            compiled_program_for,
            subquery_program_for,
        )

        cache = session.plan_cache
        query = session._as_query(query_text)
        requests = set()
        for program in (rewritten.program, session.program):
            compiled, _ = compiled_program_for(program, cache)
            for rule_index in range(len(program.rules)):
                for delta in (None, *compiled.delta_occurrences(rule_index)):
                    requests.update(
                        compiled.plan(rule_index, delta).index_requests()
                    )
        for plan in session._materializer._plans.values():
            requests.update(plan.index_requests())
        adorned = adorn_program(session.program, query)
        subqueries, _ = subquery_program_for(adorned.program, cache)
        for plan in subqueries.plans:
            requests.update(plan.index_requests())
        return requests

    def test_evaluators_leave_only_their_indexes_behind(self):
        session = Session(FAMILY)
        db = session.database

        def registered():
            return {
                (key, positions)
                for key, rel in _relations(db).items()
                for positions in rel._indexes
            }

        def read_only(run):
            facts, version = _facts(db), db.version
            result = run()
            assert _facts(db) == facts and db.version == version
            assert db.check_integrity()
            return result

        query = "anc(a, Y)?"

        def bottom_up():
            return session.query(query, method="supplementary_magic")

        def top_down():
            return session.query(query, method="qsq")

        def maintained():
            return session.query(query)

        rewritten = read_only(bottom_up).rewritten
        read_only(top_down)
        read_only(lambda: session.materialize("anc"))
        session.assert_("par(e, f)")
        assert read_only(maintained).maintained
        assert registered() == {
            request
            for request in self._requests(session, query, rewritten)
            if request[0] in db
        }
        # a second identical round adds nothing and rebuilds nothing
        first = {
            request: db.get(request[0])._indexes[request[1]]
            for request in registered()
        }
        read_only(bottom_up)
        read_only(top_down)
        assert read_only(maintained).maintained
        assert set(first) == registered()
        assert all(
            db.get(pred)._indexes[positions] is index
            for (pred, positions), index in first.items()
        )
        # estimated_bytes() grew by exactly the indexes' charge: a
        # database built from the same facts weighs the same once the
        # same indexes are registered on it, and less before
        twin = Database()
        for key, rows in _facts(db).items():
            twin.relation(key).add_many(rows)
        assert twin.estimated_bytes() < db.estimated_bytes()
        for pred, positions in registered():
            twin.relation(pred).register_index(positions)
        assert twin.estimated_bytes() == db.estimated_bytes()

    def test_answer_selection_is_a_legitimate_requester(self):
        """``Relation.select`` asks for the index on the query's bound
        positions like any other reader: on the caller's relation, once."""
        session = Session(FAMILY)
        db = session.database
        par = db.get("par")

        def read(query_text):
            # a fresh session each time: no memo, select runs every time
            reader = Session(program=session.program, database=db)
            return reader.query(query_text, method="seminaive").values()

        # an all-free read selects nothing: what is registered after it
        # is what the evaluation's own plans asked for
        assert len(read("par(X, Y)?")) == 4
        planned = set(par._indexes)
        assert (0,) not in planned
        facts, version = _facts(db), db.version
        before = db.estimated_bytes()
        assert read("par(a, Y)?") == {("b",)}
        assert db.get("par") is par
        assert set(par._indexes) == planned | {(0,)}
        assert _facts(db) == facts and db.version == version
        index = par._indexes[(0,)]
        grown = db.estimated_bytes()
        assert grown - before == 8 * len(par._live) + 114 * len(index)
        assert read("par(a, Y)?") == {("b",)}
        assert set(par._indexes) == planned | {(0,)}
        assert par._indexes[(0,)] is index
        assert db.estimated_bytes() == grown
        assert db.check_integrity()

    # -- bucket sharing between copies ---------------------------------
    @staticmethod
    def _indexed():
        """12 rows under two indexes; column 0 has three keys, so every
        bucket of either index holds several slots."""
        rel = Relation("edge")
        rel.add_many((c(i % 3), c(i % 2), c(i)) for i in range(12))
        rel.register_index((0,))
        rel.register_index((0, 1))
        return rel

    @staticmethod
    def _buckets(rel):
        return {
            (positions, key): bucket
            for positions, index in rel._indexes.items()
            for key, bucket in index.items()
        }

    @pytest.mark.parametrize("writer", ["source", "copy"])
    @pytest.mark.parametrize("insert", ["add", "add_many", "add_id_rows"])
    def test_a_bucket_is_copied_by_its_first_append_only(self, writer, insert):
        rel = self._indexed()
        clone = rel.copy()
        shared = self._buckets(rel)
        assert rel._indexes[(0,)] is not clone._indexes[(0,)]
        assert self._buckets(clone).keys() == shared.keys()
        assert all(
            bucket is shared[at] for at, bucket in self._buckets(clone).items()
        )
        writing, idle = (rel, clone) if writer == "source" else (clone, rel)

        def put(value):
            row = (c(0), c(0), c(value))
            if insert == "add":
                writing.add(row)
            elif insert == "add_many":
                writing.add_many([row])
            else:
                writing.add_id_rows([term_catalog().intern_row(row)])

        put(100)
        # one bucket per index went private, on the writing side only
        assert all(
            bucket is shared[at] for at, bucket in self._buckets(idle).items()
        )
        private = {
            at: bucket
            for at, bucket in self._buckets(writing).items()
            if bucket is not shared[at]
        }
        assert len(private) == 2 == len({at[0] for at in private})
        assert all(
            list(bucket[:-1]) == list(shared[at]) and bucket[-1] == 12
            for at, bucket in private.items()
        )
        # from the second append on it is the same object: copied once,
        # then appended to in place (a magic seed keeps all of anc^bf in
        # one bucket, so a copy per append would be quadratic)
        for value in (101, 102):
            put(value)
            now = self._buckets(writing)
            assert all(now[at] is bucket for at, bucket in private.items())
            assert all(
                now[at] is bucket
                for at, bucket in shared.items()
                if at not in private
            )
        assert len(private[(0,), term_catalog().id_of(c(0))]) == 7
        assert len(idle) == 12 and len(writing) == 15
        assert rel.check_invariants() and clone.check_invariants()

    def test_compaction_ends_the_sharing(self):
        rel = self._indexed()
        clone = rel.copy()
        kept = self._buckets(clone)
        # dead slots outnumber live ones: the relation compacts itself
        rel.add_many((c(0), c(0), c(value)) for value in range(20, 30))
        rel.discard_many((c(0), c(0), c(value)) for value in range(20, 30))
        rel.discard_many((c(i % 3), c(i % 2), c(i)) for i in range(6))
        assert not rel._dead and len(rel._live) == len(rel) == 6
        rebuilt = self._buckets(rel)
        assert not {id(b) for b in rebuilt.values()} & {
            id(b) for b in kept.values()
        }
        # so the next append copies nothing, whatever the bucket's age
        rel.add((c(1), c(1), c(100)))
        assert all(
            self._buckets(rel)[at] is bucket for at, bucket in rebuilt.items()
        )
        assert all(
            self._buckets(clone)[at] is bucket for at, bucket in kept.items()
        )
        assert len(clone) == 12 and len(rel) == 7
        assert rel.check_invariants() and clone.check_invariants()


# ----------------------------------------------------------------------
# copies share index buckets: no side ever observes another's writes
# ----------------------------------------------------------------------
_ISO_IDS = [term_catalog().intern(c(f"iso{i}")) for i in range(4)]
# 16 rows in all, two keys per column 0 and 1: scripts collide often
_ISO_ROW = st.tuples(
    st.sampled_from(_ISO_IDS[:2]),
    st.sampled_from(_ISO_IDS[:2]),
    st.sampled_from(_ISO_IDS),
)
_ISO_ROWS = st.lists(_ISO_ROW, min_size=1, max_size=8)
_ISO_POSITIONS = st.sampled_from([(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)])
_ISO_MEMBER = st.integers(min_value=0, max_value=63)
_ISO_STEP = st.one_of(
    st.tuples(st.just("add"), _ISO_MEMBER, _ISO_ROW),
    st.tuples(st.just("add_many"), _ISO_MEMBER, _ISO_ROWS),
    st.tuples(st.just("add_id_row"), _ISO_MEMBER, _ISO_ROW),
    st.tuples(st.just("add_id_rows"), _ISO_MEMBER, _ISO_ROWS),
    st.tuples(st.just("discard"), _ISO_MEMBER, _ISO_ROW),
    st.tuples(st.just("discard_many"), _ISO_MEMBER, _ISO_ROWS),
    st.tuples(st.just("discard_id_row"), _ISO_MEMBER, _ISO_ROW),
    st.tuples(st.just("discard_id_rows"), _ISO_MEMBER, _ISO_ROWS),
    st.tuples(st.just("register_index"), _ISO_MEMBER, _ISO_POSITIONS),
    st.tuples(st.just("lookup_ids"), _ISO_MEMBER, _ISO_POSITIONS, _ISO_ROW),
    st.tuples(
        st.sampled_from(["copy", "snapshot"]), _ISO_MEMBER, st.none()
    ),
)


class TestCopyIsolation:
    """A family of databases descended from one another by
    ``Database.copy()`` (one ``Relation.copy()`` per relation, both
    sides stay mutable) and by ``snapshot()`` (the same ``copy()`` on
    the first write through either side), driven by a random script.
    Every member is compared with its own set model and passes
    ``check_integrity()`` after every step: an append that leaked into
    a shared bucket is a slot beyond a sibling's rows, or a live row its
    index misses."""

    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=st.lists(_ISO_STEP, min_size=8, max_size=40))
    def test_no_member_observes_a_sibling(self, script):
        from repro.datalog import database as storage

        resolve_row = term_catalog().resolve_row
        root = Database()
        root.relation("r").register_index((0,))
        root.relation("r").register_index((1, 2))
        # the first copy is taken before the arity is known
        family = [root, root.copy()]
        models = [set(), set()]
        # compact early and often: tombstones, pruning and rebuilds all
        # occur within forty steps
        with mock.patch.object(storage, "_COMPACT_MIN_DEAD", 3):
            for op, pick, arg, *rest in script:
                at = pick % len(family)
                member, model = family[at], models[at]
                if op in ("copy", "snapshot"):
                    family.append(getattr(member, op)())
                    models.append(set(model))
                elif op == "register_index":
                    member.get("r").register_index(arg)
                elif op == "lookup_ids":
                    rel = member.get("r")
                    if rel.arity is not None:
                        key = tuple(rest[0][p] for p in arg)
                        slots = rel.lookup_ids(
                            arg, key[0] if len(arg) == 1 else key
                        )
                        by_slot = dict(zip(rel.all_slots(), rel.id_rows()))
                        assert {by_slot[slot] for slot in slots} == {
                            row
                            for row in model
                            if tuple(row[p] for p in arg) == key
                        }
                else:
                    rel = member.relation("r")
                    if op == "add":
                        rel.add(resolve_row(arg))
                        model.add(arg)
                    elif op == "add_many":
                        rel.add_many(map(resolve_row, arg))
                        model.update(arg)
                    elif op == "add_id_row":
                        assert rel.add_id_row(arg) == (arg not in model)
                        model.add(arg)
                    elif op == "add_id_rows":
                        rel.add_id_rows(arg)
                        model.update(arg)
                    elif op == "discard":
                        rel.discard(resolve_row(arg))
                        model.discard(arg)
                    elif op == "discard_many":
                        assert rel.discard_many(map(resolve_row, arg)) == len(
                            model & set(arg)
                        )
                        model.difference_update(arg)
                    elif op == "discard_id_row":
                        assert rel.discard_id_row(arg) == (arg in model)
                        model.discard(arg)
                    else:
                        rel.discard_id_rows(arg)
                        model.difference_update(arg)
                for other, expected in zip(family, models):
                    assert other.check_integrity()
                    assert set(other.get("r").id_rows()) == expected


# ----------------------------------------------------------------------
# copy-on-write under churn: clones of relations whose rowmap has holes
# ----------------------------------------------------------------------
_CHURN_IDS = [term_catalog().intern(c(f"churn{i}")) for i in range(6)]
# 72 rows, three keys on column 0 and two on column 1
_CHURN_ROW = st.tuples(
    st.sampled_from(_CHURN_IDS[:3]),
    st.sampled_from(_CHURN_IDS[:2]),
    st.sampled_from(_CHURN_IDS),
)
_CHURN_ROWS = st.lists(_CHURN_ROW, min_size=1, max_size=12)
_CHURN_SIDE = st.integers(min_value=0, max_value=15)
_CHURN_STEP = st.one_of(
    st.tuples(st.just("add"), _CHURN_SIDE, _CHURN_ROWS),
    st.tuples(st.just("discard"), _CHURN_SIDE, _CHURN_ROWS),
    st.tuples(st.just("snapshot"), _CHURN_SIDE, st.none()),
    st.tuples(st.just("drop"), _CHURN_SIDE, st.none()),
)


class TestCopyOnWriteUnderChurn:
    """One owner database and the snapshots taken of it, dropped, and
    written through while ``add_id_rows`` / ``discard_id_rows`` churn
    one indexed relation: its rowmap carries deletion holes and it
    carries tombstones when it is cloned.  After every step each live
    side equals its set model, passes ``check_integrity()``, and answers
    the join executor's keyed and keyless window reads
    (``planner._slot_getter``) as the model says: a window
    over the slots a write handed out holds exactly the rows it added,
    and the windows on either side of a cut partition the relation."""

    POSITIONS = ((0,), (1,), (1, 2))

    @staticmethod
    def _window(rel, positions, key, lo, hi):
        by_slot = dict(zip(rel.all_slots(), rel.id_rows()))
        slots = _slot_getter(rel, positions, (lo, hi))(key) or ()
        assert all(lo <= slot < hi for slot in slots)
        assert list(slots) == sorted(set(slots))
        return {by_slot[slot] for slot in slots}

    def _check_windows(self, rel, model, lo, hi, expected):
        """Keyless and keyed reads of the slot window ``[lo, hi)``."""
        assert self._window(rel, (), None, lo, hi) == expected
        assert set(rel.window_rows(lo, hi)) == expected
        for positions in self.POSITIONS:
            project = itemgetter(*positions)
            absent = project((-1,) * 3)
            for key in {project(row) for row in model} | {absent}:
                assert self._window(rel, positions, key, lo, hi) == {
                    row for row in expected if project(row) == key
                }

    def test_a_write_clones_a_churned_relation_away_from_its_snapshot(self):
        db = Database()
        db.add_values("r", [(i, i % 7) for i in range(200)])
        db.relation("r").register_index((1,))
        db.retract_values("r", [(i, i % 7) for i in range(0, 200, 3)])
        snap = db.snapshot()
        before = snap.tuples("r")
        db.add_values("r", [(500, 1)])
        db.retract_values("r", [(1, 1)])
        assert snap.tuples("r") == before
        assert len(db.get("r")) == len(before)
        assert db.get("r") is not snap.get("r")
        assert db.check_integrity() and snap.check_integrity()

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        script=st.lists(_CHURN_STEP, min_size=10, max_size=50),
        cut=st.integers(min_value=0, max_value=200),
    )
    def test_every_side_reads_its_own_model(self, script, cut):
        from repro.datalog import database as storage

        owner = Database()
        for positions in self.POSITIONS:
            owner.relation("r").register_index(positions)
        sides, models = [owner], [set()]
        # compaction rebuilds the rowmap without holes: keep it rare
        with mock.patch.object(storage, "_COMPACT_MIN_DEAD", 40):
            for op, pick, rows in script:
                at = pick % len(sides)
                side, model = sides[at], models[at]
                if op == "snapshot":
                    sides.append(side.snapshot())
                    models.append(set(model))
                elif op == "drop":
                    if at:  # the owner stays
                        del sides[at], models[at]
                elif op == "add":
                    rel = side.relation("r")
                    before = rel.slot_count()
                    fresh = rel.add_id_rows(rows)
                    assert set(fresh) == set(rows) - model
                    model.update(rows)
                    self._check_windows(
                        rel, model, before, rel.slot_count(), set(fresh)
                    )
                else:
                    rel = side.relation("r")
                    assert rel.discard_id_rows(rows) == len(model & set(rows))
                    model.difference_update(rows)
                for side, model in zip(sides, models):
                    assert side.check_integrity()
                    rel = side.get("r")
                    assert set(rel.id_rows()) == model
                    if rel.arity is None:
                        continue
                    n = rel.slot_count()
                    low = self._window(rel, (), None, 0, min(cut, n))
                    high = self._window(rel, (), None, min(cut, n), n)
                    assert not low & high and low | high == model
                    self._check_windows(rel, model, 0, n, model)


def _slots(rel):
    """Everything a slot count taken on ``rel`` refers to."""
    return (
        rel.arity,
        [list(column) for column in rel._columns or ()],
        bytes(rel._live),
        rel._dead,
        list(rel._rowmap.items()),
        rel.version,
    )


class TestRecycledSpare:
    """A write to an owned relation a snapshot holds replays the
    relation's journal onto the version it was split from, once no
    snapshot holds that one, instead of cloning (``Database._writable``).
    The collector is off: a released spare must be free by reference
    count alone."""

    @pytest.fixture(autouse=True)
    def _collector_off(self):
        with refcount_only():
            yield

    @pytest.mark.parametrize("seed", range(6))
    def test_a_recycled_spare_is_slot_identical(self, seed):
        """Random adds, discards and flips (a new snapshot replaces the
        held one), across compactions.  Every recycled spare equals the
        relation it replaces slot for slot: a replay that netted its
        journal would hand out other slots or compact elsewhere."""
        rng = random.Random(seed)
        compacted = []
        compact = Relation._compact

        def counting(rel):
            compacted.append(rel)
            compact(rel)

        db = Database()
        db.relation("r").register_index((0,))
        db.relation("r").register_index((1,))
        held, recycled, replayed_compactions = None, 0, 0

        def row():
            value = rng.randrange(48)
            return (c(value), c(value % 5))

        with mock.patch.object(Relation, "_compact", counting):
            for _ in range(400):
                op = rng.random()
                if op < 0.45:
                    db.relation("r").add_many(
                        [row() for _ in range(rng.randint(1, 6))]
                    )
                elif op < 0.8:
                    db.retract_tuples(
                        "r", [row() for _ in range(rng.randint(1, 12))]
                    )
                else:
                    held = db.snapshot()
                    before, spare = len(compacted), db.get("r")._spare
                    rel = db.relation("r")  # the handoff, no write yet
                    assert rel._spare is held.get("r")
                    assert rel._spare._spare is None
                    if rel is not spare:
                        continue
                    recycled += 1
                    if any(done is rel for done in compacted[before:]):
                        replayed_compactions += 1
                    assert _slots(rel) == _slots(rel._spare)
                    assert rel.check_invariants()
                    assert rel._journal == [] and rel._spare._journal is None
                copied = db.get("r").copy()
                assert _slots(copied) == _slots(db.get("r"))
                assert copied._spare is None and copied._journal is None
        assert recycled > 20 and replayed_compactions
        assert db.check_integrity() and held.check_integrity()

    def test_the_lifecycle_of_a_spare(self):
        db = Database()
        log = db.start_mutation_log()
        db.add_values("r", [(i, i % 3) for i in range(40)])
        first = db.get("r")
        changes = list(log)

        def write(add=(), retract=()):
            """Add then retract rows; check the log and the version
            saw exactly the net changes."""
            version, entries = db.version, len(log)
            present = db.tuples("r")
            added = db.add_values("r", add)
            removed = db.retract_values("r", retract)
            wrapped = {tuple(map(c, row)) for row in add}
            assert added == len(wrapped - present)
            assert db.version == version + added + removed
            assert len(log) == entries + added + removed
            changes.extend(log[entries:])

        # the first handoff clones, and keeps the held version as spare
        held = db.snapshot()
        write(add=[(100, 1)])
        second = db.get("r")
        assert second is not first
        assert second._spare is first and first._spare is None
        assert second._journal == [
            (1, (term_catalog().intern_row((c(100), c(1))),))
        ]
        # from then on the handoffs alternate between the same two
        for step in range(6):
            held = db.snapshot()  # releases the version before it
            if step == 0:
                # a reader's index on the held version is carried over
                held.get("r").register_index((1,))
            write(add=[(200 + step, 2)], retract=[(step, step % 3)])
            current = db.get("r")
            assert current is (first if step % 2 == 0 else second)
            assert (1,) in current._indexes
            assert current._spare is (second if step % 2 == 0 else first)
            assert held.get("r") is current._spare
            assert db.tuples("r") == (
                held.tuples("r") | {(c(200 + step), c(2))}
            ) - {(c(step), c(step % 3))}
            assert db.check_integrity() and held.check_integrity()
        # a pinned spare forces a clone; the pin still reads its rows
        pinned, spare = held, db.get("r")._spare
        assert pinned.get("r") is spare
        frozen = pinned.tuples("r")
        held = db.snapshot()
        write(add=[(300, 0)])
        cloned = db.get("r")
        assert cloned not in (first, second)
        assert cloned._spare is held.get("r") and cloned._spare._spare is None
        assert pinned.get("r") is spare and pinned.tuples("r") == frozen
        assert pinned.check_integrity() and held.check_integrity()
        # once the journal holds more rows than the relation has live
        # rows, the spare goes
        live = len(cloned)
        write(add=[(500, 0)], retract=[(500, 0)])
        assert cloned._spare is not None
        for i in range(live // 2):
            write(add=[(501 + i, 0)], retract=[(501 + i, 0)])
        assert db.get("r") is cloned and len(cloned) == live
        assert cloned._spare is None and cloned._journal is None
        # ... so the next handoff clones
        held = db.snapshot()
        write(retract=[(20, 2)])
        assert db.get("r") is not cloned and db.get("r")._spare is cloned
        # every net change reached the log once: replaying it rebuilds
        # the relation
        model = set()
        for _, idrow, sign in changes:
            if sign > 0:
                assert idrow not in model
                model.add(idrow)
            else:
                model.remove(idrow)
        assert model == set(db.get("r").id_rows())
        assert db.version == len(changes)
        db.stop_mutation_log(log)
        assert db.check_integrity()
