"""The high-throughput checker machinery: hash-consing, memo caches and
substitution hashing.

These tests pin the invariants the fast paths rely on:

* interning -- structural equality implies pointer identity, hashes are
  stable, free-variable sets are precomputed, pickling re-interns;
* the LRU caches are bounded and survive ``clear_normalization_caches``;
* ``Subst`` hashes consistently with its equality.
"""

import pickle

import pytest

from repro.core.caching import LRUCache
from repro.statics import (
    BinExpr,
    EmptyMem,
    IntConst,
    Sel,
    StaticsError,
    Subst,
    Upd,
    Var,
    clear_normalization_caches,
    free_vars,
    intern_table_sizes,
    normalization_cache_stats,
    normalize_int,
)


# ---------------------------------------------------------------------------
# Hash-consing invariants
# ---------------------------------------------------------------------------


class TestInterning:
    def test_structural_equality_is_identity(self):
        assert Var("x") is Var("x")
        assert IntConst(41) is IntConst(41)
        assert BinExpr("add", Var("x"), IntConst(1)) \
            is BinExpr("add", Var("x"), IntConst(1))
        assert Sel(Var("m"), Var("x")) is Sel(Var("m"), Var("x"))
        assert Upd(Var("m"), Var("x"), IntConst(0)) \
            is Upd(Var("m"), Var("x"), IntConst(0))
        assert EmptyMem() is EmptyMem()

    def test_distinct_structures_are_distinct(self):
        assert Var("x") is not Var("y")
        assert IntConst(1) is not IntConst(2)
        assert BinExpr("add", Var("x"), IntConst(1)) \
            is not BinExpr("sub", Var("x"), IntConst(1))

    def test_bool_literal_does_not_alias_int(self):
        # hash(True) == hash(1): validation must run before interning.
        IntConst(1)
        with pytest.raises(StaticsError):
            IntConst(True)

    def test_hash_stability(self):
        expr = BinExpr("mul", Var("x"), BinExpr("add", Var("y"), IntConst(2)))
        first = hash(expr)
        assert hash(expr) == first
        assert hash(BinExpr("mul", Var("x"),
                            BinExpr("add", Var("y"), IntConst(2)))) == first

    def test_free_variable_sets(self):
        assert free_vars(IntConst(3)) == frozenset()
        assert free_vars(Var("x")) == frozenset({"x"})
        assert free_vars(BinExpr("add", Var("x"), Var("y"))) \
            == frozenset({"x", "y"})
        assert free_vars(Upd(Var("m"), Var("a"), IntConst(0))) \
            == frozenset({"m", "a"})
        assert free_vars(EmptyMem()) == frozenset()

    def test_immutability(self):
        expr = BinExpr("add", Var("x"), IntConst(1))
        with pytest.raises(AttributeError):
            expr.op = "sub"

    def test_pickle_reinterns(self):
        expr = Sel(Upd(Var("m"), Var("a"), IntConst(7)), Var("a"))
        clone = pickle.loads(pickle.dumps(expr))
        assert clone is expr

    def test_intern_table_sizes_observable(self):
        Var("observability_probe")
        sizes = intern_table_sizes()
        assert sizes["Var"] >= 1
        assert set(sizes) == {"Var", "IntConst", "BinExpr", "Sel", "Upd"}


# ---------------------------------------------------------------------------
# Bounded LRU caches
# ---------------------------------------------------------------------------


class TestLRUCache:
    def test_bounded_with_lru_eviction(self):
        cache = LRUCache(4)
        for key in range(4):
            cache.put(key, str(key))
        # Touch 0 so 1 becomes the eviction victim.
        assert cache.get(0) == "0"
        cache.put(99, "99")
        assert len(cache) == 4
        assert 1 not in cache
        assert 0 in cache and 99 in cache

    def test_none_is_miss_sentinel(self):
        cache = LRUCache(2)
        assert cache.get("absent") is None
        assert cache.misses == 1

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_normalization_caches_bounded_and_clearable(self):
        clear_normalization_caches()
        normalize_int(BinExpr("add", BinExpr("mul", Var("p"), Var("q")),
                              IntConst(5)))
        stats = normalization_cache_stats()
        assert any(entries for entries, _, _ in stats.values())
        clear_normalization_caches()
        stats = normalization_cache_stats()
        assert all(entries == 0 for entries, _, _ in stats.values())


# ---------------------------------------------------------------------------
# Substitution hashing (consistent with __eq__)
# ---------------------------------------------------------------------------


class TestSubstHash:
    def test_equal_substitutions_hash_equal(self):
        left = Subst({"x": IntConst(1), "y": Var("z")})
        right = Subst({"y": Var("z"), "x": IntConst(1)})
        assert left == right
        assert hash(left) == hash(right)

    def test_usable_in_sets(self):
        a = Subst({"x": IntConst(1)})
        b = Subst({"x": IntConst(1)})
        c = Subst({"x": IntConst(2)})
        assert len({a, b, c}) == 2

    def test_hash_stable_across_calls(self):
        subst = Subst({"x": BinExpr("add", Var("y"), IntConst(3))})
        assert hash(subst) == hash(subst)
