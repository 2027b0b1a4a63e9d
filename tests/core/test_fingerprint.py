"""Unit tests for the canonical query keys of the plan store and the result cache."""

import asyncio
import hashlib
from collections import Counter

import pytest

from repro.core import fingerprint as fingerprint_module
from repro.core.access import AccessSchema
from repro.core.engine import BoundedEngine, prepare_query
from repro.core.fingerprint import (
    canonical_form,
    prepared_cache_key,
    query_fingerprint,
    result_cache_key,
)
from repro.core.query import Rename, Relation, eq
from repro.serving.server import BoundedServer, ReadRequest
from repro.workloads import facebook


def _result_key(query):
    """``PreparedQuery.result_key`` as prepared (the key does not read the access schema)."""
    return prepare_query(query, AccessSchema([])).result_key


#: every key the caches address a query by
KEYS = {
    "query_fingerprint": query_fingerprint,
    "prepared_cache_key": prepared_cache_key,
    "result_key": _result_key,
}


@pytest.fixture(params=sorted(KEYS))
def key(request):
    return KEYS[request.param]


@pytest.fixture
def r(tiny_schema):
    return Relation.from_schema(tiny_schema, "r")


class TestDeterminism:
    def test_same_object_is_stable(self, key, fb_q1):
        assert key(fb_q1) == key(fb_q1)

    def test_structurally_equal_queries_collide(self, key):
        """Two independently built, identical queries share every key."""
        first, second = facebook.query_q1(), facebook.query_q1()
        assert first is not second
        assert key(first) == key(second)
        assert hash(key(first)) == hash(key(second))

    def test_digest_shape(self, fb_q1):
        digest = query_fingerprint(fb_q1)
        assert isinstance(digest, str)
        assert len(digest) == 64
        int(digest, 16)  # hex

    def test_plan_store_key_is_the_form(self, fb_q1):
        assert prepared_cache_key(fb_q1) == canonical_form(fb_q1)

    def test_result_key_is_the_digest(self, fb_q1):
        assert result_cache_key(fb_q1) == query_fingerprint(fb_q1)
        for minimize in (True, False):  # how a plan is prepared is not part of the key
            prepared = prepare_query(fb_q1, AccessSchema([]), minimize=minimize)
            assert prepared.result_key == query_fingerprint(fb_q1)


class TestSensitivity:
    def test_distinct_running_example_queries(
        self, key, fb_q0, fb_q0_prime, fb_q1, fb_q2
    ):
        keys = {key(q) for q in (fb_q0, fb_q0_prime, fb_q1, fb_q2)}
        assert len(keys) == 4

    def test_constant_parameters_distinguish(self, key):
        assert key(facebook.query_q1(person="p0")) != key(facebook.query_q1(person="p1"))

    def test_constant_type_distinguishes(self, key, r):
        """1, "1" and True are equal under dataclass ==, but not as syntax."""
        by_int = r.select(eq(r["a"], 1))
        by_str = r.select(eq(r["a"], "1"))
        by_bool = r.select(eq(r["a"], True))
        assert len({key(q) for q in (by_int, by_str, by_bool)}) == 3

    def test_rename_target_distinguishes(self, key, r):
        assert key(Rename(r, "r1")) != key(Rename(r, "r2"))

    def test_occurrence_name_distinguishes(self, key, tiny_schema):
        first = Relation.from_schema(tiny_schema, "r")
        aliased = Relation("r_alias", tiny_schema["r"].attributes, base="r")
        assert key(first) != key(aliased)

    def test_projection_order_distinguishes(self, key, r):
        assert key(r.project(["a", "b"])) != key(r.project(["b", "a"]))

    def test_operand_order_distinguishes(self, key, tiny_schema):
        r = Relation.from_schema(tiny_schema, "r")
        s = Relation.from_schema(tiny_schema, "s")
        assert key(r.product(s)) != key(s.product(r))


class TestCanonicalForm:
    def test_is_nested_tuple(self, fb_q1):
        form = canonical_form(fb_q1)
        assert isinstance(form, tuple)
        assert form[0] == "proj"

    def test_round_trips_through_repr(self, fb_q1):
        """repr of the form is what gets hashed; it must be deterministic."""
        assert repr(canonical_form(fb_q1)) == repr(canonical_form(facebook.query_q1()))


class TestWhereTheDigestRuns:
    """A read builds the canonical form and hashes no digest; a prepare hashes one.

    Every read below is of a freshly built query object, so nothing can be
    remembered on the query itself.
    """

    READS = 100

    @pytest.fixture
    def digests(self, monkeypatch):
        calls = Counter()

        def counted(name, function):
            def counting(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return counting

        monkeypatch.setattr(
            fingerprint_module,
            "query_fingerprint",
            counted("query_fingerprint", fingerprint_module.query_fingerprint),
        )
        monkeypatch.setattr(hashlib, "sha256", counted("sha256", hashlib.sha256))
        return calls

    @pytest.fixture
    def engine(self, fb_database, fb_access):
        return BoundedEngine(fb_database, fb_access)

    def test_plan_store_miss_hashes_once(self, engine, digests):
        first = engine.execute(facebook.query_q1())
        assert not first.cached
        assert digests == {"query_fingerprint": 1, "sha256": 1}
        second = engine.execute(facebook.query_q1())
        assert second.cached and second.result_cached
        assert digests == {"query_fingerprint": 1, "sha256": 1}

    def test_probe_of_an_unprepared_query_hashes_nothing(self, engine, digests):
        assert engine.probe(facebook.query_q1()) is None
        assert not digests

    def test_execute_hits_hash_nothing(self, engine, digests):
        engine.execute(facebook.query_q1())
        digests.clear()
        for _ in range(self.READS):
            assert engine.execute(facebook.query_q1()).result_cached
        assert not digests

    def test_probe_hits_hash_nothing(self, engine, digests):
        engine.execute(facebook.query_q1())
        digests.clear()
        for _ in range(self.READS):
            assert engine.probe(facebook.query_q1()).result_cached
        assert not digests

    def test_served_hits_hash_nothing(self, engine, digests):
        engine.execute(facebook.query_q1())
        digests.clear()

        async def serve():
            async with BoundedServer(engine) as server:
                return [
                    await server.submit(ReadRequest(query=facebook.query_q1()))
                    for _ in range(self.READS)
                ]

        responses = asyncio.run(asyncio.wait_for(serve(), 20.0))
        assert all(response.ladder == ("result_cache",) for response in responses)
        assert engine.cache_stats()["result_cache"]["hits"] == self.READS
        assert not digests
