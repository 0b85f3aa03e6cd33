"""Concepts enumerated once per classification, with a size guard that does
not depend on what was enumerated before."""

import pytest

import conceptua.clg as clg
from conceptua.clg import concept_lattice, concept_poset, concepts_of
from conceptua.clsn import Classification
from conceptua.errors import ParseError, SizeLimitError
from conceptua.finrel import FinSet, Relation


def contranominal(n):
    c = FinSet(tuple(f"e{i}" for i in range(n)))
    full = (1 << n) - 1
    return Classification(c, c, Relation(c, c, tuple(full & ~(1 << i) for i in range(n))))


@pytest.fixture
def enumerations(monkeypatch):
    """Counts the runs of the enumerator, the only code that computes closures."""
    calls = []
    real = clg._concepts_lectic

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(clg, "_concepts_lectic", counting)
    return calls


@pytest.mark.parametrize("first", [concepts_of, concept_poset, concept_lattice])
def test_one_enumeration_serves_every_later_call(enumerations, first):
    a = contranominal(4)
    first(a)
    concepts = concepts_of(a)
    poset, poset_concepts = concept_poset(a)
    lattice = concept_lattice(a)
    assert concepts is poset_concepts
    assert lattice.concepts == concepts
    assert len(enumerations) == 1
    assert poset.size == len(concepts) == 16


def test_equal_classifications_enumerate_separately(enumerations):
    a, b = contranominal(3), contranominal(3)
    assert concepts_of(a) == concepts_of(b)
    assert len(enumerations) == 2


def test_cache_leaves_equality_and_hash_alone():
    a, b = contranominal(5), contranominal(5)
    before = hash(a)
    concepts_of(a)
    assert "concepts" in vars(a) and "concepts" not in vars(b)
    assert a == b and hash(a) == before == hash(b)
    assert "concepts" not in Classification.__match_args__
    assert Classification(*[getattr(a, name) for name in Classification.__match_args__]) == b


def test_lowered_bound_trips_on_a_cached_enumeration(monkeypatch):
    a = contranominal(4)
    assert len(concepts_of(a)) == 16
    monkeypatch.setenv("CONCEPTUA_MAX_CARRIER", "3")
    with pytest.raises(SizeLimitError, match=r"2\^3 = 8 concepts.*CONCEPTUA_MAX_CARRIER"):
        concepts_of(a)
    with pytest.raises(SizeLimitError):
        concept_poset(a)
    with pytest.raises(SizeLimitError):
        concept_lattice(a)
    monkeypatch.setenv("CONCEPTUA_MAX_CARRIER", "4")
    assert len(concepts_of(a)) == 16


def test_failed_enumeration_keeps_nothing(monkeypatch, enumerations):
    a = contranominal(4)
    monkeypatch.setenv("CONCEPTUA_MAX_CARRIER", "3")
    with pytest.raises(SizeLimitError):
        concepts_of(a)
    assert "concepts" not in vars(a)
    monkeypatch.setenv("CONCEPTUA_MAX_CARRIER", "4")
    assert len(concepts_of(a)) == 16
    assert len(enumerations) == 2


def test_malformed_bound_raises_on_a_cached_enumeration(monkeypatch):
    a = contranominal(3)
    concepts_of(a)
    monkeypatch.setenv("CONCEPTUA_MAX_CARRIER", "abc")
    with pytest.raises(ParseError, match="CONCEPTUA_MAX_CARRIER"):
        concepts_of(a)
