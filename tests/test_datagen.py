"""Generated benchmark data: shapes, formats and determinism."""

import numpy as np
import pytest

from sdc.corpus import load_corpus
from sdc.datagen import (
    DOMAINS,
    HIGH_CARDINALITY_DOMAINS,
    PRODUCTS,
    STATIONS,
    WORD_CATEGORIES,
    build_toy_space,
    generate_corpus,
    make_airport_score_fn,
    write_dataset,
)
from sdc.domain_fns import (
    builtin_validators,
    eval_distance,
    load_embedding_space,
    load_score_table,
)

from oracles import generate_random_string_corpus

VALIDATOR_OF_DOMAIN = {
    "dates": "validator:date",
    "timestamps": "validator:iso-timestamp",
    "urls": "validator:url",
    "emails": "validator:email",
    "ipv4": "validator:ipv4",
    "uuids": "validator:uuid",
    "credit_cards": "validator:credit-card",
    "upcs": "validator:upc-a",
}


class TestVocabularies:
    def test_domain_lists_consistent(self):
        assert set(HIGH_CARDINALITY_DOMAINS) <= set(DOMAINS)
        assert set(WORD_CATEGORIES) <= set(DOMAINS)
        assert len(DOMAINS) == len(set(DOMAINS))

    def test_large_vocabularies_are_large_and_unique(self):
        for vocab in (STATIONS, PRODUCTS):
            assert len(vocab) >= 140
            assert len(set(vocab)) == len(vocab)
            assert all(" " not in tok for tok in vocab)


class TestToySpace:
    def test_every_token_embeddable(self):
        space = build_toy_space()
        for vocab in WORD_CATEGORIES.values():
            for token in vocab:
                for part in token.split():
                    assert part in space.vectors, part

    def test_clusters_are_tight_and_far_apart(self):
        space = build_toy_space()
        months = np.array([space.vectors[t] for t in WORD_CATEGORIES["months"]])
        colors = np.array([space.vectors[t] for t in WORD_CATEGORIES["colors"]])
        within = np.linalg.norm(months - months[0], axis=1).max()
        across = min(
            float(np.linalg.norm(m - c)) for m in months[:3] for c in colors[:3]
        )
        assert within < 3.0
        assert across > 8.0

    def test_deterministic(self):
        a, b = build_toy_space(seed=7), build_toy_space(seed=7)
        assert sorted(a.vectors) == sorted(b.vectors)
        for tok in a.vectors:
            assert np.allclose(a.vectors[tok], b.vectors[tok])


class TestGenerateCorpus:
    def test_shape(self):
        ds = generate_corpus(44, seed=1, min_len=5, max_len=9)
        assert len(ds.corpus) == 44
        for col in ds.corpus:
            assert 5 <= len(col) <= 9
            assert col.header == ds.domain_of[col.id]
            assert col.header in DOMAINS

    def test_round_robin_domain_mix(self):
        ds = generate_corpus(len(DOMAINS) * 3, seed=2)
        counts = {}
        for dom in ds.domain_of.values():
            counts[dom] = counts.get(dom, 0) + 1
        assert counts == {dom: 3 for dom in DOMAINS}

    def test_restricted_domains(self):
        ds = generate_corpus(12, seed=3, domains=["ipv4", "uuids"])
        assert set(ds.domain_of.values()) == {"ipv4", "uuids"}

    def test_unknown_domain(self):
        with pytest.raises(ValueError):
            generate_corpus(4, seed=0, domains=["nope"])

    def test_deterministic(self):
        a = generate_corpus(30, seed=4)
        b = generate_corpus(30, seed=4)
        c = generate_corpus(30, seed=5)
        assert a.corpus == b.corpus
        assert a.corpus != c.corpus

    def test_machine_values_pass_their_validators(self):
        validators = {fn.id: fn for fn in builtin_validators()}
        ds = generate_corpus(len(DOMAINS) * 4, seed=6)
        checked = set()
        for col in ds.corpus:
            fn_id = VALIDATOR_OF_DOMAIN.get(ds.domain_of[col.id])
            if fn_id is None:
                continue
            fn = validators[fn_id]
            for v in col.values:
                assert eval_distance(fn, v) == 0.0, (fn_id, v)
            checked.add(fn_id)
        assert checked == set(VALIDATOR_OF_DOMAIN.values())

    def test_word_values_come_from_vocabulary(self):
        ds = generate_corpus(len(DOMAINS) * 2, seed=7)
        for col in ds.corpus:
            dom = ds.domain_of[col.id]
            if dom in WORD_CATEGORIES:
                assert set(col.values) <= set(WORD_CATEGORIES[dom])


class TestAirportScores:
    def test_covers_all_airports(self):
        fn = make_airport_score_fn()
        from sdc.datagen import AIRPORTS

        for code in AIRPORTS:
            assert 0.85 <= fn.scores[code] <= 0.99
            assert fn.distance(code) == pytest.approx(1.0 - fn.scores[code])
        assert fn.distance("not-an-airport") == 1.0

    def test_deterministic(self):
        assert make_airport_score_fn(3).scores == make_airport_score_fn(3).scores


class TestRandomStringCorpus:
    def test_shape_and_determinism(self):
        a = generate_random_string_corpus(15, seed=0)
        b = generate_random_string_corpus(15, seed=0)
        assert a == b
        assert len(a) == 15
        for col in a:
            assert 10 <= len(col) <= 30
            assert all(3 <= len(v) <= 18 for v in col.values)


class TestWriteDataset:
    def test_files_loadable(self, tmp_path):
        ds = generate_corpus(30, seed=8)
        paths = write_dataset(ds, str(tmp_path))
        loaded = load_corpus(paths["corpus"])
        assert loaded == ds.corpus
        space = load_embedding_space(paths["space"])
        assert sorted(space.vectors) == sorted(ds.space.vectors)
        for tok in list(ds.space.vectors)[:20]:
            assert np.allclose(space.vectors[tok], ds.space.vectors[tok], atol=1e-6)
        table = load_score_table(paths["scores:airport"], "airport")
        assert table.scores == ds.score_fns[0].scores
