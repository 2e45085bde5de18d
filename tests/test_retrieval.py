import dataclasses
import gc
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gandr import retrieval
from gandr.augment import build_augmented_input
from gandr.data_io import load_store, save_store
from gandr.errors import (
    ConfigError,
    GandrError,
    MalformedParse,
    MalformedRow,
    SeparatorCollision,
)
from gandr.retrieval import (
    Exemplar,
    ExemplarStore,
    ScoredExemplar,
    retrieve_sampled,
    retrieve_topk,
    retrieve_topk_alphas,
    sample_geometric_ranks,
    validate_alpha,
)
from gandr.top_parse import structure_tokens, template

from conftest import (
    fit_channel,
    make_random_corpus,
    random_parse,
    random_utterance,
)
from oracles import (
    brute_force_ranking,
    fit_tfidf,
    prediction_label_tokens,
    sparse_dot,
    text_tokens,
    truncated_geometric_pmf,
)


def build_store(exemplars):
    store = ExemplarStore()
    for exemplar in exemplars:
        store.add(exemplar)
    return store


def assert_same_channel(channel, expected):
    assert channel.vocabulary_ == expected.vocabulary_
    for name in ("indptr", "doc_ids", "weights"):
        assert getattr(channel, name).tobytes() == \
            getattr(expected, name).tobytes()


def dense_rows(channel):
    """The channel's document vectors as one dense (docs, terms) array."""
    indptr = channel.indptr
    rows = np.zeros((channel.n_docs, indptr.shape[0] - 1))
    terms = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
    rows[channel.doc_ids, terms] = channel.weights
    return rows


def exemplar_output_sims(store, query, preliminary):
    """(input_sim, output_sim) per exemplar, the latter gathered from the
    per-template scores through the store's template ids."""
    in_sims, out_sims = store.similarities(query, preliminary)
    if out_sims is None:
        return in_sims, None
    return in_sims, out_sims[store._template_of]


class TestExemplar:
    @pytest.mark.parametrize("utterance, parse, error", [
        (None, "[IN:A x ]", MalformedRow),
        ("hi", b"[IN:A x ]", MalformedRow),
        (" \t", "[IN:A x ]", MalformedRow),
        ("a & b", "[IN:A x ]", SeparatorCollision),
        ("hi", "[IN:A [SL:B x ] ] ||", SeparatorCollision),
        ("hi", "", MalformedParse),
        ("hi", "[SL:A x ]", MalformedParse),
    ])
    def test_construction_checks_the_row(self, utterance, parse, error):
        with pytest.raises(error):
            Exemplar(0, utterance, parse)

    @pytest.mark.parametrize("exemplar_id", ["a", "1", 1.0, 1.9, True, None,
                                             2**63, -2**63 - 1])
    def test_id_must_be_an_int(self, exemplar_id):
        with pytest.raises(MalformedRow, match="exemplar id"):
            Exemplar(exemplar_id, "x y", "[IN:A ]")

    @pytest.mark.parametrize("domain", [5, 1.5, True, b"weather", ["a"]])
    def test_domain_must_be_a_string_or_none(self, domain):
        with pytest.raises(MalformedRow, match="domain must be"):
            Exemplar(0, "a", "[IN:A ]", domain)
        assert Exemplar(0, "a", "[IN:A ]", "weather").domain == "weather"
        assert Exemplar(0, "a", "[IN:A ]").domain is None

    def test_keeps_interned_labels_in_document_order(self):
        exemplar = Exemplar(0, "hi", "[in:b [sl:z x ] [sl:a y ] ]")
        assert exemplar.labels == ("IN:B", "SL:Z", "SL:A")
        assert all(label is sys.intern(label) for label in exemplar.labels)
        assert exemplar == Exemplar(0, "hi", "[in:b [sl:z x ] [sl:a y ] ]")

    def test_facts_wait_for_first_use(self, tmp_path):
        """Loading and fitting a store derive no prompt or template fact,
        so neither set-up time nor its memory pays for them."""
        store = build_store(make_random_corpus(np.random.default_rng(4), 30))
        save_store(store, tmp_path / "store.jsonl")
        loaded = load_store(tmp_path / "store.jsonl")
        loaded.build()
        fields = {f.name for f in dataclasses.fields(Exemplar)}
        assert all(vars(e).keys() == fields for e in loaded.exemplars)
        build_augmented_input("a query", loaded.exemplars)
        assert all(e._template == template(e.labels)
                   for e in loaded.exemplars)
        assert all(vars(e).keys() == fields | {"_prompt_pair", "_template"}
                   for e in loaded.exemplars)

    def test_prompted_exemplar_still_equals_a_fresh_one(self):
        args = (7, "call my mother", "[IN:CREATE_CALL [SL:CONTACT mother ] ]",
                "calling")
        used, fresh = Exemplar(*args), Exemplar(*args)
        build_augmented_input("call mum", [used])
        assert used._template == ("IN:CREATE_CALL", "SL:CONTACT")
        assert used == fresh and fresh == used
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert dataclasses.asdict(used) == dataclasses.asdict(fresh)


class TestStore:
    def test_duplicate_id_rejected(self, tiny_store):
        # a ValueError, which load_store reports as a corrupt line
        with pytest.raises(MalformedRow,
                           match="^exemplar id 0 already present$"):
            tiny_store.add(Exemplar(0, "again", "[IN:X y ]"))

    def test_bad_parse_rejected_on_add(self, tiny_store):
        with pytest.raises(MalformedParse):
            tiny_store.add(Exemplar(99, "text", "[IN:OPEN no close"))
        assert 99 not in tiny_store

    def test_get_unknown_id(self, tiny_store):
        with pytest.raises(GandrError, match="^no exemplar with id 42$"):
            tiny_store.get(42)

    def test_empty_store_cannot_build(self):
        with pytest.raises(GandrError, match="^store has no exemplars$"):
            ExemplarStore().build()

    def test_exemplars_listed_by_ascending_id(self):
        store = build_store([
            Exemplar(5, "five five", "[IN:A x ]"),
            Exemplar(1, "one one", "[IN:B x ]"),
            Exemplar(3, "three three", "[IN:C x ]"),
        ])
        assert [e.exemplar_id for e in store.exemplars] == [1, 3, 5]

    def test_build_parses_nothing(self, monkeypatch):
        exemplars = make_random_corpus(np.random.default_rng(2), 30)
        exemplars.append(Exemplar(30, "nested lower case",
                                  "[in:outer [sl:slot [in:inner x ] ] ]"))
        store = build_store(exemplars)
        # the output channel as fitted per exemplar from every parse parsed
        # again
        reparsed = fit_channel([structure_tokens(e.parse)
                                for e in store.exemplars])

        def forbidden(*args, **kwargs):
            raise AssertionError("build parsed an exemplar again")

        monkeypatch.setattr(retrieval, "parse_labels", forbidden)
        monkeypatch.setattr(retrieval, "structure_tokens", forbidden)
        store.build()
        outputs = store._channels[1]
        assert outputs.vocabulary_ == reparsed.vocabulary_
        assert outputs.idf_.tobytes() == reparsed.idf_.tobytes()
        # each exemplar's row, read through its template id, has the bits
        # of its own row in the per-exemplar fit
        assert outputs.n_docs < len(store)
        assert dense_rows(outputs)[store._template_of].tobytes() == \
            dense_rows(reparsed).tobytes()

    def test_build_peak_memory_stays_near_what_it_keeps(self):
        """The input channel's fit reads each utterance's tokens once and
        drops them, so the build's traced peak above its starting memory
        stays within 4x the postings both channels keep (about 9x when
        every token list was held until the fit ended)."""
        store = build_store(
            make_random_corpus(np.random.default_rng(0), 5000))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            store.build()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        kept = sum(array.nbytes for channel in store._channels
                   for array in (channel.indptr, channel.doc_ids,
                                 channel.weights))
        assert peak <= 4 * kept, (peak, kept)

    def test_rejected_add_keeps_no_labels(self, tiny_store):
        fresh = build_store(tiny_store.exemplars)
        labels = tiny_store.get(0).labels
        with pytest.raises(MalformedRow,
                           match="^exemplar id 0 already present$"):
            tiny_store.add(Exemplar(0, "again", "[IN:OTHER [SL:X y ] ]"))
        with pytest.raises(MalformedParse):
            tiny_store.add(Exemplar(99, "text", "[IN:OPEN [SL:X no close"))
        assert tiny_store.get(0).labels == labels == ("IN:PLAY_MUSIC",
                                                      "SL:MUSIC_GENRE")
        with pytest.raises(GandrError, match="^no exemplar with id 99$"):
            tiny_store.get(99)
        tiny_store.build()
        fresh.build()
        assert tiny_store._ids.tolist() == fresh._ids.tolist()
        for channel, expected in zip(tiny_store._channels, fresh._channels):
            assert_same_channel(channel, expected)

    def test_failing_build_restores_the_collector(self, tiny_store,
                                                  monkeypatch):
        seen = []

        def failing(text):
            seen.append(gc.isenabled())
            raise RuntimeError("tokenizer failed")

        monkeypatch.setattr(retrieval, "tokenize_text", failing)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="tokenizer failed"):
            tiny_store.build()
        assert seen == [False] and gc.isenabled()
        with pytest.raises(GandrError, match="^store has no exemplars$"):
            ExemplarStore().build()
        assert gc.isenabled()
        gc.disable()
        try:
            with pytest.raises(RuntimeError):
                tiny_store.build()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_mutation_after_build_is_visible(self):
        store = build_store([Exemplar(0, "alpha beta", "[IN:A x ]")])
        assert retrieve_topk(store, "gamma delta", 1)[0].exemplar_id == 0
        store.add(Exemplar(1, "gamma delta", "[IN:B x ]"))
        assert retrieve_topk(store, "gamma delta", 1)[0].exemplar_id == 1


class TestValidation:
    @pytest.mark.parametrize("bad", [-0.1, 1.0001, float("nan"), "x", None])
    def test_alpha_range(self, bad):
        with pytest.raises(ConfigError):
            validate_alpha(bad)

    def test_alpha_bounds_accepted(self):
        assert validate_alpha(0) == 0.0
        assert validate_alpha(1) == 1.0

    def test_positive_alpha_requires_preliminary(self, tiny_store):
        with pytest.raises(ConfigError):
            retrieve_topk(tiny_store, "play jazz", 2, alpha=0.5)
        with pytest.raises(ConfigError):
            retrieve_topk_alphas(tiny_store, "play jazz", 2, [0.0, 0.5])

    @pytest.mark.parametrize("k", [0, -1, 2.0])
    def test_bad_k(self, tiny_store, k):
        with pytest.raises(ConfigError):
            retrieve_topk(tiny_store, "play jazz", k)

    def test_k_larger_than_store(self, tiny_store):
        with pytest.raises(GandrError, match="^requested 5 exemplars but "
                                             "only 4 are available$") as info:
            retrieve_topk(tiny_store, "play jazz", 5)
        assert not isinstance(info.value, ConfigError)

    def test_exclusions_shrink_the_pool(self, tiny_store):
        with pytest.raises(GandrError, match="^requested 4 exemplars but "
                                             "only 3 are available$"):
            retrieve_topk(tiny_store, "play jazz", 4, exclude_ids={0})

    @pytest.mark.parametrize("retrieve", [
        lambda store, k, exclude: retrieve_topk(
            store, "play jazz", k, exclude_ids=exclude),
        lambda store, k, exclude: retrieve_sampled(
            store, "play jazz", k, 0.5, np.random.default_rng(0),
            exclude_ids=exclude),
    ])
    def test_too_small_message_counts_excluded_ids_present(self, tiny_store,
                                                          retrieve):
        # a repeated id counts once and an id the store lacks not at all
        with pytest.raises(GandrError,
                           match="^requested 3 exemplars but only 2 are "
                                 "available$"):
            retrieve(tiny_store, 3, [0, 2, 0, 99])


    @pytest.mark.parametrize("empty, settings, error, message", [
        (True, {}, GandrError, "store has no exemplars"),
        (True, {"k": 0}, GandrError, "store has no exemplars"),
        (True, {"k": 0, "p": 0.0}, GandrError, "store has no exemplars"),
        (True, {"alpha": 2.0}, ConfigError, "alpha must lie in"),
        (True, {"alpha": 0.5}, ConfigError, "requires a preliminary parse"),
        (False, {"k": 5, "p": 0.0}, GandrError,
         "requested 5 exemplars but only 4 are available"),
        (False, {"alpha": 0.5, "k": 5}, ConfigError,
         "requires a preliminary parse"),
    ])
    def test_sampled_checks_mix_then_store_then_k_then_p(
            self, tiny_store, empty, settings, error, message):
        settings = {"k": 1, "p": 0.5, **settings}
        with pytest.raises(error, match=message) as info:
            retrieve_sampled(ExemplarStore() if empty else tiny_store,
                             "play jazz", rng=np.random.default_rng(0),
                             **settings)
        # a GandrError row exits 1, a ConfigError row 2
        assert type(info.value) is error

    def test_empty_store_comes_before_k(self):
        with pytest.raises(GandrError,
                           match="^store has no exemplars$") as info:
            retrieve_topk(ExemplarStore(), "play jazz", 0)
        assert not isinstance(info.value, ConfigError)

    # True and 1.0 equal exemplar 1's id without being an id; "a" and 2**70
    # are no int64 at all
    @pytest.mark.parametrize("bad", [True, 1.0, "a", 2**70])
    def test_excluded_ids_follow_the_id_rule(self, tiny_store, bad):
        message = "^" + re.escape(
            f"excluded id must be a 64-bit integer, got {bad!r}") + "$"
        with pytest.raises(ConfigError, match=message):
            retrieve_topk(tiny_store, "play jazz", 1, exclude_ids={0, bad})
        with pytest.raises(ConfigError, match=message):
            retrieve_sampled(tiny_store, "play jazz", 1, 0.5,
                             np.random.default_rng(0), exclude_ids=[bad])


class TestTopK:
    def test_ranks_are_consecutive_and_sorted(self, trace_store):
        hits = retrieve_topk(trace_store, "could you send a message", 8)
        assert [h.rank for h in hits] == list(range(8))
        relevances = [h.relevance for h in hits]
        assert relevances == sorted(relevances, reverse=True)

    def test_ties_break_by_ascending_id(self):
        store = build_store([
            Exemplar(7, "identical words here", "[IN:A x ]"),
            Exemplar(2, "identical words here", "[IN:B x ]"),
            Exemplar(4, "identical words here", "[IN:C x ]"),
        ])
        hits = retrieve_topk(store, "identical words", 3)
        assert [h.exemplar_id for h in hits] == [2, 4, 7]

    def test_no_overlap_still_returns_k(self, tiny_store):
        hits = retrieve_topk(tiny_store, "zzz qqq www", 4)
        assert len(hits) == 4
        assert all(h.relevance == 0.0 for h in hits)
        assert [h.exemplar_id for h in hits] == [0, 1, 2, 3]

    def test_exclude_ids_respected(self, tiny_store):
        hits = retrieve_topk(tiny_store, "play jazz music", 2,
                             exclude_ids={0})
        assert 0 not in {h.exemplar_id for h in hits}
        assert [h.rank for h in hits] == [0, 1]

    def test_relevance_mix_invariant(self, trace_store):
        from conftest import TRACE_PRELIMINARY, TRACE_QUERY
        for alpha in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
            for hit in retrieve_topk(trace_store, TRACE_QUERY, 8, alpha=alpha,
                                     preliminary=TRACE_PRELIMINARY):
                mixed = (1 - alpha) * hit.input_sim + alpha * hit.output_sim
                assert abs(hit.relevance - mixed) <= 1e-12

    def test_hits_are_plain_frozen_dataclasses(self, trace_store):
        """Hits are built without the dataclass ``__init__``, yet equal,
        hash, repr and list their fields like ones built through it."""
        hits = retrieve_topk(trace_store, "send a message to the group", 3)
        names = [f.name for f in dataclasses.fields(ScoredExemplar)]
        for hit in hits:
            assert list(vars(hit)) == names
            normal = ScoredExemplar(**vars(hit))
            assert hit == normal and normal == hit
            assert hash(hit) == hash(normal)
            assert repr(hit) == repr(normal)
            with pytest.raises(dataclasses.FrozenInstanceError):
                hit.rank = 9
        assert [h.rank for h in hits] == [0, 1, 2]

    def test_deterministic_across_rebuilds(self, trace_store):
        first = retrieve_topk(trace_store, "send a message to the group", 8)
        rebuilt = ExemplarStore()
        for exemplar in trace_store.exemplars:
            rebuilt.add(exemplar)
        second = retrieve_topk(rebuilt, "send a message to the group", 8)
        assert first == second


# Above the size from which selection prefilters its candidates: a few
# colours tie in large groups, tags narrow a query's head, and three parses
# make the output channel tie almost everywhere. One exemplar in ten has
# one of forty rare templates that share no label, so a preliminary of one
# of them bounds the head to its members.
_BIG_COLOURS = ("red", "blue", "green", "gold")
_BIG_TAGS = tuple(f"tag{i}" for i in range(300))
_BIG_PARSES = ("[IN:PAINT [SL:COLOUR x ] ]", "[IN:PAINT ]",
               "[IN:SHOW [SL:TAG y ] [SL:COLOUR x ] ]")
_RARE_PRELIMINARY = "[IN:FIND7 [SL:TAG7 y ] ]"


@pytest.fixture(scope="module")
def big_corpus():
    rng = np.random.default_rng(7)
    n = retrieval._PREFILTER_MIN_STORE + 1234
    corpus = []
    for i in range(n):
        words = list(rng.choice(_BIG_COLOURS, size=int(rng.integers(1, 3))))
        if rng.random() < 0.6:
            words.append(str(rng.choice(_BIG_TAGS)))
        if i >= n - 3:
            # past the grid of column maxima: the head of "violet tag7"
            words = ["violet", "tag7", "red"]
        parse = str(rng.choice(_BIG_PARSES))
        if rng.random() < 0.1:
            rare = int(rng.integers(40))
            parse = f"[IN:FIND{rare} [SL:TAG{rare} y ] ]"
        # odd ids, so the even ones lie between the store's ids
        corpus.append(Exemplar(2 * i + 1, " ".join(words), parse))
    return corpus, build_store(corpus)


@pytest.fixture
def prefilter_spy(monkeypatch):
    """How often each prefilter narrowed the candidates and how often
    not: ``"grid"`` counts ``_reaching``, ``"bound"`` ``_template_reach``."""
    taken = {"grid": {True: 0, False: 0}, "bound": {True: 0, False: 0}}
    for name, attr in (("grid", "_reaching"), ("bound", "_template_reach")):
        def spy(*args, _prefilter=getattr(retrieval, attr), _taken=taken[name]):
            candidates = _prefilter(*args)
            _taken[candidates is not None] += 1
            return candidates

        monkeypatch.setattr(retrieval, attr, spy)
    return taken


class TestOracleEquivalence:
    def test_against_brute_force_above_the_prefilter_size(self, big_corpus,
                                                          prefilter_spy):
        corpus, store = big_corpus
        query, preliminary = "tag7 red blue", _RARE_PRELIMINARY
        exclude = {corpus[3].exemplar_id, 0, -5}
        # the grid narrows the head at alpha 0, the template bound at 0.5
        for alpha, grid, bound in ((0.0, 1, 0), (0.5, 1, 1)):
            expected = [r for r in brute_force_ranking(
                corpus, query, alpha, preliminary) if r[0] not in exclude]
            hits = retrieve_topk(store, query, 10, alpha=alpha,
                                 preliminary=preliminary, exclude_ids=exclude)
            assert [(h.exemplar_id, h.relevance, h.input_sim, h.output_sim,
                     h.rank) for h in hits] == \
                [(*r, rank) for rank, r in enumerate(expected[:10])]
            assert prefilter_spy["grid"][True] == grid
            assert prefilter_spy["bound"][True] == bound

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_against_brute_force(self, alpha):
        rng = np.random.default_rng(42)
        exclude_rng = np.random.default_rng(41)
        for _ in range(20):
            corpus = make_random_corpus(rng, int(rng.integers(2, 50)))
            store = build_store(corpus)
            query = random_utterance(rng)
            preliminary = random_parse(rng)
            expected = brute_force_ranking(corpus, query, alpha, preliminary)
            hits = retrieve_topk(store, query, len(corpus), alpha=alpha,
                                 preliminary=preliminary)
            assert [h.exemplar_id for h in hits] == [r[0] for r in expected]
            assert [h.relevance for h in hits] == [r[1] for r in expected]

            # a random proper subset of the store plus ids it does not hold
            n_excluded = int(exclude_rng.integers(0, len(corpus)))
            exclude = set(exclude_rng.choice(len(corpus), size=n_excluded,
                                             replace=False).tolist())
            exclude |= {-1, len(corpus), len(corpus) + 7}
            kept = [r for r in expected if r[0] not in exclude]
            for got in (
                retrieve_topk(store, query, len(kept), alpha=alpha,
                              preliminary=preliminary, exclude_ids=exclude),
                retrieve_sampled(store, query, len(kept), 1.0, rng,
                                 alpha=alpha, preliminary=preliminary,
                                 exclude_ids=exclude),
            ):
                assert [h.exemplar_id for h in got] == [r[0] for r in kept]
                assert [h.relevance for h in got] == [r[1] for r in kept]
                assert [h.rank for h in got] == list(range(len(kept)))

    def test_alpha_list_equals_one_query_per_alpha(self):
        alphas = [0.0, 0.25, 0.5, 0.75, 1.0]
        rng = np.random.default_rng(44)
        for _ in range(20):
            corpus = make_random_corpus(rng, int(rng.integers(2, 50)))
            store = build_store(corpus)
            query, preliminary = random_utterance(rng), random_parse(rng)
            k = int(rng.integers(1, len(corpus)))
            # one id the store holds plus ids it does not
            exclude = {int(rng.integers(0, len(corpus))), -1, len(corpus),
                       len(corpus) + 7}
            got = retrieve_topk_alphas(store, query, k, alphas, preliminary,
                                       exclude)
            assert len(got) == len(alphas)
            for alpha, hits in zip(alphas, got):
                expected = [r for r in brute_force_ranking(
                    corpus, query, alpha, preliminary) if r[0] not in exclude]
                assert [(h.exemplar_id, h.relevance, h.input_sim,
                         h.output_sim, h.rank) for h in hits] == \
                    [(*r, rank) for rank, r in enumerate(expected[:k])]

    def test_alpha_zero_equals_input_only_ranking(self):
        rng = np.random.default_rng(43)
        corpus = make_random_corpus(rng, 40)
        store = build_store(corpus)
        query = random_utterance(rng)
        hits = retrieve_topk(store, query, 40, alpha=0.0,
                             preliminary=random_parse(rng))
        by_input = sorted(hits, key=lambda h: (-h.input_sim, h.exemplar_id))
        assert [h.exemplar_id for h in hits] == \
            [h.exemplar_id for h in by_input]

    def test_alpha_one_equals_output_only_ranking(self):
        rng = np.random.default_rng(44)
        corpus = make_random_corpus(rng, 40)
        store = build_store(corpus)
        hits = retrieve_topk(store, random_utterance(rng), 40, alpha=1.0,
                             preliminary=random_parse(rng))
        by_output = sorted(hits, key=lambda h: (-h.output_sim, h.exemplar_id))
        assert [h.exemplar_id for h in hits] == \
            [h.exemplar_id for h in by_output]


def _parse_of(intent, slots, nested, lower):
    """A parse of ``intent`` over ``slots`` in the order given; the slot
    at position ``nested`` holds an inner intent."""
    parts = [f"[{slot} {'[IN:INNER w ]' if j == nested else 'v'} ]"
             for j, slot in enumerate(slots)]
    text = " ".join([f"[{intent}", *parts, "]"])
    return text.lower() if lower else text


@st.composite
def template_corpora(draw):
    """Exemplars over a few label multisets, each written with its slots
    in any order, in either case, and with the nested intent under any
    of its slots; plus a query and a preliminary."""
    bases = draw(st.lists(st.tuples(
        st.sampled_from(["IN:A", "IN:B"]),
        st.lists(st.sampled_from(["SL:X", "SL:Y", "SL:Z"]), max_size=3),
        st.booleans()), min_size=1, max_size=4))
    exemplars = []
    for i in range(draw(st.integers(1, 25))):
        intent, slots, nested = draw(st.sampled_from(bases))
        slots = draw(st.permutations(slots))
        at = draw(st.integers(0, len(slots) - 1)) if nested and slots else None
        exemplars.append(Exemplar(
            i, " ".join(draw(st.lists(st.sampled_from(_TIE_WORDS),
                                      min_size=1, max_size=3))),
            _parse_of(intent, slots, at, draw(st.booleans()))))
    query = draw(st.sampled_from(_TIE_WORDS + ("zzz",)))
    intent, slots, nested = draw(st.sampled_from(
        bases + [("IN:UNSEEN", ["SL:X"], False)]))
    preliminary = _parse_of(intent, slots, 0 if nested else None,
                            draw(st.booleans()))
    return exemplars, query, preliminary


class TestTemplateOutputIndex:
    """The output channel, fitted once per label multiset, against the
    per-exemplar fit of ``oracles.fit_tfidf`` over each exemplar's labels."""

    @staticmethod
    def oracle_sims(exemplars, query, preliminary):
        """(input_sim, output_sim) per exemplar, in id order."""
        in_transform, in_docs = fit_tfidf(
            [text_tokens(e.utterance) for e in exemplars])
        out_transform, out_docs = fit_tfidf([list(e.labels)
                                             for e in exemplars])
        q_in = in_transform(text_tokens(query))
        q_out = out_transform(prediction_label_tokens(preliminary))
        return [(sparse_dot(q_in, d_in), sparse_dot(q_out, d_out))
                for d_in, d_out in zip(in_docs, out_docs)]

    def check(self, exemplars, query, preliminary):
        store = build_store(exemplars)
        _, out_sims = exemplar_output_sims(store, query, preliminary)
        assert store._channels[1].n_docs == \
            len({tuple(sorted(e.labels)) for e in exemplars})
        sims = self.oracle_sims(exemplars, query, preliminary)
        assert out_sims.tobytes() == np.array([s for _, s in sims]).tobytes()
        for alpha in (0.0, 0.5, 1.0):
            expected = sorted(
                ((e.exemplar_id, (1.0 - alpha) * s_in + alpha * s_out, s_in,
                  s_out) for e, (s_in, s_out) in zip(exemplars, sims)),
                key=lambda r: (-r[1], r[0]))
            hits = retrieve_topk(store, query, len(exemplars), alpha=alpha,
                                 preliminary=preliminary)
            assert [(h.exemplar_id, h.relevance, h.input_sim, h.output_sim)
                    for h in hits] == expected

    @settings(max_examples=150, deadline=None)
    @given(case=template_corpora())
    def test_matches_per_exemplar_fit(self, case):
        self.check(*case)

    def test_single_template_store(self):
        # one multiset in three orders, lower case and nested
        exemplars = [
            Exemplar(0, "red", "[IN:A [SL:X v ] [SL:Y [IN:B w ] ] ]"),
            Exemplar(1, "blue red", "[in:a [sl:y [in:b w ] ] [sl:x v ] ]"),
            Exemplar(2, "green", "[IN:A [SL:Y v ] [SL:X [in:b w ] ] ]"),
        ]
        for preliminary in ("[IN:A [SL:X v ] ]", "[in:b w ]", "[IN:C w ]"):
            self.check(exemplars, "blue", preliminary)
        store = build_store(exemplars)
        store.build()
        assert store._template_of.tolist() == [0, 0, 0]


# few distinct utterances and parses, so relevances tie in large groups
_TIE_WORDS = ("red", "blue red", "green", "blue blue")
_TIE_PARSES = ("[IN:A x ]", "[IN:B [SL:S x ] ]", "[IN:A [SL:T y ] ]")


class TestHeadSelection:
    """Partial selection, by rounds and by partition, against the full
    sort it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_full_sort(self, data):
        n = data.draw(st.integers(1, 40))
        # one utterance and one parse throughout: every relevance ties
        tied = data.draw(st.booleans())
        words = _TIE_WORDS[:1] if tied else _TIE_WORDS
        parses = _TIE_PARSES[:1] if tied else _TIE_PARSES
        store = build_store([
            Exemplar(2 * i + 1, data.draw(st.sampled_from(words)),
                     data.draw(st.sampled_from(parses)))
            for i in range(n)])
        # "zzz" and IN:UNSEEN are out of vocabulary: every relevance is 0
        query = data.draw(st.sampled_from(["red", "blue green", "zzz"]))
        alpha = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        preliminary = data.draw(st.sampled_from(
            ["[IN:A [SL:S x ] ]", "[IN:UNSEEN z ]"]))
        in_sims, out_sims = exemplar_output_sims(store, query, preliminary)
        relevance = (1.0 - alpha) * in_sims + alpha * out_sims
        ids = np.array([e.exemplar_id for e in store.exemplars])
        order = np.lexsort((ids, -relevance))

        # depths below, at and above the deepest head taken by rounds
        rounds = retrieval._ROUNDS_MAX_DEPTH
        k = min(n, data.draw(st.integers(rounds - 1, rounds + 1)
                             | st.integers(1, n)))
        # exclusions inside, at and just past the k-th place, elsewhere,
        # and ids the store does not hold
        near = data.draw(st.sets(st.integers(-2, 2)))
        anywhere = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
        positions = {k - 1 + d for d in near if 0 <= k - 1 + d < n} | anywhere
        exclude = {int(ids[order[q]]) for q in positions}
        exclude |= data.draw(st.sets(st.sampled_from([0, 2, 2 * n + 2, -3])))
        expected = [i for i in order if ids[i] not in exclude]
        if not expected:
            return
        k = min(k, len(expected))
        if data.draw(st.booleans()):
            k = len(expected)

        def as_rows(hits):
            return [(h.exemplar_id, h.relevance, h.input_sim, h.output_sim,
                     h.rank) for h in hits]

        def reference(rank):
            i = expected[rank]
            return (ids[i], relevance[i], in_sims[i], out_sims[i], rank)

        got = retrieve_topk(store, query, k, alpha=alpha,
                            preliminary=preliminary, exclude_ids=exclude)
        assert as_rows(got) == [reference(r) for r in range(k)]

        # a small p sends picks deep into the ordering
        p = data.draw(st.sampled_from([0.02, 0.1, 0.5]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        picks = sample_geometric_ranks(len(expected), k, p,
                                       np.random.default_rng(seed))
        got = retrieve_sampled(store, query, k, p, np.random.default_rng(seed),
                               alpha=alpha, preliminary=preliminary,
                               exclude_ids=exclude)
        assert as_rows(got) == [reference(r) for r in picks]


    @pytest.mark.parametrize("narrowing, query, preliminary, alpha", [
        # an all-zero query: neither prefilter narrows
        (None, "zzz", None, 0.0),
        ("grid", "tag7 red", None, 0.0),
        ("bound", "tag7 red blue", _RARE_PRELIMINARY, 0.5),
    ])
    @pytest.mark.parametrize("extra, held, path", [
        (-9, 2, "_head_by_rounds"), (0, 0, "_head_by_rounds"),
        (0, 2, "_head_by_rounds"), (1, 0, "_head_by_partition"),
        (1, 2, "_head_by_partition")])
    def test_each_path_is_taken(self, big_corpus, prefilter_spy, monkeypatch,
                                narrowing, query, preliminary, alpha, extra,
                                held, path):
        """Rounds take a head at most _ROUNDS_MAX_DEPTH deep, the partition
        a deeper one, after either prefilter or none. The head taken is k
        deep plus one rank per excluded id the store holds, so two such
        ids take a k of _ROUNDS_MAX_DEPTH - 1 past the rounds."""
        taken = []
        for name in ("_head_by_rounds", "_head_by_partition"):
            def spy(*args, _head=getattr(retrieval, name), _name=name):
                taken.append(_name)
                return _head(*args)

            monkeypatch.setattr(retrieval, name, spy)
        store = big_corpus[1]
        k = retrieval._ROUNDS_MAX_DEPTH + extra - held
        full = TestPrefilteredSelection.full_order(store, query, preliminary,
                                                   alpha)
        # the k-th id and one just past it, or none, and an id the store
        # lacks, which deepens no head
        exclude = {full[k - 1][0], full[k][0]} if held else set()
        exclude.add(0)
        hits = retrieve_topk(store, query, k, alpha, preliminary, exclude)
        kept = [r for r in full if r[0] not in exclude]
        assert [(h.exemplar_id, h.relevance, h.input_sim, h.output_sim,
                 h.rank) for h in hits] == \
            [(*r, rank) for rank, r in enumerate(kept[:k])]
        assert taken == [path]
        assert {name for name, counts in prefilter_spy.items()
                if counts[True]} == ({narrowing} if narrowing else set())


class TestPrefilteredSelection:
    """Selection on a store large enough to prefilter, against the full
    ``np.lexsort`` order."""

    QUERIES = ["tag7 red", "violet tag7", "tag12 tag250", "blue", "zzz"]
    ALPHAS = [0.0, 0.5, 1.0]

    @staticmethod
    def full_order(store, query, preliminary, alpha):
        in_sims, out_sims = exemplar_output_sims(store, query, preliminary)
        if out_sims is None:
            out_sims = np.zeros_like(in_sims)
        relevance = (1.0 - alpha) * in_sims + alpha * out_sims
        ids = store._ids
        return [(int(ids[i]), relevance[i], in_sims[i], out_sims[i])
                for i in np.lexsort((ids, -relevance))]

    def test_matches_full_sort(self, big_corpus, prefilter_spy):
        corpus, store = big_corpus
        columns = len(store) // 64
        rng = np.random.default_rng(3)
        for query in self.QUERIES:
            for preliminary, alphas in (("[IN:SHOW [SL:TAG y ] ]",
                                         self.ALPHAS),
                                        (_RARE_PRELIMINARY, self.ALPHAS),
                                        (None, [0.0])):
                orders = [self.full_order(store, query, preliminary, alpha)
                          for alpha in alphas]
                for k in (1, 2, 3, 5, 17, 64, columns - 3, columns,
                          columns + 5):
                    # ids at and next to the k-th place of the first alpha,
                    # one anywhere, and ids the store lacks
                    near = {orders[0][q][0] for q in range(k - 2, k + 2)
                            if q >= 0}
                    anywhere = corpus[int(rng.integers(len(corpus)))]
                    for exclude in (set(), near | {anywhere.exemplar_id},
                                    {0, 2, -1, 10**12}):
                        got = retrieve_topk_alphas(store, query, k, alphas,
                                                   preliminary, exclude)
                        for hits, order in zip(got, orders):
                            kept = [r for r in order if r[0] not in exclude]
                            assert [(h.exemplar_id, h.relevance, h.input_sim,
                                     h.output_sim, h.rank) for h in hits] == \
                                [(*r, rank) for rank, r in enumerate(kept[:k])]
        # each prefilter narrowed some heads and not others: broad ties,
        # the all-zero query and k past the column count defeat the grid;
        # alpha 0 and the common templates defeat the template bound
        for taken in prefilter_spy.values():
            assert taken[True] > 0 and taken[False] > 0


def as_bits(hits):
    """Hits as rows whose floats compare bit for bit."""
    return [(h.exemplar_id, h.relevance.hex(), h.input_sim.hex(),
             h.output_sim.hex(), h.rank) for h in hits]


# templates that share some labels and not others
_BOUND_PARSES = tuple(
    " ".join([f"[{intent}", *(f"[{slot} v ]" for slot in slots), "]"])
    for intent in ("IN:A", "IN:B", "IN:C")
    for slots in ((), ("SL:X",), ("SL:Y",), ("SL:X", "SL:Y"), ("SL:Z",)))


@st.composite
def bound_cases(draw):
    """A store whose utterances tie in large groups, over one common
    template and a few rare ones with ids interleaved, a query (``zzz``
    matches nothing), a preliminary (``IN:UNSEEN`` shares no label), up
    to three alphas, exclusions of ids the store holds and lacks, k
    (mostly below 5, so the bound can narrow the head), and a seed for
    ``retrieve_sampled``."""
    parses = draw(st.lists(st.sampled_from(_BOUND_PARSES), min_size=1,
                           max_size=12, unique=True))
    sizes = [draw(st.integers(12, 60) | st.integers(1, 11))] + \
        [draw(st.integers(1, 4)) for _ in parses[1:]]
    by_id = draw(st.permutations(
        [parse for parse, size in zip(parses, sizes) for _ in range(size)]))
    exemplars = [Exemplar(2 * i + 1, draw(st.sampled_from(_TIE_WORDS)), parse)
                 for i, parse in enumerate(by_id)]
    query = draw(st.sampled_from(("zzz",) + _TIE_WORDS))
    preliminary = draw(st.sampled_from(
        [*parses[1:], "[IN:UNSEEN x ]", "[IN:A [SL:Z v ] [SL:X v ] ]",
         parses[0]]))
    alphas = draw(st.lists(st.sampled_from([1.0, 0.75, 0.5, 0.25, 0.0]),
                           min_size=1, max_size=3))
    ids = [e.exemplar_id for e in exemplars]
    exclude = draw(st.sets(st.sampled_from(ids + [0, 2, -3, 10**12]),
                           max_size=4))
    available = len(ids) - len(exclude & set(ids))
    assume(available > 0)
    k = draw(st.integers(1, min(available, 4)) | st.integers(1, available))
    return (exemplars, query, preliminary, alphas, exclude, k,
            draw(st.integers(0, 2**32 - 1)))


class TestTemplateBound:
    """Selection through the template bound, bit for bit against the dense
    ``_mix`` and ``_candidate_order`` over the whole store. The stores are
    small, so ``_PREFILTER_MIN_STORE`` is lowered for the bound to apply."""

    @staticmethod
    def dense(store, query, preliminary, alpha, exclude):
        """Every exemplar the exclusions leave, best first."""
        in_sims, out_sims = store.similarities(query, preliminary)
        ids, template_of = store._ids, store._template_of
        relevance = retrieval._mix(in_sims, out_sims, template_of, alpha)
        order = retrieval._candidate_order(relevance, len(store))
        head = [i for i in order if ids[i] not in exclude]
        return [(int(ids[i]), float(relevance[i]).hex(),
                 float(in_sims[i]).hex(),
                 float(out_sims[template_of[i]]).hex(), rank)
                for rank, i in enumerate(head)]

    def check(self, exemplars, query, preliminary, alphas, exclude, k, seed):
        """Compare both selectors; return the path each alpha took."""
        store = build_store(exemplars)
        store.build()
        available = len(store) - sum(i in store for i in exclude)
        full = [self.dense(store, query, preliminary, alpha, exclude)
                for alpha in alphas]
        paths = []
        reach = retrieval._template_reach

        def spy(*args):
            members = reach(*args)
            paths.append("dense" if members is None else "bounded")
            return members

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(retrieval, "_PREFILTER_MIN_STORE", 1)
            mp.setattr(retrieval, "_template_reach", spy)
            got = retrieve_topk_alphas(store, query, k, alphas, preliminary,
                                       exclude)
            assert [as_bits(hits) for hits in got] == \
                [order[:k] for order in full]
            # a small p sends draws deep into the ordering
            picks = sample_geometric_ranks(available, k, 0.1,
                                           np.random.default_rng(seed))
            sampled = retrieve_sampled(store, query, k, 0.1,
                                       np.random.default_rng(seed), alphas[-1],
                                       preliminary, exclude)
            assert as_bits(sampled) == [full[-1][rank] for rank in picks]
        return paths[:len(alphas)]

    @settings(max_examples=200, deadline=None)
    @given(case=bound_cases())
    def test_matches_dense_selection(self, case):
        self.check(*case)

    # forty exemplars: five templates with IN:A, two exemplars each, their
    # ids interleaved and their utterances tying across templates, then
    # thirty of IN:B. SL:X and SL:Y are equally frequent, so "[IN:A ]"
    # ties the templates that add one of them.
    PATH_STORE = [Exemplar(2 * i + 1, _TIE_WORDS[i % 3],
                           _BOUND_PARSES[i % 5 if i < 10 else 5])
                  for i in range(40)]

    @pytest.mark.parametrize("query, preliminary, alpha, k, exclude, path", [
        # only the best template reaches its own low
        ("red", "[IN:A [SL:X v ] ]", 1.0, 2, set(), "bounded"),
        # k deeper than the best template: the threshold is the need-th
        # largest low, need counting k and the excluded ids the store
        # holds; SL:X and SL:Y tie at the boundary across templates
        ("red", "[IN:A ]", 1.0, 4, set(), "bounded"),
        ("red", "[IN:A [SL:X v ] ]", 1.0, 3, {13, 4}, "bounded"),
        # an all-zero input query
        ("zzz", "[IN:A [SL:Y v ] ]", 0.75, 1, {1, 0}, "bounded"),
        # alpha 0
        ("red", "[IN:A [SL:X v ] ]", 0.0, 2, set(), "dense"),
        # a preliminary sharing no label with the store: the threshold is 0
        ("red", "[IN:UNSEEN v ]", 0.5, 2, set(), "dense"),
        # the best template holds fewer than k, and k exceeds the templates
        ("red", "[IN:A [SL:X v ] ]", 1.0, 7, set(), "dense"),
        # the reached template holds more than a quarter of the store
        ("red", "[IN:B v ]", 0.5, 2, set(), "dense"),
    ])
    def test_each_path_is_taken(self, query, preliminary, alpha, k, exclude,
                                path):
        assert self.check(self.PATH_STORE, query, preliminary, [alpha], exclude,
                          k, 0) == [path]


class TestAlphaZeroAliasing:
    """At alpha 0 the relevance is the input similarity array itself, so
    nothing may write into it."""

    @pytest.mark.parametrize("large", [False, True])
    def test_relevance_is_input_sim_bit_for_bit(self, big_corpus, trace_store,
                                                large):
        store = big_corpus[1] if large else trace_store
        query = "tag7 red" if large else "send a message to the group"
        exclude = {h.exemplar_id for h in retrieve_topk(store, query, 3)[1:]}
        calls = [(None, [0.0]), ("[IN:SHOW [SL:TAG y ] ]", [0.0, 0.5, 0.0])]
        for preliminary, alphas in calls:
            first = retrieve_topk_alphas(store, query, 5, alphas, preliminary,
                                         exclude)
            assert retrieve_topk_alphas(store, query, 5, alphas, preliminary,
                                        exclude) == first
            for alpha, hits in zip(alphas, first):
                assert not {h.exemplar_id for h in hits} & exclude
                if alpha != 0.0:
                    continue
                for hit in hits:
                    assert np.float64(hit.relevance).tobytes() == \
                        np.float64(hit.input_sim).tobytes()
                    if preliminary is None:
                        assert hit.output_sim == 0.0


class TestGeometricSampling:
    def test_p_one_always_takes_the_head(self):
        rng = np.random.default_rng(0)
        assert sample_geometric_ranks(5, 3, 1.0, rng) == [0, 1, 2]

    def test_k_equals_n_is_a_permutation(self):
        rng = np.random.default_rng(1)
        picks = sample_geometric_ranks(10, 10, 0.3, rng)
        assert sorted(picks) == list(range(10))

    def test_bad_p(self):
        rng = np.random.default_rng(2)
        for p in (0.0, -0.5, float("nan"), True, "0.5"):
            with pytest.raises(ConfigError):
                sample_geometric_ranks(5, 1, p, rng)

    def test_too_many_draws(self):
        rng = np.random.default_rng(3)
        with pytest.raises(GandrError,
                           match="^requested 4 draws from 3 candidates$"):
            sample_geometric_ranks(3, 4, 0.5, rng)

    def test_first_draw_distribution_roughly_geometric(self):
        rng = np.random.default_rng(4)
        n, p, draws = 6, 0.4, 20000
        counts = np.zeros(n)
        for _ in range(draws):
            counts[sample_geometric_ranks(n, 1, p, rng)[0]] += 1
        for r, q in enumerate(truncated_geometric_pmf(p, n)):
            sigma = np.sqrt(draws * q * (1 - q))
            assert abs(counts[r] - draws * q) <= 4 * sigma

    def test_seeded_draws_reproduce(self):
        a = sample_geometric_ranks(20, 5, 0.3, np.random.default_rng(99))
        b = sample_geometric_ranks(20, 5, 0.3, np.random.default_rng(99))
        assert a == b

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           k_share=st.floats(0.0, 1.0),
           p=st.one_of(st.floats(0.01, 0.99), st.sampled_from([1.0, 3.0])))
    def test_matches_list_pop_reference(self, seed, n, k_share, p):
        def list_pop(n, k, p, rng):
            # draw the r-th rank still available and pop it from the list
            remaining = list(range(n))
            picks = []
            for _ in range(k):
                m = len(remaining)
                r = 0
                if p < 1.0:
                    z = -math.expm1(m * math.log1p(-p))
                    r = math.ceil(math.log1p(-rng.random() * z)
                                  / math.log1p(-p)) - 1
                    r = min(max(r, 0), m - 1)
                picks.append(remaining.pop(r))
            return picks

        k = max(1, round(k_share * n))      # k_share 1.0 draws every rank
        assert sample_geometric_ranks(n, k, p, np.random.default_rng(seed)) \
            == list_pop(n, k, p, np.random.default_rng(seed))


class TestRetrieveSampled:
    def test_rank_field_refers_to_full_ordering(self, trace_store):
        rng = np.random.default_rng(5)
        ordered = retrieve_topk(trace_store, "send a message", 8)
        by_rank = {h.rank: h.exemplar_id for h in ordered}
        for _ in range(50):
            hits = retrieve_sampled(trace_store, "send a message", 3, 0.5, rng)
            for hit in hits:
                assert by_rank[hit.rank] == hit.exemplar_id

    def test_draws_are_distinct(self, trace_store):
        rng = np.random.default_rng(6)
        for _ in range(50):
            hits = retrieve_sampled(trace_store, "call the group", 4, 0.5, rng)
            ids = [h.exemplar_id for h in hits]
            assert len(set(ids)) == len(ids)

    def test_exclusion_applies_before_ranking(self, trace_store):
        rng = np.random.default_rng(7)
        hits = retrieve_sampled(trace_store, "call the group", 7, 0.5, rng,
                                exclude_ids={4})
        assert 4 not in {h.exemplar_id for h in hits}

    def test_same_seed_same_sample(self, trace_store):
        a = retrieve_sampled(trace_store, "call the group", 4, 0.5,
                             np.random.default_rng(8))
        b = retrieve_sampled(trace_store, "call the group", 4, 0.5,
                             np.random.default_rng(8))
        assert a == b
