import zlib
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    TRACE_GOLD,
    TRACE_QUERY,
    make_random_corpus,
    random_parse,
    random_utterance,
)
from gandr import evaluation, retrieval
from gandr.augment import AugmentedInput
from gandr.data_io import Fraction, apply_split
from gandr.errors import ConfigError, GandrError, GenerationError
from gandr.evaluation import (
    SweepAxis,
    SweepRow,
    evaluate,
    exact_match,
    format_sweep_tsv,
    normalize_for_match,
    run_sweep,
)
from gandr.generator import (
    Generator,
    OracleLookupGenerator,
    ReplayGenerator,
    StaticGenerator,
)
from gandr.pipeline import (
    FailurePolicy,
    PipelineConfig,
    PipelineMode,
    PredictionRecord,
    Sample,
    run_pipeline,
    run_pipeline_alphas,
)
from gandr.retrieval import Exemplar, ExemplarStore, ScoredExemplar
from gandr.top_parse import parse_labels, template
from oracles import label_tokens


class TestExactMatch:
    def test_whitespace_is_normalized(self):
        assert exact_match("[IN:A  x ]", "[IN:A x ]")
        assert exact_match("  [IN:A x ]  ", "[IN:A x ]")
        assert exact_match("[IN:A\tx ]", "[IN:A x ]")

    def test_case_is_preserved_by_default(self):
        assert not exact_match("[in:a x ]", "[IN:A x ]")
        assert exact_match("[in:a x ]", "[IN:A x ]", casefold=True)

    def test_content_differences_fail(self):
        assert not exact_match("[IN:A x ]", "[IN:A y ]")

    def test_missing_prediction_fails(self):
        assert not exact_match(None, "[IN:A x ]")

    def test_normalize_for_match(self):
        assert normalize_for_match("  a\t b\n c ") == "a b c"


def fake_record(gold, retrieved_ids, sample_id=0, final=None, domain=None,
                use_pass2=True):
    hits = tuple(
        ScoredExemplar(exemplar_id=i, relevance=1.0 - 0.1 * r, input_sim=0.0,
                       output_sim=0.0, rank=r)
        for r, i in enumerate(retrieved_ids))
    aug = AugmentedInput(text="q", query="q", exemplar_ids=tuple(retrieved_ids),
                         truncated=False)
    return PredictionRecord(
        sample_id=sample_id, query="q", gold=gold,
        pass1_retrievals=hits if not use_pass2 else (),
        pass1_augmented=aug,
        preliminary="[IN:X y ]" if use_pass2 else None,
        pass2_retrievals=hits if use_pass2 else None,
        pass2_augmented=aug if use_pass2 else None,
        final=final, status="ok" if final is not None else "pass2_failed",
        domain_tag=domain)


def template_hit(record, store, **kwargs) -> bool:
    """One record's template hit, read off a one-record evaluation."""
    recall = evaluate([record], store, **kwargs).template_recall
    assert recall in (0.0, 1.0)
    return recall == 1.0


class TestTemplateHit:
    # trace_store: ids 5,6,7 share the SEND_MESSAGE/GROUP template;
    # id 4 is CREATE_CALL/GROUP

    def test_hit_somewhere_in_top_k(self, trace_store):
        record = fake_record("[IN:SEND_MESSAGE [SL:GROUP books ] ]", [0, 3, 6])
        assert template_hit(record, trace_store)
        assert template_hit(record, trace_store, k=3)

    def test_k_cutoff_excludes_later_hits(self, trace_store):
        record = fake_record("[IN:SEND_MESSAGE [SL:GROUP books ] ]", [0, 3, 6])
        assert not template_hit(record, trace_store, k=2)

    def test_slot_values_do_not_matter(self, trace_store):
        record = fake_record("[IN:CREATE_CALL [SL:GROUP anything at all ] ]",
                             [4])
        assert template_hit(record, trace_store, k=1)

    def test_multiset_vs_set(self, trace_store):
        # gold has a doubled GROUP slot; no store parse doubles it
        record = fake_record(
            "[IN:SEND_MESSAGE [SL:GROUP a ] [SL:GROUP b ] ]", [5, 6, 7])
        assert not template_hit(record, trace_store)
        assert template_hit(record, trace_store, multiset=False)

    @pytest.mark.parametrize("gold, parse, as_multiset, as_set", [
        ("[IN:SEND_MESSAGE [SL:GROUP a ] [SL:GROUP b ] ]",
         "[IN:SEND_MESSAGE [SL:GROUP c ] ]", False, True),
        ("[IN:SEND_MESSAGE [SL:GROUP a ] ]",
         "[IN:SEND_MESSAGE [SL:GROUP c ] [SL:GROUP d ] ]", False, True),
        ("[IN:SEND_MESSAGE [SL:GROUP a ] [SL:GROUP b ] ]",
         "[IN:SEND_MESSAGE ]", False, False),
        ("[IN:SEND_MESSAGE [SL:GROUP a ] [SL:GROUP b ] ]",
         "[IN:SEND_MESSAGE [SL:GROUP c ] [SL:GROUP d ] ]", True, True),
    ])
    def test_multiset_and_set_match_either_way(self, gold, parse,
                                               as_multiset, as_set):
        store = ExemplarStore()
        store.add(Exemplar(0, "send it", parse))
        record = fake_record(gold, [0])
        assert template_hit(record, store) is as_multiset
        assert template_hit(record, store, multiset=False) is as_set

    def test_pass1_used_when_single_pass(self, trace_store):
        record = fake_record("[IN:SEND_MESSAGE [SL:GROUP books ] ]", [6],
                             use_pass2=False)
        assert template_hit(record, trace_store)

    def test_missing_gold(self, trace_store):
        record = fake_record(None, [4])
        with pytest.raises(GandrError, match="^sample 0 has no gold parse$"):
            evaluate([record], trace_store)


class TestEvaluate:
    def test_aggregates_and_domains(self, trace_store):
        records = [
            fake_record("[IN:SEND_MESSAGE [SL:GROUP x ] ]", [5],
                        final="[IN:SEND_MESSAGE [SL:GROUP x ] ]",
                        domain="messaging", sample_id=1),
            fake_record("[IN:SEND_MESSAGE [SL:GROUP y ] ]", [0],
                        final="[IN:WRONG x ]", domain="messaging",
                        sample_id=2),
            fake_record("[IN:CREATE_CALL [SL:GROUP z ] ]", [4],
                        final=None, domain="calling", sample_id=3),
        ]
        report = evaluate(records, trace_store)
        assert report.n == 3
        assert report.exact_match == pytest.approx(1 / 3)
        assert report.template_recall == pytest.approx(2 / 3)
        assert report.n_failed == 1
        assert set(report.per_domain) == {"messaging", "calling"}
        assert report.per_domain["messaging"].n == 2
        assert report.per_domain["messaging"].exact_match == pytest.approx(0.5)
        assert report.per_domain["calling"].template_recall == 1.0

    def test_failed_samples_count_against_both_metrics(self, trace_store):
        records = [fake_record("[IN:CREATE_CALL [SL:GROUP z ] ]", [0],
                               final=None)]
        report = evaluate(records, trace_store)
        assert report.exact_match == 0.0
        assert report.template_recall == 0.0

    def test_empty_records_rejected(self, trace_store):
        with pytest.raises(ConfigError):
            evaluate([], trace_store)

    def test_missing_gold_rejected(self, trace_store):
        with pytest.raises(GandrError,
                           match="^sample 0 has no gold parse$") as info:
            evaluate([fake_record(None, [0], final="x")], trace_store)
        assert not isinstance(info.value, ConfigError)

    @pytest.mark.parametrize("k, message", [
        (0, "recall k must be at least 1, got 0"),
        (True, "recall k must be an integer, got True"),
        (2.5, "recall k must be an integer, got 2.5"),
        ("3", "recall k must be an integer, got '3'"),
    ])
    def test_bad_recall_k_rejected(self, trace_store, k, message):
        record = fake_record("[IN:CREATE_CALL [SL:GROUP z ] ]", [4])
        with pytest.raises(ConfigError) as caught:
            evaluate([record], trace_store, k=k)
        assert str(caught.value) == message

    def test_recall_non_decreasing_in_k(self, trace_store):
        samples = [Sample(i, e.utterance, gold=e.parse)
                   for i, e in enumerate(trace_store.exemplars)]
        oracle = OracleLookupGenerator.from_exemplars(trace_store.exemplars)
        records = run_pipeline(trace_store, samples, oracle, oracle,
                               PipelineConfig(alpha=0.75, k=4))
        recalls = [evaluate(records, trace_store, k=k).template_recall
                   for k in (1, 2, 4)]
        assert recalls == sorted(recalls)

    def test_exemplar_templates_come_from_kept_labels(self, trace_store,
                                                      monkeypatch):
        samples = [Sample(i, e.utterance, gold=e.parse)
                   for i, e in enumerate(trace_store.exemplars)]
        samples.append(Sample(8, "send the group a note",
                              gold="[IN:SEND_MESSAGE [SL:GROUP a ] [SL:GROUP b ] ]"))
        preliminary = StaticGenerator("[IN:SEND_MESSAGE [SL:GROUP x ] ]")
        final = StaticGenerator("[IN:SEND_MESSAGE [SL:GROUP x ] ]")
        records = run_pipeline(trace_store, samples, preliminary, final,
                               PipelineConfig(alpha=0.5, k=4))

        def reference_recall(k, multiset):
            """Template recall with every exemplar parse parsed again."""
            hits = 0
            for record in records:
                gold = template(label_tokens(record.gold))
                for h in record.pass2_retrievals[:k]:
                    found = template(label_tokens(
                        trace_store.get(h.exemplar_id).parse))
                    if (found == gold if multiset
                            else set(found) == set(gold)):
                        hits += 1
                        break
            return hits / len(records)

        calls = []

        def counting_parse_labels(text):
            calls.append(text)
            return parse_labels(text)

        monkeypatch.setattr(evaluation, "parse_labels", counting_parse_labels)
        for k in (1, 2, 4):
            for multiset in (True, False):
                calls.clear()
                report = evaluate(records, trace_store, k=k, multiset=multiset)
                assert report.template_recall == reference_recall(k, multiset)
                assert calls == [record.gold for record in records]


class TestSweep:
    def run(self, store, axis, values, seeds, **kwargs):
        samples = [Sample(i, e.utterance, gold=e.parse)
                   for i, e in enumerate(store.exemplars)]
        oracle = OracleLookupGenerator.from_exemplars(store.exemplars)
        return run_sweep(store, samples, oracle, oracle,
                         PipelineConfig(k=2), axis, values, seeds, **kwargs)

    def test_grid_shape_and_labels(self, trace_store):
        rows = self.run(trace_store, SweepAxis.ALPHA, [0.0, 0.75], [0, 1])
        assert [(r.value, r.seed) for r in rows] == [
            (0.0, 0), (0.0, 1), (0.75, 0), (0.75, 1)]
        # oracle answers are the gold parses, so exact match is perfect
        assert all(r.exact_match == 1.0 for r in rows)

    def test_k_axis(self, trace_store):
        rows = self.run(trace_store, SweepAxis.K, [1, 2, 4], [0])
        assert [r.value for r in rows] == [1, 2, 4]
        recalls = [r.template_recall for r in rows]
        assert recalls == sorted(recalls)

    def test_sample_fraction_is_seed_deterministic(self, trace_store):
        a = self.run(trace_store, SweepAxis.ALPHA, [0.0], [7],
                     sample_fraction=0.5)
        b = self.run(trace_store, SweepAxis.ALPHA, [0.0], [7],
                     sample_fraction=0.5)
        assert a == b

    @pytest.mark.parametrize("fraction, message", [
        (True, "sample fraction must be a number, got True"),
        ("0.5", "sample fraction must be a number, got '0.5'"),
        ([0.5], "sample fraction must be a number, got [0.5]"),
        (0, "sample fraction must lie in (0, 1], got 0"),
        (1.5, "sample fraction must lie in (0, 1], got 1.5"),
        (float("nan"), "sample fraction must lie in (0, 1], got nan"),
    ])
    def test_bad_sample_fraction_rejected(self, trace_store, fraction,
                                          message):
        with pytest.raises(ConfigError) as caught:
            self.run(trace_store, SweepAxis.ALPHA, [0.0], [0],
                     sample_fraction=fraction)
        assert str(caught.value) == message

    @pytest.mark.parametrize("axis, value, message", [
        (SweepAxis.K, 2.5, "k must be a positive integer, got 2.5"),
        (SweepAxis.K, True, "k must be a positive integer, got True"),
        (SweepAxis.K, "3", "k must be a positive integer, got '3'"),
        (SweepAxis.K, np.int64(3),
         "k must be a positive integer, got np.int64(3)"),
        (SweepAxis.ALPHA, True, "alpha must be a number, got True"),
        (SweepAxis.ALPHA, "0.5", "alpha must be a number, got '0.5'"),
    ])
    def test_axis_values_checked_as_given(self, trace_store, axis, value,
                                          message):
        """A value is checked as given, not converted first, and before
        any sample runs."""
        class Counting(StaticGenerator):
            def generate(self, inputs):
                calls.append(len(inputs))
                return super().generate(inputs)

        calls = []
        endpoint = Counting(TRACE_GOLD)
        samples = [Sample(0, TRACE_QUERY, gold=TRACE_GOLD)]
        with pytest.raises(ConfigError) as caught:
            run_sweep(trace_store, samples, endpoint, endpoint,
                      PipelineConfig(k=2), axis, [1, value], [0])
        assert str(caught.value) == message
        assert calls == []

    def test_numpy_float_alpha_runs(self, trace_store):
        rows = self.run(trace_store, SweepAxis.ALPHA, [np.float64(0.5)], [0])
        assert [r.value for r in rows] == [0.5]

    def test_empty_grid_rejected(self, trace_store):
        with pytest.raises(ConfigError):
            self.run(trace_store, SweepAxis.ALPHA, [], [0])
        with pytest.raises(ConfigError):
            self.run(trace_store, SweepAxis.ALPHA, [0.5], [])


def reference_sweep(store, samples, preliminary, final, base_config, axis,
                    values, seeds, recall_k=None, sample_fraction=None):
    """The sweep as one ``run_pipeline`` per (value, seed)."""
    rows = []
    for value in values:
        if axis is SweepAxis.ALPHA:
            config = replace(base_config, alpha=float(value))
        else:
            config = replace(base_config, k=int(value))
        for seed in seeds:
            chosen = samples
            if sample_fraction is not None:
                chosen = apply_split(samples, Fraction(sample_fraction), seed)
            records = run_pipeline(store, chosen, preliminary, final, config)
            report = evaluate(records, store, k=recall_k)
            rows.append(SweepRow(value=value, seed=int(seed),
                                 exact_match=report.exact_match,
                                 template_recall=report.template_recall))
    return rows


class PromptHash(Generator):
    """Answers each prompt with a parse picked by a hash of the whole
    prompt, so the answer follows the exemplars the prompt carries."""

    def __init__(self, parses, gold_by_query=None):
        self.parses = list(parses)
        self.gold = gold_by_query or {}
        self.batches = []

    def answer(self, prompt):
        h = zlib.crc32(prompt.encode("utf-8", "surrogatepass"))
        query = prompt.split(" || ", 1)[0]
        if query in self.gold and h % 3:
            return self.gold[query]
        return self.parses[h % len(self.parses)]

    def generate(self, inputs):
        self.batches.append(list(inputs))
        return [self.answer(prompt) for prompt in inputs]


class TestSweepEqualsPerRunLoop:
    """``run_sweep`` runs each (k, sample) first pass once; its rows must
    be those of one ``run_pipeline`` per (value, seed)."""

    AXES = {SweepAxis.ALPHA: [0.0, 0.3, 0.75, 1.0], SweepAxis.K: [1, 3, 5]}
    SEEDS = [0, 1, 2]

    @pytest.fixture
    def world(self):
        rng = np.random.default_rng(11)
        store = ExemplarStore()
        for exemplar in make_random_corpus(rng, 30):
            store.add(exemplar)
        samples = [Sample(100 + i, random_utterance(rng), gold=random_parse(rng),
                          domain="d" if i % 2 else None) for i in range(12)]
        parses = sorted({e.parse for e in store.exemplars})
        gold = {s.utterance: s.gold for s in samples}
        return store, samples, parses, gold

    def replay_missing(self, store, samples, parses, axis, values):
        """A replay log of every first-pass prompt but those of three
        samples."""
        capture = PromptHash(parses)
        ks = values if axis is SweepAxis.K else [4]
        for k in ks:
            run_pipeline(store, samples, capture, capture,
                         PipelineConfig(mode=PipelineMode.INPUT_ONLY, k=k,
                                        budget=60))
        missing = {samples[i].utterance for i in (1, 4, 9)}
        return ReplayGenerator({
            prompt: capture.answer(prompt)
            for batch in capture.batches for prompt in batch
            if prompt.split(" || ", 1)[0] not in missing})

    @pytest.mark.parametrize("mode", list(PipelineMode))
    @pytest.mark.parametrize("axis", list(SweepAxis))
    @pytest.mark.parametrize("sample_fraction", [None, 0.5])
    @pytest.mark.parametrize("replay", [False, True])
    def test_rows_and_tsv_equal_the_loop(self, world, mode, axis,
                                         sample_fraction, replay):
        store, samples, parses, gold = world
        values = self.AXES[axis]
        preliminary = (self.replay_missing(store, samples, parses, axis, values)
                       if replay else PromptHash(parses, gold))
        final = PromptHash(parses, gold)
        config = PipelineConfig(mode=mode, k=4, budget=60,
                                failure_policy=FailurePolicy.SKIP_SAMPLE)
        args = (store, samples, preliminary, final, config, axis, values,
                self.SEEDS)
        kwargs = {"recall_k": 2, "sample_fraction": sample_fraction}
        want = reference_sweep(*args, **kwargs)
        got = run_sweep(*args, **kwargs)
        assert got == want
        assert format_sweep_tsv(got, "note") == format_sweep_tsv(want, "note")
        if replay and mode is not PipelineMode.INPUT_ONLY:
            assert min(r.exact_match for r in got) < 1.0

    @pytest.mark.parametrize("axis", list(SweepAxis))
    def test_each_first_pass_prompt_reaches_the_endpoint_once(
            self, world, monkeypatch, axis):
        store, samples, parses, gold = world
        values = self.AXES[axis]
        preliminary = PromptHash(parses, gold)
        scored = []

        def counting(self, query, preliminary):
            scored.append(query)
            return similarities(self, query, preliminary)

        similarities = retrieval.ExemplarStore.similarities
        monkeypatch.setattr(retrieval.ExemplarStore, "similarities", counting)
        run_sweep(store, samples, preliminary, PromptHash(parses, gold),
                  PipelineConfig(k=4), axis, values, self.SEEDS,
                  sample_fraction=0.5)
        union = set()
        for seed in self.SEEDS:
            union |= set(apply_split(range(len(samples)), Fraction(0.5), seed))
        passes = len(values) if axis is SweepAxis.K else 1
        prompts = [p for batch in preliminary.batches for p in batch]
        assert len(prompts) == len(set(prompts)) == passes * len(union)
        assert len(preliminary.batches) == passes
        # the first pass scores each sample once, the second pass once more
        assert len(scored) == 2 * passes * len(union)

    @pytest.mark.parametrize("axis", list(SweepAxis))
    def test_each_gold_is_parsed_once(self, world, monkeypatch, axis):
        store, samples, parses, gold = world
        parsed = []

        def counting_parse_labels(text):
            parsed.append(text)
            return parse_labels(text)

        monkeypatch.setattr(evaluation, "parse_labels", counting_parse_labels)
        args = (store, samples, PromptHash(parses, gold),
                PromptHash(parses, gold), PipelineConfig(k=4), axis,
                self.AXES[axis], self.SEEDS)
        rows = run_sweep(*args, sample_fraction=0.5)
        union = set()
        for seed in self.SEEDS:
            union |= set(apply_split(range(len(samples)), Fraction(0.5), seed))
        assert sorted(parsed) == sorted({samples[i].gold for i in union})
        monkeypatch.undo()
        assert rows == reference_sweep(*args, sample_fraction=0.5)

    @pytest.mark.parametrize("failing", ["preliminary", "final"])
    def test_abort_propagates_a_generation_error(self, world, failing):
        store, samples, parses, gold = world

        class FailOnce(PromptHash):
            def generate(self, inputs):
                if any(samples[3].utterance in p for p in inputs):
                    raise GenerationError("endpoint down")
                return super().generate(inputs)

        endpoints = {"preliminary": PromptHash(parses, gold),
                     "final": PromptHash(parses, gold)}
        endpoints[failing] = FailOnce(parses, gold)
        with pytest.raises(GenerationError, match="endpoint down"):
            run_sweep(store, samples, endpoints["preliminary"],
                      endpoints["final"],
                      PipelineConfig(failure_policy=FailurePolicy.ABORT),
                      SweepAxis.ALPHA, [0.0, 0.5], self.SEEDS)


class FailFor(PromptHash):
    """A ``PromptHash`` whose batches fail when they hold a prompt for one
    of the ``failing`` queries."""

    def __init__(self, parses, gold_by_query, failing):
        super().__init__(parses, gold_by_query)
        self.failing = set(failing)

    def generate(self, inputs):
        if any(p.split(" || ", 1)[0] in self.failing for p in inputs):
            raise GenerationError("endpoint down")
        return super().generate(inputs)


class TestRunPipelineAlphas:
    """``run_pipeline_alphas`` gives ``run_pipeline``'s records at each
    alpha from one first pass."""

    ALPHAS = [0.75, 0.0, 0.3, 0.75, 1.0, 0.3]

    @pytest.fixture
    def world(self, monkeypatch):
        rng = np.random.default_rng(5)
        store = ExemplarStore()
        for exemplar in make_random_corpus(rng, 30):
            store.add(exemplar)
        samples = [Sample(100 + i, random_utterance(rng),
                          gold=random_parse(rng)) for i in range(12)]
        parses = sorted({e.parse for e in store.exemplars})
        gold = {s.utterance: s.gold for s in samples}
        scored = []
        similarities = retrieval.ExemplarStore.similarities

        def counting(self, query, preliminary):
            scored.append(query)
            return similarities(self, query, preliminary)

        monkeypatch.setattr(retrieval.ExemplarStore, "similarities", counting)
        return store, samples, parses, gold, scored

    @pytest.mark.parametrize("failing", [None, "preliminary", "final"])
    def test_each_alpha_gets_the_records_of_run_pipeline(self, world,
                                                         failing):
        store, samples, parses, gold, _ = world

        def endpoint(role):
            if role == failing:
                return FailFor(parses, gold,
                               [samples[i].utterance for i in (2, 7)])
            return PromptHash(parses, gold)

        config = PipelineConfig(k=3, budget=60)
        got = run_pipeline_alphas(store, samples, endpoint("preliminary"),
                                  endpoint("final"), config, self.ALPHAS)
        want = [run_pipeline(store, samples, endpoint("preliminary"),
                             endpoint("final"), replace(config, alpha=alpha))
                for alpha in self.ALPHAS]
        assert got == want
        failed = {None: "ok", "preliminary": "pass1_failed",
                  "final": "pass2_failed"}[failing]
        assert {r.status for records in got for r in records} == \
            {"ok", failed}

    def test_repeated_alphas_run_once(self, world):
        store, samples, parses, gold, scored = world
        preliminary, final = PromptHash(parses, gold), PromptHash(parses, gold)
        got = run_pipeline_alphas(store, samples, preliminary, final,
                                  PipelineConfig(k=3), self.ALPHAS)
        assert got[0] == got[3] and got[2] == got[5]
        [prompts] = preliminary.batches
        assert len(prompts) == len(set(prompts)) == len(samples)
        distinct = len(set(self.ALPHAS))
        assert len(final.batches) == distinct
        assert all(len(batch) == len(samples) for batch in final.batches)
        # the first pass scores each sample once, the second pass once more
        assert len(scored) == 2 * len(samples)

    def test_input_only_gives_every_alpha_the_same_records(self, world):
        store, samples, parses, gold, scored = world
        preliminary, final = PromptHash(parses, gold), PromptHash(parses, gold)
        config = PipelineConfig(mode=PipelineMode.INPUT_ONLY, k=3)
        got = run_pipeline_alphas(store, samples, preliminary, final, config,
                                  [0.0, 0.5, 1.0])
        want = run_pipeline(store, samples, PromptHash(parses, gold),
                            PromptHash(parses, gold), config)
        assert got == [want] * 3
        assert all(r.pass2_retrievals is None for r in want)
        assert preliminary.batches == [] and len(final.batches) == 1

    @pytest.mark.parametrize("alpha", [1.5, -0.1, float("nan")])
    def test_bad_alpha_raises_before_any_generation(self, world, alpha):
        store, samples, parses, gold, scored = world
        preliminary, final = PromptHash(parses, gold), PromptHash(parses, gold)
        with pytest.raises(ConfigError, match="alpha must lie in"):
            run_pipeline_alphas(store, samples, preliminary, final,
                                PipelineConfig(), [0.5, alpha])
        assert preliminary.batches == final.batches == scored == []

    def test_repeated_k_values_run_once(self, world):
        store, samples, parses, gold, _ = world
        preliminary = PromptHash(parses, gold)
        args = (store, samples, preliminary, PromptHash(parses, gold),
                PipelineConfig(k=3), SweepAxis.K, [3, 3, 5, 3], [0])
        rows = run_sweep(*args)
        assert len(preliminary.batches) == 2
        for batch in preliminary.batches:
            assert len(batch) == len(set(batch)) == len(samples)
        assert rows == reference_sweep(*args)

    def test_k_larger_than_the_store_raises_before_any_generation(self,
                                                                  world):
        store, samples, parses, gold, scored = world
        preliminary = PromptHash(parses, gold)
        with pytest.raises(GandrError, match="requested 31 exemplars "
                                                "but only 30 are available"):
            run_sweep(store, samples, preliminary, preliminary,
                      PipelineConfig(), SweepAxis.K, [2, 31], [0])
        assert preliminary.batches == scored == []


def test_format_sweep_tsv():
    rows = [SweepRow(0.75, 0, 0.5, 2 / 3), SweepRow(1.0, 1, 1.0, 1.0)]
    text = format_sweep_tsv(rows, "alpha grid")
    lines = text.splitlines()
    assert lines[0] == "# config: alpha grid"
    assert lines[1] == "value\tseed\texact_match\ttemplate_recall"
    assert lines[2] == "0.75\t0\t0.500000\t0.666667"
    assert lines[3] == "1.0\t1\t1.000000\t1.000000"
    assert text.endswith("\n")


def test_format_sweep_tsv_without_note():
    text = format_sweep_tsv([SweepRow(1, 0, 0.0, 0.0)])
    assert text.splitlines()[0] == "value\tseed\texact_match\ttemplate_recall"
