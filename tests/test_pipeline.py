import re

import pytest

from gandr.errors import ConfigError, GandrError, GenerationError
from gandr.generator import (
    Generator,
    OracleLookupGenerator,
    RecordingGenerator,
    ReplayGenerator,
    StaticGenerator,
)
from gandr.pipeline import (
    STATUS_OK,
    STATUS_PASS1_FAILED,
    STATUS_PASS2_FAILED,
    FailurePolicy,
    PipelineConfig,
    PipelineMode,
    PredictionRecord,
    Sample,
    emit_training_pairs,
    run_pipeline,
)
from gandr.retrieval import retrieve_topk
from gandr.top_parse import parse_labels, template

import numpy as np

from conftest import (
    TRACE_GOLD,
    TRACE_PRELIMINARY,
    TRACE_QUERY,
    Miscounting,
)


class CapturingGenerator(Generator):
    def __init__(self, output="[IN:X y ]"):
        self.output = output
        self.batches = []

    def generate(self, inputs):
        self.batches.append(list(inputs))
        return [self.output for _ in inputs]


class FailOnMarker(Generator):
    """Raises for any prompt whose query part contains the marker."""

    def __init__(self, marker):
        self.marker = marker

    def generate(self, inputs):
        for text in inputs:
            if self.marker in text.split(" || ", 1)[0]:
                raise GenerationError(f"refusing prompt with {self.marker!r}")
        return ["[IN:OK fine ]" for _ in inputs]


def samples_for(store):
    return [Sample(100 + e.exemplar_id, e.utterance, gold=e.parse,
                   domain=e.domain) for e in store.exemplars]


class TestGandrMode:
    def test_full_two_pass_records(self, tiny_store):
        samples = samples_for(tiny_store)
        preliminary = CapturingGenerator("[IN:PLAY_MUSIC [SL:MUSIC_GENRE jazz ] ]")
        final = CapturingGenerator("[IN:FINAL x ]")
        config = PipelineConfig(alpha=0.75, k=2)
        records = run_pipeline(tiny_store, samples, preliminary, final, config)

        assert [r.sample_id for r in records] == [s.sample_id for s in samples]
        for record, sample in zip(records, samples):
            assert record.status == STATUS_OK
            assert record.query == sample.utterance
            assert record.gold == sample.gold
            assert record.domain_tag == sample.domain
            assert len(record.pass1_retrievals) == 2
            assert len(record.pass2_retrievals) == 2
            assert record.preliminary == preliminary.output
            assert record.final == "[IN:FINAL x ]"
            assert record.pass1_augmented.text.startswith(sample.utterance)
            assert record.pass2_augmented.text.startswith(sample.utterance)
        # one batched call per pass
        assert len(preliminary.batches) == 1
        assert len(final.batches) == 1

    def test_pass1_is_input_only_and_pass2_mixes(self, trace_store):
        sample = Sample(0, TRACE_QUERY, gold=TRACE_GOLD)
        records = run_pipeline(
            trace_store, [sample], StaticGenerator(TRACE_PRELIMINARY),
            StaticGenerator(TRACE_GOLD), PipelineConfig(alpha=0.75, k=4))
        record = records[0]
        expected1 = retrieve_topk(trace_store, TRACE_QUERY, 4, alpha=0.0)
        expected2 = retrieve_topk(trace_store, TRACE_QUERY, 4, alpha=0.75,
                                  preliminary=TRACE_PRELIMINARY)
        assert list(record.pass1_retrievals) == expected1
        assert list(record.pass2_retrievals) == expected2

    def test_empty_samples(self, tiny_store):
        assert run_pipeline(tiny_store, [], StaticGenerator("x"),
                            StaticGenerator("y")) == []


class TestInputOnlyMode:
    def test_single_pass_uses_final_generator(self, tiny_store):
        samples = samples_for(tiny_store)
        preliminary = CapturingGenerator()
        final = CapturingGenerator("[IN:ONLY x ]")
        config = PipelineConfig(mode=PipelineMode.INPUT_ONLY, k=2)
        records = run_pipeline(tiny_store, samples, preliminary, final, config)
        assert preliminary.batches == []
        assert len(final.batches) == 1
        for record in records:
            assert record.preliminary is None
            assert record.pass2_retrievals is None
            assert record.pass2_augmented is None
            assert record.final == "[IN:ONLY x ]"
            assert record.status == STATUS_OK

    def test_alpha_is_pinned_to_zero(self):
        config = PipelineConfig(mode=PipelineMode.INPUT_ONLY, alpha=0.9)
        assert config.pass2_alpha == 0.0


class TestOutputOnlyMode:
    """Output-only retrieval is GANDR at alpha 1."""

    def test_alpha_is_pinned_to_one(self, trace_store):
        config = PipelineConfig(mode=PipelineMode.GANDR, alpha=1.0, k=4)
        assert config.pass2_alpha == 1.0
        sample = Sample(0, TRACE_QUERY, gold=TRACE_GOLD)
        record = run_pipeline(
            trace_store, [sample], StaticGenerator(TRACE_PRELIMINARY),
            StaticGenerator(TRACE_GOLD), config)[0]
        expected = retrieve_topk(trace_store, TRACE_QUERY, 4, alpha=1.0,
                                 preliminary=TRACE_PRELIMINARY)
        assert list(record.pass2_retrievals) == expected


class TestFailurePolicy:
    def test_skip_isolates_first_pass_failures(self, tiny_store):
        samples = samples_for(tiny_store)
        # "jazz" appears in the utterances of exemplars 0 and 3
        preliminary = FailOnMarker("jazz")
        final = CapturingGenerator("[IN:F x ]")
        records = run_pipeline(tiny_store, samples, preliminary, final,
                               PipelineConfig(k=2))
        statuses = {r.sample_id: r.status for r in records}
        assert statuses[100] == STATUS_PASS1_FAILED
        assert statuses[103] == STATUS_PASS1_FAILED
        assert statuses[101] == STATUS_OK
        assert statuses[102] == STATUS_OK
        failed = next(r for r in records if r.sample_id == 100)
        assert failed.preliminary is None
        assert failed.final is None
        assert failed.pass2_retrievals is None
        assert len(failed.pass1_retrievals) == 2

    def test_skip_isolates_second_pass_failures(self, tiny_store):
        samples = samples_for(tiny_store)
        preliminary = StaticGenerator("[IN:CREATE_CALL [SL:CONTACT mother ] ]")
        final = FailOnMarker("alarm")
        records = run_pipeline(tiny_store, samples, preliminary, final,
                               PipelineConfig(k=2, alpha=0.5))
        failed = next(r for r in records if r.sample_id == 102)
        assert failed.status == STATUS_PASS2_FAILED
        assert failed.preliminary is not None
        assert failed.final is None
        assert failed.pass2_retrievals is not None
        ok = [r for r in records if r.sample_id != 102]
        assert all(r.status == STATUS_OK for r in ok)

    def test_abort_propagates(self, tiny_store):
        samples = samples_for(tiny_store)
        config = PipelineConfig(k=2, failure_policy=FailurePolicy.ABORT)
        with pytest.raises(GenerationError):
            run_pipeline(tiny_store, samples, FailOnMarker("jazz"),
                         StaticGenerator("x"), config)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_a_miscounting_generator_is_a_generation_error(self, tiny_store,
                                                           extra):
        samples = samples_for(tiny_store)
        config = PipelineConfig(k=2, failure_policy=FailurePolicy.ABORT)
        with pytest.raises(GenerationError, match=f"^generator returned "
                           f"{4 + extra} outputs for 4 prompts$"):
            run_pipeline(tiny_store, samples, Miscounting(extra),
                         StaticGenerator("x"), config)
        # skipped: the batch fails, then each prompt alone
        final = CapturingGenerator()
        records = run_pipeline(tiny_store, samples, Miscounting(extra), final,
                               PipelineConfig(k=2))
        assert [r.status for r in records] == [STATUS_PASS1_FAILED] * 4
        assert final.batches == []

    def test_a_recording_of_a_miscounting_generator_replays_as_it_ran(
            self, tiny_store, tmp_path):
        samples = samples_for(tiny_store)
        log = tmp_path / "preliminary.jsonl"
        log.touch()
        recorded = run_pipeline(tiny_store, samples,
                                RecordingGenerator(Miscounting(-1), log),
                                StaticGenerator("x"), PipelineConfig(k=2))
        replayed = run_pipeline(tiny_store, samples,
                                ReplayGenerator.from_path(log),
                                StaticGenerator("x"), PipelineConfig(k=2))
        assert [r.status for r in replayed] == \
            [r.status for r in recorded] == [STATUS_PASS1_FAILED] * 4


class TestConfigValidation:
    def test_bad_alpha(self):
        with pytest.raises(ConfigError):
            PipelineConfig(alpha=1.5)

    def test_bad_k(self):
        with pytest.raises(ConfigError):
            PipelineConfig(k=0)

    def test_bad_budget(self):
        with pytest.raises(ConfigError):
            PipelineConfig(budget=0)

    @pytest.mark.parametrize("budget", [-3, True, False, 2.5, "8"])
    def test_budget_follows_the_k_rule(self, budget):
        with pytest.raises(ConfigError,
                           match=f"budget must be a positive integer, "
                                 f"got {re.escape(repr(budget))}"):
            PipelineConfig(budget=budget)

    @pytest.mark.parametrize("budget", [None, 1, 40])
    def test_good_budget(self, budget):
        assert PipelineConfig(budget=budget).budget == budget


def test_record_dict_round_trip(tiny_store):
    samples = samples_for(tiny_store)
    records = run_pipeline(tiny_store, samples,
                           StaticGenerator("[IN:P x ]"),
                           StaticGenerator("[IN:F x ]"),
                           PipelineConfig(k=2))
    for record in records:
        assert PredictionRecord.from_dict(record.to_dict()) == record


class TestEmitTraining:
    def test_stage1_pairs(self, tiny_store):
        samples = [Sample(e.exemplar_id, e.utterance, gold=e.parse)
                   for e in tiny_store.exemplars]
        rng = np.random.default_rng(11)
        pairs = emit_training_pairs(tiny_store, samples, k=2, p=0.5, rng=rng)
        assert len(pairs) == len(samples)
        for pair, sample in zip(pairs, samples):
            assert pair.target == sample.gold
            assert pair.text.startswith(sample.utterance + " || ")
            assert sample.sample_id not in pair.exemplar_ids
            assert len(pair.exemplar_ids) == 2

    def test_keep_self(self, tiny_store):
        samples = [Sample(0, tiny_store.get(0).utterance,
                          gold=tiny_store.get(0).parse)]
        rng = np.random.default_rng(12)
        pairs = emit_training_pairs(tiny_store, samples, k=4, p=1.0, rng=rng,
                                    exclude_self=False)
        assert 0 in pairs[0].exemplar_ids

    def test_equal_id_with_other_content_is_kept(self, tiny_store):
        # a sample from another file, numbered by row, is not exemplar 0
        samples = [Sample(0, "wake me up at seven",
                          gold="[IN:CREATE_ALARM [SL:DATE_TIME seven ] ]")]
        rng = np.random.default_rng(18)
        pairs = emit_training_pairs(tiny_store, samples, k=4, p=1.0, rng=rng)
        assert sorted(pairs[0].exemplar_ids) == [0, 1, 2, 3]

    def test_same_seed_reproduces(self, tiny_store):
        samples = [Sample(e.exemplar_id, e.utterance, gold=e.parse)
                   for e in tiny_store.exemplars]
        a = emit_training_pairs(tiny_store, samples, k=2, p=0.3,
                                rng=np.random.default_rng(13))
        b = emit_training_pairs(tiny_store, samples, k=2, p=0.3,
                                rng=np.random.default_rng(13))
        assert a == b

    def test_missing_gold(self, tiny_store):
        rng = np.random.default_rng(14)
        with pytest.raises(GandrError, match="^sample 0 has no gold parse$"):
            emit_training_pairs(tiny_store, [Sample(0, "no gold here")],
                                k=2, p=0.5, rng=rng)

    def test_stage2_requires_preliminaries(self, tiny_store):
        samples = [Sample(0, "play jazz", gold="[IN:PLAY_MUSIC x ]")]
        rng = np.random.default_rng(15)
        message = "^sample 0 has no preliminary parse but alpha=0.75 needs one$"
        with pytest.raises(GandrError, match=message) as info:
            emit_training_pairs(tiny_store, samples, k=2, p=0.5, rng=rng,
                                alpha=0.75)
        assert not isinstance(info.value, ConfigError)
        with pytest.raises(GandrError, match=message):
            emit_training_pairs(tiny_store, samples, k=2, p=0.5, rng=rng,
                                alpha=0.75, preliminaries={99: "[IN:A x ]"})

    def test_stage2_degenerate_sampling_equals_topk(self, trace_store):
        # p >= 1 collapses rank sampling onto the deterministic head, so
        # the drawn exemplars must equal top-k under the same mixed scores
        sample = Sample(50, TRACE_QUERY, gold=TRACE_GOLD)
        rng = np.random.default_rng(16)
        pairs = emit_training_pairs(
            trace_store, [sample], k=4, p=1.0, rng=rng, alpha=1.0,
            preliminaries={50: TRACE_PRELIMINARY})
        expected = retrieve_topk(trace_store, TRACE_QUERY, 4, alpha=1.0,
                                 preliminary=TRACE_PRELIMINARY)
        assert list(pairs[0].exemplar_ids) == [h.exemplar_id for h in expected]

    def test_budget_applies(self, tiny_store):
        samples = [Sample(0, tiny_store.get(0).utterance,
                          gold=tiny_store.get(0).parse)]
        rng = np.random.default_rng(17)
        pairs = emit_training_pairs(tiny_store, samples, k=3, p=1.0, rng=rng,
                                    budget=4)
        assert pairs[0].exemplar_ids == ()
        assert pairs[0].text == tiny_store.get(0).utterance


def test_oracle_preliminary_feeds_pass2(tiny_store):
    """An oracle first pass re-retrieves with the gold structure."""
    samples = samples_for(tiny_store)
    oracle = OracleLookupGenerator.from_exemplars(tiny_store.exemplars)
    records = run_pipeline(tiny_store, samples, oracle,
                           StaticGenerator("[IN:F x ]"),
                           PipelineConfig(alpha=1.0, k=1))
    for record, sample in zip(records, samples):
        assert record.preliminary == sample.gold
        # with alpha=1 and the gold parse as preliminary, the top hit
        # shares the gold template (here: the sample's own store entry)
        top = tiny_store.get(record.pass2_retrievals[0].exemplar_id)
        assert template(parse_labels(top.parse)) == \
            template(parse_labels(sample.gold))
