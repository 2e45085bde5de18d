"""Acceptance gate: ten checks, one printed verdict line each.

Each test registers an ``acceptance 03 PASS: ...`` (or FAIL) line; the
terminal-summary hook in conftest.py prints them after the run, where
pytest's output capture cannot swallow them. Expected values come from
the independent oracles in oracles.py or from hand computation; they
are frozen here, not derived from the code under test.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    TRACE_EXEMPLARS,
    TRACE_GOLD,
    TRACE_PRELIMINARY,
    TRACE_QUERY,
    make_random_corpus,
    random_parse,
    random_utterance,
)
from oracles import brute_force_ranking, truncated_geometric_pmf

from gandr.cli import main
from gandr.data_io import Fraction, apply_split
from gandr.errors import MalformedParse
from gandr.evaluation import evaluate, exact_match
from gandr.generator import (
    OracleLookupGenerator,
    RecordingGenerator,
    ReplayGenerator,
    StaticGenerator,
)
from gandr.pipeline import PipelineConfig, PipelineMode, Sample, run_pipeline
from gandr.retrieval import (
    Exemplar,
    ExemplarStore,
    retrieve_sampled,
    retrieve_topk,
)
from gandr.top_parse import parse_top, serialize


_VERDICTS: dict[int, str] = {}


def verdict_lines() -> list[str]:
    """Consumed by the pytest_terminal_summary hook in conftest.py."""
    return [line for _, line in sorted(_VERDICTS.items())]


@contextmanager
def verdict(number: int, name: str):
    _VERDICTS[number] = f"acceptance {number:02d} FAIL: {name}"
    yield
    _VERDICTS[number] = f"acceptance {number:02d} PASS: {name}"


def build_store(exemplars) -> ExemplarStore:
    store = ExemplarStore()
    for exemplar in exemplars:
        store.add(exemplar)
    return store


def test_01_retrieval_matches_brute_force_oracle():
    with verdict(1, "retrieve_topk equals exhaustive scorer on 200 corpora"):
        rng = np.random.default_rng(20260101)
        started = time.monotonic()
        for _ in range(200):
            vocab = int(rng.integers(3, 51))
            exemplars = make_random_corpus(rng, int(rng.integers(2, 51)),
                                           vocab_size=vocab)
            store = build_store(exemplars)
            query = random_utterance(rng, vocab_size=vocab)
            preliminary = random_parse(rng)
            k = int(rng.integers(1, len(exemplars) + 1))
            for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
                prelim = preliminary if alpha > 0 else None
                hits = retrieve_topk(store, query, k, alpha=alpha,
                                     preliminary=prelim)
                expected = brute_force_ranking(exemplars, query, alpha,
                                               preliminary=prelim)[:k]
                assert [h.exemplar_id for h in hits] == [e[0] for e in expected]
                assert [h.rank for h in hits] == list(range(k))
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_02_geometric_rank_frequencies(trace_store):
    with verdict(2, "100k sampled draws match truncated geometric to 3 sigma"):
        p, n_draws = 0.5, 100_000
        rng = np.random.default_rng(24601)
        counts = [0] * len(trace_store)
        for _ in range(n_draws):
            (hit,) = retrieve_sampled(trace_store, TRACE_QUERY, k=1, p=p,
                                      rng=rng)
            counts[hit.rank] += 1
        pmf = truncated_geometric_pmf(p, len(trace_store))
        for rank, probability in enumerate(pmf):
            expected = n_draws * probability
            sigma = math.sqrt(n_draws * probability * (1.0 - probability))
            assert abs(counts[rank] - expected) <= 3.0 * sigma, (
                f"rank {rank}: saw {counts[rank]}, expected {expected:.1f}"
                f" +- {3 * sigma:.1f}")


def test_03_alpha_endpoints_reduce_to_single_channel_rankings():
    with verdict(3, "alpha 0/1 reduce to input-only/output-only rankings"):
        rng = np.random.default_rng(30303)
        exemplars = make_random_corpus(rng, 100, vocab_size=30)
        store = build_store(exemplars)
        n = len(exemplars)
        for _ in range(100):
            query = random_utterance(rng, vocab_size=30)
            preliminary = random_parse(rng)
            scored = brute_force_ranking(exemplars, query, 0.5,
                                         preliminary=preliminary)
            by_input = [e[0] for e in
                        sorted(scored, key=lambda e: (-e[2], e[0]))]
            by_output = [e[0] for e in
                         sorted(scored, key=lambda e: (-e[3], e[0]))]
            got_input = [h.exemplar_id
                         for h in retrieve_topk(store, query, n, alpha=0.0)]
            got_output = [h.exemplar_id
                          for h in retrieve_topk(store, query, n, alpha=1.0,
                                                 preliminary=preliminary)]
            assert got_input == by_input
            assert got_output == by_output


def _template_fixture():
    """20 exemplars, 20 queries with hand-derived recall@k.

    Word pools are disjoint per sample, so cosine behavior is fully
    predictable: 12 queries repeat an exemplar verbatim (hit at rank 0),
    4 queries share three words with a wrong-template decoy and one word
    with a right-template exemplar (hit at rank 1, miss at rank 0), and
    4 queries have golds whose template is absent (never a hit). So
    recall@1 = 12/20, recall@2 = recall@4 = 16/20.
    """
    exemplars, samples = [], []
    eid = 0
    for i in range(12):
        words = f"alpha{i}a alpha{i}b alpha{i}c"
        parse = f"[IN:EASY_{i} [SL:VAL_{i} x ] ]"
        exemplars.append(Exemplar(eid, words, parse))
        samples.append(Sample(100 + i, words, gold=parse))
        eid += 1
    for j in range(4):
        decoy_words = f"beta{j}a beta{j}b beta{j}c"
        exemplars.append(Exemplar(eid, decoy_words, f"[IN:DECOY_{j} ]"))
        eid += 1
        near_parse = f"[IN:NEAR_{j} [SL:PIECE_{j} y ] ]"
        exemplars.append(Exemplar(eid, f"gamma{j}", near_parse))
        eid += 1
        samples.append(Sample(200 + j, f"{decoy_words} gamma{j}",
                              gold=near_parse))
    for j in range(4):
        samples.append(Sample(300 + j, f"delta{j}x delta{j}y",
                              gold=f"[IN:NOWHERE_{j} ]"))
    return build_store(exemplars), samples


def test_04_template_recall_matches_hand_computation(trace_store):
    with verdict(4, "recall@4 on the hand fixture; recall@k monotone"):
        store, samples = _template_fixture()
        stub = StaticGenerator("[IN:EASY_0 ]")
        records = run_pipeline(
            store, samples, stub, stub,
            PipelineConfig(mode=PipelineMode.INPUT_ONLY, k=4))
        assert evaluate(records, store, k=4).template_recall == 16 / 20
        hand_recalls = [
            evaluate(records, store, k=k).template_recall for k in (1, 2, 4)]
        assert hand_recalls == [12 / 20, 16 / 20, 16 / 20]
        assert hand_recalls == sorted(hand_recalls)

        # second fixture: the call/message trace corpus under two passes
        samples = [Sample(i, e.utterance, gold=e.parse)
                   for i, e in enumerate(trace_store.exemplars)]
        oracle = OracleLookupGenerator.from_exemplars(trace_store.exemplars)
        records = run_pipeline(trace_store, samples, oracle, oracle,
                               PipelineConfig(alpha=0.75, k=4))
        trace_recalls = [
            evaluate(records, trace_store, k=k).template_recall
            for k in (1, 2, 4)]
        assert trace_recalls == sorted(trace_recalls)


def test_05_group_call_trace_replays_exactly(tmp_path, trace_store):
    with verdict(5, "replayed group-call trace: pass-2 ranks and final match"):
        samples = [Sample(0, TRACE_QUERY, gold=TRACE_GOLD)]
        config = PipelineConfig(alpha=0.75, k=4)
        pass1_log = tmp_path / "pass1.jsonl"
        pass2_log = tmp_path / "pass2.jsonl"
        run_pipeline(trace_store, samples,
                     RecordingGenerator(StaticGenerator(TRACE_PRELIMINARY),
                                        pass1_log),
                     RecordingGenerator(StaticGenerator(TRACE_GOLD),
                                        pass2_log),
                     config)

        (record,) = run_pipeline(trace_store, samples,
                                 ReplayGenerator.from_path(pass1_log),
                                 ReplayGenerator.from_path(pass2_log),
                                 config)
        assert record.status == "ok"
        assert record.preliminary == TRACE_PRELIMINARY

        # the four group-slot exemplars fill the top of pass 2, the
        # call-template one first; ranks are exact, not just ordered
        assert [h.exemplar_id for h in record.pass2_retrievals] == [4, 5, 6, 7]
        assert [h.rank for h in record.pass2_retrievals] == [0, 1, 2, 3]

        full = retrieve_topk(trace_store, TRACE_QUERY, len(trace_store),
                             alpha=0.75, preliminary=TRACE_PRELIMINARY)
        rank_of = {h.exemplar_id: h.rank for h in full}
        distractor = 0  # "musicals in windham this weekend"
        assert all(rank_of[gid] < rank_of[distractor] for gid in (4, 5, 6, 7))

        assert exact_match(record.final, TRACE_GOLD)


_FUZZ_LABELS = ("CALL", "MESSAGE", "TIMER", "WEATHER", "EVENT", "REMINDER")
_FUZZ_WORDS = ("play", "the", "group", "call", "now", "weather", "in",
               "paris", "friday", "music")


def _random_parse_text(rng, depth=0) -> str:
    prefix = "IN:" if depth % 2 == 0 else "SL:"
    label = (prefix + _FUZZ_LABELS[int(rng.integers(len(_FUZZ_LABELS)))]
             + f"_{int(rng.integers(5))}")
    parts = ["[" + label]
    for _ in range(int(rng.integers(1, 4))):
        if depth < 4 and rng.random() < 0.35:
            parts.append(_random_parse_text(rng, depth + 1))
        else:
            for _ in range(int(rng.integers(1, 4))):
                parts.append(_FUZZ_WORDS[int(rng.integers(len(_FUZZ_WORDS)))])
    parts.append("]")
    return " ".join(parts)


def test_06_round_trip_and_fuzz():
    with verdict(6, "10k parses round-trip; 10k byte strings never crash"):
        rng = np.random.default_rng(60606)
        for _ in range(10_000):
            text = _random_parse_text(rng)
            assert serialize(parse_top(text)) == text
        for _ in range(10_000):
            length = int(rng.integers(0, 60))
            blob = rng.integers(0, 256, size=length,
                                dtype=np.uint8).tobytes().decode("latin-1")
            try:
                parse_top(blob)
            except MalformedParse:
                pass


@pytest.fixture
def cli_corpus(tmp_path):
    """TSV dataset + indexed store + recorded replay logs for the CLI."""
    data = tmp_path / "data.tsv"
    rows = [f"{e.utterance}\t{e.parse}" for e in TRACE_EXEMPLARS]
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    store = tmp_path / "trace.store"
    assert main(["index", "--data", str(data), "--out", str(store)]) == 0
    pass1_log = tmp_path / "pass1.jsonl"
    pass2_log = tmp_path / "pass2.jsonl"
    assert main(["run", "--store", str(store), "--data", str(data),
                 "--final-endpoint", f"oracle:{data}",
                 "--record-preliminary", str(pass1_log),
                 "--record-final", str(pass2_log),
                 "--out", str(tmp_path / "seed-run.jsonl")]) == 0
    return data, store, pass1_log, pass2_log


def test_07_replayed_runs_are_byte_identical(tmp_path, cli_corpus):
    with verdict(7, "two replayed cmd_run invocations agree byte for byte"):
        data, store, pass1_log, pass2_log = cli_corpus
        outputs = []
        for name in ("one.jsonl", "two.jsonl"):
            out = tmp_path / name
            code = main(["run", "--store", str(store), "--data", str(data),
                         "--preliminary-endpoint", f"replay:{pass1_log}",
                         "--final-endpoint", f"replay:{pass2_log}",
                         "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 0


def test_08_fraction_split_arithmetic():
    with verdict(8, "fraction 0.25 of 15667 rows selects exactly 3916"):
        items = list(range(15667))
        chosen = apply_split(items, Fraction(0.25), seed=3)
        assert len(chosen) == 3916
        again = apply_split(items, Fraction(0.25), seed=3)
        assert chosen == again


def test_09_oracle_preliminary_guarantees_template_hits():
    with verdict(9, "oracle preliminary at alpha=1 always hits the template"):
        exemplars, samples = [], []
        eid = 0
        for t in range(10):
            for copy in range(3):
                parse = f"[IN:KIND_{t} [SL:PART_{t} value{copy} ] ]"
                utterance = f"item{eid} filler words {t} {copy}"
                exemplars.append(Exemplar(eid, utterance, parse))
                samples.append(Sample(eid, utterance, gold=parse))
                eid += 1
        store = build_store(exemplars)
        oracle = OracleLookupGenerator.from_exemplars(exemplars)
        records = run_pipeline(store, samples, oracle, StaticGenerator("x"),
                               PipelineConfig(alpha=1.0, k=4))
        assert evaluate(records, store, k=4).template_recall == 1.0


def test_10_cli_smoke_end_to_end(tmp_path):
    with verdict(10, "index/run/eval/sweep finish on 50 samples in 30s"):
        started = time.monotonic()
        data = tmp_path / "smoke.tsv"
        rows = []
        for i in range(50):
            t = i % 10
            rows.append(f"smoke{i} please handle item number {i}"
                        f"\t[IN:SMOKE_{t} [SL:BIT_{t} thing{i} ] ]")
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")

        store = tmp_path / "smoke.store"
        assert main(["index", "--data", str(data), "--out", str(store)]) == 0

        pass1_log = tmp_path / "pass1.jsonl"
        pass2_log = tmp_path / "pass2.jsonl"
        recorded = tmp_path / "recorded.jsonl"
        assert main(["run", "--store", str(store), "--data", str(data),
                     "--final-endpoint", f"oracle:{data}",
                     "--record-preliminary", str(pass1_log),
                     "--record-final", str(pass2_log),
                     "--out", str(recorded)]) == 0

        records = tmp_path / "records.jsonl"
        assert main(["run", "--store", str(store), "--data", str(data),
                     "--preliminary-endpoint", f"replay:{pass1_log}",
                     "--final-endpoint", f"replay:{pass2_log}",
                     "--out", str(records)]) == 0

        assert main(["eval", "--store", str(store), "--records",
                     str(records), "--json"]) == 0

        sweep = tmp_path / "sweep.tsv"
        assert main(["sweep", "--store", str(store), "--data", str(data),
                     "--final-endpoint", f"oracle:{data}",
                     "--axis", "alpha", "--values", "0,0.25,0.5,0.75,0.9,1.0",
                     "--seeds", "0", "--out", str(sweep)]) == 0
        lines = sweep.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "value\tseed\texact_match\ttemplate_recall"
        assert len(lines) == 8  # comment + header + one row per alpha

        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
