import gc
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import any_text
from gandr.augment import AugmentedInput
from gandr.data_io import (
    FixedCount,
    Fraction,
    Full,
    LoadResult,
    apply_split,
    atomic_write_text,
    decode_json,
    load_dataset,
    load_store,
    parse_split_spec,
    read_jsonl,
    read_records,
    read_tsv,
    samples_from_exemplars,
    save_store,
    write_records,
    write_training_pairs,
)
from gandr.errors import (
    ConfigError,
    CorruptFile,
    CountExceedsCorpus,
    MalformedRow,
    VersionMismatch,
)
from gandr.generator import ReplayGenerator
from gandr.pipeline import PredictionRecord, TrainingPair
from gandr.retrieval import Exemplar, ExemplarStore, ScoredExemplar

GOOD_PARSE = "[IN:GET_WEATHER [SL:LOCATION paris ] ]"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestReadTsv:
    def test_two_and_three_columns(self, tmp_path):
        path = write(tmp_path / "d.tsv",
                     f"weather in paris\t{GOOD_PARSE}\n"
                     f"weather in york\t{GOOD_PARSE}\tweather\n")
        result = read_tsv(path)
        assert [e.exemplar_id for e in result.exemplars] == [0, 1]
        assert result.exemplars[0].domain is None
        assert result.exemplars[1].domain == "weather"
        assert result.issues == []

    def test_header_row_skipped(self, tmp_path):
        path = write(tmp_path / "d.tsv",
                     f"utterance\tparse\nhello there\t{GOOD_PARSE}\n")
        assert len(read_tsv(path, has_header=True).exemplars) == 1
        # without the flag the header is just a malformed row
        assert len(read_tsv(path).issues) == 1

    def test_blank_lines_ignored(self, tmp_path):
        path = write(tmp_path / "d.tsv", f"\nhi\t{GOOD_PARSE}\n\n")
        result = read_tsv(path)
        assert len(result.exemplars) == 1
        assert result.issues == []

    def test_bad_rows_reported_with_line_numbers(self, tmp_path):
        path = write(tmp_path / "d.tsv",
                     f"ok one\t{GOOD_PARSE}\n"
                     "no tabs here\n"
                     f"ok two\t{GOOD_PARSE}\n"
                     "bad parse\t[IN:OOPS\n"
                     f"\t{GOOD_PARSE}\n")
        result = read_tsv(path)
        # survivors get sequential ids regardless of source line
        assert [e.exemplar_id for e in result.exemplars] == [0, 1]
        assert [e.utterance for e in result.exemplars] == ["ok one", "ok two"]
        assert [i.line for i in result.issues] == [2, 4, 5]

    def test_separator_collision_rejected(self, tmp_path):
        # a field edge that completes a separator once joined is a collision
        path = write(tmp_path / "d.tsv",
                     f"a || b\t{GOOD_PARSE}\n"
                     f"play it ||\t{GOOD_PARSE}\n"
                     f"& co\t{GOOD_PARSE}\n"
                     f"fine\t{GOOD_PARSE}\n")
        result = read_tsv(path)
        assert [e.utterance for e in result.exemplars] == ["fine"]
        assert [i.line for i in result.issues] == [1, 2, 3]
        assert "||" in result.issues[0].message
        assert "||" in result.issues[1].message
        assert "&" in result.issues[2].message

    def test_strict_mode_raises(self, tmp_path):
        path = write(tmp_path / "d.tsv", "only one column\n")
        with pytest.raises(MalformedRow, match="line 1"):
            read_tsv(path, strict=True)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_tsv(tmp_path / "absent.tsv")


class TestReadJsonl:
    def test_basic(self, tmp_path):
        rows = [{"utterance": "weather in paris", "parse": GOOD_PARSE},
                {"utterance": "b", "parse": GOOD_PARSE, "domain": "weather"}]
        path = write(tmp_path / "d.jsonl",
                     "\n".join(json.dumps(r) for r in rows) + "\n")
        result = read_jsonl(path)
        assert len(result.exemplars) == 2
        assert result.exemplars[1].domain == "weather"

    def test_bad_rows_collected(self, tmp_path):
        path = write(tmp_path / "d.jsonl",
                     "not json\n"
                     '{"utterance": "missing parse"}\n'
                     f'{{"utterance": "ok", "parse": "{GOOD_PARSE}"}}\n')
        result = read_jsonl(path)
        assert [e.utterance for e in result.exemplars] == ["ok"]
        assert [i.line for i in result.issues] == [1, 2]

    def test_non_string_fields_are_issues(self, tmp_path):
        # a null or a number is a bad row, not the text "None" or "5"
        rows = [{"utterance": None, "parse": GOOD_PARSE},
                {"utterance": 5, "parse": GOOD_PARSE},
                {"utterance": "ok", "parse": None},
                {"utterance": "ok", "parse": ["[IN:X ]"]},
                {"utterance": "ok", "parse": GOOD_PARSE}]
        path = write(tmp_path / "d.jsonl",
                     "".join(json.dumps(r) + "\n" for r in rows))
        result = read_jsonl(path)
        assert [e.utterance for e in result.exemplars] == ["ok"]
        assert [i.line for i in result.issues] == [1, 2, 3, 4]
        assert "utterance must be a string, got NoneType" in \
            result.issues[0].message
        assert "parse must be a string, got list" in result.issues[3].message
        with pytest.raises(MalformedRow,
                           match="line 1: utterance must be a string"):
            read_jsonl(path, strict=True)

    @pytest.mark.parametrize("domain, kind", [
        (5, "int"), (0, "int"), (2.5, "float"), (float("nan"), "float"),
        (True, "bool"), (False, "bool"), (["weather"], "list"),
        ({"a": 1}, "dict")])
    def test_domain_that_is_not_a_string_is_an_issue(self, tmp_path,
                                                      domain, kind):
        # the store's rule: a bad row, not the text "5", "nan" or "{'a': 1}"
        rows = [{"utterance": "hi", "parse": GOOD_PARSE, "domain": domain},
                {"utterance": "ok", "parse": GOOD_PARSE, "domain": "weather"}]
        path = write(tmp_path / "d.jsonl",
                     "".join(json.dumps(r) + "\n" for r in rows))
        result = read_jsonl(path)
        assert [e.utterance for e in result.exemplars] == ["ok"]
        message = f"line 1: domain must be a string or null, got {kind}"
        assert [(i.line, i.message) for i in result.issues] == [(1, message)]
        with pytest.raises(MalformedRow, match=re.escape(message)):
            read_jsonl(path, strict=True)

    def test_empty_or_null_domain_is_no_domain(self, tmp_path):
        rows = [{"utterance": "a", "parse": GOOD_PARSE, "domain": ""},
                {"utterance": "b", "parse": GOOD_PARSE, "domain": None}]
        path = write(tmp_path / "d.jsonl",
                     "".join(json.dumps(r) + "\n" for r in rows))
        assert [e.domain for e in read_jsonl(path).exemplars] == [None, None]


class TestLoadDataset:
    def test_dispatch_by_extension(self, tmp_path):
        tsv = write(tmp_path / "d.tsv", f"hi\t{GOOD_PARSE}\n")
        row = json.dumps({"utterance": "hi", "parse": GOOD_PARSE})
        jsonl = write(tmp_path / "d.jsonl", row + "\n")
        assert load_dataset(tsv).exemplars[0].utterance == "hi"
        assert load_dataset(jsonl).exemplars[0].utterance == "hi"

    def test_unknown_extension(self, tmp_path):
        path = write(tmp_path / "d.csv", "x")
        with pytest.raises(ConfigError):
            load_dataset(path)


def test_samples_from_exemplars():
    exemplars = [Exemplar(3, "hi there", GOOD_PARSE, domain="weather")]
    samples = samples_from_exemplars(exemplars)
    assert samples[0].sample_id == 3
    assert samples[0].utterance == "hi there"
    assert samples[0].gold == GOOD_PARSE
    assert samples[0].domain == "weather"


class TestSplits:
    def test_full_is_identity(self):
        items = list(range(10))
        assert apply_split(items, Full()) == items

    def test_fixed_count(self):
        items = [f"row{i}" for i in range(20)]
        chosen = apply_split(items, FixedCount(5), seed=3)
        assert len(chosen) == 5
        assert len(set(chosen)) == 5
        # corpus order is preserved
        positions = [items.index(c) for c in chosen]
        assert positions == sorted(positions)

    def test_fraction_floors(self):
        items = list(range(10))
        assert len(apply_split(items, Fraction(0.25))) == 2
        assert len(apply_split(items, Fraction(0.999))) == 9

    def test_same_seed_same_split(self):
        items = list(range(100))
        a = apply_split(items, FixedCount(10), seed=42)
        b = apply_split(items, FixedCount(10), seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        items = list(range(1000))
        a = apply_split(items, FixedCount(10), seed=1)
        b = apply_split(items, FixedCount(10), seed=2)
        assert a != b

    def test_count_exceeds_corpus(self):
        with pytest.raises(CountExceedsCorpus):
            apply_split([1, 2, 3], FixedCount(4))

    def test_bad_specs(self):
        with pytest.raises(ConfigError):
            apply_split([1, 2], FixedCount(0))
        with pytest.raises(ConfigError):
            apply_split([1, 2], Fraction(0.0))
        with pytest.raises(ConfigError):
            apply_split([1, 2], Fraction(1.5))
        with pytest.raises(ConfigError):
            apply_split(list(range(10)), Fraction(0.05))  # floors to zero

    @pytest.mark.parametrize("spec, message", [
        (FixedCount(True), "split count must be an integer, got True"),
        (FixedCount(2.5), "split count must be an integer, got 2.5"),
        (FixedCount("2"), "split count must be an integer, got '2'"),
        (Fraction("0.5"), "split fraction must be a number, got '0.5'"),
        (Fraction(True), "split fraction must be a number, got True"),
        (FixedCount(0), "split count must be positive, got 0"),
        (Fraction(1.5), "split fraction must lie in (0, 1], got 1.5"),
        (Fraction(0.05), "fraction 0.05 of 10 items selects nothing"),
    ])
    def test_bad_spec_messages(self, spec, message):
        with pytest.raises(ConfigError) as caught:
            apply_split(list(range(10)), spec)
        assert str(caught.value) == message

    def test_numpy_numbers_are_numbers(self):
        items = list(range(10))
        assert apply_split(items, FixedCount(np.int64(3)), seed=1) == \
            apply_split(items, FixedCount(3), seed=1)
        assert apply_split(items, Fraction(np.float64(0.5)), seed=1) == \
            apply_split(items, Fraction(0.5), seed=1)


class TestParseSplitSpec:
    def test_forms(self):
        assert parse_split_spec("full") == Full()
        assert parse_split_spec("count:25") == FixedCount(25)
        assert parse_split_spec("fraction:0.25") == Fraction(0.25)

    @pytest.mark.parametrize("bad", ["", "half", "count:x", "count:",
                                     "fraction:lots", "count:25:extra"])
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_split_spec(bad)


class TestStoreFiles:
    def build(self):
        store = ExemplarStore()
        store.add(Exemplar(0, "weather in paris", GOOD_PARSE, "weather"))
        store.add(Exemplar(1, "cold out today", GOOD_PARSE))
        # line and paragraph separators that json.dumps leaves unescaped
        store.add(Exemplar(2, "cold\u2028out\x85today\u2029", GOOD_PARSE,
                           "weather\u2028\x1c\x85"))
        return store

    def test_round_trip(self, tmp_path):
        store = self.build()
        path = tmp_path / "s.store"
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.exemplars == store.exemplars

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(any_text, st.none() | any_text),
                         min_size=1, max_size=4))
    @example(rows=[("weather \ud800 in paris", "\udfff"),
                   ("cold\u2028out\x85today", None), ("play it ||", None),
                   (" ", None)])
    def test_round_trip_arbitrary_text(self, rows):
        store = ExemplarStore()
        for i, (utterance, domain) in enumerate(rows):
            padded = f" {utterance} "
            if not utterance.strip() or " || " in padded or " & " in padded:
                with pytest.raises(MalformedRow):
                    Exemplar(i, utterance, GOOD_PARSE, domain)
            else:
                store.add(Exemplar(i, utterance, GOOD_PARSE, domain))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.store")
            save_store(store, path)
            assert load_store(path).exemplars == store.exemplars

    @pytest.mark.parametrize("row", [
        {"utterance": 5, "parse": GOOD_PARSE},
        # a store written before field edges were checked can hold this
        {"utterance": "play it ||", "parse": GOOD_PARSE},
        {"utterance": " ", "parse": GOOD_PARSE},
        {"utterance": "hi", "parse": "[IN:OPEN no close"},
    ])
    def test_rows_a_dataset_rejects_are_corrupt(self, tmp_path, row):
        header = {"format": "gandr-store", "version": 1, "count": 1}
        path = write(tmp_path / "s.store", json.dumps(header) + "\n"
                     + json.dumps(dict(row, exemplar_id=0)) + "\n")
        with pytest.raises(CorruptFile, match="line 2"):
            load_store(path)

    @pytest.mark.parametrize("exemplar_id", [1.9, 1.0, "1", True, None, 2**64])
    def test_id_that_is_not_an_int_is_corrupt(self, tmp_path, exemplar_id):
        header = {"format": "gandr-store", "version": 1, "count": 1}
        row = {"exemplar_id": exemplar_id, "utterance": "hi",
               "parse": GOOD_PARSE}
        path = write(tmp_path / "s.store",
                     json.dumps(header) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(CorruptFile, match="line 2: exemplar id"):
            load_store(path)

    def test_domain_that_is_not_a_string_is_corrupt(self, tmp_path):
        header = {"format": "gandr-store", "version": 1, "count": 1}
        row = {"exemplar_id": 0, "utterance": "hi", "parse": GOOD_PARSE,
               "domain": 5}
        path = write(tmp_path / "s.store",
                     json.dumps(header) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(CorruptFile, match="line 2: domain must be"):
            load_store(path)

    # the header and rows that every earlier gandr and the benchmark's
    # corpus writer produce
    SAVED = ('{"format":"gandr-store","version":1,"count":2,"config":'
             '{"sublinear_tf":false,"normalize":true}}\n'
             '{"exemplar_id":0,"utterance":"weather in paris","parse":'
             '"[IN:GET_WEATHER [SL:LOCATION paris ] ]","domain":"weather"}\n'
             '{"exemplar_id":1,"utterance":"cold out today","parse":'
             '"[IN:GET_WEATHER [SL:LOCATION paris ] ]","domain":null}\n')

    def test_earlier_store_resaves_byte_for_byte(self, tmp_path):
        a, b = tmp_path / "a.store", tmp_path / "b.store"
        a.write_bytes(self.SAVED.encode())
        save_store(load_store(a), b)
        assert b.read_bytes() == a.read_bytes()

    @pytest.mark.parametrize("header", [
        {},
        {"config": {}},
        {"config": {"sublinear_tf": False}},
        {"config": {"normalize": True}},
    ], ids=["no-config", "empty", "sublinear-only", "normalize-only"])
    def test_header_naming_the_one_weighting_loads(self, tmp_path, header):
        lines = self.SAVED.splitlines()
        header = dict({"format": "gandr-store", "version": 1, "count": 2},
                      **header)
        path = write(tmp_path / "s.store",
                     "\n".join([json.dumps(header)] + lines[1:]) + "\n")
        assert [e.exemplar_id for e in load_store(path).exemplars] == [0, 1]

    @pytest.mark.parametrize("config, named", [
        ({"sublinear_tf": True, "normalize": True}, "sublinear_tf is true"),
        ({"sublinear_tf": "no", "normalize": True}, 'sublinear_tf is "no"'),
        ({"sublinear_tf": 0}, "sublinear_tf is 0"),
        ({"sublinear_tf": False, "normalize": False}, "normalize is false"),
        ({"normalize": 1}, "normalize is 1"),
        ({"normalize": None}, "normalize is null"),
        (None, "config must be an object, got null"),
        ([False, True], "config must be an object"),
        ("plain", "config must be an object"),
    ])
    def test_other_weighting_is_a_version_mismatch(self, tmp_path, config,
                                                   named):
        lines = self.SAVED.splitlines()
        header = {"format": "gandr-store", "version": 1, "count": 2,
                  "config": config}
        path = write(tmp_path / "s.store",
                     "\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(VersionMismatch, match=named):
            load_store(path)

    @pytest.mark.parametrize("count", [True, 1.0, "1", None])
    def test_count_must_be_an_int(self, tmp_path, count):
        header = {"format": "gandr-store", "version": 1, "count": count}
        row = {"exemplar_id": 0, "utterance": "hi", "parse": GOOD_PARSE}
        path = write(tmp_path / "s.store",
                     json.dumps(header) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(CorruptFile, match="header promises .* rows, "
                                              "found 1"):
            load_store(path)

    def test_second_save_is_byte_identical(self, tmp_path):
        store = self.build()
        a, b = tmp_path / "a.store", tmp_path / "b.store"
        save_store(store, a)
        save_store(load_store(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_version_and_format_checked(self, tmp_path):
        path = tmp_path / "s.store"
        save_store(self.build(), path)
        # split as load_store does: rows may hold U+2028 and the like
        lines = path.read_text().split("\n")[:-1]
        header = json.loads(lines[0])

        header_v99 = dict(header, version=99)
        bad = write(tmp_path / "v99.store",
                    "\n".join([json.dumps(header_v99)] + lines[1:]) + "\n")
        with pytest.raises(VersionMismatch):
            load_store(bad)

        header_alien = dict(header, format="something-else")
        bad = write(tmp_path / "alien.store",
                    "\n".join([json.dumps(header_alien)] + lines[1:]) + "\n")
        with pytest.raises(VersionMismatch):
            load_store(bad)

    def test_corrupt_files(self, tmp_path):
        with pytest.raises(CorruptFile):
            load_store(write(tmp_path / "empty.store", ""))
        with pytest.raises(CorruptFile):
            load_store(write(tmp_path / "junk.store", "not json\n"))

        path = tmp_path / "s.store"
        save_store(self.build(), path)
        lines = path.read_text().split("\n")[:-1]
        assert len(lines) == 4
        # count in header no longer matches the body
        truncated = write(tmp_path / "short.store",
                          "\n".join(lines[:-1]) + "\n")
        with pytest.raises(CorruptFile, match="header promises 3 rows, found 2"):
            load_store(truncated)
        garbled = write(tmp_path / "row.store",
                        "\n".join(lines[:-1] + ["{broken"]) + "\n")
        with pytest.raises(CorruptFile, match="line 4"):
            load_store(garbled)
        repeated = write(tmp_path / "dup.store",
                         "\n".join(lines[:-1] + [lines[1]]) + "\n")
        with pytest.raises(CorruptFile, match="line 4: exemplar id 0"):
            load_store(repeated)


class TestRecordsFiles:
    def test_round_trip(self, tmp_path, trace_store):
        from gandr.generator import OracleLookupGenerator
        from gandr.pipeline import PipelineConfig, run_pipeline

        samples = samples_from_exemplars(trace_store.exemplars[:3])
        oracle = OracleLookupGenerator.from_exemplars(trace_store.exemplars)
        records = run_pipeline(trace_store, samples, oracle, oracle,
                               PipelineConfig(k=2))
        path = tmp_path / "r.jsonl"
        write_records(records, path)
        assert read_records(path) == records

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.lists(any_text, min_size=6, max_size=6),
                         max_size=3))
    @example(rows=[["weather \ud800 in paris", "\udbff", "\u2028", "\x85",
                    "a\u2029b", "\udc00 \ud800"]])
    def test_round_trip_arbitrary_text(self, rows):
        hit = ScoredExemplar(exemplar_id=3, relevance=0.5, input_sim=0.25,
                             output_sim=1.0, rank=0)
        records = [
            PredictionRecord(
                sample_id=i, query=query, gold=gold, pass1_retrievals=(hit,),
                pass1_augmented=AugmentedInput(prompt, query, (3,), False),
                preliminary=preliminary, pass2_retrievals=(hit,),
                pass2_augmented=AugmentedInput(prompt, query, (3,), True),
                final=final, status="ok", domain_tag=domain)
            for i, (query, gold, prompt, preliminary, final, domain)
            in enumerate(rows)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "r.jsonl")
            write_records(records, path)
            assert read_records(path) == records

    def test_corrupt_records(self, tmp_path):
        with pytest.raises(CorruptFile):
            read_records(write(tmp_path / "r.jsonl", "{nope\n"))

    @pytest.mark.parametrize("field, value, message", [
        ("query", None, "query must be a string, got NoneType"),
        ("query", 5, "query must be a string, got int"),
        ("gold", 5, "gold must be a string or null, got int"),
        ("preliminary", 5, "preliminary must be a string or null, got int"),
        ("final", 7, "final must be a string or null, got int"),
        ("final", ["x"], "final must be a string or null, got list"),
        ("domain_tag", False, "domain_tag must be a string or null"),
        ("status", "done", "unknown status 'done'"),
        ("status", None, "unknown status None"),
    ])
    def test_fields_of_the_wrong_type_are_corrupt(self, tmp_path, field,
                                                  value, message):
        path = self.records_with_second_set(tmp_path, (field,), value)
        with pytest.raises(CorruptFile, match=f"line 2: {message}"):
            read_records(path)

    @staticmethod
    def records_with_second_set(tmp_path, keys, value):
        """A file of two good records, the second with the field that
        ``keys`` leads to set to ``value``."""
        hit = ScoredExemplar(exemplar_id=3, relevance=0.5, input_sim=0.5,
                             output_sim=0.5, rank=0)
        record = PredictionRecord(
            sample_id=0, query="q", gold=GOOD_PARSE, pass1_retrievals=(hit,),
            pass1_augmented=AugmentedInput("p", "q", (3,), False),
            preliminary=GOOD_PARSE, pass2_retrievals=(hit,),
            pass2_augmented=AugmentedInput("p", "q", (3,), False),
            final=GOOD_PARSE, status="ok", domain_tag="weather")
        path = tmp_path / "r.jsonl"
        write_records([record, record], path)
        lines = path.read_text().splitlines()
        bad = node = json.loads(lines[1])
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return write(path, lines[0] + "\n" + json.dumps(bad) + "\n")


    @pytest.mark.parametrize("keys, value, message", [
        (("sample_id",), "zero", "sample_id must be a 64-bit integer, "
                                 "got 'zero'"),
        (("sample_id",), True, "sample_id must be a 64-bit integer"),
        (("sample_id",), 2**63, "sample_id must be a 64-bit integer"),
        (("sample_id",), 1.0, "sample_id must be a 64-bit integer"),
        (("pass1_retrievals", 0, "exemplar_id"), "3",
         "exemplar_id must be a 64-bit integer, got '3'"),
        (("pass2_retrievals", 0, "exemplar_id"), None,
         "exemplar_id must be a 64-bit integer, got None"),
        (("pass2_retrievals", 0, "rank"), "first",
         "rank must be a non-negative 64-bit integer, got 'first'"),
        (("pass2_retrievals", 0, "rank"), -1,
         "rank must be a non-negative 64-bit integer, got -1"),
        (("pass2_retrievals", 0, "rank"), False,
         "rank must be a non-negative 64-bit integer"),
        (("pass1_retrievals", 0, "relevance"), 1,
         "relevance must be a float, got int"),
        (("pass2_retrievals", 0, "input_sim"), "0.5",
         "input_sim must be a float, got str"),
        (("pass2_retrievals", 0, "output_sim"), None,
         "output_sim must be a float, got NoneType"),
        (("pass1_augmented", "text"), 5, "text must be a string, got int"),
        (("pass2_augmented", "query"), None,
         "query must be a string, got NoneType"),
        (("pass2_augmented", "exemplar_ids", 0), "3",
         "exemplar_ids entry must be a 64-bit integer, got '3'"),
        (("pass1_augmented", "truncated"), 0,
         "truncated must be a bool, got int"),
        (("pass2_augmented", "truncated"), "no",
         "truncated must be a bool, got str"),
    ], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_ids_ranks_similarities_and_prompts_are_typed(
            self, tmp_path, keys, value, message):
        path = self.records_with_second_set(tmp_path, keys, value)
        with pytest.raises(CorruptFile, match=f"line 2: {re.escape(message)}"):
            read_records(path)

    def test_record_without_a_first_pass_prompt_loads(self, tmp_path):
        # as a records file written only to hand stage-2 preliminaries over
        row = {"sample_id": 7, "query": "q", "gold": GOOD_PARSE,
               "pass1_retrievals": [], "pass1_augmented": None,
               "preliminary": GOOD_PARSE, "pass2_retrievals": None,
               "pass2_augmented": None, "final": None, "status": "ok",
               "domain_tag": None}
        [record] = read_records(write(tmp_path / "r.jsonl",
                                      json.dumps(row) + "\n"))
        assert (record.sample_id, record.pass1_retrievals,
                record.pass1_augmented) == (7, (), None)


class TestUndecodableBytes:
    """A byte that is not UTF-8 is reported with its line, never as a
    UnicodeDecodeError traceback."""

    ROW = f"what is the weather\t{GOOD_PARSE}\n".encode()

    def test_dataset_row_is_an_issue(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_bytes(self.ROW + b"bad \xff row\t" + GOOD_PARSE.encode()
                         + b"\n" + self.ROW)
        result = load_dataset(path)
        assert [e.exemplar_id for e in result.exemplars] == [0, 1]
        assert [i.line for i in result.issues] == [2]
        assert "UTF-8" in result.issues[0].message
        with pytest.raises(MalformedRow, match="line 2: not UTF-8"):
            load_dataset(path, strict=True)

    def test_jsonl_row_is_an_issue(self, tmp_path):
        path = tmp_path / "d.jsonl"
        row = json.dumps({"utterance": "hi there", "parse": GOOD_PARSE})
        path.write_bytes(b"\xc3\n" + row.encode() + b"\n")
        result = load_dataset(path)
        assert len(result.exemplars) == 1
        assert [i.line for i in result.issues] == [1]

    def test_lines_split_where_text_mode_splits(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_bytes(self.ROW.replace(b"\n", b"\r\n")
                         + self.ROW.replace(b"\n", b"\r")
                         + b"\xff\n" + self.ROW)
        with open(path, encoding="utf-8", errors="replace") as fh:
            assert len(fh.readlines()) == 4
        result = load_dataset(path)
        assert len(result.exemplars) == 3
        assert [i.line for i in result.issues] == [3]

    def test_store_row_is_corrupt(self, tmp_path):
        path = tmp_path / "s.store"
        store = ExemplarStore()
        store.add(Exemplar(0, "a b", GOOD_PARSE))
        store.add(Exemplar(1, "c d", GOOD_PARSE))
        save_store(store, path)
        data = path.read_bytes()
        path.write_bytes(data.replace(b"c d", b"c \xff"))
        with pytest.raises(CorruptFile, match="line 3"):
            load_store(path)
        path.write_bytes(b"\xff" + data)
        with pytest.raises(CorruptFile, match="bad header line"):
            load_store(path)

    def test_records_file_is_corrupt(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b"\n\xfe\n")
        with pytest.raises(CorruptFile, match="line 2"):
            read_records(path)

    def test_replay_log_is_corrupt(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"input": "a", "output": "1"}\n'
                         b'{"input": "\xff", "output": "2"}\n')
        with pytest.raises(CorruptFile, match="line 2"):
            ReplayGenerator.from_path(path)


class TestDeeplyNestedJson:
    """A line nested past the recursion limit, even under a key gandr
    ignores, is reported with its line like any line that is not JSON,
    never as a RecursionError."""

    DEEP = "[" * 100_000 + "]" * 100_000

    def test_dataset_row_is_an_issue(self, tmp_path):
        path = tmp_path / "d.jsonl"
        row = json.dumps({"utterance": "hi there", "parse": GOOD_PARSE})
        write(path, row + "\n" + row[:-1] + ', "extra": ' + self.DEEP
              + "}\n" + row + "\n")
        result = load_dataset(path)
        assert [e.exemplar_id for e in result.exemplars] == [0, 1]
        assert [i.line for i in result.issues] == [2]
        assert result.issues[0].message.startswith(
            "line 2: not JSON: nested too deeply")
        with pytest.raises(MalformedRow, match="line 2: not JSON"):
            load_dataset(path, strict=True)

    def test_store_row_and_header_are_corrupt(self, tmp_path):
        path = tmp_path / "s.store"
        store = ExemplarStore()
        store.add(Exemplar(0, "a b", GOOD_PARSE))
        store.add(Exemplar(1, "c d", GOOD_PARSE))
        save_store(store, path)
        header, first, second = path.read_text(encoding="utf-8").splitlines()
        write(path, "\n".join([header, first, second[:-1] + ', "extra": '
                               + self.DEEP + "}"]) + "\n")
        with pytest.raises(CorruptFile, match="line 3: nested too deeply"):
            load_store(path)
        write(path, "\n".join([header[:-1] + ', "extra": ' + self.DEEP + "}",
                               first, second]) + "\n")
        with pytest.raises(CorruptFile, match="bad header line: nested too"):
            load_store(path)

    def test_records_file_is_corrupt(self, tmp_path):
        path = write(tmp_path / "r.jsonl", "\n" + self.DEEP + "\n")
        with pytest.raises(CorruptFile, match="line 2: nested too deeply"):
            read_records(path)

    def test_replay_log_is_corrupt(self, tmp_path):
        path = write(tmp_path / "log.jsonl",
                     '{"input": "a", "output": "1"}\n'
                     '{"input": "b", "output": "2", "x": ' + self.DEEP + "}\n")
        with pytest.raises(CorruptFile,
                           match="line 2 is not a replay entry: nested too"):
            ReplayGenerator.from_path(path)


class TestCollectorPaused:
    """Loading and fitting a store pause the cyclic garbage collector and
    leave it as they found it, on errors too."""

    def store_file(self, tmp_path, broken_row=False):
        store = ExemplarStore()
        for i in range(3):
            store.add(Exemplar(i, f"row {i}", GOOD_PARSE))
        path = tmp_path / "s.store"
        save_store(store, path)
        if broken_row:
            lines = path.read_text(encoding="utf-8").splitlines()
            lines[2] = "{broken"
            write(path, "\n".join(lines) + "\n")
        return path

    @pytest.fixture
    def seen(self, monkeypatch):
        """The collector's state at each line decoded."""
        states = []

        def spy(text):
            states.append(gc.isenabled())
            return decode_json(text)

        monkeypatch.setattr("gandr.data_io.decode_json", spy)
        return states

    def test_corrupt_file_mid_load_restores_the_collector(self, tmp_path,
                                                           seen):
        path = self.store_file(tmp_path, broken_row=True)
        assert gc.isenabled()
        with pytest.raises(CorruptFile, match="line 3"):
            load_store(path)
        assert gc.isenabled()
        assert seen == [False, False, False]

    def test_a_collector_turned_off_stays_off(self, tmp_path):
        path = self.store_file(tmp_path)
        gc.disable()
        try:
            store = load_store(path)
            assert not gc.isenabled()
            store.build()
            assert not gc.isenabled()
            with pytest.raises(CorruptFile):
                load_store(self.store_file(tmp_path, broken_row=True))
            assert not gc.isenabled()
        finally:
            gc.enable()


def test_write_training_pairs_is_replay_compatible(tmp_path):
    pairs = [TrainingPair(0, "q || a & b", GOOD_PARSE, (1, 2))]
    path = tmp_path / "train.jsonl"
    write_training_pairs(pairs, path)
    row = json.loads(path.read_text().splitlines()[0])
    assert row == {"input": "q || a & b", "output": GOOD_PARSE}

    replay = ReplayGenerator.from_path(path)
    assert replay.generate(["q || a & b"])[0] == GOOD_PARSE


@settings(max_examples=100, deadline=None)
@given(pairs=st.dictionaries(any_text, any_text, max_size=4))
@example(pairs={"weather \ud800 in paris": "\udfff", "\u2028": "\x85"})
def test_training_pairs_read_back_as_replay_log(pairs):
    training = [TrainingPair(i, text, target, ())
                for i, (text, target) in enumerate(pairs.items())]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "train.jsonl")
        write_training_pairs(training, path)
        replay = ReplayGenerator.from_path(path)
    assert len(replay) == len(pairs)
    assert replay.generate(list(pairs)) == list(pairs.values())


class TestAtomicWrite:
    def test_writes_and_overwrites(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(path, "one\n")
        assert path.read_text() == "one\n"
        atomic_write_text(path, "two\n")
        assert path.read_text() == "two\n"

    def test_no_stray_temp_files(self, tmp_path):
        atomic_write_text(tmp_path / "f.txt", "x")
        assert os.listdir(tmp_path) == ["f.txt"]
