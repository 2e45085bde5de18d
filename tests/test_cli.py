import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gandr
from conftest import TRACE_EXEMPLARS, TRACE_GOLD, TRACE_PRELIMINARY, TRACE_QUERY
from gandr import cli, data_io, evaluation, retrieval, top_parse
from gandr.cli import main
from gandr.data_io import load_store, read_records
from gandr.errors import CorruptFile
from gandr.generator import StaticGenerator
from gandr.pipeline import PipelineConfig
from oracles import split_augmented


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ("GANDR_PRELIMINARY_URL", "GANDR_FINAL_URL", "GANDR_TIMEOUT"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "data.tsv"
    rows = []
    for exemplar in TRACE_EXEMPLARS:
        domain = "messaging" if "SEND_MESSAGE" in exemplar.parse else "other"
        rows.append(f"{exemplar.utterance}\t{exemplar.parse}\t{domain}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def store(tmp_path, dataset):
    path = tmp_path / "trace.store"
    assert main(["index", "--data", str(dataset), "--out", str(path)]) == 0
    return path


@pytest.fixture
def endpoint_calls(monkeypatch):
    """Every batch a static endpoint is asked to answer."""
    calls = []

    def counting(self, inputs):
        calls.append(list(inputs))
        return [self.output for _ in inputs]

    monkeypatch.setattr(StaticGenerator, "generate", counting)
    return calls


class TestIndex:
    def test_builds_store(self, tmp_path, dataset, capsys):
        out = tmp_path / "s.store"
        assert main(["index", "--data", str(dataset),
                     "--out", str(out)]) == 0
        assert "indexed 8 exemplars" in capsys.readouterr().out
        assert len(load_store(out)) == 8

    def test_split_flag(self, tmp_path, dataset):
        out = tmp_path / "s.store"
        assert main(["index", "--data", str(dataset), "--split", "count:3",
                     "--seed", "7", "--out", str(out)]) == 0
        assert len(load_store(out)) == 3

    def test_missing_data_exits_2(self, tmp_path, capsys):
        code = main(["index", "--data", str(tmp_path / "absent.tsv"),
                     "--out", str(tmp_path / "s.store")])
        assert code == 2
        assert "file not found" in capsys.readouterr().err

    def test_all_rows_rejected_exits_1_and_writes_nothing(self, tmp_path,
                                                           capsys):
        data = tmp_path / "bad.tsv"
        data.write_text("no tabs here\nbad parse\t[IN:OOPS\n",
                        encoding="utf-8")
        out = tmp_path / "s.store"
        assert main(["index", "--data", str(data), "--out", str(out)]) == 1
        assert "error: store has no exemplars" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.tsv"]

    def test_parses_each_row_once(self, tmp_path, dataset, monkeypatch):
        calls = []
        for module in (data_io, retrieval, top_parse):
            if hasattr(module, "parse_labels"):
                def counting(text, parse=module.parse_labels):
                    calls.append(text)
                    return parse(text)
                monkeypatch.setattr(module, "parse_labels", counting)
        assert main(["index", "--data", str(dataset),
                     "--out", str(tmp_path / "s.store")]) == 0
        assert sorted(calls) == sorted(e.parse for e in TRACE_EXEMPLARS)

    def test_lone_surrogate_row_is_stored_and_run(self, tmp_path, capsys):
        # the escape reads back as a lone surrogate, which utf-8 cannot
        # encode; writers escape it again instead of failing
        data = tmp_path / "d.jsonl"
        data.write_text('{"utterance": "weather \\ud800 in paris", '
                        '"parse": "[IN:GET_WEATHER ]"}\n', encoding="utf-8")
        store, records = tmp_path / "s.store", tmp_path / "r.jsonl"
        assert main(["index", "--data", str(data), "--out", str(store)]) == 0
        [exemplar] = load_store(store).exemplars
        assert exemplar.utterance == "weather \ud800 in paris"
        assert main(["run", "--store", str(store), "--data", str(data),
                     "--k", "1", "--final-endpoint", f"oracle:{data}",
                     "--record-final", str(tmp_path / "f.jsonl"),
                     "--out", str(records)]) == 0
        [record] = read_records(records)
        assert record.query == exemplar.utterance
        assert record.final == exemplar.parse

    def test_undecodable_row_is_skipped_with_its_line(self, tmp_path,
                                                       dataset, capsys):
        rows = dataset.read_bytes().split(b"\n")
        data = tmp_path / "bytes.tsv"
        data.write_bytes(b"\n".join([rows[0], b"bad \xff row\t[IN:X ]"]
                                     + rows[1:]))
        out = tmp_path / "s.store"
        assert main(["index", "--data", str(data), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "skipped line 2: not UTF-8" in captured.err
        assert "indexed 8 exemplars (1 rows skipped)" in captured.out
        assert main(["index", "--data", str(data), "--strict",
                     "--out", str(out)]) == 1
        assert "error: line 2: not UTF-8" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, dataset, capsys):
        assert main(["index", "--data", str(dataset), "--split", "count:2",
                     "--seed", "-1", "--out", str(tmp_path / "s.store")]) == 2
        assert "--seed must be a non-negative integer, got -1" in \
            capsys.readouterr().err
        assert not (tmp_path / "s.store").exists()

    def test_bad_split_exits_2(self, tmp_path, dataset):
        assert main(["index", "--data", str(dataset), "--split", "half",
                     "--out", str(tmp_path / "s.store")]) == 2

    @pytest.mark.parametrize("flag", ["--sublinear-tf", "--no-normalize"])
    def test_weighting_flags_are_gone(self, tmp_path, dataset, flag):
        with pytest.raises(SystemExit) as exc:
            main(["index", "--data", str(dataset), flag,
                  "--out", str(tmp_path / "s.store")])
        assert exc.value.code == 2
        assert not (tmp_path / "s.store").exists()


class TestRetrieve:
    def test_json_output(self, store, capsys):
        assert main(["retrieve", "--store", str(store), "--query",
                     TRACE_QUERY, "--k", "3", "--json"]) == 0
        hits = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        assert [h["rank"] for h in hits] == [0, 1, 2]
        assert all(h["output_sim"] == 0.0 for h in hits)

    def test_table_output(self, store, capsys):
        assert main(["retrieve", "--store", str(store), "--query",
                     TRACE_QUERY, "--k", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("rank\tid\trelevance")
        assert len(lines) == 3

    def test_hybrid_needs_preliminary(self, store, capsys):
        code = main(["retrieve", "--store", str(store), "--query",
                     TRACE_QUERY, "--alpha", "0.75", "--k", "2"])
        assert code == 2
        assert "preliminary" in capsys.readouterr().err

    def test_hybrid_with_preliminary(self, store, capsys):
        assert main(["retrieve", "--store", str(store), "--query",
                     TRACE_QUERY, "--alpha", "0.75", "--k", "1",
                     "--preliminary", TRACE_PRELIMINARY, "--json"]) == 0
        hit = json.loads(capsys.readouterr().out.splitlines()[0])
        assert hit["exemplar_id"] == 4  # the matching CREATE_CALL exemplar


    @pytest.mark.parametrize("config", [
        {"sublinear_tf": True, "normalize": True},
        {"sublinear_tf": "no", "normalize": True},
        {"sublinear_tf": False, "normalize": False},
        {"sublinear_tf": False, "normalize": 1},
        [False, True],
    ])
    def test_store_with_another_weighting_exits_1(self, store, capsys,
                                                  config):
        lines = store.read_text(encoding="utf-8").splitlines(keepends=True)
        header = dict(json.loads(lines[0]), config=config)
        store.write_text(json.dumps(header) + "\n" + "".join(lines[1:]),
                         encoding="utf-8")
        code = main(["retrieve", "--store", str(store), "--query",
                     TRACE_QUERY, "--k", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{store}: TF-IDF " in err
        assert "Traceback" not in err

    def test_store_with_a_repeated_id_exits_1(self, store, capsys):
        lines = store.read_text(encoding="utf-8").splitlines(keepends=True)
        # line 3 takes line 2's id; the header's row count stays true
        lines[2] = json.dumps(dict(json.loads(lines[2]), exemplar_id=0)) + "\n"
        store.write_text("".join(lines), encoding="utf-8")
        message = f"{store}: line 3: exemplar id 0 already present"
        with pytest.raises(CorruptFile) as info:
            load_store(store)
        assert str(info.value) == message
        assert main(["retrieve", "--store", str(store), "--query",
                     TRACE_QUERY, "--k", "1"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_query_exits_2(self, store, capsys):
        assert main(["retrieve", "--store", str(store), "--query",
                     "play it ||", "--k", "1"]) == 2
        assert ("error: field contains the separator ' || ': 'play it ||'"
                in capsys.readouterr().err)


class TestRun:
    def test_records_and_sidecar(self, tmp_path, store, dataset, capsys):
        out = tmp_path / "records.jsonl"
        code = main(["run", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", f"oracle:{dataset}",
                     "--alpha", "0.75", "--k", "2", "--out", str(out)])
        assert code == 0
        assert "ran 8 samples (8 ok, 0 failed)" in capsys.readouterr().out
        records = read_records(out)
        assert len(records) == 8
        assert all(r.status == "ok" for r in records)
        sidecar = json.loads((tmp_path / "records.jsonl.config.json")
                             .read_text())
        assert sidecar["alpha"] == 0.75
        assert sidecar["k"] == 2
        assert sidecar["final_endpoint"] == f"oracle:{dataset}"
        assert sidecar["preliminary_endpoint"] == f"oracle:{dataset}"
        assert "jobs" not in sidecar

    def test_unset_pipeline_settings_take_the_config_defaults(
            self, tmp_path, store, dataset):
        out = tmp_path / "r.jsonl"
        assert main(["run", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", f"oracle:{dataset}",
                     "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "r.jsonl.config.json").read_text())
        defaults = PipelineConfig()
        assert (sidecar["alpha"], sidecar["k"], sidecar["mode"],
                sidecar["failure_policy"]) == (
            defaults.alpha, defaults.k, defaults.mode.value,
            defaults.failure_policy.value)

    @pytest.mark.parametrize("flags, key", [
        (["--timeout", "-1"], "timeout"), (["--timeout", "0"], "timeout"),
        (["--timeout", "nan"], "timeout"),
        (["--max-batch", "-1"], "max_batch"),
        (["--max-batch", "0"], "max_batch")])
    def test_bad_remote_setting_exits_2(self, tmp_path, store, dataset,
                                        capsys, flags, key):
        out = tmp_path / "r.jsonl"
        code = main(["run", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", "http://127.0.0.1:9/", *flags,
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be a positive")
        assert "Traceback" not in err
        assert not out.exists()

    def test_jobs_flag_is_gone(self, tmp_path, store, dataset):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--store", str(store), "--data", str(dataset),
                  "--final-endpoint", f"oracle:{dataset}", "--jobs", "2",
                  "--out", str(tmp_path / "r.jsonl")])
        assert exc.value.code == 2

    def test_record_then_replay_reproduces_bytes(self, tmp_path, store,
                                                 dataset):
        first = tmp_path / "r1.jsonl"
        code = main(["run", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", f"oracle:{dataset}",
                     "--record-preliminary", str(tmp_path / "p.jsonl"),
                     "--record-final", str(tmp_path / "f.jsonl"),
                     "--out", str(first)])
        assert code == 0
        second = tmp_path / "r2.jsonl"
        code = main(["run", "--store", str(store), "--data", str(dataset),
                     "--preliminary-endpoint",
                     f"replay:{tmp_path / 'p.jsonl'}",
                     "--final-endpoint", f"replay:{tmp_path / 'f.jsonl'}",
                     "--out", str(second)])
        assert code == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("output", [5, None], ids=["int", "null"])
    def test_non_string_replay_output_exits_1(self, tmp_path, store, dataset,
                                              capsys, output):
        log = tmp_path / "p.jsonl"
        assert main(["run", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", f"oracle:{dataset}",
                     "--record-preliminary", str(log),
                     "--out", str(tmp_path / "r1.jsonl")]) == 0
        entries = [json.loads(line) for line in
                   log.read_text(encoding="utf-8").splitlines()]
        entries[-1]["output"] = output
        log.write_text("".join(json.dumps(e) + "\n" for e in entries),
                       encoding="utf-8")
        capsys.readouterr()
        code = main(["run", "--store", str(store), "--data", str(dataset),
                     "--preliminary-endpoint", f"replay:{log}",
                     "--final-endpoint", f"oracle:{dataset}",
                     "--out", str(tmp_path / "r2.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"line {len(entries)} is not a replay entry" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r2.jsonl").exists()

    def test_no_final_endpoint_exits_2(self, tmp_path, store, dataset,
                                       capsys):
        code = main(["run", "--store", str(store), "--data", str(dataset),
                     "--out", str(tmp_path / "r.jsonl")])
        assert code == 2
        assert "final endpoint" in capsys.readouterr().err

    def test_alpha_rejected_in_input_only_mode(self, tmp_path, store,
                                               dataset):
        code = main(["run", "--store", str(store), "--data", str(dataset),
                     "--mode", "input-only", "--alpha", "0.5",
                     "--final-endpoint", "static:x",
                     "--out", str(tmp_path / "r.jsonl")])
        assert code == 2

    def test_oracle_loads_once_and_each_log_holds_its_own_pass(
            self, tmp_path, store, dataset, monkeypatch):
        loads = []

        def counting(path, **kwargs):
            loads.append(path)
            return data_io.load_dataset(path, **kwargs)

        monkeypatch.setattr(cli, "load_dataset", counting)
        logs = tmp_path / "pass1.jsonl", tmp_path / "pass2.jsonl"
        out = tmp_path / "r.jsonl"
        assert main(["run", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", f"oracle:{dataset}",
                     "--record-preliminary", str(logs[0]),
                     "--record-final", str(logs[1]), "--out", str(out)]) == 0
        # the samples, then one oracle shared by both passes
        assert loads == [str(dataset)] * 2
        records = read_records(out)
        for log, prompts in zip(logs, (
                [r.pass1_augmented.text for r in records],
                [r.pass2_augmented.text for r in records])):
            assert [json.loads(line)["input"] for line in
                    log.read_text(encoding="utf-8").splitlines()] == prompts

    @pytest.mark.parametrize("flags, built", [
        ([], ["static:b"]),
        (["--preliminary-endpoint", "static:a"], ["static:a", "static:b"]),
        (["--preliminary-endpoint", "static:b"], ["static:b"]),
        (["--mode", "input-only"], ["static:b"]),
    ], ids=["default", "distinct", "same", "input-only"])
    def test_builds_each_endpoint_spec_once(self, tmp_path, store, dataset,
                                            monkeypatch, flags, built):
        specs = []
        build = cli._build_endpoint

        def counting(spec, *rest):
            specs.append(spec)
            return build(spec, *rest)

        monkeypatch.setattr(cli, "_build_endpoint", counting)
        assert main(["run", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", "static:b", *flags,
                     "--out", str(tmp_path / "r.jsonl")]) == 0
        assert specs == built

    def test_input_only_mode_ignores_the_preliminary_url(
            self, tmp_path, store, dataset, monkeypatch, capsys):
        monkeypatch.setenv("GANDR_PRELIMINARY_URL",
                           f"replay:{tmp_path / 'missing.jsonl'}")
        out = tmp_path / "r.jsonl"
        argv = ["run", "--store", str(store), "--data", str(dataset),
                "--final-endpoint", f"oracle:{dataset}", "--out", str(out)]
        assert main(argv) == 2
        assert "missing.jsonl" in capsys.readouterr().err
        assert main(argv + ["--mode", "input-only"]) == 0
        sidecar = json.loads((tmp_path / "r.jsonl.config.json").read_text())
        assert sidecar["preliminary_endpoint"] is None
        assert sidecar["pass2_alpha"] == 0.0

    def test_output_only_mode_is_gone(self, tmp_path, store, dataset,
                                      capsys):
        out = tmp_path / "r.jsonl"
        args = ["run", "--store", str(store), "--data", str(dataset),
                "--final-endpoint", "static:x", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--mode", "output-only"])
        assert exc.value.code == 2
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": "output-only"}))
        assert main(["--config", str(config)] + args) == 2
        assert "bad value for mode: 'output-only'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_endpoint_exits_2(self, tmp_path, store, dataset,
                                      capsys):
        code = main(["run", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", "carrier-pigeon:coop",
                     "--out", str(tmp_path / "r.jsonl")])
        assert code == 2
        assert "endpoint spec" in capsys.readouterr().err

    def test_generation_failure_exits_1(self, tmp_path, store, dataset,
                                        capsys):
        empty_log = tmp_path / "empty.jsonl"
        empty_log.write_text("")
        code = main(["run", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", f"replay:{empty_log}",
                     "--failure-policy", "abort",
                     "--out", str(tmp_path / "r.jsonl")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestEval:
    @pytest.fixture
    def records(self, tmp_path, store, dataset):
        out = tmp_path / "records.jsonl"
        main(["run", "--store", str(store), "--data", str(dataset),
              "--final-endpoint", f"oracle:{dataset}", "--k", "2",
              "--out", str(out)])
        return out

    def test_json_report(self, store, records, capsys):
        assert main(["eval", "--store", str(store), "--records",
                     str(records), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 8
        assert report["exact_match"] == 1.0
        assert report["n_failed"] == 0
        assert set(report["per_domain"]) == {"messaging", "other"}

    def test_text_report(self, store, records, capsys):
        assert main(["eval", "--store", str(store), "--records",
                     str(records)]) == 0
        out = capsys.readouterr().out
        assert "exact_match\t1.000000" in out
        assert "domain\tmessaging\t4" in out

    def test_k_cutoff(self, store, records, capsys):
        assert main(["eval", "--store", str(store), "--records",
                     str(records), "--k", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["template_recall"] <= 1.0

    def test_non_string_final_exits_1(self, store, records, capsys):
        lines = records.read_text(encoding="utf-8").splitlines()
        lines[2] = json.dumps(dict(json.loads(lines[2]), final=7))
        records.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["eval", "--store", str(store), "--records",
                     str(records)])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 3: final must be a string or null, got int" in err
        assert "Traceback" not in err

    def test_json_report_bytes(self, store, records, capsys):
        lines = records.read_text(encoding="utf-8").splitlines()
        lines[0] = json.dumps(dict(json.loads(lines[0]), final=None,
                                   status="pass2_failed"))
        records.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["eval", "--store", str(store), "--records",
                     str(records), "--k", "1", "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"exact_match": 0.875, "n": 8, "n_failed": 1, "per_domain": '
            '{"messaging": {"exact_match": 1.0, "n": 4, '
            '"template_recall": 1.0}, "other": {"exact_match": 0.75, '
            '"n": 4, "template_recall": 1.0}}, "template_recall": 1.0}\n')

    def test_string_exemplar_id_exits_1(self, store, records, capsys):
        lines = records.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        record["pass2_retrievals"][0]["exemplar_id"] = "0"
        lines[1] = json.dumps(record)
        records.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["eval", "--store", str(store), "--records",
                     str(records)])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 2: exemplar_id must be a 64-bit integer, got '0'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("rows", ["reversed", "first four"])
    def test_records_of_another_store_exit_2(self, tmp_path, dataset,
                                             records, capsys, rows):
        lines = dataset.read_text(encoding="utf-8").splitlines()
        lines = lines[::-1] if rows == "reversed" else lines[:4]
        other_data = tmp_path / "other.tsv"
        other_data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        other = tmp_path / "other.store"
        assert main(["index", "--data", str(other_data),
                     "--out", str(other)]) == 0
        capsys.readouterr()
        assert main(["eval", "--store", str(other), "--records",
                     str(records)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        first = read_records(records)[0]
        if rows == "reversed":
            # every exemplar id holds another row, from the first prompt on
            assert err == (
                f"error: {records}: the prompt of sample {first.sample_id} "
                f"does not rebuild from the store at exemplar "
                f"{first.pass1_augmented.exemplar_ids[0]}; pass the --store "
                f"the records came from\n")
        else:
            record, exemplar_id = next(
                (record, i) for record in read_records(records)
                for aug in (record.pass1_augmented, record.pass2_augmented)
                for i in aug.exemplar_ids if i >= 4)
            assert err == (
                f"error: {records}: sample {record.sample_id} was prompted "
                f"with exemplar {exemplar_id}, which the store does not "
                f"hold; pass the --store the records came from\n")

    def test_missing_records_exits_2(self, store, tmp_path):
        assert main(["eval", "--store", str(store), "--records",
                     str(tmp_path / "absent.jsonl")]) == 2

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_exits_2(self, store, records, capsys, k):
        assert main(["eval", "--store", str(store), "--records",
                     str(records), "--k", k]) == 2
        assert "recall k must be at least 1" in capsys.readouterr().err


class TestSweep:
    def test_stdout_grid(self, store, dataset, capsys):
        code = main(["sweep", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", f"oracle:{dataset}",
                     "--axis", "alpha", "--values", "0,0.75",
                     "--seeds", "0,1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# config: ")
        note = json.loads(lines[0][len("# config: "):])
        assert note["axis"] == "alpha"
        assert note["values"] == [0.0, 0.75]
        assert lines[1] == "value\tseed\texact_match\ttemplate_recall"
        assert len(lines) == 2 + 4

    def test_out_file(self, tmp_path, store, dataset, capsys):
        out = tmp_path / "sweep.tsv"
        code = main(["sweep", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", f"oracle:{dataset}",
                     "--axis", "k", "--values", "1,2", "--out", str(out)])
        assert code == 0
        assert "swept 2 settings" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 4

    def test_bad_values_exit_2(self, store, dataset):
        assert main(["sweep", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", "static:x",
                     "--axis", "alpha", "--values", "0,zero"]) == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--sample-fraction", "1.5", "sample fraction must lie in (0, 1]"),
        ("--sample-fraction", "nan", "sample fraction must lie in (0, 1]"),
        ("--sample-fraction", "0", "sample fraction must lie in (0, 1]"),
        ("--recall-k", "0", "recall k must be at least 1"),
        ("--recall-k", "-1", "recall k must be at least 1"),
    ])
    def test_bad_setting_exits_2_before_any_run(self, store, dataset, capsys,
                                                 monkeypatch, flag, value,
                                                 message):
        def no_run(*args, **kwargs):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(evaluation, "run_pipeline_alphas", no_run)
        assert main(["sweep", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", f"oracle:{dataset}",
                     "--axis", "alpha", "--values", "0,0.75",
                     flag, value]) == 2
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize("axis, values, message", [
        ("alpha", "0,1.5", "alpha must lie in [0, 1], got 1.5"),
        ("k", "2,0", "k must be a positive integer, got 0"),
    ])
    def test_bad_value_exits_2_before_any_generation(self, store, dataset,
                                                      capsys, monkeypatch,
                                                      axis, values, message):
        calls = []

        def counting(self, inputs):
            calls.append(list(inputs))
            return [self.output for _ in inputs]

        monkeypatch.setattr(StaticGenerator, "generate", counting)
        assert main(["sweep", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", f"static:{TRACE_GOLD}",
                     "--axis", axis, "--values", values]) == 2
        assert message in capsys.readouterr().err
        assert calls == []

    def test_negative_seed_exits_2_before_any_generation(
            self, store, dataset, capsys, monkeypatch):
        calls = []

        def counting(self, inputs):
            calls.append(list(inputs))
            return [self.output for _ in inputs]

        monkeypatch.setattr(StaticGenerator, "generate", counting)
        assert main(["sweep", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", f"static:{TRACE_GOLD}",
                     "--axis", "alpha", "--values", "0,0.75",
                     "--seeds", "-1", "--sample-fraction", "0.7"]) == 2
        assert "--seeds must be a non-negative integer, got -1" in \
            capsys.readouterr().err
        assert calls == []


    def test_k_larger_than_the_store_exits_1_before_any_generation(
            self, store, dataset, capsys, endpoint_calls):
        assert main(["sweep", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", f"static:{TRACE_GOLD}",
                     "--axis", "k", "--values", "2,9"]) == 1
        assert capsys.readouterr().err == \
            "error: requested 9 exemplars but only 8 are available\n"
        assert endpoint_calls == []

    def test_repeated_k_value_sends_each_first_pass_prompt_once(
            self, store, dataset, capsys, endpoint_calls):
        assert main(["sweep", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", f"static:{TRACE_GOLD}",
                     "--axis", "k", "--values", "2,2"]) == 0
        first_pass, second_pass = endpoint_calls
        assert len(first_pass) == len(set(first_pass)) == 8
        assert len(second_pass) == 8
        first, second = capsys.readouterr().out.splitlines()[2:]
        assert first == second and first.startswith("2\t0\t")

    @pytest.mark.parametrize("axis, flags", [("alpha", ["--alpha", "0.3"]),
                                             ("k", ["--k", "3"])])
    def test_flag_of_the_swept_setting_exits_2(self, store, dataset, capsys,
                                               endpoint_calls, axis, flags):
        assert main(["sweep", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", f"static:{TRACE_GOLD}",
                     "--axis", axis, "--values", "0,1" if axis == "alpha"
                     else "1,2", *flags]) == 2
        assert capsys.readouterr().err == \
            f"error: {flags[0]} has no effect on --axis {axis}; drop the flag\n"
        assert endpoint_calls == []

    @pytest.mark.parametrize("axis, values, kept", [
        ("alpha", "0,1", ("k", 4)), ("k", "1,2", ("alpha", 0.75))])
    def test_note_echoes_every_setting_but_the_swept_one(
            self, tmp_path, store, dataset, capsys, axis, values, kept):
        # a config file value of the swept setting, even a bad one, is
        # ignored as the axis sets it
        config = tmp_path / "config.json"
        config.write_text(json.dumps({axis: 0 if axis == "k" else 1.5,
                                      "budget": 60}))
        assert main(["--config", str(config), "sweep", "--store", str(store),
                     "--data", str(dataset), "--final-endpoint", "static:x",
                     "--axis", axis, "--values", values]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        note = json.loads(line[len("# config: "):])
        assert note == {
            "axis": axis, "values": json.loads(f"[{values}]"), "seeds": [0],
            kept[0]: kept[1], "mode": "gandr", "budget": 60,
            "failure_policy": "skip", "recall_k": None,
            "sample_fraction": None, "preliminary_endpoint": "static:x",
            "final_endpoint": "static:x", "timeout": 30.0}

    def test_alpha_axis_in_input_only_mode_exits_2(self, store, dataset,
                                                   capsys, monkeypatch):
        calls = []

        def counting(self, inputs):
            calls.append(list(inputs))
            return [self.output for _ in inputs]

        monkeypatch.setattr(StaticGenerator, "generate", counting)
        assert main(["sweep", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", f"static:{TRACE_GOLD}",
                     "--mode", "input-only",
                     "--axis", "alpha", "--values", "0,0.75"]) == 2
        assert "alpha has no effect in input-only mode" in \
            capsys.readouterr().err
        assert calls == []


class TestEmitTrain:
    @pytest.mark.parametrize("flags, message", [
        (["--stage", "1", "--alpha", "0.5"],
         "--alpha has no effect at stage 1; drop the flag"),
        (["--stage", "1", "--preliminary-from", "nope.jsonl"],
         "--preliminary-from has no effect at stage 1; drop the flag"),
        (["--stage", "1", "--preliminary-endpoint", "static:x"],
         "--preliminary-endpoint has no effect at stage 1; drop the flag"),
        (["--stage", "1", "--timeout", "-5"],
         "timeout must be a positive finite number of seconds, got -5.0"),
        (["--stage", "2", "--preliminary-from", "RECORDS", "--timeout", "-5"],
         "timeout must be a positive finite number of seconds, got -5.0"),
        (["--stage", "2", "--preliminary-from", "RECORDS",
          "--preliminary-endpoint", "static:x"], "--preliminary-endpoint has "
         "no effect with --preliminary-from; drop the flag"),
        (["--stage", "2", "--preliminary-endpoint", "static:[IN:PLAY_MUSIC ]",
          "--p", "0"], "sampling decay p must be positive, got 0.0"),
        (["--stage", "2", "--preliminary-endpoint", "static:[IN:PLAY_MUSIC ]",
          "--p", "nan"], "sampling decay p must be positive, got nan"),
        (["--stage", "2", "--preliminary-endpoint", "static:[IN:PLAY_MUSIC ]",
          "--alpha", "1.5"], "alpha must lie in [0, 1], got 1.5"),
        (["--stage", "2", "--preliminary-endpoint", "static:[IN:PLAY_MUSIC ]",
          "--alpha", "nan"], "alpha must lie in [0, 1], got nan"),
    ], ids=["stage1-alpha", "stage1-preliminary-from",
            "stage1-preliminary-endpoint", "stage1-timeout",
            "stage2-records-timeout", "stage2-records-preliminary-endpoint",
            "p-0", "p-nan", "alpha-1.5",
            "alpha-nan"])
    def test_unused_flag_or_bad_value_exits_2_before_any_generation(
            self, tmp_path, store, dataset, capsys, flags, message,
            endpoint_calls):
        records = tmp_path / "records.jsonl"
        assert main(["run", "--store", str(store), "--data", str(dataset),
                     "--final-endpoint", f"oracle:{dataset}",
                     "--out", str(records)]) == 0
        flags = [str(records) if f == "RECORDS" else f for f in flags]
        out = tmp_path / "t.jsonl"
        capsys.readouterr()
        assert main(["emit-train", "--store", str(store), *flags,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert endpoint_calls == []
        assert not out.exists()

    def test_stage1_ignores_preliminary_settings_from_env_and_config(
            self, tmp_path, store, monkeypatch):
        monkeypatch.setenv("GANDR_PRELIMINARY_URL", "static:x")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 0.5,
                                      "preliminary_endpoint": "static:y"}))
        out = tmp_path / "t.jsonl"
        assert main(["--config", str(config), "emit-train", "--store",
                     str(store), "--stage", "1", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 8

    def test_stage1(self, tmp_path, store, capsys):
        out = tmp_path / "train.jsonl"
        code = main(["emit-train", "--store", str(store), "--stage", "1",
                     "--k", "2", "--seed", "5", "--out", str(out)])
        assert code == 0
        assert "stage 1" in capsys.readouterr().out
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 8
        assert set(rows[0]) == {"input", "output"}
        assert " || " in rows[0]["input"]

    def test_stage1_is_seed_deterministic(self, tmp_path, store):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            main(["emit-train", "--store", str(store), "--stage", "1",
                  "--seed", "11", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flags, budget_in_config, message", [
        (["--seed", "-1"], None,
         "--seed must be a non-negative integer, got -1"),
        (["--budget", "0"], None, "budget must be a positive integer, got 0"),
        (["--budget", "-3"], None,
         "budget must be a positive integer, got -3"),
        ([], 0, "budget must be a positive integer, got 0"),
    ], ids=["seed", "budget-0", "budget-negative", "config-budget-0"])
    @pytest.mark.parametrize("stage", ["1", "2"])
    def test_bad_setting_exits_2_before_any_generation(
            self, tmp_path, store, capsys, monkeypatch, flags,
            budget_in_config, message, stage):
        calls = []

        def counting(self, inputs):
            calls.append(list(inputs))
            return [self.output for _ in inputs]

        monkeypatch.setattr(StaticGenerator, "generate", counting)
        config_flags = []
        if budget_in_config is not None:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"budget": budget_in_config}),
                              encoding="utf-8")
            config_flags = ["--config", str(config)]
        out = tmp_path / "t.jsonl"
        assert main([*config_flags, "emit-train",
                     "--store", str(store), "--stage", stage,
                     "--preliminary-endpoint", f"static:{TRACE_GOLD}",
                     *flags, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_stage2_needs_preliminaries(self, tmp_path, store, capsys):
        code = main(["emit-train", "--store", str(store), "--stage", "2",
                     "--out", str(tmp_path / "t.jsonl")])
        assert code == 2
        assert "preliminaries" in capsys.readouterr().err

    def test_stage2_null_preliminary_endpoint_exits_2(self, tmp_path, store,
                                                      capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"preliminary_endpoint": None}))
        code = main(["--config", str(config), "emit-train", "--store",
                     str(store), "--stage", "2",
                     "--out", str(tmp_path / "t.jsonl")])
        assert code == 2
        assert "preliminaries" in capsys.readouterr().err

    def test_stage2_from_records(self, tmp_path, store, dataset):
        records = tmp_path / "records.jsonl"
        main(["run", "--store", str(store), "--data", str(dataset),
              "--final-endpoint", f"oracle:{dataset}",
              "--out", str(records)])
        out = tmp_path / "train.jsonl"
        code = main(["emit-train", "--store", str(store), "--stage", "2",
                     "--preliminary-from", str(records), "--alpha", "1.0",
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 8

    def test_stage2_records_of_other_data_exit_2(self, tmp_path, capsys):
        rows = [f"{e.utterance}\t{e.parse}\n" for e in TRACE_EXEMPLARS[:4]]
        train, dev = tmp_path / "train.tsv", tmp_path / "dev.tsv"
        train.write_text("".join(rows), encoding="utf-8")
        # the same rows in another order: sample i of dev.tsv is not
        # exemplar i of the store
        dev.write_text("".join(reversed(rows)), encoding="utf-8")
        store, records = tmp_path / "s.store", tmp_path / "records.jsonl"
        assert main(["index", "--data", str(train), "--out", str(store)]) == 0
        assert main(["run", "--store", str(store), "--data", str(dev),
                     "--final-endpoint", f"oracle:{dev}",
                     "--out", str(records)]) == 0
        out = tmp_path / "s2.jsonl"
        stage2 = ["emit-train", "--store", str(store), "--stage", "2",
                  "--preliminary-from", str(records), "--alpha", "0.75",
                  "--k", "2", "--out", str(out)]
        capsys.readouterr()
        assert main(stage2) == 2
        first, last = TRACE_EXEMPLARS[0].utterance, TRACE_EXEMPLARS[3].utterance
        assert capsys.readouterr().err == (
            f"error: {records}: the record for sample 0 has query {last!r}, "
            f"but the sample's utterance is {first!r}; pass the --data the "
            f"records came from\n")
        assert not out.exists()
        assert main(stage2 + ["--data", str(dev)]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 4

    def test_stage2_non_string_preliminary_exits_1(self, tmp_path, store,
                                                   dataset, capsys):
        records = tmp_path / "records.jsonl"
        main(["run", "--store", str(store), "--data", str(dataset),
              "--final-endpoint", f"oracle:{dataset}",
              "--out", str(records)])
        lines = records.read_text(encoding="utf-8").splitlines()
        lines[4] = json.dumps(dict(json.loads(lines[4]), preliminary=5))
        records.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "train.jsonl"
        code = main(["emit-train", "--store", str(store), "--stage", "2",
                     "--preliminary-from", str(records), "--alpha", "1.0",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 5: preliminary must be a string or null, got int" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_stage2_non_integer_sample_id_exits_1(self, tmp_path, store,
                                                  dataset, capsys):
        records = tmp_path / "records.jsonl"
        main(["run", "--store", str(store), "--data", str(dataset),
              "--final-endpoint", f"oracle:{dataset}",
              "--out", str(records)])
        lines = records.read_text(encoding="utf-8").splitlines()
        lines[0] = json.dumps(dict(json.loads(lines[0]), sample_id="zero"))
        records.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "train.jsonl"
        code = main(["emit-train", "--store", str(store), "--stage", "2",
                     "--preliminary-from", str(records),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 1: sample_id must be a 64-bit integer, got 'zero'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_stage2_with_endpoint(self, tmp_path, store, dataset):
        out = tmp_path / "train.jsonl"
        code = main(["emit-train", "--store", str(store), "--stage", "2",
                     "--preliminary-endpoint", f"oracle:{dataset}",
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 8

    def test_other_file_row_ids_keep_equal_id_exemplars(self, tmp_path):
        rows = [(e.utterance, e.parse) for e in TRACE_EXEMPLARS]
        store_data, other = tmp_path / "store.tsv", tmp_path / "other.tsv"
        store_data.write_text("".join(f"{u}\t{p}\n" for u, p in rows[:3]))
        other.write_text("{}\t{}\n".format(*rows[3]))
        store = tmp_path / "three.store"
        assert main(["index", "--data", str(store_data),
                     "--out", str(store)]) == 0
        out = tmp_path / "train.jsonl"
        # sample 0 of other.tsv is not exemplar 0 of the store
        assert main(["emit-train", "--store", str(store), "--data",
                     str(other), "--stage", "1", "--k", "3",
                     "--out", str(out)]) == 0
        query, exemplars = split_augmented(json.loads(out.read_text())["input"])
        assert query == rows[3][0]
        assert sorted(exemplars) == sorted(rows[:3])

    @pytest.mark.parametrize("keep_self", [False, True])
    def test_stage2_preliminary_prompts_follow_keep_self(
            self, tmp_path, store, monkeypatch, keep_self):
        prompts = []

        class Capture(StaticGenerator):
            def generate(self, inputs):
                prompts.extend(inputs)
                return super().generate(inputs)

        monkeypatch.setattr(cli, "_build_endpoint",
                            lambda spec, timeout: Capture(TRACE_PRELIMINARY))
        argv = ["emit-train", "--store", str(store), "--stage", "2",
                "--k", "1", "--preliminary-endpoint", "static:unused",
                "--out", str(tmp_path / "train.jsonl")]
        assert main(argv + (["--keep-self"] if keep_self else [])) == 0
        self_prompts = [f"{e.utterance} || {e.utterance} & {e.parse}"
                        for e in TRACE_EXEMPLARS]
        if keep_self:
            # a sample's own store entry is its best input match
            assert prompts == self_prompts
        else:
            assert len(prompts) == len(self_prompts)
            assert not set(prompts) & set(self_prompts)


class TestTrace:
    def test_human_readable(self, store, capsys):
        code = main(["trace", "--store", str(store), "--query", TRACE_QUERY,
                     "--gold", TRACE_GOLD, "--alpha", "0.75",
                     "--preliminary-endpoint", f"static:{TRACE_PRELIMINARY}",
                     "--final-endpoint", f"static:{TRACE_GOLD}"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pass 1 (alpha=0.0):" in out
        assert "pass 2 (alpha=0.75):" in out
        assert f"preliminary: {TRACE_PRELIMINARY}" in out
        assert "exact match: yes" in out

    def test_json(self, store, capsys):
        code = main(["trace", "--store", str(store), "--query", TRACE_QUERY,
                     "--final-endpoint", f"static:{TRACE_GOLD}", "--json"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["final"] == TRACE_GOLD
        assert record["status"] == "ok"


    def test_bad_query_exits_2(self, store, capsys):
        assert main(["trace", "--store", str(store), "--query", "play it ||",
                     "--k", "1", "--final-endpoint", "static:[IN:X ]"]) == 2
        assert ("error: field contains the separator ' || ': 'play it ||'"
                in capsys.readouterr().err)


class TestConfigResolution:
    def test_config_file_supplies_defaults(self, tmp_path, store, dataset,
                                           capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "final_endpoint": f"oracle:{dataset}", "alpha": 0.25, "k": 3}))
        out = tmp_path / "r.jsonl"
        code = main(["--config", str(config), "run", "--store", str(store),
                     "--data", str(dataset), "--out", str(out)])
        assert code == 0
        sidecar = json.loads((tmp_path / "r.jsonl.config.json").read_text())
        assert sidecar["alpha"] == 0.25
        assert sidecar["k"] == 3

    def test_flag_beats_config(self, tmp_path, store, dataset):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "final_endpoint": f"oracle:{dataset}", "alpha": 0.25}))
        out = tmp_path / "r.jsonl"
        code = main(["--config", str(config), "run", "--store", str(store),
                     "--data", str(dataset), "--alpha", "0.9",
                     "--out", str(out)])
        assert code == 0
        sidecar = json.loads((tmp_path / "r.jsonl.config.json").read_text())
        assert sidecar["alpha"] == 0.9

    def test_env_supplies_endpoint(self, tmp_path, store, dataset,
                                   monkeypatch):
        monkeypatch.setenv("GANDR_FINAL_URL", f"oracle:{dataset}")
        out = tmp_path / "r.jsonl"
        code = main(["run", "--store", str(store), "--data", str(dataset),
                     "--out", str(out)])
        assert code == 0
        sidecar = json.loads((tmp_path / "r.jsonl.config.json").read_text())
        assert sidecar["final_endpoint"] == f"oracle:{dataset}"

    @pytest.mark.parametrize("key, value", [("mode", "bogus"),
                                            ("failure_policy", "sometimes")])
    def test_bad_enum_in_config_exits_2(self, tmp_path, store, dataset,
                                        capsys, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value,
                                      "final_endpoint": "static:x"}))
        code = main(["--config", str(config), "run", "--store", str(store),
                     "--data", str(dataset), "--out", str(tmp_path / "r.jsonl")])
        assert code == 2
        assert f"bad value for {key}: {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("k", 2.5), ("k", True), ("alpha", True), ("budget", 7.9),
        ("timeout", False), ("final_endpoint", 5),
        ("preliminary_endpoint", ["a"]),
        pytest.param("alpha", 2 ** 1024, id="alpha-int-beyond-float")])
    def test_config_value_of_the_wrong_json_type_exits_2(
            self, tmp_path, store, dataset, capsys, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"final_endpoint": "static:x",
                                      key: value}))
        out = tmp_path / "r.jsonl"
        code = main(["--config", str(config), "run", "--store", str(store),
                     "--data", str(dataset), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: bad value for {key}: {value!r}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_config_strings_and_integral_numbers_still_cast(
            self, tmp_path, store, dataset):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "final_endpoint": f"oracle:{dataset}", "k": "3", "alpha": 1,
            "budget": "50", "timeout": 5}))
        out = tmp_path / "r.jsonl"
        code = main(["--config", str(config), "run", "--store", str(store),
                     "--data", str(dataset), "--out", str(out)])
        assert code == 0
        sidecar = json.loads((tmp_path / "r.jsonl.config.json").read_text())
        assert (sidecar["k"], sidecar["alpha"], sidecar["budget"],
                sidecar["timeout"]) == (3, 1.0, 50, 5.0)

    def test_unknown_config_key_exits_2(self, tmp_path, store, dataset,
                                        capsys, monkeypatch):
        """A misspelled key is refused before any endpoint or store is
        touched, not read as the default."""
        touched = []
        monkeypatch.setattr(cli, "_build_endpoint",
                            lambda *a: touched.append("endpoint"))
        monkeypatch.setattr(cli, "load_store",
                            lambda *a, **kw: touched.append("store"))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"aplha": 0.3, "jobs": 2}))
        out = tmp_path / "r.jsonl"
        code = main(["--config", str(config), "run", "--store", str(store),
                     "--data", str(dataset),
                     "--final-endpoint", f"oracle:{dataset}", "--k", "2",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {config} has unknown key 'aplha'; the keys are alpha, "
            "k, budget, mode, failure_policy, timeout, preliminary_endpoint, "
            "final_endpoint, p\n")
        assert touched == []
        assert not out.exists()
        assert not (tmp_path / "r.jsonl.config.json").exists()

    def test_bad_config_file_exits_2(self, tmp_path, store, dataset, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        code = main(["--config", str(config), "retrieve", "--store",
                     str(store), "--query", "hello"])
        assert code == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("content, reason", [
        (b'{"k": 2, "x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
         "nested too deeply"),
        (b'{"k": 2, "x": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    ], ids=["deeply-nested", "not-utf-8"])
    def test_undecodable_config_file_exits_2(self, tmp_path, store, capsys,
                                             content, reason):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        code = main(["--config", str(config), "retrieve", "--store",
                     str(store), "--query", "hello"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {config} is not valid JSON: {reason}" in err
        assert "Traceback" not in err


BAD_REQUEST_LIMITS = [
    (["--timeout", "-5"],
     "error: timeout must be a positive finite number of seconds, got -5.0"),
    (["--max-batch", "0"],
     "error: max_batch must be a positive integer, got 0"),
]


def endpoint_command(command, endpoint, store, dataset, out):
    return {
        "run": ["run", "--store", str(store), "--data", str(dataset),
                "--final-endpoint", endpoint, "--out", str(out)],
        "sweep": ["sweep", "--store", str(store), "--data", str(dataset),
                  "--final-endpoint", endpoint, "--axis", "k",
                  "--values", "1,2", "--out", str(out)],
        "trace": ["trace", "--store", str(store), "--query", TRACE_QUERY,
                  "--final-endpoint", endpoint],
        "emit-train": ["emit-train", "--store", str(store), "--stage", "2",
                       "--preliminary-endpoint", endpoint, "--out", str(out)],
    }[command]


@pytest.mark.parametrize("endpoint", [f"static:{TRACE_GOLD}",
                                      "http://127.0.0.1:9/"],
                         ids=["static", "http"])
@pytest.mark.parametrize("command, flags, message", [
    pytest.param(command, flags, message, id=f"{command}{flags[0]}")
    for command in ("run", "sweep", "trace", "emit-train")
    for flags, message in BAD_REQUEST_LIMITS
    # emit-train has no --max-batch flag
    if not (command == "emit-train" and flags[0] == "--max-batch")])
def test_bad_request_limit_exits_2_for_every_endpoint(
        tmp_path, store, dataset, capsys, monkeypatch, command, flags,
        message, endpoint):
    def no_generation(self, inputs):
        raise AssertionError("a sample ran")

    monkeypatch.setattr(StaticGenerator, "generate", no_generation)
    out = tmp_path / "out"
    argv = endpoint_command(command, endpoint, store, dataset, out)
    capsys.readouterr()
    assert main(argv + flags) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "trace"])
@pytest.mark.parametrize("flag", ["--preliminary-endpoint",
                                  "--record-preliminary"])
def test_preliminary_flag_exits_2_in_input_only_mode(
        tmp_path, store, dataset, capsys, endpoint_calls, command, flag):
    out, log = tmp_path / "out", tmp_path / "p.jsonl"
    argv = endpoint_command(command, f"static:{TRACE_GOLD}", store, dataset,
                            out)
    capsys.readouterr()
    assert main(argv + ["--mode", "input-only", flag, str(log)]) == 2
    assert capsys.readouterr().err == \
        f"error: {flag} has no effect in input-only mode; drop the flag\n"
    assert endpoint_calls == []
    assert not out.exists() and not log.exists()


def store_command(command, store, dataset, out):
    """``command`` with the flags it needs bar sweep's axis and eval's
    records, and a static endpoint where it takes one."""
    endpoint = ["--final-endpoint", f"static:{TRACE_GOLD}"]
    return [command, "--store", str(store), *{
        "retrieve": ["--query", TRACE_QUERY],
        "run": ["--data", str(dataset), *endpoint, "--out", str(out)],
        "eval": [],
        "sweep": ["--data", str(dataset), *endpoint, "--out", str(out)],
        "emit-train": ["--stage", "2", "--preliminary-endpoint",
                       f"static:{TRACE_GOLD}", "--out", str(out)],
        "trace": ["--query", TRACE_QUERY, *endpoint],
    }[command]]


ALPHA_AXIS = ["--axis", "alpha", "--values", "0,1"]
K_AXIS = ["--axis", "k", "--values", "1,2"]
BAD_SETTINGS = [
    (command, flags, message)
    for flags, message, commands in [
        (["--k", "0"], "k must be a positive integer, got 0",
         ("retrieve", "run", "sweep", "emit-train", "trace")),
        (["--alpha", "1.5"], "alpha must lie in [0, 1], got 1.5",
         ("retrieve", "run", "sweep", "emit-train", "trace")),
        (["--budget", "0"], "budget must be a positive integer, got 0",
         ("run", "sweep", "emit-train", "trace")),
        (["--p", "0"], "sampling decay p must be positive, got 0.0",
         ("emit-train",)),
        (["--alpha", "0.5"], "alpha > 0 requires a preliminary parse",
         ("retrieve",)),
        (["--records", "RECORDS", "--k", "0"],
         "recall k must be at least 1, got 0", ("eval",)),
        (["--records", "MISSING"], "file not found: MISSING", ("eval",)),
        (["--recall-k", "0"], "recall k must be at least 1, got 0",
         ("sweep",)),
        (["--sample-fraction", "0"], "sample fraction must lie in (0, 1], "
         "got 0.0", ("sweep",)),
        (["--values", ","], "sweep needs at least one value and one seed",
         ("sweep",)),
        (["--seeds", ","], "sweep needs at least one value and one seed",
         ("sweep",)),
    ]
    for command in commands]


@pytest.mark.parametrize("command, flags, message", [
    pytest.param(*case, id=f"{case[0]}{'='.join(case[1][-2:])}")
    for case in BAD_SETTINGS])
def test_bad_setting_exits_2_without_reading_the_store(
        tmp_path, store, dataset, capsys, monkeypatch, command, flags,
        message):
    loads = []
    monkeypatch.setattr(cli, "load_store", loads.append)
    records, missing = tmp_path / "records.jsonl", tmp_path / "missing.jsonl"
    records.write_text("")
    if command == "sweep":
        flags = (K_AXIS if flags[0] == "--alpha" else ALPHA_AXIS) + flags
    paths = {"RECORDS": str(records), "MISSING": str(missing)}
    flags = [paths.get(flag, flag) for flag in flags]
    argv = store_command(command, store, dataset, tmp_path / "out")
    capsys.readouterr()
    assert main(argv + flags) == 2
    assert capsys.readouterr().err == \
        f"error: {message.replace('MISSING', str(missing))}\n"
    assert loads == []


GOLD_ENDPOINT = f"static:{TRACE_GOLD}"
RUN_SIDECAR = """{
  "alpha": 0.3,
  "budget": 60,
  "command": "run",
  "data": "data.tsv",
  "failure_policy": "skip",
  "final_endpoint": "%s",
  "k": 2,
  "mode": "MODE",
  "pass2_alpha": PASS2_ALPHA,
  "preliminary_endpoint": PRELIMINARY,
  "store": "trace.store",
  "timeout": 5.0
}
""" % GOLD_ENDPOINT
SWEEP_NOTES = {
    "k": '# config: {"alpha": 0.3, "axis": "k", "budget": 60, '
         '"failure_policy": "skip", "final_endpoint": "%s", "mode": "gandr", '
         '"preliminary_endpoint": "static:x", "recall_k": 2, '
         '"sample_fraction": 0.5, "seeds": [0, 1], "timeout": 30.0, '
         '"values": [1, 2]}' % GOLD_ENDPOINT,
    "alpha": '# config: {"axis": "alpha", "budget": 60, '
             '"failure_policy": "skip", "final_endpoint": "%s", "k": 4, '
             '"mode": "gandr", "preliminary_endpoint": "static:x", '
             '"recall_k": 2, "sample_fraction": 0.5, "seeds": [0, 1], '
             '"timeout": 30.0, "values": [0.0, 1.0]}' % GOLD_ENDPOINT,
}


def test_settings_echo_bytes(tmp_path, store, dataset, monkeypatch):
    """The run sidecar and the sweep note name each setting read, with a
    value from a flag, the config file or the default; input-only mode
    reads no alpha, so its sidecar has none, even a bad one."""
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    for mode, alpha in (("gandr", 0.3), ("input-only", 1.5)):
        config.write_text(json.dumps({"budget": 60, "alpha": alpha}))
        assert main(["--config", "config.json", "run", "--store",
                     "trace.store", "--data", "data.tsv", "--mode", mode,
                     "--k", "2", "--timeout", "5", "--final-endpoint",
                     GOLD_ENDPOINT, "--out", f"{mode}.jsonl"]) == 0
    gandr = RUN_SIDECAR.replace("MODE", "gandr").replace(
        "PASS2_ALPHA", "0.3").replace("PRELIMINARY", f'"{GOLD_ENDPOINT}"')
    input_only = RUN_SIDECAR.replace("MODE", "input-only").replace(
        "PASS2_ALPHA", "0.0").replace("PRELIMINARY", "null").replace(
        '  "alpha": 0.3,\n', "")
    assert (tmp_path / "gandr.jsonl.config.json").read_text() == gandr
    assert (tmp_path / "input-only.jsonl.config.json").read_text() == \
        input_only
    config.write_text(json.dumps({"budget": 60, "alpha": 0.3}))
    for axis, values in (("k", "1,2"), ("alpha", "0,1")):
        assert main(["--config", "config.json", "sweep", "--store",
                     "trace.store", "--data", "data.tsv", "--axis", axis,
                     "--values", values, "--seeds", "0,1",
                     "--sample-fraction", "0.5", "--recall-k", "2",
                     "--final-endpoint", GOLD_ENDPOINT,
                     "--preliminary-endpoint", "static:x",
                     "--out", "sweep.tsv"]) == 0
        note = (tmp_path / "sweep.tsv").read_text().splitlines()[0]
        assert note == SWEEP_NOTES[axis]


@pytest.mark.parametrize("command", ["sweep", "trace"])
def test_input_only_mode_reads_no_alpha(tmp_path, store, dataset, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"alpha": 1.5}))
    out = tmp_path / "out"
    argv = endpoint_command(command, f"static:{TRACE_GOLD}", store, dataset,
                            out)
    assert main(["--config", str(config), *argv,
                 "--mode", "input-only"]) == 0
    if command == "sweep":
        assert '"alpha"' not in out.read_text().splitlines()[0]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "gandr" in capsys.readouterr().out


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_import_loads_no_http_client():
    """``import gandr.cli`` loads no HTTP or TLS module: only an http(s)
    endpoint's first request needs one."""
    source = str(Path(gandr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, gandr.cli; print(sorted(m for m "
         "in ('requests', 'urllib3', 'http.client', 'ssl') "
         "if m in sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert loaded == "[]\n"
