import json
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import any_text
from gandr.errors import (
    ConfigError,
    CorruptFile,
    GenerationTimeout,
    OracleMiss,
    RemoteError,
    ReplayConflict,
    ReplayMiss,
    RetriesExhausted,
)
from gandr.generator import (
    OracleLookupGenerator,
    RecordingGenerator,
    RemoteGenerator,
    ReplayGenerator,
    StaticGenerator,
)
from gandr.retrieval import Exemplar


def test_static_answers_everything():
    gen = StaticGenerator("[IN:X y ]")
    assert gen.generate(["a", "b"]) == ["[IN:X y ]", "[IN:X y ]"]
    assert gen.generate(["anything"])[0] == "[IN:X y ]"


class TestOracleLookup:
    def test_bare_and_augmented_prompts(self):
        gen = OracleLookupGenerator.from_exemplars([
            Exemplar(0, "call mom", "[IN:CREATE_CALL [SL:CONTACT mom ] ]"),
        ])
        assert gen.generate(["call mom"]) == \
            ["[IN:CREATE_CALL [SL:CONTACT mom ] ]"]
        augmented = "call mom || other utterance & [IN:OTHER x ]"
        assert gen.generate([augmented]) == \
            ["[IN:CREATE_CALL [SL:CONTACT mom ] ]"]

    def test_miss(self):
        gen = OracleLookupGenerator({"known": "[IN:A x ]"})
        with pytest.raises(OracleMiss):
            gen.generate(["unknown query"])


class TestReplay:
    def write_log(self, path, entries):
        path.write_text("".join(json.dumps(e) + "\n" for e in entries),
                        encoding="utf-8")

    def test_replays_recorded_outputs(self, tmp_path):
        log = tmp_path / "log.jsonl"
        self.write_log(log, [{"input": "a", "output": "1"},
                             {"input": "b", "output": "2"}])
        gen = ReplayGenerator.from_path(log)
        assert gen.generate(["b", "a"]) == ["2", "1"]
        assert len(gen) == 2

    def test_identical_duplicates_are_fine(self, tmp_path):
        log = tmp_path / "log.jsonl"
        self.write_log(log, [{"input": "a", "output": "1"},
                             {"input": "a", "output": "1"}])
        assert ReplayGenerator.from_path(log).generate(["a"]) == ["1"]

    def test_conflicting_duplicates_rejected(self, tmp_path):
        log = tmp_path / "log.jsonl"
        self.write_log(log, [{"input": "a", "output": "1"},
                             {"input": "a", "output": "2"}])
        with pytest.raises(ReplayConflict):
            ReplayGenerator.from_path(log)

    def test_miss(self, tmp_path):
        log = tmp_path / "log.jsonl"
        self.write_log(log, [{"input": "a", "output": "1"}])
        with pytest.raises(ReplayMiss):
            ReplayGenerator.from_path(log).generate(["b"])

    def test_corrupt_line(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text('{"input": "a", "output": "1"}\nnot json\n',
                       encoding="utf-8")
        with pytest.raises(CorruptFile):
            ReplayGenerator.from_path(log)

    @pytest.mark.parametrize("entry", [
        {"input": "a", "output": 5},
        {"input": "a", "output": None},
        {"input": "a", "output": ["1"]},
        {"input": 5, "output": "1"},
        {"input": None, "output": "1"},
        {"input": ["a"], "output": "1"},
    ])
    def test_non_string_fields_are_corrupt(self, tmp_path, entry):
        log = tmp_path / "log.jsonl"
        self.write_log(log, [{"input": "b", "output": "2"}, entry])
        with pytest.raises(CorruptFile, match="line 2 .*must be strings"):
            ReplayGenerator.from_path(log)

    def test_blank_lines_skipped(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text('\n{"input": "a", "output": "1"}\n\n',
                       encoding="utf-8")
        assert len(ReplayGenerator.from_path(log)) == 1


def test_recording_round_trips_into_replay(tmp_path):
    log = tmp_path / "log.jsonl"
    recorder = RecordingGenerator(StaticGenerator("out"), log)
    recorder.generate(["p1", "p2"])
    recorder.generate(["p3"])
    replay = ReplayGenerator.from_path(log)
    assert replay.generate(["p1", "p2", "p3"]) == ["out", "out", "out"]


@settings(max_examples=100, deadline=None)
@given(traffic=st.dictionaries(any_text, any_text, max_size=4))
@example(traffic={"weather \ud800 in paris": "[IN:X \udfff ]",
                  "\u2028": "\x85"})
def test_recording_round_trips_arbitrary_text(traffic):
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.jsonl"
        recorder = RecordingGenerator(ReplayGenerator(traffic), log)
        assert recorder.generate(list(traffic)) == list(traffic.values())
        replay = ReplayGenerator.from_path(log)
    assert replay.generate(list(traffic)) == list(traffic.values())


class StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        server = self.server
        with server.lock:
            server.requests.append(body)
            behavior = (server.script.pop(0) if server.script else "ok")
        if behavior == "ok":
            payload = {"outputs": [f"parsed:{x}" for x in body["inputs"]]}
            raw = json.dumps(payload).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)
        elif isinstance(behavior, int):
            self.send_response(behavior)
            self.send_header("Content-Length", "0")
            self.end_headers()
        elif behavior == "sleep":
            time.sleep(1.5)
            self.send_response(200)
            self.send_header("Content-Length", "0")
            self.end_headers()
        elif behavior == "garbage":
            raw = b"not json at all"
            self.send_response(200)
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)
        elif behavior == "short":
            raw = json.dumps({"outputs": ["only one"]}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)

    def log_message(self, *args):
        pass


class QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        # broken pipes from timed-out clients are expected here
        pass


@pytest.fixture
def stub_server():
    server = QuietServer(("127.0.0.1", 0), StubHandler)
    server.script = []
    server.requests = []
    server.lock = threading.Lock()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_address[1]}/generate"
    yield server
    server.shutdown()


class TestRemote:
    @pytest.mark.parametrize("timeout", [
        -1, 0, 0.0, -0.5, float("nan"), float("inf"), True, "5", None])
    def test_bad_timeout_is_a_config_error(self, stub_server, timeout):
        with pytest.raises(ConfigError, match="timeout"):
            RemoteGenerator(stub_server.url, timeout=timeout)
        assert stub_server.requests == []

    @pytest.mark.parametrize("max_batch", [-1, 0, True, 2.0, "2"])
    def test_bad_max_batch_is_a_config_error(self, stub_server, max_batch):
        with pytest.raises(ConfigError, match="max_batch"):
            RemoteGenerator(stub_server.url, timeout=5.0, max_batch=max_batch)
        assert stub_server.requests == []

    @pytest.mark.parametrize("retries", [-1, True, 1.5, "2", None])
    def test_bad_retries_is_a_config_error(self, stub_server, retries):
        with pytest.raises(ConfigError, match="retries"):
            RemoteGenerator(stub_server.url, timeout=5.0, retries=retries)
        assert stub_server.requests == []

    @pytest.mark.parametrize("backoff", [
        -1, -0.5, float("nan"), float("inf"), True, "0.1", None])
    def test_bad_backoff_is_a_config_error(self, stub_server, backoff):
        with pytest.raises(ConfigError, match="backoff"):
            RemoteGenerator(stub_server.url, timeout=5.0, backoff=backoff)
        assert stub_server.requests == []

    def test_round_trip(self, stub_server):
        gen = RemoteGenerator(stub_server.url, timeout=5.0)
        assert gen.generate(["a", "b"]) == ["parsed:a", "parsed:b"]
        assert stub_server.requests == [{"inputs": ["a", "b"]}]

    def test_empty_batch_never_hits_the_network(self, stub_server):
        gen = RemoteGenerator(stub_server.url, timeout=5.0)
        assert gen.generate([]) == []
        assert stub_server.requests == []

    def test_max_batch_chunks_requests(self, stub_server):
        gen = RemoteGenerator(stub_server.url, timeout=5.0, max_batch=2)
        outputs = gen.generate(["a", "b", "c", "d", "e"])
        assert outputs == [f"parsed:{x}" for x in "abcde"]
        assert [len(r["inputs"]) for r in stub_server.requests] == [2, 2, 1]

    def test_client_error_fails_fast(self, stub_server):
        stub_server.script[:] = [404, 404, 404]
        gen = RemoteGenerator(stub_server.url, timeout=5.0, retries=3,
                              backoff=0.01)
        with pytest.raises(RemoteError) as info:
            gen.generate(["a"])
        assert info.value.status == 404
        assert len(stub_server.requests) == 1

    def test_server_error_retries_then_succeeds(self, stub_server):
        stub_server.script[:] = [500]
        gen = RemoteGenerator(stub_server.url, timeout=5.0, retries=2,
                              backoff=0.01)
        assert gen.generate(["a"]) == ["parsed:a"]
        assert len(stub_server.requests) == 2

    def test_retries_exhausted(self, stub_server):
        stub_server.script[:] = [500, 502, 503]
        gen = RemoteGenerator(stub_server.url, timeout=5.0, retries=2,
                              backoff=0.01)
        with pytest.raises(RetriesExhausted):
            gen.generate(["a"])
        assert len(stub_server.requests) == 3

    def test_single_attempt_server_error_is_remote_error(self, stub_server):
        stub_server.script[:] = [500]
        gen = RemoteGenerator(stub_server.url, timeout=5.0, retries=0)
        with pytest.raises(RemoteError) as info:
            gen.generate(["a"])
        assert info.value.status == 500

    def test_timeout_is_distinguishable(self, stub_server):
        stub_server.script[:] = ["sleep"]
        gen = RemoteGenerator(stub_server.url, timeout=0.3, retries=0)
        with pytest.raises(GenerationTimeout):
            gen.generate(["a"])

    def test_malformed_body(self, stub_server):
        stub_server.script[:] = ["garbage"]
        gen = RemoteGenerator(stub_server.url, timeout=5.0, retries=0)
        with pytest.raises(RemoteError):
            gen.generate(["a"])

    def test_wrong_output_count(self, stub_server):
        stub_server.script[:] = ["short"]
        gen = RemoteGenerator(stub_server.url, timeout=5.0, retries=0)
        with pytest.raises(RemoteError):
            gen.generate(["a", "b"])

    def test_unreachable_host(self):
        gen = RemoteGenerator("http://127.0.0.1:1/generate", timeout=0.5,
                              retries=0)
        with pytest.raises(RemoteError):
            gen.generate(["a"])
