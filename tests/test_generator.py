import json
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import Miscounting, any_text
from gandr.errors import (
    ConfigError,
    CorruptFile,
    GenerationError,
    GenerationTimeout,
    RemoteError,
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
        with pytest.raises(GenerationError, match="^no gold output for "
                                                  "query 'unknown query'$"):
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
        with pytest.raises(CorruptFile, match="line 2 repeats an input with "
                                              "a different output: 'a'$"):
            ReplayGenerator.from_path(log)

    def test_miss(self, tmp_path):
        log = tmp_path / "log.jsonl"
        self.write_log(log, [{"input": "a", "output": "1"}])
        with pytest.raises(GenerationError,
                           match="^prompt not in replay log: 'b'$"):
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


@pytest.mark.parametrize("extra", [-1, 1])
def test_recording_logs_no_miscounted_answer(tmp_path, extra):
    log = tmp_path / "log.jsonl"
    recorder = RecordingGenerator(Miscounting(extra), log)
    with pytest.raises(GenerationError, match=f"^generator returned "
                       f"{2 + extra} outputs for 2 prompts$"):
        recorder.generate(["p1", "p2"])
    assert not log.exists()


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
    """Answers by the server's script; HTTP/1.0, so it closes the
    connection after every response."""

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        body = json.loads(raw) if length else {}
        server = self.server
        with server.lock:
            server.raw_bodies.append(raw)
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
        elif behavior == "deep":
            raw = b'{"outputs": ' + b"[" * 5000 + b"]" * 5000 + b"}"
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
        elif behavior == "list":
            raw = json.dumps(["parsed:a"]).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)
        elif behavior == "trickle":
            # a whole answer, one byte every 0.2 s
            raw = json.dumps({"outputs": ["parsed:a"]}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.flush()
            for byte in raw:
                time.sleep(0.2)
                self.wfile.write(bytes([byte]))
                self.wfile.flush()
        elif behavior == "hang up":
            # answers as if keeping the connection alive, then closes it
            raw = json.dumps({"outputs": ["parsed:a"]}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)
            self.close_connection = True

    def log_message(self, *args):
        pass


class KeepAliveHandler(StubHandler):
    """The stub over HTTP/1.1: the connection stays open between requests."""

    protocol_version = "HTTP/1.1"


class QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        # broken pipes from timed-out clients are expected here
        pass

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()


def serve(handler):
    server = QuietServer(("127.0.0.1", 0), handler)
    server.script = []
    server.requests = []
    server.raw_bodies = []
    server.connections = 0
    server.closed = threading.Semaphore(0)
    server.lock = threading.Lock()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_address[1]}/generate"
    return server


@pytest.fixture
def stub_server():
    server = serve(StubHandler)
    yield server
    server.shutdown()


@pytest.fixture
def keepalive_server():
    server = serve(KeepAliveHandler)
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
        with pytest.raises(GenerationError, match=r"^3 attempts against "
                           r"http://\S+ all failed$") as info:
            gen.generate(["a"])
        assert type(info.value) is GenerationError
        assert info.value.__cause__.status == 503
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

    def test_deeply_nested_body_is_malformed(self, stub_server):
        stub_server.script[:] = ["deep"]
        gen = RemoteGenerator(stub_server.url, timeout=5.0, retries=0)
        with pytest.raises(RemoteError, match="malformed body"):
            gen.generate(["a"])
        assert len(stub_server.requests) == 1

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

    def test_unicode_prompts_round_trip_as_ascii_json(self, stub_server):
        prompts = ["caf\u00e9 \u2028 \U0001f600", "weather \ud800 in paris",
                   "[IN:X \udfff ]"]
        gen = RemoteGenerator(stub_server.url, timeout=5.0)
        assert gen.generate(prompts) == [f"parsed:{p}" for p in prompts]
        assert stub_server.raw_bodies == \
            [json.dumps({"inputs": prompts}).encode()]

    def test_trickled_answer_times_out_at_the_deadline(self, stub_server):
        stub_server.script[:] = ["trickle"]
        gen = RemoteGenerator(stub_server.url, timeout=0.5, retries=0)
        start = time.monotonic()
        with pytest.raises(GenerationTimeout, match="did not answer within "
                                                    "0.5s$"):
            gen.generate(["a"])
        assert time.monotonic() - start < 1.5

    def test_a_connection_closed_after_every_answer_is_reopened(
            self, stub_server):
        gen = RemoteGenerator(stub_server.url, timeout=5.0, retries=0)
        for text in "abc":
            assert gen.generate([text]) == [f"parsed:{text}"]
        assert stub_server.connections == 3

    def test_one_connection_serves_every_request(self, keepalive_server):
        gen = RemoteGenerator(keepalive_server.url, timeout=5.0, retries=0)
        for text in "abc":
            assert gen.generate([text]) == [f"parsed:{text}"]
        assert keepalive_server.connections == 1

    def test_a_connection_the_server_closed_is_reopened(self,
                                                        keepalive_server):
        keepalive_server.script[:] = ["hang up"]
        gen = RemoteGenerator(keepalive_server.url, timeout=5.0, retries=0)
        assert gen.generate(["a"]) == ["parsed:a"]
        assert keepalive_server.closed.acquire(timeout=5)
        assert gen.generate(["b"]) == ["parsed:b"]
        assert len(keepalive_server.requests) == 2
        assert keepalive_server.connections == 2

    def test_a_failed_exchange_reopens_the_connection(self, keepalive_server):
        keepalive_server.script[:] = ["sleep"]
        gen = RemoteGenerator(keepalive_server.url, timeout=0.3, retries=0)
        with pytest.raises(GenerationTimeout):
            gen.generate(["a"])
        assert gen.generate(["b"]) == ["parsed:b"]
        assert keepalive_server.connections == 2

    def test_body_that_is_not_an_object_is_malformed(self, stub_server):
        stub_server.script[:] = ["list"]
        gen = RemoteGenerator(stub_server.url, timeout=5.0, retries=0)
        with pytest.raises(RemoteError, match="malformed body"):
            gen.generate(["a"])

    @pytest.mark.parametrize("url", [
        "ftp://127.0.0.1/generate", "http:///generate", "http://[::1/x",
        "http://127.0.0.1:99999/generate", "http://b\u00fccher.example/x"])
    def test_url_without_a_host_or_port_is_a_config_error(self, url):
        with pytest.raises(ConfigError, match="endpoint must be an http"):
            RemoteGenerator(url, timeout=5.0)
