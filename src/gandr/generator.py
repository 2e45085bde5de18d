"""Generation endpoints: things that map batches of prompts to outputs.

All endpoints implement ``generate(inputs) -> outputs`` with one output
per input, in order. The family:

* StaticGenerator: one fixed string, for wiring tests.
* OracleLookupGenerator: answers with the gold parse of the query part of
  an augmented prompt; an upper-bound stand-in for a real model.
* ReplayGenerator: answers from a recorded JSONL log, for byte-exact
  reruns without a model.
* RecordingGenerator: wraps another endpoint and appends its traffic to a
  JSONL log that ReplayGenerator can consume.
* RemoteGenerator: HTTP POST to a model server, through ``http.client``,
  which it imports at its first request: the module loads ``ssl``, and
  no other endpoint needs either.
"""

from __future__ import annotations

import io
import json
import math
import select
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterable, Mapping, Sequence
from urllib.parse import quote, urlsplit

from .augment import EXEMPLAR_SEP
from .data_io import decode_json, numbered_lines
from .errors import (
    ConfigError,
    CorruptFile,
    GenerationError,
    GenerationTimeout,
    RemoteError,
)
from .pipeline import generate_checked
from .retrieval import Exemplar, validate_k


class Generator(ABC):
    """Batch text-to-text endpoint."""

    @abstractmethod
    def generate(self, inputs: Sequence[str]) -> list[str]:
        """One output per input, same order."""


class StaticGenerator(Generator):
    """Returns the same canned output for every input."""

    def __init__(self, output: str):
        self.output = output

    def generate(self, inputs: Sequence[str]) -> list[str]:
        return [self.output for _ in inputs]


class OracleLookupGenerator(Generator):
    """Answers with the gold parse keyed by the prompt's query part.

    The query is everything before the first exemplar separator, so the
    same lookup works for bare and augmented prompts. Unknown queries
    raise GenerationError.
    """

    def __init__(self, gold_by_query: Mapping[str, str]):
        self._gold = dict(gold_by_query)

    @classmethod
    def from_exemplars(cls, exemplars: Iterable[Exemplar]) -> "OracleLookupGenerator":
        return cls({e.utterance: e.parse for e in exemplars})

    def generate(self, inputs: Sequence[str]) -> list[str]:
        outputs = []
        for text in inputs:
            query = text.split(EXEMPLAR_SEP, 1)[0]
            if query not in self._gold:
                raise GenerationError(f"no gold output for query {query!r}")
            outputs.append(self._gold[query])
        return outputs


class ReplayGenerator(Generator):
    """Replays input -> output pairs from a JSONL log.

    Repeated identical pairs are fine; the same input with two different
    outputs is a CorruptFile at load time. Prompts absent from the log
    raise GenerationError.
    """

    def __init__(self, mapping: Mapping[str, str]):
        self._mapping = dict(mapping)

    @classmethod
    def from_path(cls, path: str | Path) -> "ReplayGenerator":
        mapping: dict[str, str] = {}
        for lineno, raw in numbered_lines(path):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                entry = decode_json(line)
                text, output = entry["input"], entry["output"]
                if not (isinstance(text, str) and isinstance(output, str)):
                    raise TypeError("input and output must be strings")
            except (ValueError, TypeError, KeyError) as exc:
                raise CorruptFile(
                    f"{path}: line {lineno} is not a replay entry: {exc}"
                ) from exc
            if text in mapping and mapping[text] != output:
                raise CorruptFile(
                    f"{path}: line {lineno} repeats an input with a "
                    f"different output: {text!r}")
            mapping[text] = output
        return cls(mapping)

    def __len__(self) -> int:
        return len(self._mapping)

    def generate(self, inputs: Sequence[str]) -> list[str]:
        outputs = []
        for text in inputs:
            if text not in self._mapping:
                raise GenerationError(f"prompt not in replay log: {text!r}")
            outputs.append(self._mapping[text])
        return outputs


class RecordingGenerator(Generator):
    """Delegates to another endpoint and logs the traffic as replay JSONL.

    An answer that is not one output per input is a GenerationError, as in
    the pipeline, and logs nothing, so a replay of the log fails where the
    recorded run failed.
    """

    def __init__(self, inner: Generator, path: str | Path):
        self.inner = inner
        self.path = Path(path)

    def generate(self, inputs: Sequence[str]) -> list[str]:
        outputs = generate_checked(self.inner, inputs)
        with open(self.path, "a", encoding="utf-8",
                  errors="backslashreplace") as fh:
            for text, output in zip(inputs, outputs):
                fh.write(json.dumps({"input": text, "output": output},
                                    ensure_ascii=False) + "\n")
            fh.flush()
        return outputs


def _finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def validate_request_limits(timeout: float, max_batch: int | None) -> None:
    """The rule for a request ``timeout`` (a positive finite number of
    seconds) and ``max_batch`` (a positive int, or None for no limit);
    anything else is a ConfigError."""
    if not (_finite_number(timeout) and timeout > 0):
        raise ConfigError(f"timeout must be a positive finite number "
                          f"of seconds, got {timeout!r}")
    if max_batch is not None:
        validate_k(max_batch, "max_batch")


def _time_left(deadline: float) -> float:
    """Seconds until ``deadline``, a ``time.monotonic()`` value; a
    TimeoutError once it has passed."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("the request's deadline passed")
    return left


class _DeadlineReads(io.RawIOBase):
    """A connected socket's reads, each allowed only the time left before
    ``deadline``. A socket timeout alone restarts at every read, so a
    server that trickles its answer would never run out of it.
    ``http.client.HTTPResponse`` takes this in place of the socket and
    reads through its ``makefile``."""

    def __init__(self, sock, deadline: float):
        super().__init__()
        self._sock = sock
        self._raw = sock.makefile("rb", buffering=0)
        self._deadline = deadline

    def makefile(self, mode: str) -> io.BufferedReader:
        return io.BufferedReader(self)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        self._sock.settimeout(_time_left(self._deadline))
        return self._raw.readinto(buffer)

    def close(self) -> None:
        self._raw.close()
        super().close()


def _closed_by_server(sock) -> bool:
    """Whether an idle kept-alive socket reads as ready: its server closed
    it, or sent what no request asked for, and either way it is spent."""
    return bool(select.select([sock], [], [], 0)[0])


def _split_http_url(url: str) -> tuple[str, str, int | None, str]:
    """``url``'s scheme, host, port and request target; a ConfigError
    unless it is an http(s) URL with an ASCII host and a valid port."""
    try:
        parts = urlsplit(url)
        scheme, host, port = parts.scheme, parts.hostname, parts.port
    except ValueError:  # an unclosed IPv6 bracket, a port out of range
        scheme = host = None
    if scheme not in ("http", "https") or not host or not host.isascii():
        raise ConfigError(f"endpoint must be an http(s) URL with an ASCII "
                          f"host and a valid port, got {url!r}")
    target = (parts.path or "/") + ("?" + parts.query if parts.query else "")
    # percent-encode what a request line cannot hold; keep the escapes
    return scheme, host, port, quote(target, safe="!#$%&'()*+,/:;=?@[]~")


class RemoteGenerator(Generator):
    """HTTP endpoint speaking ``{"inputs": [...]} -> {"outputs": [...]}``.

    Batches larger than ``max_batch`` are split into sequential requests.
    Timeouts, connection failures, and 5xx responses are retried up to
    ``retries`` extra attempts with exponential backoff; 4xx responses
    fail immediately. Exhaustion raises GenerationTimeout when the last
    failure was a timeout, GenerationError otherwise (RemoteError when
    no retries were configured). ``timeout`` bounds a whole request: the
    connect, the send and every read of the answer share it. It must be
    a positive finite number of seconds, ``max_batch`` a positive int or
    None (no limit), ``retries`` a non-negative int, ``backoff`` a
    non-negative finite number of seconds, and ``url`` an http(s) URL
    with an ASCII host and a valid port; anything else is a ConfigError.

    Each generator keeps one connection alive between requests and opens
    a fresh one after a failed exchange or once its server closed it. It
    reads no proxy variables, follows no redirect and verifies TLS
    against the system's trust store.
    """

    def __init__(self, url: str, timeout: float = 30.0,
                 max_batch: int | None = None, retries: int = 2,
                 backoff: float = 0.1):
        validate_request_limits(timeout, max_batch)
        if isinstance(retries, bool) or not isinstance(retries, int) \
                or retries < 0:
            raise ConfigError(f"retries must be a non-negative integer, "
                              f"got {retries!r}")
        if not (_finite_number(backoff) and backoff >= 0):
            raise ConfigError(f"backoff must be a non-negative finite number "
                              f"of seconds, got {backoff!r}")
        self._scheme, self._host, self._port, self._target = \
            _split_http_url(url)
        self.url = url
        self.timeout = timeout
        self.max_batch = max_batch
        self.retries = retries
        self.backoff = backoff
        self._connection = None

    def _exchange(self, chunk: Sequence[str],
                  deadline: float) -> tuple[int, bytes]:
        """POST ``chunk`` on the kept connection and read the whole answer,
        each step waiting only until ``deadline``."""
        import http.client

        connection = self._connection
        if connection is None:
            kind = http.client.HTTPSConnection if self._scheme == "https" \
                else http.client.HTTPConnection
            connection = self._connection = kind(self._host, self._port)
        elif connection.sock is not None \
                and _closed_by_server(connection.sock):
            connection.close()
        if connection.sock is None:
            connection.timeout = _time_left(deadline)
            connection.connect()
        connection.sock.settimeout(_time_left(deadline))
        connection.response_class = \
            lambda sock, *args, **kwargs: http.client.HTTPResponse(
                _DeadlineReads(sock, deadline), *args, **kwargs)
        # ASCII-escaped JSON, so a lone surrogate in a prompt survives
        connection.request("POST", self._target,
                           json.dumps({"inputs": list(chunk)}).encode(),
                           {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()

    def _post_once(self, chunk: Sequence[str]) -> list[str]:
        import http.client

        deadline = time.monotonic() + self.timeout
        try:
            status, body = self._exchange(chunk, deadline)
        except (OSError, http.client.HTTPException) as exc:
            if self._connection is not None:
                self._connection.close()
            if isinstance(exc, TimeoutError):
                raise GenerationTimeout(f"{self.url} did not answer within "
                                        f"{self.timeout}s") from exc
            raise RemoteError(f"{self.url} is unreachable: {exc}") from exc
        if status != 200:
            raise RemoteError(f"{self.url} answered {status}", status=status)
        try:
            outputs = decode_json(body.decode("utf-8"))["outputs"]
        except (ValueError, KeyError, TypeError) as exc:
            raise RemoteError(f"{self.url} sent a malformed body: {exc}") from exc
        if not isinstance(outputs, list) or len(outputs) != len(chunk) \
                or not all(isinstance(o, str) for o in outputs):
            raise RemoteError(
                f"{self.url} sent {len(outputs) if isinstance(outputs, list) else 'non-list'} "
                f"outputs for {len(chunk)} inputs")
        return outputs

    def _post_with_retry(self, chunk: Sequence[str]) -> list[str]:
        for attempt in range(self.retries + 1):
            try:
                return self._post_once(chunk)
            except RemoteError as exc:
                if self.retries == 0 \
                        or exc.status is not None and 400 <= exc.status < 500:
                    raise
                last = exc
            except GenerationTimeout:
                if attempt == self.retries:
                    raise
            if attempt < self.retries:
                time.sleep(self.backoff * (2 ** attempt))
        # a 4xx, a lone attempt's failure and a last timeout were raised as
        # they are; a 5xx or lost connection on the last retry ends here
        raise GenerationError(f"{self.retries + 1} attempts against "
                              f"{self.url} all failed") from last

    def generate(self, inputs: Sequence[str]) -> list[str]:
        if not inputs:
            return []
        size = self.max_batch or len(inputs)
        outputs: list[str] = []
        for start in range(0, len(inputs), size):
            outputs.extend(self._post_with_retry(inputs[start:start + size]))
        return outputs
