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
* RemoteGenerator: HTTP POST to a model server.
"""

from __future__ import annotations

import json
import math
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import requests

from .augment import EXEMPLAR_SEP
from .data_io import decode_json, numbered_lines
from .errors import (
    ConfigError,
    CorruptFile,
    GenerationError,
    GenerationTimeout,
    RemoteError,
)
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
    """Delegates to another endpoint and logs the traffic as replay JSONL."""

    def __init__(self, inner: Generator, path: str | Path):
        self.inner = inner
        self.path = Path(path)

    def generate(self, inputs: Sequence[str]) -> list[str]:
        outputs = self.inner.generate(inputs)
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


class RemoteGenerator(Generator):
    """HTTP endpoint speaking ``{"inputs": [...]} -> {"outputs": [...]}``.

    Batches larger than ``max_batch`` are split into sequential requests.
    Timeouts, connection failures, and 5xx responses are retried up to
    ``retries`` extra attempts with exponential backoff; 4xx responses
    fail immediately. Exhaustion raises GenerationTimeout when the last
    failure was a timeout, GenerationError otherwise (RemoteError when
    no retries were configured). ``timeout`` must be a positive finite
    number of seconds, ``max_batch`` a positive int or None (no limit),
    ``retries`` a non-negative int and ``backoff`` a non-negative finite
    number of seconds; anything else is a ConfigError.
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
        self.url = url
        self.timeout = timeout
        self.max_batch = max_batch
        self.retries = retries
        self.backoff = backoff
        self._session = requests.Session()

    def _post_once(self, chunk: Sequence[str]) -> list[str]:
        try:
            response = self._session.post(
                self.url, json={"inputs": list(chunk)}, timeout=self.timeout)
        except requests.Timeout as exc:
            raise GenerationTimeout(
                f"{self.url} did not answer within {self.timeout}s") from exc
        except requests.ConnectionError as exc:
            raise RemoteError(f"{self.url} is unreachable: {exc}") from exc
        if response.status_code != 200:
            raise RemoteError(
                f"{self.url} answered {response.status_code}",
                status=response.status_code)
        try:
            outputs = response.json()["outputs"]
        except (ValueError, KeyError, RecursionError) as exc:
            # a body nested past the decoder's recursion limit is malformed
            # too, not a crash
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
