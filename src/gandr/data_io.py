"""Dataset loading, store persistence, record and replay-log files, and splits.

Datasets arrive as TSV (``utterance<TAB>parse[<TAB>domain]``) or JSONL
(``{"utterance": ..., "parse": ..., "domain": ...}``). Loading is total
by default: rows that cannot become exemplars are collected as issues
with their line numbers instead of aborting the load; ``strict=True``
raises on the first bad row.

Stores, records, replay logs and training pairs are JSON lines, all read
by one reader and written by one writer. The writer goes through a temp
file renamed over the target, so a crash never leaves a half-written
artifact, and fixed key order makes a save/load/save cycle byte-identical.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ConfigError,
    CorruptFile,
    GandrError,
    MalformedParse,
    MalformedRow,
    VersionMismatch,
    shown,
)
from .pipeline import PredictionRecord, Sample, TrainingPair
from .retrieval import Exemplar, ExemplarStore, collector_paused

STORE_FORMAT = "gandr-store"
STORE_VERSION = 1
# the one TF-IDF weighting (see gandr.tfidf), as every store header names it
STORE_CONFIG = {"sublinear_tf": False, "normalize": True}


@dataclass(frozen=True)
class LoadIssue:
    """One rejected input row and why it was rejected."""

    line: int
    message: str


@dataclass(frozen=True)
class LoadResult:
    exemplars: list[Exemplar]
    issues: list[LoadIssue]


# stores use compact separators, every other file json's default ones
_encode = json.JSONEncoder(ensure_ascii=False).encode
_dump = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def atomic_write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text``, as ``_atomic_write`` does."""
    _atomic_write(path, [text])


def _atomic_write(path: str | Path, chunks: Iterable[str]) -> None:
    """Write each of ``chunks`` as it comes to a sibling temp file, then
    rename it over ``path``, so readers never see partial output. The file
    gets the mode ``open`` gives a new one, ``0o666`` less the umask, not
    the temp file's ``0o600``."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8",
                       errors="backslashreplace") as fh:
            fh.writelines(chunks)
        # the umask is read by setting it, and restored at once
        umask = os.umask(0o022)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_lines(values: Iterable, encode=_encode) -> Iterator[str]:
    """Each of ``values`` as one JSON line, encoded as it is asked for."""
    return (encode(value) + "\n" for value in values)


def numbered_lines(path: str | Path) -> Iterator[tuple[int, bytes]]:
    """The lines of a file, numbered from 1 and still encoded, split where
    text mode splits them: at \\n, \\r\\n or \\r. Readers decode each line
    on its own, so a byte that is not UTF-8 can be reported with its line.
    """
    with open(path, "rb") as fh:
        yield from enumerate((raw for chunk in fh
                              for raw in chunk.splitlines(keepends=True)), 1)


def decode_json(text: str):
    """``json.loads``, where every decode failure is a ValueError.

    json raises RecursionError for a value nested past the interpreter's
    recursion limit, even under a key gandr ignores; every reader reports
    that line like any other line that is not JSON.
    """
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"nested too deeply: {exc}") from exc


def _read_json_lines(path: str | Path, convert, lines=None) -> Iterator:
    """``convert`` of each non-blank line's JSON value. A line that is not
    UTF-8 or JSON, or that ``convert`` rejects with a KeyError, TypeError
    or ValueError, is a CorruptFile naming its line. ``lines`` are the
    ``numbered_lines`` left to read, if the caller read the first ones."""
    for lineno, raw in numbered_lines(path) if lines is None else lines:
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            value = convert(decode_json(line))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptFile(f"{path}: line {lineno}: {exc}") from exc
        yield value


def _load(path: str | Path, parse_line, skip_first: bool,
          strict: bool) -> LoadResult:
    """Assign sequential ids to the rows ``parse_line`` makes of good
    lines; a row error, with its line number, becomes an issue. An empty
    domain is no domain; any other value goes to the type's check."""
    exemplars: list[Exemplar] = []
    issues: list[LoadIssue] = []
    for lineno, raw in numbered_lines(path):
        if skip_first and lineno == 1:
            continue
        try:
            try:
                row = parse_line(raw.decode("utf-8"))
                if row is None:
                    continue
                utterance, parse, domain = row
                exemplar = Exemplar(len(exemplars), utterance, parse,
                                    None if domain == "" else domain)
            except UnicodeDecodeError as exc:
                raise MalformedRow(f"not UTF-8: {exc}", lineno) from exc
            except MalformedParse as exc:
                raise MalformedRow(f"bad parse: {exc}", lineno) from exc
            except MalformedRow as exc:
                raise type(exc)(str(exc), lineno) from exc
        except MalformedRow as exc:
            if strict:
                raise
            issues.append(LoadIssue(line=lineno, message=str(exc)))
            continue
        exemplars.append(exemplar)
    return LoadResult(exemplars=exemplars, issues=issues)


def read_tsv(path: str | Path, has_header: bool = False,
             strict: bool = False) -> LoadResult:
    """Load utterance/parse[/domain] rows from a tab-separated file."""

    def parse_line(raw: str):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            return None
        cols = line.split("\t")
        if len(cols) == 2:
            return cols[0], cols[1], None
        if len(cols) == 3:
            return cols[0], cols[1], cols[2]
        raise MalformedRow(
            f"expected 2 or 3 tab-separated columns, got {len(cols)}")

    return _load(path, parse_line, skip_first=has_header, strict=strict)


def read_jsonl(path: str | Path, strict: bool = False) -> LoadResult:
    """Load {"utterance", "parse", "domain"?} objects, one per line."""

    def parse_line(raw: str):
        line = raw.strip()
        if not line:
            return None
        try:
            obj = decode_json(line)
        except ValueError as exc:
            raise MalformedRow(f"not JSON: {exc}") from exc
        if not isinstance(obj, dict) or "utterance" not in obj \
                or "parse" not in obj:
            raise MalformedRow("object needs 'utterance' and 'parse' keys")
        return obj["utterance"], obj["parse"], obj.get("domain")

    return _load(path, parse_line, skip_first=False, strict=strict)


def load_dataset(path: str | Path, fmt: str | None = None,
                 has_header: bool = False, strict: bool = False) -> LoadResult:
    """Dispatch on explicit format or file extension (.tsv / .jsonl)."""
    if fmt is None:
        suffix = Path(path).suffix.lower()
        fmt = {".tsv": "tsv", ".jsonl": "jsonl", ".json": "jsonl"}.get(suffix)
        if fmt is None:
            raise ConfigError(
                f"cannot infer dataset format from {path}; pass tsv or jsonl")
    if fmt == "tsv":
        return read_tsv(path, has_header=has_header, strict=strict)
    if fmt == "jsonl":
        return read_jsonl(path, strict=strict)
    raise ConfigError(f"unknown dataset format {fmt!r}")


def samples_from_exemplars(exemplars: Iterable[Exemplar]) -> list[Sample]:
    """View dataset rows as pipeline samples; the parse becomes the gold."""
    return [Sample(sample_id=e.exemplar_id, utterance=e.utterance,
                   gold=e.parse, domain=e.domain) for e in exemplars]


@dataclass(frozen=True)
class Full:
    """Keep every exemplar."""


@dataclass(frozen=True)
class FixedCount:
    """Keep exactly n exemplars, sampled without replacement."""

    n: int


@dataclass(frozen=True)
class Fraction:
    """Keep floor(fraction * N) exemplars, sampled without replacement."""

    fraction: float


SplitSpec = Full | FixedCount | Fraction


def validate_fraction(fraction: float, name: str) -> float:
    """The rule for a fraction of items: a real, not a bool, in (0, 1]."""
    if not isinstance(fraction, numbers.Real) or isinstance(fraction, bool):
        raise ConfigError(f"{name} must be a number, got {fraction!r}")
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(
            f"{name} must lie in (0, 1], got {shown(fraction, str)}")
    return fraction


def apply_split(items: Sequence, spec: SplitSpec, seed: int = 0) -> list:
    """Subsample items per the spec; selection order follows the input order."""
    n_total = len(items)
    if isinstance(spec, Full):
        return list(items)
    if isinstance(spec, FixedCount):
        n = spec.n
        if not isinstance(n, numbers.Integral) or isinstance(n, bool):
            raise ConfigError(f"split count must be an integer, got {n!r}")
        if n < 1:
            raise ConfigError(
                f"split count must be positive, got {shown(n)}")
        if n > n_total:
            raise GandrError(
                f"split asks for {shown(n)} of {n_total} exemplars")
    elif isinstance(spec, Fraction):
        validate_fraction(spec.fraction, "split fraction")
        n = math.floor(spec.fraction * n_total)
        if n < 1:
            raise ConfigError(
                f"fraction {spec.fraction} of {n_total} items selects nothing")
    else:
        raise ConfigError(f"unknown split spec {spec!r}")
    rng = np.random.default_rng(seed)
    chosen = sorted(rng.choice(n_total, size=n, replace=False).tolist())
    return [items[i] for i in chosen]


def parse_split_spec(text: str) -> SplitSpec:
    """Parse 'full', 'count:N', or 'fraction:F'."""
    if text == "full":
        return Full()
    kind, sep, value = text.partition(":")
    if sep:
        if kind == "count":
            try:
                return FixedCount(int(value))
            except ValueError:
                pass
        elif kind == "fraction":
            try:
                return Fraction(float(value))
            except ValueError:
                pass
    raise ConfigError(f"bad split spec {text!r}; "
                      "use full, count:N, or fraction:F")


def save_store(store: ExemplarStore, path: str | Path) -> None:
    """Persist exemplars as a versioned header line plus one JSON row each."""
    header = {"format": STORE_FORMAT, "version": STORE_VERSION,
              "count": len(store), "config": STORE_CONFIG}
    rows = ({"exemplar_id": e.exemplar_id, "utterance": e.utterance,
             "parse": e.parse, "domain": e.domain} for e in store.exemplars)
    _atomic_write(path, _json_lines(itertools.chain([header], rows), _dump))


@collector_paused()
def load_store(path: str | Path) -> ExemplarStore:
    """Rebuild a store from disk; indexes are refit from the rows.

    The cyclic garbage collector is paused while the rows load, as it is
    while ``ExemplarStore.build`` fits the indexes: everything they make
    outlives the load. The caller's collector state is restored on every
    exit. Each parse is checked through its cached bracket skeleton (see
    ``top_parse.parse_labels``), so rows of one kind share one label
    tuple. A line that does not decode, however deeply it nests, is a
    CorruptFile naming its line.
    """
    # rows keep U+0085, U+2028 and the like unescaped; the lines are split
    # before decoding, so only ASCII line breaks end a row
    lines = numbered_lines(path)
    first = next(lines, None)
    if first is None:
        raise CorruptFile(f"{path}: empty store file")
    try:
        header = decode_json(first[1].decode("utf-8"))
    except ValueError as exc:
        raise CorruptFile(f"{path}: bad header line: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != STORE_FORMAT:
        raise VersionMismatch(f"{path}: not a {STORE_FORMAT} file")
    if header.get("version") != STORE_VERSION:
        raise VersionMismatch(
            f"{path}: version {header.get('version')!r}, "
            f"expected {STORE_VERSION}")
    config = header.get("config", STORE_CONFIG)
    if not isinstance(config, dict):
        raise VersionMismatch(
            f"{path}: TF-IDF config must be an object, got {_dump(config)}")
    for key, value in STORE_CONFIG.items():
        # JSON true and false load as the bool singletons; 1 or "no" do not
        if config.get(key, value) is not value:
            raise VersionMismatch(
                f"{path}: TF-IDF setting {key} is {_dump(config[key])}, "
                f"but gandr scores only with {key} {_dump(value)}")
    store = ExemplarStore()

    def add(row) -> None:
        store.add(Exemplar(row["exemplar_id"], row["utterance"],
                           row["parse"], row.get("domain")))

    count = 0
    for _ in _read_json_lines(path, add, lines):
        count += 1
    promised = header.get("count")
    # json gives int only for integers, and a bool is not a count
    if type(promised) is not int or promised != count:
        raise CorruptFile(
            f"{path}: header promises {_dump(promised)} rows, found {count}")
    return store


def write_records(records: Iterable[PredictionRecord], path: str | Path) -> None:
    _atomic_write(path, _json_lines(r.to_dict() for r in records))


def read_records(path: str | Path) -> list[PredictionRecord]:
    return list(_read_json_lines(path, PredictionRecord.from_dict))


def _replay_entry(text: str, output: str) -> dict:
    """The replay-log line of one prompt and its answer."""
    return {"input": text, "output": output}


def append_replay_log(path: str | Path, inputs: Sequence[str],
                      outputs: Sequence[str]) -> None:
    """Append each prompt and its answer to the replay log at ``path``."""
    with open(path, "a", encoding="utf-8", errors="backslashreplace") as fh:
        fh.writelines(_json_lines(map(_replay_entry, inputs, outputs)))


def read_replay_log(path: str | Path) -> dict[str, str]:
    """A replay log's answers by prompt. An entry's input and output must
    be strings; a prompt logged twice must have one answer."""
    answers: dict[str, str] = {}

    def add(entry) -> None:
        text, output = entry["input"], entry["output"]
        if not (isinstance(text, str) and isinstance(output, str)):
            raise TypeError("input and output must be strings")
        if answers.setdefault(text, output) != output:
            raise ValueError(
                f"repeats an input with a different output: {text!r}")

    for _ in _read_json_lines(path, add):
        pass
    return answers


def write_training_pairs(pairs: Sequence[TrainingPair],
                         path: str | Path) -> None:
    """Emit fine-tuning pairs as replay-log lines, which a replay endpoint
    can serve."""
    _atomic_write(path, _json_lines(_replay_entry(p.text, p.target)
                                    for p in pairs))
