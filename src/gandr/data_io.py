"""Dataset loading, store persistence, record files, and splits.

Datasets arrive as TSV (``utterance<TAB>parse[<TAB>domain]``) or JSONL
(``{"utterance": ..., "parse": ..., "domain": ...}``). Loading is total
by default: rows that cannot become exemplars are collected as issues
with their line numbers instead of aborting the load; ``strict=True``
raises on the first bad row.

All writers go through a temp-file-plus-rename so a crash never leaves a
half-written artifact, and all serialization uses fixed key order so a
save/load/save cycle is byte-identical.
"""

from __future__ import annotations

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


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see
    partial output. The file gets the mode ``open`` gives a new one,
    ``0o666`` less the umask, not the temp file's ``0o600``."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8",
                       errors="backslashreplace") as fh:
            fh.write(text)
        # the umask is read by setting it, and restored at once
        umask = os.umask(0o022)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def numbered_lines(path: str | Path) -> Iterator[tuple[int, bytes]]:
    """The lines of a file, numbered from 1 and still encoded, split where
    text mode splits them: at \\n, \\r\\n or \\r. Readers decode each line
    on its own, so a byte that is not UTF-8 can be reported with its line.
    """
    lineno = 0
    with open(path, "rb") as fh:
        for chunk in fh:
            for raw in chunk.splitlines(keepends=True):
                lineno += 1
                yield lineno, raw


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


def _decoded_row(raw: bytes, lineno: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"not UTF-8: {exc}", lineno) from exc


def _exemplar(exemplar_id: int, utterance, parse, domain,
              line: int) -> Exemplar:
    """The row as an exemplar; the type's error gains the line number. An
    empty domain is no domain; any other value goes to the type's check."""
    try:
        return Exemplar(exemplar_id, utterance, parse,
                        None if domain == "" else domain)
    except MalformedParse as exc:
        raise MalformedRow(f"bad parse: {exc}", line) from exc
    except MalformedRow as exc:
        raise type(exc)(str(exc), line) from exc


def _load(path: str | Path, parse_line, skip_first: bool,
          strict: bool) -> LoadResult:
    """Assign sequential ids to good rows; bad rows become issues."""
    exemplars: list[Exemplar] = []
    issues: list[LoadIssue] = []
    next_id = 0
    for lineno, raw in numbered_lines(path):
        if skip_first and lineno == 1:
            continue
        try:
            parsed = parse_line(lineno, _decoded_row(raw, lineno))
            if parsed is None:
                continue
            exemplar = _exemplar(next_id, *parsed, lineno)
        except MalformedRow as exc:
            if strict:
                raise
            issues.append(LoadIssue(line=lineno, message=str(exc)))
            continue
        exemplars.append(exemplar)
        next_id += 1
    return LoadResult(exemplars=exemplars, issues=issues)


def read_tsv(path: str | Path, has_header: bool = False,
             strict: bool = False) -> LoadResult:
    """Load utterance/parse[/domain] rows from a tab-separated file."""

    def parse_line(lineno: int, raw: str):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            return None
        cols = line.split("\t")
        if len(cols) == 2:
            return cols[0], cols[1], None
        if len(cols) == 3:
            return cols[0], cols[1], cols[2]
        raise MalformedRow(
            f"expected 2 or 3 tab-separated columns, got {len(cols)}", lineno)

    return _load(path, parse_line, skip_first=has_header, strict=strict)


def read_jsonl(path: str | Path, strict: bool = False) -> LoadResult:
    """Load {"utterance", "parse", "domain"?} objects, one per line."""

    def parse_line(lineno: int, raw: str):
        line = raw.strip()
        if not line:
            return None
        try:
            obj = decode_json(line)
        except ValueError as exc:
            raise MalformedRow(f"not JSON: {exc}", lineno) from exc
        if not isinstance(obj, dict) or "utterance" not in obj \
                or "parse" not in obj:
            raise MalformedRow(
                "object needs 'utterance' and 'parse' keys", lineno)
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
        raise ConfigError(f"{name} must lie in (0, 1], got {fraction}")
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
            raise ConfigError(f"split count must be positive, got {n}")
        if n > n_total:
            raise GandrError(f"split asks for {n} of {n_total} exemplars")
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


def _dump(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def save_store(store: ExemplarStore, path: str | Path) -> None:
    """Persist exemplars as a versioned header line plus one JSON row each."""
    header = _dump({
        "format": STORE_FORMAT,
        "version": STORE_VERSION,
        "count": len(store),
        "config": STORE_CONFIG,
    })
    rows = [
        _dump({"exemplar_id": e.exemplar_id, "utterance": e.utterance,
               "parse": e.parse, "domain": e.domain})
        for e in store.exemplars
    ]
    atomic_write_text(path, "\n".join([header] + rows) + "\n")


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
    count = 0
    for lineno, raw in lines:
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            row = decode_json(line)
            exemplar = Exemplar(
                exemplar_id=row["exemplar_id"],
                utterance=row["utterance"], parse=row["parse"],
                domain=row.get("domain"))
            store.add(exemplar)
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptFile(f"{path}: line {lineno}: {exc}") from exc
        count += 1
    promised = header.get("count")
    # json gives int only for integers, and a bool is not a count
    if type(promised) is not int or promised != count:
        raise CorruptFile(
            f"{path}: header promises {_dump(promised)} rows, found {count}")
    return store


def write_records(records: Sequence[PredictionRecord], path: str | Path) -> None:
    lines = [json.dumps(r.to_dict(), ensure_ascii=False) for r in records]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_records(path: str | Path) -> list[PredictionRecord]:
    records: list[PredictionRecord] = []
    for lineno, raw in numbered_lines(path):
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            records.append(PredictionRecord.from_dict(decode_json(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise CorruptFile(f"{path}: line {lineno}: {exc}") from exc
    return records


def write_training_pairs(pairs: Sequence[TrainingPair],
                         path: str | Path) -> None:
    """Emit fine-tuning pairs as replay-compatible {"input","output"} lines."""
    lines = [
        json.dumps({"input": p.text, "output": p.target}, ensure_ascii=False)
        for p in pairs
    ]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))
