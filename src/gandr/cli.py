"""Command line front end.

Subcommands: index, retrieve, run, eval, sweep, emit-train, trace.

``SETTINGS`` declares the nine settings a JSON config file passed with
--config may hold. Each resolves flag > environment > config file >
default and is checked by its rule when a command reads it. Every command
reads and checks its settings, and builds its endpoints, before it reads
the store; ``run`` and ``sweep`` echo the settings they read. A flag that
its command, mode, emit-train stage or sweep axis does not read exits 2;
README lists these flags.

Generation endpoints are named by spec strings:

* ``static:TEXT``   always answers TEXT
* ``oracle:PATH``   answers with the gold parse from dataset PATH
* ``replay:PATH``   answers from a recorded JSONL log
* ``http(s)://..``  POSTs {"inputs": [...]} and reads {"outputs": [...]}

Exit codes: 0 on success, 1 for runtime failures (generation errors,
corrupt files, too-small stores), 2 for usage problems (bad flags, bad
config, missing input files).
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys
from collections import namedtuple

import numpy as np

from . import __version__
from .augment import check_separator_safe
from .data_io import (
    LoadResult,
    apply_split,
    decode_json,
    load_dataset,
    load_store,
    parse_split_spec,
    read_records,
    samples_from_exemplars,
    save_store,
    write_records,
    write_training_pairs,
    atomic_write_text,
)
from .errors import ConfigError, EmptyCorpus, GandrError, SeparatorCollision
from .evaluation import (
    SweepAxis,
    evaluate,
    exact_match,
    format_sweep_tsv,
    run_sweep,
    validate_recall_k,
    validate_sample_fraction,
    validate_sweep_lists,
)
from .generator import (
    Generator,
    OracleLookupGenerator,
    RecordingGenerator,
    RemoteGenerator,
    ReplayGenerator,
    StaticGenerator,
    validate_request_limits,
)
from .pipeline import (
    FailurePolicy,
    PipelineConfig,
    PipelineMode,
    Sample,
    emit_training_pairs,
    generate_preliminaries,
    run_pipeline,
)
from .retrieval import (
    ExemplarStore,
    retrieve_topk,
    validate_alpha,
    validate_k,
    validate_mix,
    validate_p,
)


# A config file setting: the environment variable that may set it, its
# default, the type its flag produces (None for a string) and the rule a
# value other than None must pass.
Setting = namedtuple("Setting", "env default cast rule", defaults=[None])

# the defaults a setting shares with the library, read from the library
_PIPELINE = PipelineConfig()
_REMOTE = inspect.signature(RemoteGenerator).parameters

SETTINGS = {
    "alpha": Setting(None, _PIPELINE.alpha, float, validate_alpha),
    "k": Setting(None, _PIPELINE.k, int, validate_k),
    "budget": Setting(None, _PIPELINE.budget, int,
                      lambda v: validate_k(v, "budget")),
    "mode": Setting(None, _PIPELINE.mode, PipelineMode),
    "failure_policy": Setting(None, _PIPELINE.failure_policy, FailurePolicy),
    "timeout": Setting("GANDR_TIMEOUT", _REMOTE["timeout"].default, float,
                       lambda v: validate_request_limits(v, None)),
    "preliminary_endpoint": Setting("GANDR_PRELIMINARY_URL", None, None),
    "final_endpoint": Setting("GANDR_FINAL_URL", None, None),
    "p": Setting(None, 0.5, float, validate_p),
}


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            config = decode_json(fh.read())
    except ValueError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return config


# the JSON types a non-string value may have, by the cast of its flag
_JSON_TYPES = {int: int, float: (int, float)}
_UNSET = object()


class _Settings:
    """Reads ``SETTINGS`` for one command; ``echo`` maps each one read to
    its value as JSON."""

    def __init__(self, args, config: dict):
        self.args, self._config, self.echo = args, config, {}

    def __call__(self, name: str, default=None):
        """Setting ``name``: flag > environment > config file > default,
        where ``default``, if given, replaces the table's. A value other
        than a string must have the JSON type its flag produces (no bool
        has one); ``cast`` then converts it, and the rule checks it."""
        env, table_default, cast, rule = SETTINGS[name]
        raw = getattr(self.args, name)
        if raw is None and env:
            raw = os.environ.get(env) or None
        if raw is None:
            raw = self._config.get(name, _UNSET)
        if raw is _UNSET:
            value = table_default if default is None else default
        else:
            try:
                if isinstance(raw, bool) or not isinstance(
                        raw, (str, type(None), _JSON_TYPES.get(cast, str))):
                    raise TypeError
                value = raw if cast is None else cast(raw)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad value for {name}: {raw!r}") from exc
        if rule is not None and value is not None:
            rule(value)
        self.echo[name] = getattr(value, "value", value)
        return value


def _unused(args, flags, where: str) -> None:
    """The one rule for flags that a command, mode, stage or sweep axis
    does not read: each of ``flags`` given on the command line exits 2."""
    for flag in flags:
        if getattr(args, flag) is not None:
            raise ConfigError(f"--{flag.replace('_', '-')} has no effect "
                              f"{where}; drop the flag")


def _build_endpoint(spec: str, timeout: float,
                    max_batch: int | None = None) -> Generator:
    if spec.startswith(("http://", "https://")):
        return RemoteGenerator(spec, timeout=timeout, max_batch=max_batch)
    if spec.startswith("static:"):
        return StaticGenerator(spec[len("static:"):])
    if spec.startswith("replay:"):
        return ReplayGenerator.from_path(spec[len("replay:"):])
    if spec.startswith("oracle:"):
        loaded = load_dataset(spec[len("oracle:"):])
        return OracleLookupGenerator.from_exemplars(loaded.exemplars)
    raise ConfigError(
        f"unknown endpoint spec {spec!r}; use static:TEXT, oracle:PATH, "
        "replay:PATH, or an http(s) URL")


def _endpoint_pair(settings: _Settings, mode: PipelineMode
                   ) -> tuple[Generator | None, Generator]:
    """Both passes' endpoints, each distinct spec built once and none for
    the preliminary in input-only mode. The preliminary spec defaults to
    the final one."""
    args, timeout = settings.args, settings("timeout")
    final_spec = settings("final_endpoint")
    if final_spec is None:
        raise ConfigError("no final endpoint configured; pass "
                          "--final-endpoint, set "
                          f"{SETTINGS['final_endpoint'].env}, or put "
                          "final_endpoint in the config file")
    preliminary_spec = (None if mode is PipelineMode.INPUT_ONLY else
                        settings("preliminary_endpoint", final_spec))
    # the echo names the preliminary endpoint built: None in input-only mode
    settings.echo["preliminary_endpoint"] = preliminary_spec
    # one rule for every endpoint, though only http(s) ones use the values
    validate_request_limits(timeout, args.max_batch)
    built = {spec: _build_endpoint(spec, timeout, args.max_batch)
             for spec in dict.fromkeys((preliminary_spec, final_spec))
             if spec is not None}
    return tuple(
        RecordingGenerator(built[spec], path) if path else built.get(spec)
        for spec, path in ((preliminary_spec, args.record_preliminary),
                           (final_spec, args.record_final)))


def _pipeline_config(settings: _Settings,
                     swept: str | None = None) -> PipelineConfig:
    """The pipeline settings, reading all but the ``swept`` one and, in
    input-only mode, alpha; an unread one keeps its field's default."""
    mode, unread = settings("mode"), {swept}
    if mode is PipelineMode.INPUT_ONLY:
        _unused(settings.args, ("alpha", "preliminary_endpoint",
                                "record_preliminary"), "in input-only mode")
        unread.add("alpha")
    return PipelineConfig(mode=mode, **{
        name: settings(name) for name in ("k", "alpha", "budget",
                                          "failure_policy")
        if name not in unread})


def _report_issues(loaded: LoadResult, path) -> None:
    for issue in loaded.issues:
        print(f"{path}: skipped {issue.message}", file=sys.stderr)


def _load_samples(path: str, fmt: str | None, has_header: bool,
                  strict: bool) -> list[Sample]:
    loaded = load_dataset(path, fmt=fmt, has_header=has_header, strict=strict)
    _report_issues(loaded, path)
    return samples_from_exemplars(loaded.exemplars)


def _comma_list(text: str, cast) -> list:
    """The comma-separated ``cast`` values (float or int) of ``text``."""
    try:
        return [cast(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        kind = "integer" if cast is int else "number"
        raise ConfigError(f"bad {kind} list {text!r}") from exc


def _checked_seed(seed: int, flag: str) -> int:
    """A seed numpy can take; a negative one is a usage error."""
    if seed < 0:
        raise ConfigError(f"{flag} must be a non-negative integer, got {seed}")
    return seed


def _checked_query(query: str) -> str:
    """A ``--query`` that can head a prompt; one that cannot is a usage
    error."""
    try:
        check_separator_safe(query)
    except SeparatorCollision as exc:
        raise ConfigError(str(exc)) from exc
    return query


def _print_hits(store: ExemplarStore, hits, indent: str = "") -> None:
    print(f"{indent}rank\tid\trelevance\tinput_sim\toutput_sim\tutterance\tparse")
    for hit in hits:
        exemplar = store.get(hit.exemplar_id)
        print(f"{indent}{hit.rank}\t{hit.exemplar_id}\t{hit.relevance:.6f}\t"
              f"{hit.input_sim:.6f}\t{hit.output_sim:.6f}\t"
              f"{exemplar.utterance}\t{exemplar.parse}")


def cmd_index(args, settings: _Settings) -> int:
    seed = _checked_seed(args.seed, "--seed")
    loaded = load_dataset(args.data, fmt=args.format,
                          has_header=args.has_header, strict=args.strict)
    _report_issues(loaded, args.data)
    exemplars = apply_split(loaded.exemplars, parse_split_spec(args.split),
                            seed=seed)
    if not exemplars:
        raise EmptyCorpus("store has no exemplars")
    store = ExemplarStore()
    for exemplar in exemplars:
        store.add(exemplar)
    save_store(store, args.out)
    print(f"indexed {len(store)} exemplars "
          f"({len(loaded.issues)} rows skipped) -> {args.out}")
    return 0


def cmd_retrieve(args, settings: _Settings) -> int:
    query = _checked_query(args.query)
    k = settings("k")
    alpha = validate_mix(settings("alpha", 0.0), args.preliminary)
    store = load_store(args.store)
    hits = retrieve_topk(store, query, k, alpha=alpha,
                         preliminary=args.preliminary)
    if args.json:
        for hit in hits:
            print(json.dumps(vars(hit), ensure_ascii=False))
        return 0
    _print_hits(store, hits)
    return 0


def cmd_run(args, settings: _Settings) -> int:
    pipeline_config = _pipeline_config(settings)
    preliminary, final = _endpoint_pair(settings, pipeline_config.mode)
    store = load_store(args.store)
    samples = _load_samples(args.data, args.format, args.has_header,
                            args.strict)
    records = run_pipeline(store, samples, preliminary, final,
                           pipeline_config)
    write_records(records, args.out)
    echo = {"command": "run", "store": args.store, "data": args.data,
            "pass2_alpha": pipeline_config.pass2_alpha, **settings.echo}
    atomic_write_text(str(args.out) + ".config.json",
                      json.dumps(echo, sort_keys=True, indent=2) + "\n")
    n_ok = sum(1 for r in records if r.final is not None)
    print(f"ran {len(records)} samples ({n_ok} ok, "
          f"{len(records) - n_ok} failed) -> {args.out}")
    return 0


def cmd_eval(args, settings: _Settings) -> int:
    validate_recall_k(args.k)
    records = read_records(args.records)
    store = load_store(args.store)
    report = evaluate(records, store, k=args.k,
                      multiset=not args.set_match, casefold=args.casefold)
    if args.json:
        print(json.dumps(dataclasses.asdict(report), ensure_ascii=False,
                         sort_keys=True))
        return 0
    print(f"samples\t{report.n}")
    print(f"exact_match\t{report.exact_match:.6f}")
    print(f"template_recall\t{report.template_recall:.6f}")
    print(f"failed\t{report.n_failed}")
    for domain, stats in report.per_domain.items():
        print(f"domain\t{domain}\t{stats.n}\t{stats.exact_match:.6f}\t"
              f"{stats.template_recall:.6f}")
    return 0


def cmd_sweep(args, settings: _Settings) -> int:
    axis = SweepAxis(args.axis)
    _unused(args, (axis.value,), f"on --axis {axis.value}")
    base_config = _pipeline_config(settings, swept=axis.value)
    if base_config.mode is PipelineMode.INPUT_ONLY and axis is SweepAxis.ALPHA:
        raise ConfigError("alpha has no effect in input-only mode; "
                          "sweep k instead")
    preliminary, final = _endpoint_pair(settings, base_config.mode)
    swept = SETTINGS[axis.value]
    values = [swept.rule(v) for v in _comma_list(args.values, swept.cast)]
    seeds = [_checked_seed(seed, "--seeds")
             for seed in _comma_list(args.seeds, int)]
    validate_sweep_lists(values, seeds)
    validate_recall_k(args.recall_k)
    validate_sample_fraction(args.sample_fraction)
    store = load_store(args.store)
    samples = _load_samples(args.data, args.format, args.has_header,
                            args.strict)
    rows = run_sweep(store, samples, preliminary, final, base_config, axis,
                     values, seeds, recall_k=args.recall_k,
                     sample_fraction=args.sample_fraction)
    note = json.dumps({
        "axis": axis.value, "values": values, "seeds": seeds,
        "recall_k": args.recall_k, "sample_fraction": args.sample_fraction,
        **settings.echo}, sort_keys=True)
    text = format_sweep_tsv(rows, note)
    if args.out:
        atomic_write_text(args.out, text)
        print(f"swept {len(rows)} settings -> {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_emit_train(args, settings: _Settings) -> int:
    rng = np.random.default_rng(_checked_seed(args.seed, "--seed"))
    k, p, budget, timeout = map(settings, ("k", "p", "budget", "timeout"))
    alpha, endpoint, preliminaries = 0.0, None, None
    if args.stage == 1:
        _unused(args, ("alpha", "preliminary_from", "preliminary_endpoint"),
                "at stage 1")
    else:
        alpha = settings("alpha")
        if args.preliminary_from:
            _unused(args, ("preliminary_endpoint",), "with --preliminary-from")
            preliminaries = {r.sample_id: r.preliminary
                             for r in read_records(args.preliminary_from)
                             if r.preliminary is not None}
        else:
            spec = settings("preliminary_endpoint")
            if spec is None:
                raise ConfigError("stage 2 needs preliminaries; pass "
                                  "--preliminary-from RECORDS or a "
                                  "preliminary endpoint")
            endpoint = _build_endpoint(spec, timeout)
    store = load_store(args.store)
    samples = (_load_samples(args.data, args.format, args.has_header,
                             args.strict) if args.data
               else samples_from_exemplars(store.exemplars))
    if endpoint is not None:
        preliminaries = generate_preliminaries(
            store, samples, endpoint, k, budget, not args.keep_self)
    pairs = emit_training_pairs(store, samples, k, p, rng, alpha=alpha,
                                preliminaries=preliminaries, budget=budget,
                                exclude_self=not args.keep_self)
    write_training_pairs(pairs, args.out)
    print(f"emitted {len(pairs)} training pairs (stage {args.stage}, "
          f"alpha={alpha}, p={p}) -> {args.out}")
    return 0


def cmd_trace(args, settings: _Settings) -> int:
    query = _checked_query(args.query)
    pipeline_config = _pipeline_config(settings)
    preliminary, final = _endpoint_pair(settings, pipeline_config.mode)
    store = load_store(args.store)
    sample = Sample(sample_id=0, utterance=query, gold=args.gold)
    record = run_pipeline(store, [sample], preliminary, final,
                          pipeline_config)[0]
    if args.json:
        print(json.dumps(record.to_dict(), ensure_ascii=False))
        return 0

    print(f"query: {record.query}")
    print("pass 1 (alpha=0.0):")
    _print_hits(store, record.pass1_retrievals, "  ")
    print(f"prompt 1: {record.pass1_augmented.text}")
    print(f"preliminary: {record.preliminary}")
    if record.pass2_retrievals is not None:
        print(f"pass 2 (alpha={pipeline_config.pass2_alpha}):")
        _print_hits(store, record.pass2_retrievals, "  ")
        print(f"prompt 2: {record.pass2_augmented.text}")
    print(f"final: {record.final}")
    if record.gold is not None:
        verdict = "yes" if exact_match(record.final, record.gold) else "no"
        print(f"gold: {record.gold}")
        print(f"exact match: {verdict}")
    print(f"status: {record.status}")
    return 0


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["tsv", "jsonl"], default=None,
                        help="dataset format (default: infer from extension)")
    parser.add_argument("--has-header", action="store_true",
                        help="skip the first line of TSV input")
    parser.add_argument("--strict", action="store_true",
                        help="fail on the first bad row instead of skipping")


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode",
                        choices=[m.value for m in PipelineMode], default=None)
    parser.add_argument("--alpha", type=float, default=None,
                        help="output-similarity weight for the second pass")
    parser.add_argument("--k", type=int, default=None,
                        help="exemplars per prompt")
    parser.add_argument("--budget", type=int, default=None,
                        help="whitespace-token cap for augmented prompts")
    parser.add_argument("--failure-policy",
                        choices=[p.value for p in FailurePolicy], default=None)


def _add_endpoint_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preliminary-endpoint", default=None,
                        help="endpoint spec for the first pass "
                             "(defaults to the final endpoint)")
    parser.add_argument("--final-endpoint", default=None,
                        help="endpoint spec: static:TEXT, oracle:PATH, "
                             "replay:PATH, or an http(s) URL")
    parser.add_argument("--timeout", type=float, default=None,
                        help="remote endpoint timeout in seconds")
    parser.add_argument("--max-batch", type=int, default=None,
                        help="largest request batch for remote endpoints")
    parser.add_argument("--record-preliminary", default=None, metavar="PATH",
                        help="append first-pass traffic to a replay log")
    parser.add_argument("--record-final", default=None, metavar="PATH",
                        help="append second-pass traffic to a replay log")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gandr",
        description="Retrieval-augmented semantic parsing pipeline")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="JSON file with default settings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build an exemplar store from a dataset")
    p.add_argument("--data", required=True)
    _add_dataset_flags(p)
    p.add_argument("--split", default="full",
                   help="full, count:N, or fraction:F")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("retrieve", help="query a store and print the top k")
    p.add_argument("--store", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--preliminary", default=None,
                   help="preliminary parse (needed when alpha > 0)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("run", help="run the two-pass pipeline over a dataset")
    p.add_argument("--store", required=True)
    p.add_argument("--data", required=True)
    _add_dataset_flags(p)
    _add_pipeline_flags(p)
    _add_endpoint_flags(p)
    p.add_argument("--out", required=True, help="records JSONL path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score a records file")
    p.add_argument("--store", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--k", type=int, default=None,
                   help="recall cutoff (default: all recorded retrievals)")
    p.add_argument("--set-match", action="store_true",
                   help="compare templates as sets instead of multisets")
    p.add_argument("--casefold", action="store_true",
                   help="case-insensitive exact match")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid-run alpha or k and tabulate scores")
    p.add_argument("--store", required=True)
    p.add_argument("--data", required=True)
    _add_dataset_flags(p)
    _add_pipeline_flags(p)
    _add_endpoint_flags(p)
    p.add_argument("--axis", choices=[a.value for a in SweepAxis],
                   required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated axis values")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--recall-k", type=int, default=None)
    p.add_argument("--sample-fraction", type=float, default=None,
                   help="evaluate each seed on a random fraction of the data")
    p.add_argument("--out", default=None, help="TSV path (default: stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("emit-train",
                       help="write fine-tuning pairs with sampled exemplars")
    p.add_argument("--store", required=True)
    p.add_argument("--data", default=None,
                   help="samples to emit for (default: the store itself)")
    _add_dataset_flags(p)
    p.add_argument("--stage", type=int, choices=[1, 2], required=True,
                   help="1: input-only prompts; 2: mixed retrieval with "
                        "preliminary parses")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--p", type=float, default=None,
                   help="geometric decay for rank sampling")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--keep-self", action="store_true",
                   help="let a sample retrieve its own store entry")
    p.add_argument("--preliminary-from", default=None, metavar="RECORDS",
                   help="take stage-2 preliminaries from a records file")
    p.add_argument("--preliminary-endpoint", default=None)
    p.add_argument("--timeout", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_emit_train)

    p = sub.add_parser("trace", help="show both passes for one query")
    p.add_argument("--store", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--gold", default=None)
    _add_pipeline_flags(p)
    _add_endpoint_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _Settings(args, _load_config_file(args.config)))
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except GandrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
