"""The three workloads: inputs, set-up, one unit of work, output checks.

Each workload makes the library calls the matching CLI command makes
(``gandr run``, ``gandr emit-train --stage 2``, ``gandr sweep``), on files
generated from the seed. Calls go through gandr's module attributes, so a
tracer that replaces them sees every call.

A unit is one pass over the workload's items ending with the output file
written; the runner repeats units until its time is up. Units are
deterministic, so every repetition writes the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from corpus import Grammar, make_corpus, noisy_preliminary
from reference import Reference, same_hits, template

K = 4
ALPHA = 0.75
STREAM_QUERIES = 1000   # p99 needs at least ten samples beyond it
STREAM_CHECKED = 32


@dataclass
class State:
    """What set-up hands to the work phase."""

    store: object
    samples: list
    endpoints: dict = field(default_factory=dict)
    preliminaries: dict = field(default_factory=dict)


def sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _dump(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _hits(hits) -> list[tuple]:
    return [(h.exemplar_id, h.relevance, h.input_sim, h.output_sim, h.rank)
            for h in hits]


def _topk_invariants(hits, alpha: float) -> bool:
    """k hits ranked 0..k-1 whose relevance is the configured mix."""
    return (len(hits) == K and [h.rank for h in hits] == list(range(K))
            and all(h.relevance == (1.0 - alpha) * h.input_sim + alpha * h.output_sim
                    for h in hits))


class Workload:
    """Shared inputs: a store file, a reference over it, a query stream."""

    name = ""
    store_size = 0
    unit_samples = 0    # held-out samples one unit runs over
    setups = 1          # set-ups timed per run; setup_s is their median
    budget: int | None = None
    output_name = "output"
    threaded = False    # units run worker threads, so they may use every CPU

    def __init__(self, gandr, grammar: Grammar):
        self.g = gandr
        self.grammar = grammar

    def prepare(self, seed: int, workdir: Path) -> None:
        """Generate every input file from the seed; not timed."""
        self.seed = seed
        self.workdir = workdir
        store, heldout = make_corpus(seed, self.store_size,
                                     self.unit_samples + STREAM_QUERIES,
                                     self.grammar)
        self.store_path = workdir / "store.jsonl"
        header = {"format": "gandr-store", "version": 1, "count": len(store),
                  "config": {"sublinear_tf": False, "normalize": True}}
        _write_lines(self.store_path, [_dump(header)] + [
            _dump({"exemplar_id": i, "utterance": e.utterance,
                   "parse": e.parse, "domain": e.domain})
            for i, e in enumerate(store)])
        self.ref = Reference([(e.utterance, e.parse) for e in store])
        self.heldout = heldout[:self.unit_samples]
        noise = random.Random(seed)
        self.stream = [(e.utterance, noisy_preliminary(noise, e.parse))
                       for e in heldout[self.unit_samples:]]
        self.noise = noise
        self.stream_checked = set(random.Random(seed + 1).sample(
            range(len(self.stream)), STREAM_CHECKED))
        self.expected_failed = 0

    def write_heldout(self) -> Path:
        path = self.workdir / "heldout.tsv"
        _write_lines(path, [f"{e.utterance}\t{e.parse}\t{e.domain}"
                            for e in self.heldout])
        return path

    def write_replay(self, omit: int) -> tuple[Path, list[str], set[int]]:
        """A replay log of noisy pass-1 outputs missing ``omit`` prompts."""
        prelims = [noisy_preliminary(self.noise, e.parse) for e in self.heldout]
        omitted = set(self.noise.sample(range(len(self.heldout)), omit))
        path = self.workdir / "replay.jsonl"
        lines = []
        for i, e in enumerate(self.heldout):
            ids = [h[0] for h in self.ref.topk(e.utterance, K)]
            prompt, _ = self.ref.prompt(e.utterance, ids, self.budget)
            if i not in omitted:
                lines.append(_dump({"input": prompt, "output": prelims[i]}))
        _write_lines(path, lines)
        return path, prelims, omitted

    def pipeline_config(self, **extra):
        fields = self.g.pipeline.PipelineConfig.__dataclass_fields__
        return self.g.pipeline.PipelineConfig(
            mode=self.g.pipeline.PipelineMode.GANDR, alpha=ALPHA, k=K,
            budget=self.budget,
            failure_policy=self.g.pipeline.FailurePolicy.SKIP_SAMPLE,
            **{k: v for k, v in extra.items() if k in fields})

    def heldout_setup(self, heldout: Path, replay: Path) -> State:
        """``gandr run`` / ``gandr sweep``: store, samples, replay + oracle."""
        d = self.g.data_io
        store = d.load_store(self.store_path)
        store.ensure_built()
        samples = d.samples_from_exemplars(d.load_dataset(heldout).exemplars)
        preliminary = self.g.generator.ReplayGenerator.from_path(replay)
        final = self.g.generator.OracleLookupGenerator.from_exemplars(
            d.load_dataset(heldout).exemplars)
        return State(store, samples,
                     {"preliminary": preliminary, "final": final})

    def query(self, state: State, query: str, preliminary: str):
        """One query of the stream: ``gandr retrieve`` at alpha 0.75, k=4."""
        return self.g.retrieval.retrieve_topk(state.store, query, K, alpha=ALPHA,
                                              preliminary=preliminary)

    def check_stream(self, hits_by_index: dict) -> int:
        """Stream answers that disagree with the reference."""
        wrong = 0
        for i, got in hits_by_index.items():
            query, preliminary = self.stream[i]
            want = self.ref.topk(query, K, ALPHA, preliminary)
            wrong += not (_topk_invariants(got, ALPHA) and same_hits(_hits(got), want))
        return wrong


class PipelineRun(Workload):
    """``gandr run``: two passes per held-out sample against a 100k store."""

    name = "pipeline-100k"
    threaded = True
    store_size = 100_000
    unit_samples = 12
    omitted = 1
    output_name = "records.jsonl"

    def prepare(self, seed: int, workdir: Path) -> None:
        super().prepare(seed, workdir)
        self.heldout_path = self.write_heldout()
        self.replay_path, self.prelims, self.omitted_at = self.write_replay(self.omitted)
        self.expected_failed = len(self.omitted_at)

    def setup(self) -> State:
        return self.heldout_setup(self.heldout_path, self.replay_path)

    def unit(self, state: State, out: Path, limit: int | None = None):
        config = self.pipeline_config(jobs=min(2, len(os.sched_getaffinity(0))))
        records = self.g.pipeline.run_pipeline(
            state.store, state.samples[:limit], state.endpoints["preliminary"],
            state.endpoints["final"], config)
        self.g.data_io.write_records(records, out)
        return records

    def items(self, result) -> int:
        return len(result)

    def failures(self, result) -> int:
        return sum(r.status != "ok" for r in result)

    def check(self, state: State, result) -> tuple[int, int]:
        config = self.pipeline_config()
        wrong = int(config.pass2_alpha != ALPHA)
        for i, (e, record) in enumerate(zip(self.heldout, result)):
            ids = [h[0] for h in self.ref.topk(e.utterance, K)]
            ok = (_topk_invariants(record.pass1_retrievals, 0.0)
                  and same_hits(_hits(record.pass1_retrievals),
                                self.ref.topk(e.utterance, K))
                  and record.pass1_augmented.text
                  == self.ref.prompt(e.utterance, ids, None)[0])
            if i in self.omitted_at:
                ok = ok and record.status == "pass1_failed" and record.final is None
            else:
                want = self.ref.topk(e.utterance, K, ALPHA, self.prelims[i])
                ok = (ok and record.status == "ok"
                      and record.preliminary == self.prelims[i]
                      and _topk_invariants(record.pass2_retrievals, ALPHA)
                      and same_hits(_hits(record.pass2_retrievals), want)
                      and record.pass2_augmented.text == self.ref.prompt(
                          e.utterance, [h[0] for h in want], None)[0]
                      and record.final == e.parse)
            wrong += not ok
        return wrong, len(result)


class EmitTrain(Workload):
    """``gandr emit-train --stage 2``: sampled exemplars, self excluded."""

    name = "emit-train-30k"
    store_size = 30_000
    unit_samples = 0
    unit_pairs = 16
    setups = 3
    p = 0.5
    output_name = "pairs.jsonl"

    def prepare(self, seed: int, workdir: Path) -> None:
        super().prepare(seed, workdir)
        chosen = sorted(self.noise.sample(range(self.store_size), self.unit_pairs))
        self.prelims = {i: noisy_preliminary(self.noise, self.ref.exemplars[i][1])
                        for i in chosen}
        # the records file that ``--preliminary-from`` reads
        self.prelim_path = workdir / "preliminaries.jsonl"
        _write_lines(self.prelim_path, [_dump({
            "sample_id": i, "query": self.ref.exemplars[i][0],
            "gold": self.ref.exemplars[i][1], "pass1_retrievals": [],
            "pass1_augmented": None, "preliminary": p,
            "pass2_retrievals": None, "pass2_augmented": None, "final": None,
            "status": "ok", "domain_tag": None}) for i, p in self.prelims.items()])

    def setup(self) -> State:
        d = self.g.data_io
        store = d.load_store(self.store_path)
        store.ensure_built()
        prelims = {r.sample_id: r.preliminary
                   for r in d.read_records(self.prelim_path)}
        samples = [s for s in d.samples_from_exemplars(store.exemplars)
                   if s.sample_id in prelims]
        return State(store, samples, preliminaries=prelims)

    def unit(self, state: State, out: Path, limit: int | None = None):
        rng = np.random.default_rng(self.seed)
        pairs = self.g.pipeline.emit_training_pairs(
            state.store, state.samples[:limit], K, self.p, rng, alpha=ALPHA,
            preliminaries=state.preliminaries, exclude_self=True)
        self.g.data_io.write_training_pairs(pairs, out)
        return pairs

    def items(self, result) -> int:
        return len(result)

    def failures(self, result) -> int:
        return 0

    def check(self, state: State, result) -> tuple[int, int]:
        uniforms = np.random.default_rng(self.seed).random(K * len(result)).tolist()
        deep = set(random.Random(self.seed + 2).sample(range(len(result)), 6))
        wrong = 0
        for j, (sample, pair) in enumerate(zip(state.samples, result)):
            utterance, parse = self.ref.exemplars[sample.sample_id]
            prelim = self.prelims[sample.sample_id]
            want = self.ref.sampled(utterance, K, self.p, uniforms[K * j:K * j + K],
                                    ALPHA, prelim, frozenset({sample.sample_id}))
            ids = [h[0] for h in want]
            ok = (list(pair.exemplar_ids) == ids and pair.target == parse
                  and pair.text == self.ref.prompt(utterance, ids, None)[0])
            if j in deep:
                # the pairs keep ids only; redraw with the same generator
                # state to compare relevances and similarities too
                rng = np.random.default_rng(self.seed)
                rng.random(K * j)
                got = self.g.retrieval.retrieve_sampled(
                    state.store, utterance, K, self.p, rng, alpha=ALPHA,
                    preliminary=prelim, exclude_ids={sample.sample_id})
                ok = ok and same_hits(_hits(got), want)
            wrong += not ok
        return wrong, len(result)


class Sweep(Workload):
    """``gandr sweep --axis alpha``: 5 alphas x 2 seeds, half the samples each."""

    name = "sweep-2k"
    store_size = 2_000
    unit_samples = 40
    omitted = 3
    setups = 15
    budget = 104        # about a quarter of pass-1 prompts drop an exemplar
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
    sweep_seeds = (0, 1)
    fraction = 0.5
    output_name = "sweep.tsv"

    def prepare(self, seed: int, workdir: Path) -> None:
        super().prepare(seed, workdir)
        self.heldout_path = self.write_heldout()
        self.replay_path, self.prelims, self.omitted_at = self.write_replay(self.omitted)
        self.expected_rows, self.expected_failed = self._expected()

    def _expected(self) -> tuple[list[tuple[str, ...]], int]:
        n = int(np.floor(self.fraction * len(self.heldout)))
        rows, failed = [], 0
        for alpha in self.alphas:
            for s in self.sweep_seeds:
                chosen = sorted(np.random.default_rng(s).choice(
                    len(self.heldout), size=n, replace=False).tolist())
                em = recall = 0
                for i in chosen:
                    e = self.heldout[i]
                    if i in self.omitted_at:
                        failed += 1
                        hits = self.ref.topk(e.utterance, K)
                    else:
                        em += 1
                        hits = self.ref.topk(e.utterance, K, alpha, self.prelims[i])
                    gold = template(e.parse)
                    recall += any(template(self.ref.exemplars[h[0]][1]) == gold
                                  for h in hits)
                rows.append((f"{alpha}", f"{s}", f"{em / n:.6f}", f"{recall / n:.6f}"))
        return rows, failed

    def setup(self) -> State:
        return self.heldout_setup(self.heldout_path, self.replay_path)

    def unit(self, state: State, out: Path, limit: int | None = None):
        ev = self.g.evaluation
        rows = ev.run_sweep(state.store, state.samples[:limit],
                            state.endpoints["preliminary"], state.endpoints["final"],
                            self.pipeline_config(), ev.SweepAxis.ALPHA,
                            list(self.alphas), list(self.sweep_seeds),
                            sample_fraction=self.fraction)
        note = _dump({"axis": "alpha", "values": list(self.alphas),
                      "seeds": list(self.sweep_seeds),
                      "sample_fraction": self.fraction})
        self.g.data_io.atomic_write_text(out, ev.format_sweep_tsv(rows, note))
        return out

    def _rows(self, out: Path) -> list[tuple[str, ...]]:
        lines = out.read_text(encoding="utf-8").splitlines()
        return [tuple(line.split("\t")) for line in lines[2:]]

    def items(self, result) -> int:
        n = int(np.floor(self.fraction * len(self.heldout)))
        return n * len(self._rows(result))

    def failures(self, result) -> int:
        # the oracle answers every sample with its gold parse, so the only
        # samples a row does not match exactly are the failed ones
        n = int(np.floor(self.fraction * len(self.heldout)))
        return sum(n - round(float(row[2]) * n) for row in self._rows(result))

    def check(self, state: State, result) -> tuple[int, int]:
        got = self._rows(result)
        wrong = sum(g != w for g, w in zip(got, self.expected_rows))
        wrong += abs(len(got) - len(self.expected_rows))
        return wrong, len(self.expected_rows)


WORKLOADS = {w.name: w for w in (Sweep, EmitTrain, PipelineRun)}
