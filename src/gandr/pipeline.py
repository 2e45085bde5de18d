"""Two-pass retrieve/generate orchestration.

For each sample the pipeline retrieves exemplars by input similarity,
prompts a preliminary endpoint, re-retrieves with the preliminary parse
mixed in (weight ``alpha``), and prompts the final endpoint. Modes:

* INPUT_ONLY: single pass, pure input retrieval (alpha pinned to 0).
* GANDR: both passes, configured alpha for the second; alpha 1 retrieves
  by output similarity alone.

Both passes are one step: retrieve and prompt per sample, then generate
in bulk. The first pass is that step at alpha 0 with no preliminary
parse. ``run_pipeline_alphas`` runs one config at several alphas from
one first pass; its second pass scores each sample once and mixes the
scores per alpha. Retrieval runs on one thread. What is left
of a query's cost is mostly its dense passes over the store: the
postings kernel of each channel it scores (the first pass scores only
the input channel). From 20k exemplars up, a second-pass query mixes and
orders only the members of the templates that an exact per-template
bound lets reach its head; elsewhere the mix is a dense pass too, and
selection orders only the candidates its grid prefilter keeps. A head at
most 12 deep is taken by ``argmin`` rounds rather than a partition. A
prompt adds each exemplar's token cost and joins its pair text, and
template recall compares its template; all three are derived once per
exemplar, on first use. A second thread was measured slower than one at
every store size from 20k to 100k exemplars.

Generation runs in batches. When a batch fails and the failure policy is
SKIP_SAMPLE, the batch is replayed item by item so one bad sample cannot
take down its batchmates; ABORT propagates the first error.

Every sample yields one PredictionRecord, in input order, capturing both
passes end to end. Records never contain wall-clock data, so identical
inputs produce byte-identical record files.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Collection, Mapping, Sequence

import numpy as np

from .augment import AugmentedInput, build_augmented_input
from .errors import GandrError, GenerationError
from .retrieval import (
    ExemplarStore,
    ScoredExemplar,
    is_int64,
    retrieve_sampled,
    retrieve_topk_alphas,
    validate_alpha,
    validate_k,
)

STATUS_OK = "ok"
STATUS_PASS1_FAILED = "pass1_failed"
STATUS_PASS2_FAILED = "pass2_failed"
STATUSES = (STATUS_OK, STATUS_PASS1_FAILED, STATUS_PASS2_FAILED)

_KIND_NAMES = {str: "a string", float: "a float", bool: "a bool"}


class PipelineMode(Enum):
    GANDR = "gandr"
    INPUT_ONLY = "input-only"


class FailurePolicy(Enum):
    SKIP_SAMPLE = "skip"
    ABORT = "abort"


@dataclass(frozen=True)
class Sample:
    """One evaluation or training query; gold may be absent for pure runs."""

    sample_id: int
    utterance: str
    gold: str | None = None
    domain: str | None = None


@dataclass(frozen=True)
class PipelineConfig:
    mode: PipelineMode = PipelineMode.GANDR
    alpha: float = 0.75
    k: int = 4
    budget: int | None = None
    failure_policy: FailurePolicy = FailurePolicy.SKIP_SAMPLE

    def __post_init__(self):
        validate_alpha(self.alpha)
        validate_k(self.k)
        if self.budget is not None:
            validate_k(self.budget, "budget")

    @property
    def pass2_alpha(self) -> float:
        """The mixing weight actually used by the second pass."""
        return 0.0 if self.mode is PipelineMode.INPUT_ONLY else self.alpha


@dataclass(frozen=True)
class PredictionRecord:
    """Everything the pipeline did for one sample."""

    sample_id: int
    query: str
    gold: str | None
    pass1_retrievals: tuple[ScoredExemplar, ...]
    pass1_augmented: AugmentedInput
    preliminary: str | None
    pass2_retrievals: tuple[ScoredExemplar, ...] | None
    pass2_augmented: AugmentedInput | None
    final: str | None
    status: str
    domain_tag: str | None = None

    def to_dict(self) -> dict:
        def hits(retrievals):
            if retrievals is None:
                return None
            return [vars(r) for r in retrievals]

        def aug(a: AugmentedInput | None):
            if a is None:
                return None
            return {"text": a.text, "query": a.query,
                    "exemplar_ids": list(a.exemplar_ids),
                    "truncated": a.truncated}

        return {
            "sample_id": self.sample_id,
            "query": self.query,
            "gold": self.gold,
            "pass1_retrievals": hits(self.pass1_retrievals),
            "pass1_augmented": aug(self.pass1_augmented),
            "preliminary": self.preliminary,
            "pass2_retrievals": hits(self.pass2_retrievals),
            "pass2_augmented": aug(self.pass2_augmented),
            "final": self.final,
            "status": self.status,
            "domain_tag": self.domain_tag,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PredictionRecord":
        """Inverse of ``to_dict``. A status not in ``STATUSES`` raises
        ValueError, and any other field of the wrong type TypeError: ids
        and ranks follow the exemplar id rule (``is_int64``) and ranks are
        not negative, similarities are floats, texts strings, and
        ``truncated`` a bool."""

        def typed(raw, key, kind=str, nullable=False):
            value = raw.get(key) if nullable else raw[key]
            if isinstance(value, kind) or nullable and value is None:
                return value
            raise TypeError(f"{key} must be {_KIND_NAMES[kind]}"
                            f"{' or null' if nullable else ''}, "
                            f"got {type(value).__name__}")

        def ident(value, name, nonnegative=False):
            if is_int64(value) and not (nonnegative and value < 0):
                return value
            raise TypeError(f"{name} must be a"
                            f"{' non-negative' if nonnegative else ''} "
                            f"64-bit integer, got {value!r}")

        def hit(raw):
            scored = ScoredExemplar(**raw)
            ident(scored.exemplar_id, "exemplar_id")
            ident(scored.rank, "rank", nonnegative=True)
            for key in ("relevance", "input_sim", "output_sim"):
                typed(raw, key, float)
            return scored

        def hits(raw):
            return None if raw is None else tuple(map(hit, raw))

        def aug(raw):
            if raw is None:
                return None
            return AugmentedInput(
                text=typed(raw, "text"), query=typed(raw, "query"),
                exemplar_ids=tuple(ident(i, "exemplar_ids entry")
                                   for i in raw["exemplar_ids"]),
                truncated=typed(raw, "truncated", bool))

        if data["status"] not in STATUSES:
            raise ValueError(f"unknown status {data['status']!r}")
        return cls(
            sample_id=ident(data["sample_id"], "sample_id"),
            query=typed(data, "query"),
            gold=typed(data, "gold", nullable=True),
            pass1_retrievals=hits(data["pass1_retrievals"]) or (),
            pass1_augmented=aug(data["pass1_augmented"]),
            preliminary=typed(data, "preliminary", nullable=True),
            pass2_retrievals=hits(data.get("pass2_retrievals")),
            pass2_augmented=aug(data.get("pass2_augmented")),
            final=typed(data, "final", nullable=True),
            status=data["status"],
            domain_tag=typed(data, "domain_tag", nullable=True),
        )


@dataclass(frozen=True)
class TrainingPair:
    """One fine-tuning example: augmented prompt in, gold parse out."""

    sample_id: int
    text: str
    target: str
    exemplar_ids: tuple[int, ...]


def generate_checked(generator, prompts: Sequence[str]) -> list[str]:
    """``generator``'s outputs for ``prompts``; a GenerationError unless
    there is one per prompt. The one count rule of the pipeline and of
    ``RecordingGenerator``."""
    outputs = list(generator.generate(prompts))
    if len(outputs) != len(prompts):
        raise GenerationError(f"generator returned {len(outputs)} outputs "
                              f"for {len(prompts)} prompts")
    return outputs


def _bulk_generate(generator, prompts: Sequence[str],
                   policy: FailurePolicy) -> list[str | None]:
    """Generate for all prompts; None marks items that failed under SKIP."""
    if not prompts:
        return []
    try:
        return generate_checked(generator, list(prompts))
    except GenerationError:
        if policy is FailurePolicy.ABORT:
            raise
    outputs: list[str | None] = []
    for prompt in prompts:
        try:
            outputs.extend(generate_checked(generator, [prompt]))
        except GenerationError:
            outputs.append(None)
    return outputs


def _prompt(store: ExemplarStore, query: str, hits, budget: int | None):
    """One query's (hits, augmented input) step."""
    exemplars = [store.get(h.exemplar_id) for h in hits]
    return tuple(hits), build_augmented_input(query, exemplars, budget)


def _run_pass(store: ExemplarStore, samples: Sequence[Sample],
              preliminaries: Sequence[str | None], generator, k: int,
              budget: int | None, policy: FailurePolicy,
              alphas: Sequence[float], exclude_self: bool = False):
    """One pass at each of ``alphas``: retrieve and prompt per sample,
    then generate; returns the (hits, augmented input) steps and the
    outputs per alpha. The first pass is the case of no preliminaries
    and alpha 0.

    A sample's similarities are scored once and mixed per alpha, so no
    more than one sample's score arrays are alive at a time. Each alpha
    then generates for all its prompts at once.
    """
    steps: list[list] = [[] for _ in alphas]
    for sample, preliminary in zip(samples, preliminaries):
        hits_by_alpha = retrieve_topk_alphas(
            store, sample.utterance, k, alphas, preliminary,
            self_exclusion(store, sample, exclude_self))
        for alpha_steps, hits in zip(steps, hits_by_alpha):
            alpha_steps.append(_prompt(store, sample.utterance, hits, budget))
    return [(alpha_steps,
             _bulk_generate(generator, [aug.text for _, aug in alpha_steps],
                            policy))
            for alpha_steps in steps]


def _records(samples: Sequence[Sample], pass1,
             preliminaries: Sequence[str | None], pass2: Mapping[int, tuple],
             finals: Mapping[int, str | None]) -> list[PredictionRecord]:
    """One record per sample, input order. ``finals`` maps the position
    of each sample that reached its last pass to its output there, and
    ``pass2`` maps each that reached a second pass to its step there."""
    records = []
    for i, (sample, (hits1, aug1)) in enumerate(zip(samples, pass1)):
        hits2, aug2 = pass2.get(i, (None, None))
        final = finals.get(i)
        status = (STATUS_OK if final is not None
                  else STATUS_PASS1_FAILED if hits2 is None
                  else STATUS_PASS2_FAILED)
        records.append(PredictionRecord(
            sample_id=sample.sample_id, query=sample.utterance,
            gold=sample.gold, pass1_retrievals=hits1, pass1_augmented=aug1,
            preliminary=preliminaries[i], pass2_retrievals=hits2,
            pass2_augmented=aug2, final=final, status=status,
            domain_tag=sample.domain))
    return records


def run_pipeline(store: ExemplarStore, samples: Sequence[Sample],
                 preliminary_generator, final_generator,
                 config: PipelineConfig = PipelineConfig()) -> list[PredictionRecord]:
    """Run the full flow over samples; one record per sample, input order."""
    return run_pipeline_alphas(store, samples, preliminary_generator,
                               final_generator, config, [config.alpha])[0]


def run_pipeline_alphas(store: ExemplarStore, samples: Sequence[Sample],
                        preliminary_generator, final_generator,
                        config: PipelineConfig, alphas: Sequence[float]
                        ) -> list[list[PredictionRecord]]:
    """``run_pipeline``'s records with ``config`` at each of ``alphas``,
    in order, from one first pass, so each first-pass prompt reaches the
    endpoint once. The second pass scores each live sample once, mixes
    per distinct alpha and generates once per distinct alpha. In
    input-only mode every alpha gets the same single-pass records. Given
    endpoints that answer a prompt the same way every time, each alpha
    gets the records ``run_pipeline`` would give it alone.
    """
    alphas = [validate_alpha(alpha) for alpha in alphas]
    single_pass = config.mode is PipelineMode.INPUT_ONLY
    settings = config.k, config.budget, config.failure_policy
    no_preliminaries = [None] * len(samples)
    [(pass1, outputs1)] = _run_pass(
        store, samples, no_preliminaries,
        final_generator if single_pass else preliminary_generator,
        *settings, [0.0])
    if single_pass:
        return [_records(samples, pass1, no_preliminaries, {},
                         dict(enumerate(outputs1)))] * len(alphas)
    live = [i for i, out in enumerate(outputs1) if out is not None]
    distinct = list(dict.fromkeys(alphas))
    runs = _run_pass(store, [samples[i] for i in live],
                     [outputs1[i] for i in live], final_generator, *settings,
                     distinct)
    records = {alpha: _records(samples, pass1, outputs1,
                               dict(zip(live, steps)), dict(zip(live, finals)))
               for alpha, (steps, finals) in zip(distinct, runs)}
    return [records[alpha] for alpha in alphas]


def self_exclusion(store: ExemplarStore, sample: Sample,
                   exclude_self: bool) -> Collection[int]:
    """With ``exclude_self``, the id of the sample's own store entry: same
    id, same utterance, gold as parse. An equal id alone is not enough, as
    samples from another file are numbered by row."""
    if exclude_self and sample.sample_id in store:
        own = store.get(sample.sample_id)
        if (own.utterance, own.parse) == (sample.utterance, sample.gold):
            return (sample.sample_id,)
    return ()


def generate_preliminaries(store: ExemplarStore, samples: Sequence[Sample],
                           generator, k: int, budget: int | None = None,
                           exclude_self: bool = True) -> dict[int, str]:
    """Preliminary parses by sample id for stage-2 training: the first
    pass with ``self_exclusion``; any generation error propagates."""
    [(_, outputs)] = _run_pass(store, samples, [None] * len(samples),
                               generator, k, budget, FailurePolicy.ABORT,
                               [0.0], exclude_self)
    return {s.sample_id: out for s, out in zip(samples, outputs)}


def emit_training_pairs(store: ExemplarStore, samples: Sequence[Sample],
                        k: int, p: float, rng: np.random.Generator,
                        alpha: float = 0.0,
                        preliminaries: Mapping[int, str] | None = None,
                        budget: int | None = None,
                        exclude_self: bool = True) -> list[TrainingPair]:
    """Build fine-tuning pairs with geometric exemplar sampling.

    Stage 1 (``alpha=0``, no preliminaries) trains the preliminary model;
    stage 2 passes each sample's preliminary parse so retrieval mixes in
    output similarity, matching what the final model sees at inference.
    ``exclude_self`` drops the sample's own store entry (see
    ``self_exclusion``).
    """
    alpha = validate_alpha(alpha)
    if budget is not None:
        validate_k(budget, "budget")
    pairs: list[TrainingPair] = []
    for sample in samples:
        if sample.gold is None:
            raise GandrError(f"sample {sample.sample_id} has no gold parse")
        preliminary = None
        if alpha > 0.0:
            if preliminaries is None or sample.sample_id not in preliminaries:
                raise GandrError(
                    f"sample {sample.sample_id} has no preliminary parse "
                    f"but alpha={alpha} needs one")
            preliminary = preliminaries[sample.sample_id]
        hits = retrieve_sampled(store, sample.utterance, k, p, rng,
                                alpha=alpha, preliminary=preliminary,
                                exclude_ids=self_exclusion(store, sample,
                                                           exclude_self))
        _, augmented = _prompt(store, sample.utterance, hits, budget)
        pairs.append(TrainingPair(
            sample_id=sample.sample_id, text=augmented.text,
            target=sample.gold, exemplar_ids=augmented.exemplar_ids))
    return pairs
