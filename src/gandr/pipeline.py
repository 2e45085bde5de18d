"""Two-pass retrieve/generate orchestration.

For each sample the pipeline retrieves exemplars by input similarity,
prompts a preliminary endpoint, re-retrieves with the preliminary parse
mixed in (weight ``alpha``), and prompts the final endpoint. Modes:

* INPUT_ONLY: single pass, pure input retrieval (alpha pinned to 0).
* GANDR: both passes, configured alpha for the second.
* OUTPUT_ONLY: both passes, second pass pinned to alpha 1.

Both passes are one step: retrieve and prompt per sample, then generate
in bulk. ``run_pipeline_grid`` runs several configs that differ only in
alpha from one first pass, and their second passes score each sample
once and mix the scores per alpha. Retrieval runs on one thread. A query orders only the head of its
candidates, so what is left of its cost is mostly Python holding the
interpreter lock, and a second thread was measured slower than one at
every store size from 20k to 100k exemplars.

Generation runs in batches. When a batch fails and the failure policy is
SKIP_SAMPLE, the batch is replayed item by item so one bad sample cannot
take down its batchmates; ABORT propagates the first error.

Every sample yields one PredictionRecord, in input order, capturing both
passes end to end. Records never contain wall-clock data, so identical
inputs produce byte-identical record files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Collection, Mapping, Sequence

import numpy as np

from .augment import AugmentedInput, build_augmented_input
from .errors import ConfigError, GenerationError, MissingGold, MissingPrediction
from .retrieval import (
    ExemplarStore,
    ScoredExemplar,
    retrieve_sampled,
    retrieve_topk,
    retrieve_topk_alphas,
    validate_alpha,
)

STATUS_OK = "ok"
STATUS_PASS1_FAILED = "pass1_failed"
STATUS_PASS2_FAILED = "pass2_failed"


class PipelineMode(Enum):
    INPUT_ONLY = "input-only"
    GANDR = "gandr"
    OUTPUT_ONLY = "output-only"


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
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ConfigError(f"k must be a positive integer, got {self.k!r}")
        if self.budget is not None and self.budget < 1:
            raise ConfigError(f"budget must be positive, got {self.budget}")

    @property
    def pass2_alpha(self) -> float:
        """The mixing weight actually used by the second pass."""
        if self.mode is PipelineMode.INPUT_ONLY:
            return 0.0
        if self.mode is PipelineMode.OUTPUT_ONLY:
            return 1.0
        return self.alpha


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
        def hits(raw):
            if raw is None:
                return None
            return tuple(ScoredExemplar(**h) for h in raw)

        def aug(raw):
            if raw is None:
                return None
            return AugmentedInput(text=raw["text"], query=raw["query"],
                                  exemplar_ids=tuple(raw["exemplar_ids"]),
                                  truncated=raw["truncated"])

        return cls(
            sample_id=data["sample_id"],
            query=data["query"],
            gold=data.get("gold"),
            pass1_retrievals=hits(data["pass1_retrievals"]) or (),
            pass1_augmented=aug(data["pass1_augmented"]),
            preliminary=data.get("preliminary"),
            pass2_retrievals=hits(data.get("pass2_retrievals")),
            pass2_augmented=aug(data.get("pass2_augmented")),
            final=data.get("final"),
            status=data["status"],
            domain_tag=data.get("domain_tag"),
        )


@dataclass(frozen=True)
class TrainingPair:
    """One fine-tuning example: augmented prompt in, gold parse out."""

    sample_id: int
    text: str
    target: str
    exemplar_ids: tuple[int, ...]


def _bulk_generate(generator, prompts: Sequence[str],
                   policy: FailurePolicy) -> list[str | None]:
    """Generate for all prompts; None marks items that failed under SKIP."""
    if not prompts:
        return []
    try:
        return list(generator.generate(list(prompts)))
    except GenerationError:
        if policy is FailurePolicy.ABORT:
            raise
    outputs: list[str | None] = []
    for prompt in prompts:
        try:
            outputs.append(generator.generate([prompt])[0])
        except GenerationError:
            outputs.append(None)
    return outputs


def _prompt(store: ExemplarStore, sample: Sample, hits, budget: int | None):
    """One sample's (hits, augmented input) step."""
    exemplars = [store.get(h.exemplar_id) for h in hits]
    return tuple(hits), build_augmented_input(sample.utterance, exemplars,
                                              budget)


def _generate(generator, steps, policy: FailurePolicy):
    """The steps and their outputs, generated for all prompts at once."""
    return steps, _bulk_generate(generator, [aug.text for _, aug in steps],
                                 policy)


def _run_pass(store: ExemplarStore, samples: Sequence[Sample], generator,
              k: int, budget: int | None, policy: FailurePolicy,
              exclude_self: bool = False):
    """The first pass: retrieve by input similarity and prompt per sample,
    then generate; returns the (hits, augmented input) steps and the
    outputs."""
    steps = []
    for sample in samples:
        hits = retrieve_topk(
            store, sample.utterance, k,
            exclude_ids=self_exclusion(store, sample, exclude_self))
        steps.append(_prompt(store, sample, hits, budget))
    return _generate(generator, steps, policy)


def _run_second_pass(store: ExemplarStore, samples: Sequence[Sample],
                     preliminaries: Sequence[str], generator, k: int,
                     budget: int | None, policy: FailurePolicy,
                     alphas: Sequence[float]):
    """The second pass at each alpha; returns (steps, outputs) per alpha.

    A sample's similarities are scored once and mixed per alpha, so no
    more than one sample's score arrays are alive at a time. Each alpha
    then generates for all its prompts at once.
    """
    steps: list[list] = [[] for _ in alphas]
    for sample, preliminary in zip(samples, preliminaries):
        hits_by_alpha = retrieve_topk_alphas(store, sample.utterance, k,
                                             alphas, preliminary)
        for alpha_steps, hits in zip(steps, hits_by_alpha):
            alpha_steps.append(_prompt(store, sample, hits, budget))
    return [_generate(generator, alpha_steps, policy) for alpha_steps in steps]


def _records(samples: Sequence[Sample], pass1, outputs1,
             pass2: Mapping[int, tuple], finals: Mapping[int, str | None],
             single_pass: bool) -> list[PredictionRecord]:
    """One record per sample, input order; ``pass2`` and ``finals`` map
    the position of each sample that reached the second pass to its step
    and output there."""
    records = []
    for i, (sample, (hits1, aug1)) in enumerate(zip(samples, pass1)):
        hits2, aug2 = pass2.get(i, (None, None))
        final = outputs1[i] if single_pass else finals.get(i)
        status = (STATUS_OK if final is not None
                  else STATUS_PASS1_FAILED if hits2 is None
                  else STATUS_PASS2_FAILED)
        records.append(PredictionRecord(
            sample_id=sample.sample_id, query=sample.utterance,
            gold=sample.gold, pass1_retrievals=hits1, pass1_augmented=aug1,
            preliminary=None if single_pass else outputs1[i],
            pass2_retrievals=hits2, pass2_augmented=aug2, final=final,
            status=status, domain_tag=sample.domain))
    return records


def _run_alphas(store: ExemplarStore, samples: Sequence[Sample],
                preliminary_generator, final_generator,
                config: PipelineConfig,
                alphas: Sequence[float]) -> list[list[PredictionRecord]]:
    """The records of ``config`` at each second-pass alpha, in order,
    from one first pass."""
    single_pass = config.mode is PipelineMode.INPUT_ONLY
    pass1, outputs1 = _run_pass(
        store, samples, final_generator if single_pass else preliminary_generator,
        config.k, config.budget, config.failure_policy)
    if single_pass:
        return [_records(samples, pass1, outputs1, {}, {}, True)] * len(alphas)
    live = [i for i, out in enumerate(outputs1) if out is not None]
    runs = _run_second_pass(
        store, [samples[i] for i in live], [outputs1[i] for i in live],
        final_generator, config.k, config.budget, config.failure_policy,
        alphas)
    return [_records(samples, pass1, outputs1, dict(zip(live, steps)),
                     dict(zip(live, finals)), False)
            for steps, finals in runs]


def run_pipeline(store: ExemplarStore, samples: Sequence[Sample],
                 preliminary_generator, final_generator,
                 config: PipelineConfig = PipelineConfig()) -> list[PredictionRecord]:
    """Run the full flow over samples; one record per sample, input order."""
    return run_pipeline_grid(store, samples, preliminary_generator,
                             final_generator, [config])[0]


def run_pipeline_grid(store: ExemplarStore, samples: Sequence[Sample],
                      preliminary_generator, final_generator,
                      configs: Sequence[PipelineConfig]
                      ) -> list[list[PredictionRecord]]:
    """``run_pipeline`` under each config, in order, doing shared work once.

    The first pass does not depend on alpha, so configs that differ only
    in alpha share one, and each of its prompts reaches the endpoint
    once. Their second passes score each live sample's similarities once
    and mix them per distinct second-pass alpha; each such alpha
    generates for all its prompts at once. Given endpoints that answer a
    prompt the same way every time, each config gets the records
    ``run_pipeline`` would give it alone.
    """
    alphas_by_pass1: dict[PipelineConfig, list[float]] = {}
    for config in configs:
        alphas = alphas_by_pass1.setdefault(replace(config, alpha=0.0), [])
        if config.pass2_alpha not in alphas:
            alphas.append(config.pass2_alpha)
    runs = {}
    for pass1_config, alphas in alphas_by_pass1.items():
        records = _run_alphas(store, samples, preliminary_generator,
                              final_generator, pass1_config, alphas)
        runs.update(((pass1_config, alpha), run)
                    for alpha, run in zip(alphas, records))
    return [runs[replace(config, alpha=0.0), config.pass2_alpha]
            for config in configs]


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
    _, outputs = _run_pass(store, samples, generator, k, budget,
                           FailurePolicy.ABORT, exclude_self=exclude_self)
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
    pairs: list[TrainingPair] = []
    for sample in samples:
        if sample.gold is None:
            raise MissingGold(f"sample {sample.sample_id} has no gold parse")
        preliminary = None
        if alpha > 0.0:
            if preliminaries is None or sample.sample_id not in preliminaries:
                raise MissingPrediction(
                    f"sample {sample.sample_id} has no preliminary parse "
                    f"but alpha={alpha} needs one")
            preliminary = preliminaries[sample.sample_id]
        hits = retrieve_sampled(store, sample.utterance, k, p, rng,
                                alpha=alpha, preliminary=preliminary,
                                exclude_ids=self_exclusion(store, sample,
                                                           exclude_self))
        exemplars = [store.get(h.exemplar_id) for h in hits]
        augmented = build_augmented_input(sample.utterance, exemplars, budget)
        pairs.append(TrainingPair(
            sample_id=sample.sample_id, text=augmented.text,
            target=sample.gold, exemplar_ids=augmented.exemplar_ids))
    return pairs
