"""Seeded synthetic TOP-style corpora and traffic for the benchmark.

Everything here is a pure function of the seed and the requested sizes;
nothing imports gandr. The shape is chosen so that the costs real data
has are present:

* Words follow a Zipf law over one vocabulary, so common words have long
  postings lists (a uniform vocabulary hides their cost).
* Each domain and intent has its own trigger words, and slots draw their
  values from their own Zipf pools, so both the input and the output
  channel carry signal.
* A share of parses nest an intent inside a slot:
  ``[IN:A w [SL:B [IN:C [SL:D v ] ] ] ]``.
* Held-out samples never share an utterance with the store.
* Noisy preliminaries drop or relabel a slot, and a share are malformed
  (unbalanced brackets) so retrieval has to salvage their labels.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

import numpy as np

DOMAINS = ["WEATHER", "MUSIC", "ALARM", "MESSAGING", "NAVIGATION",
           "REMINDER", "CALENDAR", "SHOPPING", "NEWS", "TIMER", "RECIPES",
           "EVENTS"]
VERBS = ["GET", "CREATE", "DELETE", "UPDATE", "PLAY", "SEARCH", "SEND",
         "CHECK", "PAUSE", "SHARE"]
NOUNS = ["DATE_TIME", "LOCATION", "CONTACT", "NAME", "TYPE", "AMOUNT",
         "ITEM", "SOURCE", "DESTINATION", "DURATION", "TOPIC", "GROUP",
         "ARTIST", "GENRE", "ORDINAL", "METHOD"]

GENERAL_WORDS = 5000      # function and carrier words shared by all domains
DOMAIN_WORDS = 400        # topical words per domain
VALUE_WORDS = 25000       # slot values, shared Zipf pool
ZIPF_S = 1.05
NESTED_SHARE = 0.12

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


def _word(i: int) -> str:
    """A distinct lowercase letter-only word for every non-negative i."""
    out = []
    while True:
        i, r = divmod(i, len(_SYLLABLES))
        out.append(_SYLLABLES[r])
        if i == 0:
            break
        i -= 1
    return "".join(out)


def _zipf_cum(n: int, s: float = ZIPF_S) -> np.ndarray:
    return np.cumsum(1.0 / np.arange(1, n + 1, dtype=np.float64) ** s)


@dataclass(frozen=True)
class Example:
    utterance: str
    parse: str
    domain: str


class _Draws:
    """Pre-drawn random streams; one numpy generator call per chunk.

    Drawing word by word through ``random.choices`` costs more than
    everything else the generator does, so draws come in bulk.
    """

    CHUNK = 1 << 16

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def zipf(self, words: list[str], cum: np.ndarray):
        while True:
            u = self.rng.random(self.CHUNK) * cum[-1]
            idx = np.minimum(np.searchsorted(cum, u, side="right"),
                             len(words) - 1)
            yield from [words[i] for i in idx.tolist()]

    def uniform(self):
        while True:
            yield from self.rng.random(self.CHUNK).tolist()


class Grammar:
    """Intents, slots and word pools; fixed for every seed."""

    def __init__(self):
        vocab = iter(_word(i) for i in itertools.count())
        self.general = [next(vocab) for _ in range(GENERAL_WORDS)]
        self.values = [next(vocab) for _ in range(VALUE_WORDS)]
        self.domains = []
        for d, name in enumerate(DOMAINS):
            words = [next(vocab) for _ in range(DOMAIN_WORDS)]
            intents = []
            for v, verb in enumerate(VERBS[: 6 + d % 5]):
                slots = [NOUNS[(d * 3 + v * 5 + j) % len(NOUNS)]
                         for j in range(2 + (d + v) % 3)]
                triggers = words[v * 4: v * 4 + 4]
                intents.append((f"IN:{verb}_{name}", slots, triggers))
            self.domains.append((name, words, intents,
                                 _zipf_cum(len(intents), 1.2)))
        self.domain_cum = _zipf_cum(len(DOMAINS), 0.6)

    def examples(self, seed: int):
        """An endless seeded stream of examples."""
        draws = _Draws(seed)
        general = draws.zipf(self.general, _zipf_cum(GENERAL_WORDS))
        value_cum = _zipf_cum(VALUE_WORDS)
        # each slot reads its own rotation of the shared value pool
        values = {slot: draws.zipf(self.values[i * 997:] + self.values[:i * 997],
                                   value_cum)
                  for i, slot in enumerate(NOUNS)}
        topical = {name: draws.zipf(words, _zipf_cum(DOMAIN_WORDS))
                   for name, words, _, _ in self.domains}
        uniform = draws.uniform()

        def pick(items, cum):
            return items[bisect.bisect_right(cum, next(uniform) * cum[-1])]

        def count(n):
            return int(next(uniform) * (n + 1))

        def value(slot: str) -> list[str]:
            n = 1 + (next(uniform) < 0.4) + (next(uniform) < 0.15)
            return [next(values[slot]) for _ in range(n)]

        def intent(domain, nested: bool) -> list[str]:
            name, _, intents, intents_cum = domain
            label, slots, triggers = pick(intents, intents_cum)
            words = topical[name]
            out = ["[" + label]
            out += [next(general) for _ in range(count(3))]
            out.append(triggers[count(3)])
            out += [next(words) for _ in range(count(2))]
            for slot in slots:
                if next(uniform) < 0.45:
                    continue
                out += [next(general) for _ in range(count(2))]
                out.append("[SL:" + slot)
                if not nested and next(uniform) < NESTED_SHARE:
                    out += intent(domain, True)
                else:
                    out += value(slot)
                out.append("]")
            out.append("]")
            return out

        while True:
            domain = pick(self.domains, self.domain_cum)
            tokens = intent(domain, False)
            utterance = " ".join(t for t in tokens if t[0] not in "[]")
            yield Example(utterance, " ".join(tokens), domain[0].lower())


def make_corpus(seed: int, n_store: int, n_heldout: int,
                grammar: Grammar | None = None) -> tuple[list[Example], list[Example]]:
    """A store and a held-out set whose utterances are pairwise distinct."""
    stream = (grammar or Grammar()).examples(seed)
    seen: set[str] = set()
    unique: list[Example] = []
    while len(unique) < n_store + n_heldout:
        ex = next(stream)
        if ex.utterance not in seen:
            seen.add(ex.utterance)
            unique.append(ex)
    rng = random.Random(seed)
    heldout_at = set(rng.sample(range(len(unique)), n_heldout))
    store = [ex for i, ex in enumerate(unique) if i not in heldout_at]
    heldout = [unique[i] for i in sorted(heldout_at)]
    return store, heldout


def noisy_preliminary(rng: random.Random, parse: str,
                      malformed_share: float = 0.1) -> str:
    """Corrupt a gold parse the way a weak first-pass model would."""
    tokens = parse.split()
    slot_at = [i for i, t in enumerate(tokens) if t.startswith("[SL:")]
    roll = rng.random()
    if slot_at and roll < 0.3:
        # drop one slot with its whole bracketed span
        start = rng.choice(slot_at)
        depth, end = 0, start
        for end in range(start, len(tokens)):
            depth += (tokens[end][0] == "[") - (tokens[end] == "]")
            if depth == 0:
                break
        tokens = tokens[:start] + tokens[end + 1:]
    elif slot_at and roll < 0.55:
        i = rng.choice(slot_at)
        tokens[i] = "[SL:" + rng.choice(NOUNS)
    if rng.random() < malformed_share:
        # unbalanced: parse_top rejects it, the label salvage still works
        tokens = tokens[:-1] if rng.random() < 0.5 else ["["] + tokens
    return " ".join(tokens)
