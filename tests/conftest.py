"""Shared fixtures: the worked two-pass example and random corpora."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import strategies as st

from gandr import Exemplar, ExemplarStore, Generator
from gandr.tfidf import TfidfVectorizer


def pytest_terminal_summary(terminalreporter):
    """Print one verdict line per acceptance check, after capture ends."""
    module = sys.modules.get("test_acceptance")
    if module is None:
        return
    lines = module.verdict_lines()
    if lines:
        terminalreporter.section("acceptance checks")
        for line in lines:
            terminalreporter.write_line(line)

# A mini-corpus around one query whose first-pass retrieval is dominated
# by lexical overlap and whose second pass, guided by a preliminary parse,
# surfaces the exemplars that actually share the gold template.
TRACE_EXEMPLARS = (
    Exemplar(0, "musicals in windham this weekend",
             "[IN:GET_EVENT [SL:CATEGORY_EVENT musicals ] [SL:LOCATION windham ] "
             "[SL:DATE_TIME this weekend ] ]"),
    Exemplar(1, "could you message a video",
             "[IN:SEND_MESSAGE [SL:TYPE_CONTENT video ] ]"),
    Exemplar(2, "Please could you remind me to walk the dog",
             "[IN:CREATE_REMINDER [SL:PERSON_REMINDED me ] [SL:TODO walk the dog ] ]"),
    Exemplar(3, "Could you tell me the weather in Paris?",
             "[IN:GET_WEATHER [SL:LOCATION Paris ] ]"),
    Exemplar(4, "Start a call Spoken Word",
             "[IN:CREATE_CALL [SL:GROUP Spoken Word ] ]"),
    Exemplar(5, "can you please send message to the anime group",
             "[IN:SEND_MESSAGE [SL:GROUP anime ] ]"),
    Exemplar(6, "can you please send text to the development group",
             "[IN:SEND_MESSAGE [SL:GROUP development ] ]"),
    Exemplar(7, "can you send the preferred friends group",
             "[IN:SEND_MESSAGE [SL:GROUP preferred friends ] ]"),
)

TRACE_QUERY = "Could you connect me to the Musicals group"
TRACE_GOLD = "[IN:CREATE_CALL [SL:GROUP Musicals ] ]"
TRACE_PRELIMINARY = "[IN:CREATE_CALL [SL:CONTACT me ] [SL:GROUP Musicals ] ]"
TRACE_DISTRACTOR_ID = 0
TRACE_GROUP_IDS = (4, 5, 6, 7)


@pytest.fixture
def trace_store() -> ExemplarStore:
    store = ExemplarStore()
    for exemplar in TRACE_EXEMPLARS:
        store.add(exemplar)
    return store


@pytest.fixture
def tiny_store() -> ExemplarStore:
    store = ExemplarStore()
    for exemplar in [
        Exemplar(0, "play some jazz music",
                 "[IN:PLAY_MUSIC [SL:MUSIC_GENRE jazz ] ]", domain="music"),
        Exemplar(1, "call my mother now",
                 "[IN:CREATE_CALL [SL:CONTACT mother ] ]", domain="calling"),
        Exemplar(2, "set an alarm for six",
                 "[IN:CREATE_ALARM [SL:DATE_TIME six ] ]", domain="alarm"),
        Exemplar(3, "play the new jazz album",
                 "[IN:PLAY_MUSIC [SL:MUSIC_TYPE album ] [SL:MUSIC_GENRE jazz ] ]",
                 domain="music"),
    ]:
        store.add(exemplar)
    return store


class Miscounting(Generator):
    """Answers ``extra`` more (or, below 0, fewer) outputs than prompts."""

    def __init__(self, extra):
        self.extra = extra

    def generate(self, inputs):
        return ["[IN:OK fine ]"] * (len(inputs) + self.extra)


WORDS = [f"word{i}" for i in range(40)]
INTENTS = [f"IN:INTENT_{c}" for c in "ABCDEF"]
SLOTS = [f"SL:SLOT_{c}" for c in "UVWXYZ"]


def random_utterance(rng: np.random.Generator, vocab_size: int = 40) -> str:
    n = int(rng.integers(1, 9))
    picks = rng.integers(0, min(vocab_size, len(WORDS)), size=n)
    return " ".join(WORDS[i] for i in picks)


def random_parse(rng: np.random.Generator) -> str:
    """Compose a canonical one-level parse string directly, token by token."""
    intent = INTENTS[int(rng.integers(0, len(INTENTS)))]
    parts = ["[" + intent]
    for _ in range(int(rng.integers(0, 4))):
        slot = SLOTS[int(rng.integers(0, len(SLOTS)))]
        value = WORDS[int(rng.integers(0, len(WORDS)))]
        parts.extend(["[" + slot, value, "]"])
    parts.append("]")
    return " ".join(parts)


def _no_surrogate_pair(text: str) -> bool:
    return not any("\ud800" <= a <= "\udbff" and "\udc00" <= b <= "\udfff"
                   for a, b in zip(text, text[1:]))


# Any unicode text, lone surrogates included. A high surrogate directly
# followed by a low one is left out: written as JSON escapes, the two read
# back as the one character they encode.
any_text = st.text(st.characters(exclude_categories=())).filter(
    _no_surrogate_pair)


def make_random_corpus(rng: np.random.Generator, n_docs: int,
                       vocab_size: int = 40) -> list[Exemplar]:
    return [
        Exemplar(i, random_utterance(rng, vocab_size), random_parse(rng))
        for i in range(n_docs)
    ]


def fit_channel(docs) -> TfidfVectorizer:
    """A channel fitted over ``docs``, holding their postings."""
    channel = TfidfVectorizer()
    channel.fit_transform(docs)
    return channel
