"""Augmented-prompt assembly: a query plus retrieved exemplar pairs.

The wire format is a single line::

    <query> || <utterance 1> & <parse 1> || <utterance 2> & <parse 2> ...

`` || `` separates the query and each exemplar; `` & `` separates an
exemplar's utterance from its parse. Both separators are forbidden inside
the payload fields, and so is a field edge that completes one with the
space the join puts beside it (``"play it ||"``, ``"& co"``), which
:func:`check_separator_safe` enforces, so the format parses back
unambiguously. Exemplar fields are checked once, when the
:class:`~gandr.retrieval.Exemplar` is constructed, so
:func:`build_augmented_input` checks only the query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import QueryExceedsBudget, SeparatorCollision

if TYPE_CHECKING:
    from .retrieval import Exemplar

EXEMPLAR_SEP = " || "
PAIR_SEP = " & "


@dataclass(frozen=True)
class AugmentedInput:
    """One assembled prompt and how it was put together."""

    text: str
    query: str
    exemplar_ids: tuple[int, ...]
    truncated: bool


def check_separator_safe(text: str) -> None:
    """Reject text that contains a separator literal or completes one at
    either edge once joined."""
    joined = f" {text} "
    for sep in (EXEMPLAR_SEP, PAIR_SEP):
        if sep in joined:
            raise SeparatorCollision(
                f"field contains the separator {sep!r}: {text!r}")


def _token_count(text: str) -> int:
    return len(text.split())


def build_augmented_input(query: str, exemplars: Sequence[Exemplar],
                          budget: int | None = None) -> AugmentedInput:
    """Append exemplars to the query, best first, within a token budget.

    ``budget`` caps the whitespace token count of the final text (the
    separators count; they are tokens). Exemplars that do not fit whole
    are dropped from the tail, never split. A query that alone exceeds
    the budget raises QueryExceedsBudget.
    """
    check_separator_safe(query)
    used = _token_count(query)
    if budget is not None and used > budget:
        raise QueryExceedsBudget(
            f"query is {used} tokens, budget is {budget}")

    parts = [query]
    ids: list[int] = []
    truncated = False
    for exemplar in exemplars:
        # "||" and "&" are whitespace-delimited, so each costs one token
        cost = 2 + _token_count(exemplar.utterance) + _token_count(exemplar.parse)
        if budget is not None and used + cost > budget:
            truncated = True
            break
        parts.append(exemplar.utterance + PAIR_SEP + exemplar.parse)
        ids.append(exemplar.exemplar_id)
        used += cost
    return AugmentedInput(
        text=EXEMPLAR_SEP.join(parts),
        query=query,
        exemplar_ids=tuple(ids),
        truncated=truncated,
    )


def split_augmented(text: str) -> tuple[str, list[tuple[str, str]]]:
    """Invert build_augmented_input: (query, [(utterance, parse), ...]).

    Each exemplar chunk splits on its last `` & ``, so parses containing
    no separator round-trip exactly.
    """
    chunks = text.split(EXEMPLAR_SEP)
    query = chunks[0]
    pairs: list[tuple[str, str]] = []
    for chunk in chunks[1:]:
        if PAIR_SEP not in chunk:
            raise SeparatorCollision(
                f"exemplar chunk has no utterance/parse separator: {chunk!r}")
        utterance, parse = chunk.rsplit(PAIR_SEP, 1)
        pairs.append((utterance, parse))
    return query, pairs
