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
:func:`build_augmented_input` checks only the query. Each exemplar's
pair text and its cost in tokens are derived once, on its first prompt,
so a prompt adds the cached costs and joins the cached texts
(``Exemplar._prompt_pair``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import GandrError, SeparatorCollision

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


def _prompt_pair(utterance: str, parse: str) -> tuple[str, int]:
    """An exemplar's part of a prompt and its cost in tokens: "&" and the
    "||" before it are whitespace-delimited, one token each."""
    return (utterance + PAIR_SEP + parse,
            2 + len(utterance.split()) + len(parse.split()))


def build_augmented_input(query: str, exemplars: Sequence[Exemplar],
                          budget: int | None = None) -> AugmentedInput:
    """Append exemplars to the query, best first, within a token budget.

    ``budget`` caps the whitespace token count of the final text (the
    separators count; they are tokens). Exemplars that do not fit whole
    are dropped from the tail, never split. A query that alone exceeds
    the budget raises GandrError.
    """
    check_separator_safe(query)
    used = len(query.split())
    if budget is not None and used > budget:
        raise GandrError(f"query is {used} tokens, budget is {budget}")

    parts = [query]
    ids: list[int] = []
    truncated = False
    for exemplar in exemplars:
        pair, cost = exemplar._prompt_pair
        if budget is not None and used + cost > budget:
            truncated = True
            break
        parts.append(pair)
        ids.append(exemplar.exemplar_id)
        used += cost
    return AugmentedInput(
        text=EXEMPLAR_SEP.join(parts),
        query=query,
        exemplar_ids=tuple(ids),
        truncated=truncated,
    )

