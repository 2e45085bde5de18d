"""Bracketed intent/slot parse trees: parsing, serialization, templates.

The serialized form is a single line of space-delimited tokens where
``[IN:LABEL`` / ``[SL:LABEL`` open a node, ``]`` closes it, and any other
token is utterance text attached to the enclosing node, e.g.::

    [IN:CREATE_CALL [SL:GROUP Musicals ] ]

:func:`parse_labels` is the one grammar: it validates a string and returns
its labels without building a tree. :func:`parse_top` runs it, then builds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import MalformedParse

INTENT_PREFIX = "IN:"
SLOT_PREFIX = "SL:"

_TOKEN_RE = re.compile(r"\[|\]|[^\[\]\s]+")
# anything shaped like a label, for predictions that do not parse
_FALLBACK_RE = re.compile(
    rf"(?:{re.escape(INTENT_PREFIX)}|{re.escape(SLOT_PREFIX)})\w+",
    re.IGNORECASE)


class NodeKind(Enum):
    INTENT = "intent"
    SLOT = "slot"


@dataclass(frozen=True)
class TextSpan:
    """Raw utterance tokens covered by one leaf of the parse."""

    text: str

    def __post_init__(self):
        if "[" in self.text or "]" in self.text:
            raise MalformedParse(f"bracket character inside text span: {self.text!r}")


@dataclass(frozen=True)
class ParseNode:
    """One intent or slot node; children are nodes and text spans in order."""

    label: str
    kind: NodeKind
    children: tuple["ParseNode | TextSpan", ...] = ()


@dataclass(frozen=True)
class ParseTree:
    """A parsed intent/slot tree; equality is structural."""

    root: ParseNode


@dataclass(frozen=True, order=True)
class Template:
    """The multiset of intent/slot labels of a parse, slot values discarded.

    ``labels`` is stored sorted, so dataclass equality is multiset equality.
    """

    labels: tuple[str, ...]

    @classmethod
    def from_labels(cls, labels) -> "Template":
        return cls(tuple(sorted(labels)))

    def matches(self, other: "Template", multiset: bool = True) -> bool:
        """Compare templates; ``multiset=False`` relaxes to set equality."""
        if multiset:
            return self.labels == other.labels
        return set(self.labels) == set(other.labels)


def _classify(label: str) -> NodeKind:
    if label.startswith(INTENT_PREFIX):
        if len(label) == len(INTENT_PREFIX):
            raise MalformedParse(f"empty intent name: {label!r}")
        return NodeKind.INTENT
    if label.startswith(SLOT_PREFIX):
        if len(label) == len(SLOT_PREFIX):
            raise MalformedParse(f"empty slot name: {label!r}")
        return NodeKind.SLOT
    raise MalformedParse(f"label {label!r} matches neither prefix "
                         f"{INTENT_PREFIX!r} nor {SLOT_PREFIX!r}")


def parse_labels(text: str) -> list[str]:
    """Validate a bracketed intent/slot string; return its labels in order.

    Labels are upper-cased to canonical form. Raises MalformedParse for
    anything that is not a single well-formed tree rooted at an intent:
    unbalanced brackets, empty or unprefixed labels, a slot at the root,
    text outside the root, or trailing content.
    """
    if not isinstance(text, str) or not text.strip():
        raise MalformedParse("empty input")
    labels: list[str] = []
    depth = 0
    tokens = iter(_TOKEN_RE.findall(text))
    for tok in tokens:
        if tok == "[":
            # the end of input counts as a missing label too
            label = next(tokens, "]")
            if label in ("[", "]"):
                raise MalformedParse("missing label after '['")
            label = label.upper()
            kind = _classify(label)
            if not depth:
                if labels:
                    raise MalformedParse("more than one top-level node")
                if kind is not NodeKind.INTENT:
                    raise MalformedParse(f"root must be an intent, got {label!r}")
            depth += 1
            labels.append(label)
        elif tok == "]":
            if not depth:
                raise MalformedParse("unbalanced ']'")
            depth -= 1
        elif not depth:
            raise MalformedParse(f"text outside brackets: {tok!r}")
    if depth:
        raise MalformedParse("unbalanced '['")
    return labels


def parse_top(text: str) -> ParseTree:
    """Parse a bracketed intent/slot string into a ParseTree.

    The string is validated by :func:`parse_labels`, which raises the same
    MalformedParse; the tree is then built over the same tokens.
    """
    parse_labels(text)
    tokens = iter(_TOKEN_RE.findall(text))
    stack: list[tuple[str, list]] = [("", [])]
    words: list[str] = []
    for tok in tokens:
        if tok not in ("[", "]"):
            words.append(tok)
            continue
        if words:
            stack[-1][1].append(TextSpan(" ".join(words)))
            words.clear()
        if tok == "[":
            stack.append((next(tokens).upper(), []))
        else:
            label, children = stack.pop()
            stack[-1][1].append(
                ParseNode(label, _classify(label), tuple(children)))
    return ParseTree(root=stack[0][1][0])


def serialize(tree: ParseTree) -> str:
    """Render a tree back to canonical single-spaced bracketed form."""
    parts: list[str] = []

    def emit(node: ParseNode):
        parts.append("[" + node.label)
        for child in node.children:
            if isinstance(child, TextSpan):
                parts.append(child.text)
            else:
                emit(child)
        parts.append("]")

    emit(tree.root)
    return " ".join(parts)


def structure_tokens(text: str) -> list[str]:
    """Intent/slot labels of a parse string as a token list, in document order.

    A string that does not parse (a malformed model prediction) degrades
    to a regex scan for anything shaped like a label, so retrieval on
    predictions never hard-fails; the result may be empty.
    """
    try:
        return parse_labels(text)
    except MalformedParse:
        return [m.group(0).upper() for m in _FALLBACK_RE.finditer(text)]
