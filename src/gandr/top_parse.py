"""Bracketed intent/slot parse trees: parsing, serialization, templates.

The serialized form is a single line of space-delimited tokens where
``[IN:LABEL`` / ``[SL:LABEL`` open a node, ``]`` closes it, and any other
token is utterance text attached to the enclosing node, e.g.::

    [IN:CREATE_CALL [SL:GROUP Musicals ] ]
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

    def as_set(self) -> frozenset[str]:
        return frozenset(self.labels)

    def matches(self, other: "Template", multiset: bool = True) -> bool:
        """Compare templates; ``multiset=False`` relaxes to set equality."""
        if multiset:
            return self.labels == other.labels
        return self.as_set() == other.as_set()


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


def parse_top(text: str) -> ParseTree:
    """Parse a bracketed intent/slot string into a ParseTree.

    Labels are upper-cased to canonical form. Raises MalformedParse for
    anything that is not a single well-formed tree rooted at an intent:
    unbalanced brackets, empty or unprefixed labels, a slot at the root,
    text outside the root, or trailing content.
    """
    if not isinstance(text, str) or not text.strip():
        raise MalformedParse("empty input")

    tokens = iter(_TOKEN_RE.findall(text))
    root: ParseNode | None = None
    stack: list[tuple[str, NodeKind, list]] = []
    words: list[str] = []

    def flush_words():
        if words:
            stack[-1][2].append(TextSpan(" ".join(words)))
            words.clear()

    for tok in tokens:
        if tok == "[":
            # the end of input counts as a missing label too
            label = next(tokens, "]")
            if label in ("[", "]"):
                raise MalformedParse("missing label after '['")
            label = label.upper()
            kind = _classify(label)
            if not stack:
                if root is not None:
                    raise MalformedParse("more than one top-level node")
                if kind is not NodeKind.INTENT:
                    raise MalformedParse(f"root must be an intent, got {label!r}")
            else:
                flush_words()
            stack.append((label, kind, []))
        elif tok == "]":
            if not stack:
                raise MalformedParse("unbalanced ']'")
            flush_words()
            label, kind, children = stack.pop()
            node = ParseNode(label, kind, tuple(children))
            if stack:
                stack[-1][2].append(node)
            else:
                root = node
        else:
            if not stack:
                raise MalformedParse(f"text outside brackets: {tok!r}")
            words.append(tok)

    if stack:
        raise MalformedParse("unbalanced '['")
    if root is None:
        raise MalformedParse("no parse found")
    return ParseTree(root=root)


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


def _labels_in_order(node: ParseNode, out: list[str]) -> list[str]:
    out.append(node.label)
    for child in node.children:
        if isinstance(child, ParseNode):
            _labels_in_order(child, out)
    return out


def extract_template(tree: ParseTree) -> Template:
    """Collect the multiset of intent and slot labels; text spans contribute nothing."""
    return Template.from_labels(_labels_in_order(tree.root, []))


def structure_tokens(parse_or_text: ParseTree | str) -> list[str]:
    """Intent/slot labels of a parse as a token list, in document order.

    Accepts a ParseTree or a raw string. Unparseable strings (malformed
    model predictions) degrade to a regex scan for anything shaped like a
    label, so retrieval on predictions never hard-fails; the result may be
    empty.
    """
    if isinstance(parse_or_text, ParseTree):
        return _labels_in_order(parse_or_text.root, [])
    try:
        tree = parse_top(parse_or_text)
    except MalformedParse:
        return [m.group(0).upper() for m in _FALLBACK_RE.finditer(parse_or_text)]
    return _labels_in_order(tree.root, [])
