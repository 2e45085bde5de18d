"""Bracketed intent/slot parses: validation, trees, serialization, templates.

The serialized form is a single line of space-delimited tokens where
``[IN:LABEL`` / ``[SL:LABEL`` open a node, ``]`` closes it, and any other
token is utterance text attached to the enclosing node, e.g.::

    [IN:CREATE_CALL [SL:GROUP Musicals ] ]

:func:`parse_labels` is the one grammar: it validates a string and returns
its labels without building a tree. :func:`parse_top` runs it, then builds
a tree of :class:`ParseNode` whose text spans are plain strings.
:func:`template` is the one definition of a template; template recall and
the store's output channel both key on it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import MalformedParse

INTENT_PREFIX = "IN:"
SLOT_PREFIX = "SL:"

_TOKEN_RE = re.compile(r"\[|\]|[^\[\]\s]+")
# anything shaped like a label, for predictions that do not parse
_FALLBACK_RE = re.compile(
    rf"(?:{re.escape(INTENT_PREFIX)}|{re.escape(SLOT_PREFIX)})\w+",
    re.IGNORECASE)


@dataclass(frozen=True)
class ParseNode:
    """One intent or slot node. ``children`` holds its child nodes and its
    text spans in order; a text span is a ``str`` of consecutive words
    joined by one space. Equality is structural. It and the hash walk the
    tree with a stack rather than recursion, so any tree parse_top builds
    compares and hashes."""

    label: str
    children: tuple["ParseNode | str", ...] = ()

    def __eq__(self, other):
        if not isinstance(other, ParseNode):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            for x, y in zip(a.children, b.children):
                if isinstance(x, str) or isinstance(y, str):
                    if x != y:
                        return False
                else:
                    pairs.append((x, y))
        return True

    def __hash__(self):
        return hash(serialize(self))


def template(labels) -> tuple[str, ...]:
    """The template of a parse: its labels sorted, slot values discarded,
    so two templates are equal exactly when their label multisets are."""
    return tuple(sorted(labels))


def _check_label(label: str) -> None:
    for prefix, kind in ((INTENT_PREFIX, "intent"), (SLOT_PREFIX, "slot")):
        if label.startswith(prefix):
            if len(label) == len(prefix):
                raise MalformedParse(f"empty {kind} name: {label!r}")
            return
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
            _check_label(label)
            if not depth:
                if labels:
                    raise MalformedParse("more than one top-level node")
                if not label.startswith(INTENT_PREFIX):
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


def parse_top(text: str) -> ParseNode:
    """Parse a bracketed intent/slot string into its root ParseNode.

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
            stack[-1][1].append(" ".join(words))
            words.clear()
        if tok == "[":
            stack.append((next(tokens).upper(), []))
        else:
            label, children = stack.pop()
            stack[-1][1].append(ParseNode(label, tuple(children)))
    return stack[0][1][0]


def serialize(node: ParseNode) -> str:
    """Render a tree back to canonical single-spaced bracketed form."""
    parts: list[str] = []
    # a stack rather than recursion, so any tree parse_top builds renders
    stack: list[ParseNode | str] = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        else:
            parts.append("[" + item.label)
            stack.append("]")
            stack.extend(reversed(item.children))
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
