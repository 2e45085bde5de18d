"""Bracketed intent/slot parses: validation, trees, serialization, templates.

The serialized form is a single line of space-delimited tokens where
``[IN:LABEL`` / ``[SL:LABEL`` open a node, ``]`` closes it, and any other
token is utterance text attached to the enclosing node, e.g.::

    [IN:CREATE_CALL [SL:GROUP Musicals ] ]

:func:`parse_labels` is the one grammar: it validates a string and returns
its labels without building a tree. Parses of one kind share a bracket
skeleton, so the labels of each accepted skeleton are cached and a row's
words are not scanned again. :func:`parse_top` runs the same scan without
the cache, then builds a tree of :class:`ParseNode` whose text spans are
plain strings.
:func:`template` is the one definition of a template; template recall and
the store's output channel both key on it.
"""

from __future__ import annotations

import functools
import re
import sys
from dataclasses import dataclass

from .errors import MalformedParse

INTENT_PREFIX = "IN:"
SLOT_PREFIX = "SL:"

_TOKEN_RE = re.compile(r"\[|\]|[^\[\]\s]+")
# the bracket skeleton of a parse: each '[' with the label after it, and ']'
_SKELETON_RE = re.compile(r"\[\s*[^\[\]\s]*|\]")
# anything shaped like a label, for predictions that do not parse
_FALLBACK_RE = re.compile(
    rf"(?:{re.escape(INTENT_PREFIX)}|{re.escape(SLOT_PREFIX)})\w+",
    re.IGNORECASE)


@dataclass(frozen=True)
class ParseNode:
    """One intent or slot node. ``children`` holds its child nodes and its
    text spans in order; a text span is a ``str`` of consecutive words
    joined by one space. Equality is structural. It, the hash, the repr
    and pickling walk the tree with a stack rather than recursion, so any
    tree parse_top builds compares, hashes, prints and pickles."""

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

    def __repr__(self):
        # the dataclass form; a str on the stack is output as it stands
        parts: list[str] = []
        stack: list[ParseNode | str] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            parts.append(f"ParseNode(label={item.label!r}, children=(")
            children = item.children
            stack.append(",))" if len(children) == 1 else "))")
            for i in range(len(children) - 1, -1, -1):
                child = children[i]
                stack.append(child if isinstance(child, ParseNode)
                             else repr(child))
                if i:
                    stack.append(", ")
        return "".join(parts)

    def __reduce__(self):
        # one flat entry per node in preorder, since the pickler recurses
        # into nested objects: its label, its other children, and where
        # its node children sit among them. serialize and parse_top would
        # not do, as a hand-built node need not survive that round trip
        entries = []
        stack = [self]
        while stack:
            node = stack.pop()
            positions = tuple(i for i, c in enumerate(node.children)
                              if isinstance(c, ParseNode))
            entries.append((node.label, tuple(
                c for c in node.children if not isinstance(c, ParseNode)),
                positions))
            stack.extend(node.children[i] for i in reversed(positions))
        return _unflatten, (entries,)


def _unflatten(entries) -> ParseNode:
    """The tree ``ParseNode.__reduce__`` flattened."""
    built: list[ParseNode] = []
    # in reverse preorder every node comes after its descendants, and its
    # node children sit on top of ``built`` first child first
    for label, others, positions in reversed(entries):
        children = list(others)
        for i in positions:
            children.insert(i, built.pop())
        built.append(ParseNode(label, tuple(children)))
    return built.pop()


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


def _scan_labels(text: str) -> list[str]:
    """The grammar itself: one pass over every token of ``text``."""
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


@functools.lru_cache(maxsize=1 << 16)
def _skeleton_labels(skeleton: str) -> tuple[str, ...]:
    """The interned labels of a skeleton the scan accepts. A rejected
    skeleton raises MalformedParse, and lru_cache keeps no exception."""
    return tuple(map(sys.intern, _scan_labels(skeleton)))


def parse_labels(text: str) -> tuple[str, ...]:
    """Validate a bracketed intent/slot string; return its labels in order.

    Labels are upper-cased to canonical form. Raises MalformedParse for
    anything that is not a single well-formed tree rooted at an intent:
    unbalanced brackets, empty or unprefixed labels, a slot at the root,
    text outside the root, or trailing content.

    A string that starts with '[' and ends with ']' is judged by its
    skeleton, its brackets and labels alone, whose verdict is cached: when
    the skeleton is one tree, every word of the string lies inside it,
    where the scan ignores words, so the string gets the skeleton's labels.
    Every other string, and every string whose skeleton is rejected, is
    scanned in full, so each message names what the string itself holds;
    only accepted skeletons are cached. The labels are interned, and the
    tuple is shared by every string with that skeleton. It serves store
    and dataset rows, whose skeletons repeat; parse_top and
    structure_tokens, which see model predictions, scan without the cache.
    """
    if isinstance(text, str):
        stripped = text.strip()
        if stripped[:1] == "[" and stripped[-1:] == "]":
            try:
                return _skeleton_labels(
                    " ".join(_SKELETON_RE.findall(stripped)))
            except MalformedParse:
                pass
    return tuple(_scan_labels(text))


def parse_top(text: str) -> ParseNode:
    """Parse a bracketed intent/slot string into its root ParseNode.

    The string is validated by the scan behind :func:`parse_labels`,
    which raises the same MalformedParse; the tree is then built over the
    same tokens.
    """
    _scan_labels(text)
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
        return _scan_labels(text)
    except MalformedParse:
        return [m.group(0).upper() for m in _FALLBACK_RE.finditer(text)]
