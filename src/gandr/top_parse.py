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
plain strings. A tree is read through one flat walk and built through
one builder, as :class:`ParseNode` says.
:func:`template` is the one definition of a template; template recall and
the store's output channel both key on it.
"""

from __future__ import annotations

import functools
import re
import sys
from dataclasses import dataclass
from itertools import zip_longest

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
    joined by one space. Equality is structural.

    Equality, the repr, pickling and :func:`serialize`, and so the hash,
    read one flat walk, :func:`_walk`; parse_top and unpickling build
    through one builder, :func:`_build`. Neither recurses, so a tree of
    any depth compares, hashes, prints and pickles."""

    label: str
    children: tuple["ParseNode | str", ...] = ()

    def __eq__(self, other):
        if not isinstance(other, ParseNode):
            return NotImplemented
        # an open (a 1-tuple), a text span and a close (None) never collide
        return all(a == b for a, b in zip_longest(_walk(self), _walk(other)))

    def __hash__(self):
        return hash(serialize(self))

    def __repr__(self):
        # the dataclass form, with the children written so far per open node
        parts: list[str] = []
        written: list[int] = []
        for item in _walk(self):
            if item is None:
                parts.append(",))" if written.pop() == 1 else "))")
                continue
            if written:
                if written[-1]:
                    parts.append(", ")
                written[-1] += 1
            if isinstance(item, str):
                parts.append(repr(item))
            else:
                parts.append(f"ParseNode(label={item[0]!r}, children=(")
                written.append(0)
        return "".join(parts)

    def __reduce__(self):
        # flat, since the pickler recurses into nested objects
        return _build, (tuple(_walk(self)),)


def _walk(node: ParseNode):
    """The tree in document order: ``(label,)`` where a node opens, each
    text child as it stands, and None where a node closes."""
    stack: list[ParseNode | str | None] = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, ParseNode):
            yield (item.label,)
            stack.append(None)
            stack.extend(reversed(item.children))
        else:
            yield item


def _build(walk) -> ParseNode:
    """The tree whose :func:`_walk` is ``walk``."""
    stack: list[tuple[str, list]] = [("", [])]
    for item in walk:
        if item is None:
            label, children = stack.pop()
            stack[-1][1].append(ParseNode(label, tuple(children)))
        elif isinstance(item, str):
            stack[-1][1].append(item)
        else:
            stack.append((item[0], []))
    return stack[0][1][0]


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
    which raises the same MalformedParse; :func:`_build` then builds the
    tree from the walk that the same tokens spell.
    """
    _scan_labels(text)
    return _build(_token_walk(text))


def _token_walk(text: str):
    """The :func:`_walk` of the tree that the well-formed ``text`` holds."""
    words: list[str] = []
    tokens = iter(_TOKEN_RE.findall(text))
    for tok in tokens:
        if tok not in ("[", "]"):
            words.append(tok)
            continue
        if words:
            yield " ".join(words)
            words.clear()
        yield (next(tokens).upper(),) if tok == "[" else None


def serialize(node: ParseNode) -> str:
    """Render a tree back to canonical single-spaced bracketed form."""
    return " ".join("]" if item is None else item if isinstance(item, str)
                    else "[" + item[0] for item in _walk(node))


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
