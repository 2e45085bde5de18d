import pickle
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gandr import top_parse
from gandr.errors import MalformedParse
from gandr.top_parse import (
    ParseNode,
    parse_labels,
    parse_top,
    serialize,
    structure_tokens,
    template,
)


def test_parse_simple_call():
    tree = parse_top("[IN:CREATE_CALL [SL:GROUP Musicals ] ]")
    assert tree == ParseNode("IN:CREATE_CALL",
                             (ParseNode("SL:GROUP", ("Musicals",)),))
    assert tree.label == "IN:CREATE_CALL"
    (slot,) = tree.children
    assert slot.label == "SL:GROUP"
    assert slot.children == ("Musicals",)


def test_parse_uppercases_labels():
    tree = parse_top("[in:create_call [sl:group Musicals ] ]")
    assert tree.label == "IN:CREATE_CALL"
    assert tree.children[0].label == "SL:GROUP"


def test_nested_slots_and_text_interleaving():
    tree = parse_top(
        "[IN:GET_EVENT find [SL:CATEGORY_EVENT concerts ] near "
        "[SL:LOCATION [IN:GET_LOCATION home ] ] today ]")
    assert [type(c).__name__ for c in tree.children] == [
        "str", "ParseNode", "str", "ParseNode", "str"]
    location = tree.children[3]
    assert location.children[0].label == "IN:GET_LOCATION"


def test_consecutive_words_merge_into_one_span():
    tree = parse_top("[IN:CREATE_CALL [SL:GROUP preferred friends ] ]")
    assert tree.children[0].children == ("preferred friends",)


def test_serialize_round_trip_is_canonical():
    raw = "[in:create_call   [sl:group   preferred   friends ]]"
    tree = parse_top(raw)
    assert serialize(tree) == "[IN:CREATE_CALL [SL:GROUP preferred friends ] ]"
    assert parse_top(serialize(tree)) == tree


@pytest.mark.parametrize("bad", [
    "",
    "   ",
    "[IN:A",
    "[IN:A ] ]",
    "]",
    "word outside",
    "[IN:A ] trailing",
    "[IN:A ] [IN:B ]",
    "[SL:ROOT_SLOT x ]",
    "[XX:WEIRD x ]",
    "[IN: ]",
    "[SL: ]",
    "[ ]",
    "[[IN:A ] ]",
])
@pytest.mark.parametrize("parse", [parse_top, parse_labels])
def test_malformed_inputs_raise(parse, bad):
    with pytest.raises(MalformedParse):
        parse(bad)


# every message the grammar raises, as a fragment of its text
_GRAMMAR_MESSAGES = (
    "empty input", "missing label after '['", "empty intent name",
    "empty slot name", "matches neither prefix",
    "more than one top-level node", "root must be an intent",
    "unbalanced ']'", "text outside brackets", "unbalanced '['")
# well-formed labels in either case, then empty and unknown prefixes
_GRAMMAR_LABELS = st.one_of(
    st.sampled_from(["IN:A", "in:b_c", "SL:X", "sl:y"]),
    st.sampled_from(["IN:B", "SL:Y", "IN:", "SL:", "XX:Z"]))
_GRAMMAR_WORDS = st.sampled_from(["play", "café", "друг", "\t"])
_GRAMMAR_GAPS = st.sampled_from(["", " ", "  ", "\t"])


def _grammar_node(label, children, close):
    return " ".join(["[" + label, *children, close])


# nodes over those labels and words, most of them closed, next to stray
# brackets and words, so that whole, nested, unclosed and second top-level
# nodes are all common and not left to chance
_GRAMMAR_NODES = st.builds(
    _grammar_node, _GRAMMAR_LABELS,
    st.lists(st.recursive(_GRAMMAR_WORDS, lambda inner: st.builds(
        _grammar_node, _GRAMMAR_LABELS, st.lists(inner, max_size=3),
        st.sampled_from(["]", "]", ""]))), max_size=3),
    st.sampled_from(["]", "]", ""]))
_GRAMMAR_TEXT = st.lists(
    st.tuples(st.one_of(_GRAMMAR_NODES, st.sampled_from(["[", "]", "play"])),
              _GRAMMAR_GAPS),
    max_size=3).map(lambda parts: "".join(a + gap for a, gap in parts))


def _labels_by_walk(node, out):
    out.append(node.label)
    for child in node.children:
        if isinstance(child, ParseNode):
            _labels_by_walk(child, out)
    return out


def test_one_grammar_for_tree_and_labels():
    """parse_labels raises exactly when parse_top does, with its message;
    otherwise it gives the tree's labels in document order, as does
    structure_tokens."""
    reached = set()

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(_GRAMMAR_TEXT)
    def same_grammar(text):
        try:
            tree = parse_top(text)
        except MalformedParse as exc:
            with pytest.raises(MalformedParse) as scan:
                parse_labels(text)
            assert str(scan.value) == str(exc)
            reached.update(m for m in _GRAMMAR_MESSAGES if m in str(exc))
            return
        reached.add(None)
        labels = parse_labels(text)
        assert list(labels) == _labels_by_walk(tree, [])
        assert structure_tokens(text) == list(labels)

    same_grammar()
    assert reached == {None, *_GRAMMAR_MESSAGES}


# whitespace that str.strip and the scan both skip, beyond the ASCII kind
_SKELETON_GAPS = st.sampled_from(
    ["", " ", "  ", "\t", "\n", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
     "\xa0", "\u2028"])
_SKELETON_WORDS = st.builds(
    lambda gap, word: gap + word, _SKELETON_GAPS,
    st.sampled_from(["play", "café", "x9", "play", "[", "]"]))


def _skeleton_node(gap, open_gap, label, children, close):
    return gap + "[" + open_gap + label + "".join(children) + close


# nodes whose labels may be upper or lower case, empty or unprefixed, with
# whitespace of every kind before and after a label, closed, closed right
# after the last child (adjacent brackets) or not at all; the text is one
# or more of them, so that a root, words or a node after the root, and
# leading and trailing whitespace are all common
_SKELETON_NODES = st.recursive(
    _SKELETON_WORDS,
    lambda inner: st.builds(
        _skeleton_node, _SKELETON_GAPS, st.sampled_from(["", "", " ", "\u2028"]),
        st.sampled_from(["IN:A", "in:b", "SL:X", "sl:y", "IN:", "SL:",
                         "XX:Z", ""]),
        st.lists(inner, max_size=3), st.sampled_from([" ]", "]", "\x85]", ""])),
    max_leaves=8)
_SKELETON_TEXT = st.one_of(
    st.builds(lambda nodes, gap: "".join(nodes) + gap,
              st.lists(_SKELETON_NODES, min_size=1, max_size=3),
              _SKELETON_GAPS),
    st.text(alphabet="[] \x1c\x85\xa0\u2028INSL:abx", max_size=30))


def _outcome(parse, text):
    try:
        return list(parse(text))
    except MalformedParse as exc:
        return str(exc)


def test_skeleton_cache_agrees_with_the_scan():
    """parse_labels, cold and then from its skeleton cache, gives what the
    uncached scan gives on the text itself: the same labels, or the same
    MalformedParse message. Labels it returns are interned, and a second
    call returns the very tuple of the first."""
    top_parse._skeleton_labels.cache_clear()
    reached = set()

    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(_SKELETON_TEXT)
    def same_verdict(text):
        want = _outcome(top_parse._scan_labels, text)
        assert _outcome(parse_labels, text) == want
        assert _outcome(parse_labels, text) == want
        if isinstance(want, str):
            reached.add("rejected")
            return
        reached.add("whitespace after '['" if re.search(r"\[\s", text)
                    else "parsed")
        labels = parse_labels(text)
        assert labels is parse_labels(text)
        assert all(label is sys.intern(label) for label in labels)

    same_verdict()
    assert reached == {"rejected", "parsed", "whitespace after '['"}
    assert top_parse._skeleton_labels.cache_info().hits > 0


@pytest.mark.parametrize("text, message", [
    ("[IN:A ] x [IN:B ]", "text outside brackets: 'x'"),
    ("[IN:A x ] y ]", "text outside brackets: 'y'"),
    ("x [IN:A ]", "text outside brackets: 'x'"),
    ("[IN:A ] x", "text outside brackets: 'x'"),
    ("\u2028[IN:A [ ] ]\x1c", "missing label after '['"),
])
def test_skeleton_rejects_keep_the_texts_message(text, message):
    for _ in range(2):
        with pytest.raises(MalformedParse) as exc:
            parse_labels(text)
        assert str(exc.value) == message


def test_only_accepted_row_skeletons_are_cached():
    """A rejected skeleton leaves the cache as it was, and so do parse_top
    and structure_tokens, which see model predictions."""
    top_parse._skeleton_labels.cache_clear()
    with pytest.raises(MalformedParse):
        parse_labels("[IN:A [ ] ]")
    assert top_parse._skeleton_labels.cache_info().currsize == 0
    assert structure_tokens("[IN:A [SL:B x ] ]") == ["IN:A", "SL:B"]
    assert structure_tokens("[IN:A [SL:B x ]") == ["IN:A", "SL:B"]
    parse_top("[IN:C [SL:D y ] ]")
    assert top_parse._skeleton_labels.cache_info().currsize == 0
    parse_labels("[IN:A [SL:B x ] ]")
    assert top_parse._skeleton_labels.cache_info().currsize == 1


def test_one_skeleton_one_label_tuple():
    """Parses that differ only in their words share one label tuple."""
    first = parse_labels("[IN:PLAY [SL:SONG jazz ] now ]")
    assert parse_labels(" [IN:PLAY  [SL:SONG blues please ]]\n") is first
    assert first == ("IN:PLAY", "SL:SONG")
    assert structure_tokens("[IN:PLAY [SL:SONG x ] ]") == ["IN:PLAY", "SL:SONG"]


def _text_spans(node, out):
    for child in node.children:
        if isinstance(child, ParseNode):
            _text_spans(child, out)
        else:
            out.append(child)
    return out


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_GRAMMAR_TEXT)
def test_text_spans_are_single_spaced_words(text):
    """Every text child of a parsed tree is a non-empty str of words joined
    by one space, with no bracket, and the tree survives a round trip."""
    try:
        tree = parse_top(text)
    except MalformedParse:
        return
    for span in _text_spans(tree, []):
        assert isinstance(span, str)
        assert span and span == " ".join(span.split())
        assert "[" not in span and "]" not in span
    assert parse_top(serialize(tree)) == tree


def test_template_is_label_multiset():
    assert template(parse_labels(
        "[IN:SEND_MESSAGE [SL:GROUP anime ] [SL:GROUP manga ] ]")) == (
        "IN:SEND_MESSAGE", "SL:GROUP", "SL:GROUP")


def test_template_ignores_slot_values_and_order():
    a = template(parse_labels(
        "[IN:GET_EVENT [SL:LOCATION paris ] [SL:DATE_TIME friday ] ]"))
    b = template(parse_labels(
        "[IN:GET_EVENT [SL:DATE_TIME never ] [SL:LOCATION moon ] ]"))
    assert a == b == ("IN:GET_EVENT", "SL:DATE_TIME", "SL:LOCATION")


def test_structure_tokens_document_order():
    parse = ("[IN:GET_EVENT [SL:DATE_TIME friday ] [SL:LOCATION paris ] "
             "[SL:DATE_TIME night ] ]")
    assert structure_tokens(parse) == [
        "IN:GET_EVENT", "SL:DATE_TIME", "SL:LOCATION", "SL:DATE_TIME"]


def test_structure_tokens_salvages_malformed_predictions():
    assert structure_tokens("[IN:CREATE_CALL [SL:GROUP oops") == [
        "IN:CREATE_CALL", "SL:GROUP"]
    assert structure_tokens("in:create_call and sl:group somewhere") == [
        "IN:CREATE_CALL", "SL:GROUP"]
    assert structure_tokens("complete gibberish") == []
    assert structure_tokens("") == []


def _compose(node_spec, out):
    """Render a nested (label, children) spec to canonical tokens by hand."""
    label, children = node_spec
    out.append("[" + label)
    for child in children:
        if isinstance(child, str):
            out.append(child)
        else:
            _compose(child, out)
    out.append("]")
    return out


_WORDS = ["play", "jazz", "tomorrow", "mom", "друг", "café", "x9"]
_LABELS_IN = ["IN:ALPHA", "IN:BETA_GAMMA", "IN:ZZ9"]
_LABELS_SL = ["SL:ONE", "SL:TWO_THREE", "SL:K4"]


def _tree_spec(rng: np.random.Generator, depth: int, as_intent: bool):
    label = (_LABELS_IN if as_intent else _LABELS_SL)[int(rng.integers(0, 3))]
    children = []
    n = int(rng.integers(0, 4)) if depth > 0 else 0
    last_was_word = False
    for _ in range(n):
        # alternate words and nodes so two word children never merge
        if not last_was_word and rng.random() < 0.5:
            children.append(_WORDS[int(rng.integers(0, len(_WORDS)))])
            last_was_word = True
        else:
            children.append(_tree_spec(rng, depth - 1, not as_intent))
            last_was_word = False
    if not children:
        children.append(_WORDS[int(rng.integers(0, len(_WORDS)))])
    return label, children


def test_round_trip_many_random_trees():
    rng = np.random.default_rng(20816)
    for _ in range(500):
        text = " ".join(_compose(_tree_spec(rng, 3, True), []))
        tree = parse_top(text)
        assert serialize(tree) == text
        assert parse_top(serialize(tree)) == tree


def test_deep_tree_round_trips():
    """parse_top builds trees of any depth, and serialize renders them."""
    text = " ".join(["[IN:A"] * 3000 + ["x"] + ["]"] * 3000)
    assert serialize(parse_top(text)) == text


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
def test_fuzz_never_crashes(text):
    try:
        parse_top(text)
    except MalformedParse:
        pass
    # the salvaging tokenizer must be total on arbitrary strings
    tokens = structure_tokens(text)
    assert all(t.startswith(("IN:", "SL:")) for t in tokens)


def test_deep_trees_compare_and_hash():
    """Equality and the hash walk trees of any depth parse_top builds."""
    text = " ".join(["[IN:A"] * 3000 + ["x"] + ["]"] * 3000)
    tree, again = parse_top(text), parse_top(text)
    assert tree == again and hash(tree) == hash(again)
    assert tree != parse_top(text.replace(" x ", " y "))
    assert tree != parse_top(text.replace("[IN:A x", "[IN:B x"))
    assert tree != parse_top(text.replace("[IN:A x", "[IN:A [SL:B x ]"))
    # a text span never equals a node, nor a node anything but a node
    assert ParseNode("IN:A", ("x",)) != ParseNode("IN:A", (ParseNode("x"),))
    assert ParseNode("IN:A") != "IN:A"


def test_deep_trees_repr_and_pickle():
    """repr and pickle walk trees of any depth parse_top builds, and
    pickle round-trips any tree, hand-built ones included."""
    text = " ".join(["[IN:A"] * 3000 + ["x"] + ["]"] * 3000)
    tree = parse_top(text)
    assert repr(tree) == "ParseNode(label='IN:A', children=(" * 3000 \
        + "'x',)" + "),)" * 2999 + ")"
    assert pickle.loads(pickle.dumps(tree)) == tree
    hand_built = [
        ParseNode("x"),
        ParseNode("IN:A", ("", ParseNode("y"), "two  words", ParseNode("z"))),
        ParseNode("IN:A", (ParseNode("SL:B", (ParseNode("IN:C"), "w")),
                           ParseNode("SL:D", ("v",)))),
    ]
    for node in hand_built:
        again = pickle.loads(pickle.dumps(node))
        assert again == node and serialize(again) == serialize(node)
    # the dataclass form, byte for byte
    assert repr(hand_built[1]) == (
        "ParseNode(label='IN:A', children=('', ParseNode(label='y', "
        "children=()), 'two  words', ParseNode(label='z', children=())))")
    assert repr(hand_built[0]) == "ParseNode(label='x', children=())"


# labels the grammar refuses next to ones it accepts, so that only the
# walk, not the grammar, tells a node from a text span
_HAND_LABELS = st.sampled_from(["", "[", "]", "IN:A", "SL:B"])


def _hand_trees(depth):
    """Hand-built trees at most ``depth`` nodes deep, whose text children
    are any strings, empty and adjacent ones included."""
    child = st.text()
    if depth > 1:
        child = st.one_of(child, _hand_trees(depth - 1))
    return st.builds(ParseNode, _HAND_LABELS,
                     st.lists(child, max_size=3).map(tuple))


def _reference_eq(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return type(a) is type(b) and a == b
    return (a.label == b.label and len(a.children) == len(b.children)
            and all(map(_reference_eq, a.children, b.children)))


def _reference_repr(node):
    if isinstance(node, str):
        return repr(node)
    children = ", ".join(map(_reference_repr, node.children))
    comma = "," if len(node.children) == 1 else ""
    return f"ParseNode(label={node.label!r}, children=({children}{comma}))"


def _reference_serialize(node):
    return " ".join(["[" + node.label, *(
        c if isinstance(c, str) else _reference_serialize(c)
        for c in node.children), "]"])


def _one_edit_away(node):
    """Trees one edit at the root away from ``node``, most of them unequal
    to it."""
    yield ParseNode(node.label + "x", node.children)
    yield ParseNode(node.label, node.children + ("",))
    if node.children:
        *head, last = node.children
        yield ParseNode(node.label, tuple(head))
        # a text span where a node of that label was, or the reverse
        swapped = ParseNode(last) if isinstance(last, str) else last.label
        yield ParseNode(node.label, (*head, swapped))
        # one text span that serializes as the children do
        yield ParseNode(node.label, (_reference_serialize(node)[
            len(node.label) + 2:-2],))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_hand_trees(4), _hand_trees(4))
def test_hand_built_trees_agree_with_recursive_references(tree, other):
    """Pickling, equality, the repr and serialize agree on hand-built
    trees with what a recursive reference gives."""
    again = pickle.loads(pickle.dumps(tree))
    assert again == tree and hash(again) == hash(tree)
    assert _reference_eq(again, tree)
    assert repr(tree) == _reference_repr(tree)
    assert serialize(tree) == _reference_serialize(tree)
    for candidate in (other, *_one_edit_away(tree)):
        want = _reference_eq(tree, candidate)
        assert (tree == candidate) == (candidate == tree) == want
