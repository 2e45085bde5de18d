import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert labels == _labels_by_walk(tree, [])
        assert structure_tokens(text) == labels

    same_grammar()
    assert reached == {None, *_GRAMMAR_MESSAGES}


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
