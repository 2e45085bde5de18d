import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gandr.errors import MalformedParse
from gandr.top_parse import (
    NodeKind,
    ParseNode,
    Template,
    TextSpan,
    extract_template,
    parse_top,
    serialize,
    structure_tokens,
)


def test_parse_simple_call():
    tree = parse_top("[IN:CREATE_CALL [SL:GROUP Musicals ] ]")
    assert tree.root.label == "IN:CREATE_CALL"
    assert tree.root.kind is NodeKind.INTENT
    (slot,) = tree.root.children
    assert slot.label == "SL:GROUP"
    assert slot.kind is NodeKind.SLOT
    assert slot.children == (TextSpan("Musicals"),)


def test_parse_uppercases_labels():
    tree = parse_top("[in:create_call [sl:group Musicals ] ]")
    assert tree.root.label == "IN:CREATE_CALL"
    assert tree.root.children[0].label == "SL:GROUP"


def test_nested_slots_and_text_interleaving():
    tree = parse_top(
        "[IN:GET_EVENT find [SL:CATEGORY_EVENT concerts ] near "
        "[SL:LOCATION [IN:GET_LOCATION home ] ] today ]")
    root = tree.root
    assert [type(c).__name__ for c in root.children] == [
        "TextSpan", "ParseNode", "TextSpan", "ParseNode", "TextSpan"]
    location = root.children[3]
    assert location.children[0].label == "IN:GET_LOCATION"


def test_consecutive_words_merge_into_one_span():
    tree = parse_top("[IN:CREATE_CALL [SL:GROUP preferred friends ] ]")
    assert tree.root.children[0].children == (TextSpan("preferred friends"),)


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
def test_malformed_inputs_raise(bad):
    with pytest.raises(MalformedParse):
        parse_top(bad)


def test_text_span_rejects_brackets():
    with pytest.raises(MalformedParse):
        TextSpan("a]b")


def test_template_is_label_multiset():
    tree = parse_top("[IN:SEND_MESSAGE [SL:GROUP anime ] [SL:GROUP manga ] ]")
    template = extract_template(tree)
    assert template.labels == ("IN:SEND_MESSAGE", "SL:GROUP", "SL:GROUP")


def test_template_multiset_vs_set_matching():
    double = extract_template(
        parse_top("[IN:SEND_MESSAGE [SL:GROUP a ] [SL:GROUP b ] ]"))
    single = extract_template(parse_top("[IN:SEND_MESSAGE [SL:GROUP a ] ]"))
    assert not double.matches(single)
    assert double.matches(single, multiset=False)
    assert double.as_set() == single.as_set()


def test_template_ignores_slot_values_and_order():
    a = extract_template(parse_top(
        "[IN:GET_EVENT [SL:LOCATION paris ] [SL:DATE_TIME friday ] ]"))
    b = extract_template(parse_top(
        "[IN:GET_EVENT [SL:DATE_TIME never ] [SL:LOCATION moon ] ]"))
    assert a == b
    assert a.matches(b)


def test_structure_tokens_document_order():
    parse = ("[IN:GET_EVENT [SL:DATE_TIME friday ] [SL:LOCATION paris ] "
             "[SL:DATE_TIME night ] ]")
    assert structure_tokens(parse) == [
        "IN:GET_EVENT", "SL:DATE_TIME", "SL:LOCATION", "SL:DATE_TIME"]
    assert structure_tokens(parse_top(parse)) == structure_tokens(parse)


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
