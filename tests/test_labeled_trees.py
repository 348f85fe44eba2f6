import pytest

from lambdamaps.enumeration import gen_trees
from lambdamaps.labeled_trees import (
    LabeledTree,
    has_zero,
    parse_labeled_tree,
    render_labeled_tree,
    validate_degree_tree,
    validate_vtree,
)
from lambdamaps.lambda_core import ParseError


def lt(text):
    return parse_labeled_tree(text)


def test_text_roundtrip():
    for text in ["0", "1[0]", "2[1[0],0]", "3[1[0],0,1]", "12[10]"]:
        assert render_labeled_tree(parse_labeled_tree(text)) == text


def test_text_rejects_garbage():
    for bad in ["", "[0]", "1[", "1[0", "1[0,]", "1]", "x"]:
        with pytest.raises(ParseError):
            parse_labeled_tree(bad)


def test_labels_are_ascii_digits_only():
    # str.isdigit() holds for "²" and "١", but int() refuses "²", which
    # raised a builtin ValueError in place of a ParseError
    for text, offset in (("²", 0), ("1[²]", 2), ("١", 0), ("1[0,١]", 4)):
        with pytest.raises(ParseError, match=f"^expected a label at offset {offset}$"):
            parse_labeled_tree(text)


def test_validate_degree_tree_examples():
    assert validate_degree_tree(lt("2[1[0]]"))
    assert not validate_degree_tree(lt("0[0]"))
    assert validate_degree_tree(lt("0"))
    assert not validate_degree_tree(lt("1"))


def test_validate_vtree_examples():
    assert validate_vtree(lt("1[0]")) == (True, False)
    assert validate_vtree(lt("2[1]")) == (True, True)
    assert validate_vtree(lt("1[1]")) == (False, False)
    # single node must carry label 1
    assert validate_vtree(lt("1")) == (True, True)
    assert validate_vtree(lt("0")) == (False, False)


def test_vtree_nonroot_bound():
    # non-root node exceeding 1 + children sum
    assert not validate_vtree(lt("3[2[0]]")).valid
    assert validate_vtree(lt("2[1[0]]")).valid


def test_counts():
    t = lt("2[1[0],0]")
    assert t.node_count() == 4
    assert t.edge_count() == 3


def _rebuilt(t):
    return LabeledTree(t.label, tuple(map(_rebuilt, t.children)))


def test_vtrees_equal_their_rebuilt_copies():
    for n in range(7):
        trees = gen_trees(n, "vtree")
        for t in trees:
            copy = _rebuilt(t)
            assert copy is not t and copy == t and hash(copy) == hash(t)
        assert len(set(trees)) == len(trees)


def test_trees_differ_from_other_types():
    assert LabeledTree(0) != (0, ())
    assert LabeledTree(1, (LabeledTree(0),)) != LabeledTree(1)
    assert LabeledTree(1, (LabeledTree(0),)) != LabeledTree(1, (LabeledTree(1),))


def _deep_path(bottom):
    t = LabeledTree(bottom)
    for _ in range(10_000):
        t = LabeledTree(1, (t,))
    return t


def test_deep_trees_without_recursion(shallow_recursion):
    t, copy, other = _deep_path(0), _deep_path(0), _deep_path(1)
    assert t == copy and t != other
    assert hash(t) == hash(copy)
    assert hash(other) != hash(t)
    assert t.node_count() == 10_001 and t.edge_count() == 10_000
    assert has_zero(t) and not has_zero(other)


def test_validate_degree_tree_on_a_deep_tree(shallow_recursion):
    # a chain of 1s over a leaf 0 is a degree tree; a leaf 1 is not
    assert validate_degree_tree(_deep_path(0))
    assert not validate_degree_tree(_deep_path(1))
