import pytest

from lambdamaps.labeled_trees import (
    LabeledTree,
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
