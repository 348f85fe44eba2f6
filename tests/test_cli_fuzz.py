"""Fuzz the CLI's ``convert`` and ``stats`` verbs with short texts.

Each text is drawn from one object kind's alphabet (at most 40 characters)
or is one of the texts of ``test_cli._ONE_OBJECT`` with one character
replaced, inserted or deleted.  For every ``--from``/``--to`` pair and
every ``--kind`` (and none):

- ``convert`` and ``stats_lines`` in-process either return or raise
  ``ParseError`` or ``InvalidInput``, the two error types of bad input;
- ``main`` returns 0 with that output, or 2 with exactly one stderr line,
  ``error: `` and the message of the in-process error.

Deep nesting is not covered: texts of 40 characters nest too little to
reach the recursion limit, so the ``RecursionError`` of the recursive
tree parser and printer on deep input is left to a separate test.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from lambdamaps.cli import convert, main, stats_lines
from lambdamaps.lambda_core import InvalidInput, ParseError
from test_cli import _ONE_OBJECT

KINDS = ("term", "skeleton", "vtree", "dtree", "map")
ALPHABETS = {
    "term": "\\.() xyz12",
    "skeleton": "LUB(), ",
    "vtree": "0123[], ²",  # "²" passes str.isdigit() but not int()
    "dtree": "0123[], ",
    "map": "map n=sigroot()0123 ",
}
MUTATION_CHARS = "".join(sorted(set("".join(ALPHABETS.values()))))


@st.composite
def _mutations(draw) -> str:
    text = draw(st.sampled_from(sorted(_ONE_OBJECT.values())))
    i = draw(st.integers(0, len(text)))
    c = draw(st.sampled_from(MUTATION_CHARS))
    how = draw(st.sampled_from(("replace", "insert", "delete")))
    if how == "insert":
        return text[:i] + c + text[i:]
    if i == len(text):
        return text
    return text[:i] + (c if how == "replace" else "") + text[i + 1:]


TEXTS = st.one_of(
    *(st.text(alphabet=ALPHABETS[kind], max_size=40) for kind in KINDS),
    _mutations(),
)


def _run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _agree(in_process, argv: list[str]) -> None:
    """in_process() returns the output lines or raises a bad-input error,
    and main(argv) reports the same outcome under the exit-code contract."""
    try:
        lines, error = in_process(), None
    except (ParseError, InvalidInput) as exc:
        lines, error = None, exc
    code, out, err = _run_main(argv)
    assert code in (0, 2)
    if error is None:
        assert (code, out, err) == (0, "".join(f"{line}\n" for line in lines), "")
    else:
        assert (code, out) == (2, "")
        assert err == f"error: {error}\n"
        assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=100, deadline=None)
@given(TEXTS)
def test_convert_and_stats_report_bad_input_as_one_error_line(text):
    for a in KINDS:
        for b in KINDS:
            _agree(lambda: [convert(a, b, text)],
                   ["convert", "--from", a, "--to", b, text])
    for kind in (*KINDS, None):
        _agree(lambda: stats_lines(text, kind),
               ["stats", text] + (["--kind", kind] if kind else []))
