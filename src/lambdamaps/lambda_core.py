"""Lambda terms, skeletons and planar binder matchings.

A term is built from variables, applications and abstractions.  Its skeleton
is the plane unary-binary tree of the syntax, with a leaf per atom, a unary
node per abstraction and a binary node per application.  For linear planar
terms the binding structure is recovered from the skeleton alone: reading the
pre-order word with unary nodes as opening parentheses and leaves as closing
ones, the stack discipline pairs each abstraction with the atom it binds.

A skeleton is its pre-order arity word: a ``bytes`` value with one byte per
node in pre-order, 0 for a leaf, 1 for a unary node and 2 for a binary
node.  ``Skeleton`` holds the word and its leaf count, and compares and
hashes as the word; no node objects are built.  One stack matcher,
``_match``, pairs unary nodes with leaves in one walk of the word and gives
each leaf its binder's position; ``planar_match`` reads it.
``listing_of_word`` and the edge-connectivity oracle of ``connectivity``
pair binders inside the one scan that does their work, and hand a word
they cannot match to ``_match`` only for the error it raises.

A term's listing is the same word for its syntax tree together with the
names of its variables and binders in pre-order, and a term is its
listing: ``Term`` holds the two, and compares and hashes as that pair.  The
parser reads text into a listing, one loop over a listing checks that it
is closed, linear and planar, and the printer writes a listing as text, so
``parse_term``, ``render_term``, ``term_of_skeleton`` and ``term_defect``
are each one call of a listing kernel, and ``skeleton_of`` is a term's
word as a ``Skeleton``.  ``alpha_equal`` compares two listings, atom by
atom through that one loop when their names differ.

Every walk here, over a listing, a skeleton or a text, is a loop over an
explicit stack or a word, so depth is not bounded by the recursion limit.
"""

from __future__ import annotations

import re


class ParseError(ValueError):
    """A term, skeleton or tree text that does not parse, with the offset
    of the offending position.  The arguments are kept as given, because
    pickle rebuilds an exception as ``type(exc)(*exc.args)``: a caller that
    sends the error between processes, as multiprocessing does, gets it
    back whole.  verify sends none; its workers report strings."""

    def __init__(self, message: str, position: int):
        super().__init__(message, position)
        self.position = position

    def __str__(self):
        return f"{self.args[0]} at offset {self.position}"


class InvalidInput(ValueError):
    """An object or argument outside the domain of the operation."""


class SizeTooLarge(ValueError):
    """A size outside the cap of the operation."""


# ---------------------------------------------------------------------------
# Terms

class Term:
    """A lambda term, held as its listing (see Term listings below): the
    pre-order arity word of its syntax tree and the names of its variables
    and binders in pre-order.  Two terms are equal when their listings are,
    and hash as them, so no term may be changed once built."""

    __slots__ = ("word", "names")

    def __init__(self, word: bytes, names: list[str]):
        self.word = word
        self.names = names

    def __eq__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return self.word == other.word and self.names == other.names

    def __hash__(self):
        return hash((self.word, tuple(self.names)))


# A token is a run of characters c with c.isalnum() (a name when its first
# character is a letter), one punctuation character, or any other
# character that is not whitespace (never valid).
_TOKEN = re.compile(r"[^\W_]+|[\\.()]|\S")
_PUNCTUATION = frozenset("\\.()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of text as (kind, text, offset), kind being the
    punctuation character or "id".  Raises ParseError at the first
    character that no token may start with."""
    toks = []
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok in _PUNCTUATION:
            toks.append((tok, tok, m.start()))
        elif tok[0].isalpha():
            toks.append(("id", tok, m.start()))
        else:
            raise ParseError(f"unexpected character {tok[0]!r}", m.start())
    return toks


def _split_tokens(text: str) -> list[str] | None:
    """The tokens of ``_TOKEN.findall(text)`` from str methods alone, or
    None unless every run between whitespace and punctuation is
    ``isalnum()`` and there is at least one.  ``[^\\W_]`` is exactly
    ``str.isalnum``, and ``str.split`` and ``\\s`` split on the same
    whitespace, so where every run is alphanumeric the two give the same
    tokens."""
    spaced = text.replace("\\", " \\ ").replace(".", " . ").replace("(", " ( ").replace(")", " ) ")
    toks = spaced.split()
    if "".join(toks).replace("\\", "").replace(".", "").replace("(", "").replace(")", "").isalnum():
        return toks
    return None


def _syntax_error(text: str, i: int, message: str) -> ParseError:
    """The error for a parse that stopped at token i of text, or at its end.

    parse_term reads the token strings alone; offsets are found only here.
    A character that no token may start with is reported first, wherever
    it is, and an unexpected end at the start of the last token.
    """
    toks = _tokenize(text)
    if i < len(toks):
        return ParseError(message, toks[i][2])
    return ParseError(message, toks[-1][2] if toks else 0)


# ---------------------------------------------------------------------------
# Term listings
#
# The listing of a term is its pre-order arity word (0 for a variable, 1 for
# an abstraction, 2 for an application, function before argument: the word
# of its skeleton) and the names of its variables and binders in pre-order,
# which is also their order in the text.  The parser reads text into a
# listing and the printer writes one, so the round trip of a planar term's
# text can be checked without building terms.

# Frames of parse_listing: an abstraction awaiting its body, an application
# awaiting its trailing abstraction, an open parenthesis.
_ABS, _APP, _PAREN = 0, 1, 2


def parse_listing(text: str) -> tuple[bytes, list[str]]:
    """The listing of the term that ``text`` writes; see parse_term.

    The tokens come from str methods (_split_tokens), or from one
    regular-expression scan when a run is not alphanumeric; one loop over
    them with an explicit stack of pending frames reads the listing, so
    nesting depth is bounded by memory, not by the recursion limit.  Atoms
    and abstraction headers come in pre-order; an application precedes its
    function in pre-order, so apps[e] counts the applications whose
    function starts at element e, and the word is written at the end.
    """
    toks = _split_tokens(text)
    if toks is None:
        toks = _TOKEN.findall(text)
    n = len(toks)
    pos = 0
    kinds: list[int] = []
    names: list[str] = []
    apps: list[int] = []
    frames: list[tuple[int, int | None]] = []  # (frame, element it starts at)
    while True:
        # A term: abstraction headers, then an application whose first atom
        # is a variable or an opening parenthesis.
        while pos < n and toks[pos] == "\\":
            if pos + 1 == n or not toks[pos + 1][0].isalpha():
                raise _syntax_error(text, pos + 1, "expected variable after '\\'")
            if pos + 2 == n or toks[pos + 2] != ".":
                raise _syntax_error(text, pos + 2, "expected '.' after abstraction variable")
            frames.append((_ABS, len(kinds)))
            kinds.append(1)
            names.append(toks[pos + 1])
            apps.append(0)
            pos += 3
        if pos == n:
            raise _syntax_error(text, n, "unexpected end of input")
        tok = toks[pos]
        pos += 1
        if tok == "(":
            frames.append((_PAREN, None))
            continue
        if not tok[0].isalpha():
            raise _syntax_error(text, pos - 1, f"unexpected {tok!r}")
        start = len(kinds)  # the element the application being read starts at
        kinds.append(0)
        names.append(tok)
        apps.append(0)
        while True:
            # The application loop: extend it until ')' or the end, then
            # hand the finished term to the frames it completes.
            tok = toks[pos] if pos < n else ")"
            if tok == ")":
                while frames:
                    frame, first = frames.pop()
                    if frame != _PAREN:
                        start = first
                        continue
                    if pos == n:
                        raise _syntax_error(text, n, "unbalanced parenthesis")
                    pos += 1
                    if first is not None:
                        start = first
                    break
                else:
                    if pos < n:
                        raise _syntax_error(text, pos, f"unexpected {tok!r}")
                    word = bytearray()
                    for kind, k in zip(kinds, apps):
                        if k:
                            word += b"\x02" * k
                        word.append(kind)
                    return bytes(word), names
                continue
            if tok[0].isalpha():
                pos += 1
                apps[start] += 1
                kinds.append(0)
                names.append(tok)
                apps.append(0)
            elif tok == "(":
                pos += 1
                apps[start] += 1
                frames.append((_PAREN, start))
                break
            elif tok == "\\":
                apps[start] += 1
                frames.append((_APP, start))
                break
            else:
                raise _syntax_error(text, pos, f"unexpected {tok!r}")


def parse_term(text: str) -> Term:
    """Parse ``\\x.t`` / juxtaposition / parenthesis syntax into a term.

    Application associates to the left and a trailing abstraction extends
    as far right as it can.  Free variables are allowed; :func:`term_defect`
    says whether a term is closed, linear and planar.
    """
    return Term(*parse_listing(text))


def render_listing(word: bytes, names: list[str]) -> str:
    """The minimal-parenthesis text of the term with this listing.

    A subterm is at the top or an abstraction body (0), in function
    position (1), or in argument position, where nothing follows it (2) or
    something does (3).  An abstraction avoids parentheses at 0 and 2; an
    application needs them exactly in argument position, and inside them
    its argument is followed by nothing.  One loop over the word keeps the
    closing text and each pending argument's position on a stack; the
    argument starts where its function's last atom ends.
    """
    out = []
    todo: list = []
    at = 0
    i = 0
    for kind in word:
        if kind == 1:
            if at == 0 or at == 2:
                out.append(f"\\{names[i]}.")
            else:
                out.append(f"(\\{names[i]}.")
                todo.append(")")
            i += 1
            at = 0
        elif kind == 2:
            if at >= 2:
                out.append("(")
                todo.append(")")
                at = 0
            todo += (2 if at == 0 else 3, " ")
            at = 1
        else:
            out.append(names[i])
            i += 1
            while todo:
                item = todo.pop()
                if type(item) is str:
                    out.append(item)
                else:
                    at = item
                    break
    return "".join(out)


def render_term(t: Term) -> str:
    """Minimal-parenthesis rendering; inverse of parse_term up to alpha
    (see render_listing)."""
    return render_listing(t.word, t.names)


def _listing_scan(word: bytes, names: list[str]
                  ) -> tuple[list[str], list[int], set[str], str | None, list[int | str]]:
    """One loop over a term's listing.

    Returns the variables of its abstractions in pre-order (function before
    argument), the number of atoms each one binds, the names of the free
    atoms, why the binding breaks the stack discipline, or None, and for
    each atom in pre-order its binder's position in the first list, or its
    name when it is free.  An atom is bound by the innermost open
    abstraction over its name; with none open it is free.  The stack
    discipline holds when each bound atom is bound by the innermost
    abstraction that has bound no atom before it.  A stack holds, above
    each pending argument (-1), the abstractions whose scopes close when
    the subterm being read ends, which is at an atom.
    """
    binders: list[str] = []
    counts: list[int] = []
    free: set[str] = set()
    crossing: str | None = None
    atoms: list[int | str] = []
    open_binders: dict[str, list[int]] = {}
    unmatched: list[int] = []
    closing: list[int] = []
    i = 0
    for kind in word:
        if kind == 2:
            closing.append(-1)
            continue
        name = names[i]
        i += 1
        if kind == 1:
            open_binders.setdefault(name, []).append(len(binders))
            unmatched.append(len(binders))
            closing.append(len(binders))
            binders.append(name)
            counts.append(0)
            continue
        scope = open_binders.get(name)
        if scope:
            b = scope[-1]
            atoms.append(b)
            counts[b] += 1
            if unmatched and unmatched[-1] == b:
                unmatched.pop()
            elif crossing is None and unmatched:
                crossing = f"{name} is used before {binders[unmatched[-1]]}"
        else:
            atoms.append(name)
            free.add(name)
        while closing:
            b = closing.pop()
            if b < 0:
                break
            open_binders[binders[b]].pop()
    return binders, counts, free, crossing, atoms


def _listing_defect(word: bytes, names: list[str]) -> str | None:
    """term_defect on the term's listing, so that a parsed text is checked
    without building the term."""
    binders, counts, free, crossing, _atoms = _listing_scan(word, names)
    if free:
        return f"term is not closed: free {sorted(free)}"
    for var, c in zip(binders, counts):
        if c != 1:
            return f"abstraction over {var} binds {c} atoms, not 1"
    if crossing is not None:
        return f"term is not planar: {crossing}"
    return None


def term_defect(t: Term) -> str | None:
    """Why a term is not closed, linear and planar, or None when it is.

    A free atom is reported first, listing every free name.  Otherwise the
    first abstraction in pre-order that does not bind exactly one atom is
    reported.  Otherwise the first atom in pre-order that is not bound by
    the innermost abstraction still without an atom is reported: such a
    term is not the term of its own skeleton.
    """
    return _listing_defect(t.word, t.names)


def alpha_equal(a: Term, b: Term) -> bool:
    """Equality up to consistent renaming of bound variables: equal words,
    and equal names or, atom by atom, the same binder or the same free
    name."""
    return a.word == b.word and (
        a.names == b.names
        or _listing_scan(a.word, a.names)[4] == _listing_scan(b.word, b.names)[4])


# ---------------------------------------------------------------------------
# Skeletons

class Skeleton:
    """Plane unary-binary tree, held as its pre-order arity word (a
    ``bytes`` value); size is the number of leaves.

    One byte per node in pre-order (left subtree first): 0 for a leaf, 1
    for a unary node and 2 for a binary node.  A unary node's child and a
    binary node's left child follow it directly, so the run of 1s before a
    position is the unary chain directly above it.  Two skeletons are equal
    when their words are, and hash as their word.
    """

    __slots__ = ("word", "nleaf")

    def __init__(self, word: bytes):
        self.word = word
        self.nleaf = word.count(0)

    @property
    def nunary(self) -> int:
        return self.word.count(1)

    def __eq__(self, other):
        if not isinstance(other, Skeleton):
            return NotImplemented
        return self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return render_skeleton(self)


def _ends(word: bytes) -> list[int]:
    """One past the last position of the subtree at each position, from
    one reverse scan: a binary node's right subtree starts where its left
    one ends."""
    end = [0] * len(word)
    for j in range(len(word) - 1, -1, -1):
        k = word[j]
        end[j] = j + 1 if k == 0 else end[j + 1] if k == 1 else end[end[j + 1]]
    return end


def render_skeleton(s: Skeleton) -> str:
    out = []
    closers: list[str] = []  # what follows each open subtree
    for k in s.word:
        if k == 2:
            out.append("B(")
            closers += (")", ",")
        elif k == 1:
            out.append("U(")
            closers.append(")")
        else:
            out.append("L")
            while closers:
                c = closers.pop()
                out.append(c)
                if c == ",":
                    break
    return "".join(out)


def parse_skeleton(text: str) -> Skeleton:
    """Parse the ``L`` / ``U(x)`` / ``B(x,y)`` format (whitespace ignored).

    One loop that reads the pre-order word; a stack holds what must follow
    each open subtree, ``)`` or ``,``.
    """
    s = "".join(text.split())
    pos, n = 0, len(s)
    word = bytearray()
    closers: list[str] = []
    while True:
        if pos >= n:
            raise ParseError("unexpected end of input", pos)
        c = s[pos]
        if c == "L":
            pos += 1
            word.append(0)
            while closers:
                want = closers.pop()
                if not s.startswith(want, pos):
                    raise ParseError(f"expected {want!r}", pos)
                pos += 1
                if want == ",":
                    break
            else:
                break
        elif c == "U" or c == "B":
            pos += 1
            if not s.startswith("(", pos):
                raise ParseError("expected '('", pos)
            pos += 1
            if c == "U":
                word.append(1)
                closers.append(")")
            else:
                word.append(2)
                closers += (")", ",")
        else:
            raise ParseError(f"unexpected character {c!r}", pos)
    if pos != n:
        raise ParseError(f"trailing input {s[pos:]!r}", pos)
    return Skeleton(bytes(word))


def skeleton_of(t: Term) -> Skeleton:
    return Skeleton(t.word)


def is_normal(s: Skeleton) -> bool:
    """No binary node has a unary left child."""
    return b"\x02\x01" not in s.word


def _match(word: bytes, right_first: bool = False) -> list[int]:
    """The stack matcher: pair unary nodes with leaves in one scan.

    Walks the pre-order word in pre-order, or with right_first in the
    clockwise contour order, which visits right subtrees first; each right
    subtree's start comes from the subtree ends of one reverse scan.  A
    unary node is pushed when reached and popped by the next leaf.
    Returns each leaf's binder position, -1 at internal nodes.  Raises
    InvalidInput when a leaf finds an empty stack, unmatched unary nodes
    remain, or a pairing crosses scopes (the popped unary node is not an
    ancestor of the leaf, so it could not bind it).
    """
    end = _ends(word)
    binder = [-1] * len(word)
    open_unary: list[int] = []
    todo: list[int] = []  # the other child of each binary node passed
    nid = 0
    while True:
        k = word[nid]
        if k == 1:
            open_unary.append(nid)
            nid += 1
        elif k == 2:
            if right_first:
                todo.append(nid + 1)
                nid = end[nid + 1]
            else:
                todo.append(end[nid + 1])
                nid += 1
        else:
            if not open_unary:
                raise InvalidInput(f"leaf {nid} has no enclosing unary node")
            unary = open_unary.pop()
            if not unary < nid < end[unary]:
                raise InvalidInput(
                    f"nesting violated: unary {unary} paired with leaf {nid} "
                    f"outside its subtree")
            binder[nid] = unary
            if not todo:
                break
            nid = todo.pop()
    if open_unary:
        raise InvalidInput(f"{len(open_unary)} unary nodes left unmatched")
    return binder


def planar_match(s: Skeleton, right_first: bool = False) -> dict[int, int]:
    """Match unary nodes to leaves by stack discipline on the pre-order
    word, or with right_first on the clockwise contour, which descends into
    right subtrees first.  The two succeed alike on the connected family;
    outside it they can disagree.

    Returns {unary id: leaf id} over pre-order node ids.  Raises
    InvalidInput as :func:`_match` does.
    """
    binder = _match(s.word, right_first)
    return {unary: leaf for leaf, unary in enumerate(binder) if unary >= 0}


def listing_of_word(word: bytes) -> tuple[bytes, list[str]]:
    """The listing of the planar linear term whose skeleton has this
    pre-order arity word: the i-th abstraction in pre-order binds xi, and
    each atom is named after the binder the stack matcher gives it.  Raises
    InvalidInput when the skeleton admits no planar linear binding.

    The matcher runs in the naming loop: a unary node pushes its name, and
    a leaf pops the name it takes.  A stack of closers, as in
    render_skeleton, ends the scopes that close at each leaf.  A unary
    node's closer holds the depth of the name stack below it, and the node
    is still unmatched at the end of its scope exactly when the stack is
    then deeper: a later leaf would pop it from outside its subtree, or
    none would.  On any fault ``_match`` raises the matcher's error.
    """
    names: list[str] = []
    unmatched: list[str] = []
    closing: list[int] = []  # per open unary node its depth in unmatched, -1 per binary node
    k = 0
    for kind in word:
        if kind == 1:
            k += 1
            name = f"x{k}"
            names.append(name)
            closing.append(len(unmatched))
            unmatched.append(name)
        elif kind == 2:
            closing.append(-1)
        elif unmatched:
            names.append(unmatched.pop())
            while closing:
                depth = closing.pop()
                if depth < 0:
                    break
                if len(unmatched) > depth:
                    _match(word)
        else:
            _match(word)
    return word, names


def term_of_skeleton(s: Skeleton) -> Term:
    """The planar linear term of a skeleton, variables named x1, x2, ...;
    see listing_of_word."""
    return Term(*listing_of_word(s.word))


def diagram_of(s: Skeleton) -> bytes:
    """What ``connectivity.edge_connectivity_class`` reads of a skeleton's
    syntactic diagram: its word, whose skeleton edges span the diagram and
    whose matching gives the binder edges.  The benchmark's sweep calls and
    traces this name; the benchmark change of ROADMAP item 14 deletes it."""
    return s.word
