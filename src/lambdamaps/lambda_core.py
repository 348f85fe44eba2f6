"""Lambda terms, skeletons, planar binder matchings and syntactic diagrams.

A term is built from variables, applications and abstractions.  Its skeleton
is the plane unary-binary tree of the syntax, with a leaf per atom, a unary
node per abstraction and a binary node per application.  For linear planar
terms the binding structure is recovered from the skeleton alone: reading the
pre-order word with unary nodes as opening parentheses and leaves as closing
ones, the stack discipline pairs each abstraction with the atom it binds.
"""

from __future__ import annotations

from dataclasses import dataclass


class ParseError(ValueError):
    """Syntax error, with the offset of the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class MatchFailure(ValueError):
    """The pre-order parenthesis word of a skeleton is not balanced."""


# ---------------------------------------------------------------------------
# Terms

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    fun: "LambdaTerm"
    arg: "LambdaTerm"


@dataclass(frozen=True)
class Abs:
    var: str
    body: "LambdaTerm"


LambdaTerm = Var | App | Abs


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "\\.()":
            toks.append((c, c, i))
            i += 1
            continue
        if c.isalpha():
            j = i + 1
            while j < n and text[j].isalnum():
                j += 1
            toks.append(("id", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def _eof_offset(self) -> int:
        # report unexpected EOF at the start of the last consumed token
        if self.toks:
            return self.toks[min(self.pos, len(self.toks)) - 1][2]
        return 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def parse(self) -> LambdaTerm:
        t = self.term()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return t

    def term(self) -> LambdaTerm:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self._eof_offset())
        if tok[0] == "\\":
            return self.abstraction()
        return self.application()

    def abstraction(self) -> LambdaTerm:
        self.pos += 1  # consume backslash
        tok = self.peek()
        if tok is None or tok[0] != "id":
            raise ParseError("expected variable after '\\'",
                             tok[2] if tok else self._eof_offset())
        name = tok[1]
        self.pos += 1
        tok = self.peek()
        if tok is None or tok[0] != ".":
            raise ParseError("expected '.' after abstraction variable",
                             tok[2] if tok else self._eof_offset())
        self.pos += 1
        return Abs(name, self.term())

    def application(self) -> LambdaTerm:
        t = self.atom()
        while True:
            tok = self.peek()
            if tok is None or tok[0] in (")",):
                return t
            if tok[0] == "\\":
                # a trailing abstraction extends maximally to the right
                return App(t, self.abstraction())
            if tok[0] in ("id", "("):
                t = App(t, self.atom())
                continue
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])

    def atom(self) -> LambdaTerm:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self._eof_offset())
        if tok[0] == "id":
            self.pos += 1
            return Var(tok[1])
        if tok[0] == "(":
            self.pos += 1
            t = self.term()
            tok = self.peek()
            if tok is None:
                raise ParseError("unbalanced parenthesis", self._eof_offset())
            if tok[0] != ")":
                raise ParseError(f"expected ')', got {tok[1]!r}", tok[2])
            self.pos += 1
            return t
        raise ParseError(f"unexpected {tok[1]!r}", tok[2])


def parse_term(text: str) -> LambdaTerm:
    """Parse ``\\x.t`` / juxtaposition / parenthesis syntax into a term.

    Free variables are allowed; closedness is checked separately with
    :func:`free_variables`.
    """
    return _Parser(text).parse()


def render_term(t: LambdaTerm) -> str:
    """Minimal-parenthesis rendering; inverse of parse_term up to alpha.

    Levels: 0 = top or abstraction body, 1 = function position, 2 = argument
    position.  An abstraction only avoids parentheses at level 0 or as a
    final argument (nothing follows it); an application needs them exactly in
    argument position.
    """
    def go(t, level: int, final: bool) -> str:
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Abs):
            s = f"\\{t.var}.{go(t.body, 0, True)}"
            if level == 0 or (level == 2 and final):
                return s
            return f"({s})"
        s = f"{go(t.fun, 1, False)} {go(t.arg, 2, level == 2 or final)}"
        return f"({s})" if level == 2 else s

    return go(t, 0, True)


def _binding_scan(t: LambdaTerm) -> tuple[list[str], list[int], set[str]]:
    """One iterative pass over a term.

    Returns the variables of its abstractions in pre-order (function before
    argument), the number of atoms each one binds, and the names of the free
    atoms.  An atom is bound by the innermost open abstraction over its
    name; with none open it is free.
    """
    binders: list[str] = []
    counts: list[int] = []
    free: set[str] = set()
    open_binders: dict[str, list[int]] = {}
    stack: list[LambdaTerm | str] = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, Var):
            scope = open_binders.get(x.name)
            if scope:
                counts[scope[-1]] += 1
            else:
                free.add(x.name)
        elif isinstance(x, App):
            stack.append(x.arg)
            stack.append(x.fun)
        elif isinstance(x, Abs):
            open_binders.setdefault(x.var, []).append(len(binders))
            binders.append(x.var)
            counts.append(0)
            stack.append(x.var)  # popped once the body is done: closes the scope
            stack.append(x.body)
        else:
            open_binders[x].pop()
    return binders, counts, free


def free_variables(t: LambdaTerm) -> set[str]:
    return _binding_scan(t)[2]


def linearity_defect(t: LambdaTerm) -> str | None:
    """Why a term is not closed and linear, or None when it is.

    A free atom is reported first, listing every free name.  Otherwise the
    first abstraction in pre-order that does not bind exactly one atom is
    reported.
    """
    binders, counts, free = _binding_scan(t)
    if free:
        return f"term is not closed: free {sorted(free)}"
    for var, c in zip(binders, counts):
        if c != 1:
            return f"abstraction over {var} binds {c} atoms, not 1"
    return None


def _de_bruijn(t: LambdaTerm, env: tuple[str, ...]) -> object:
    if isinstance(t, Var):
        for i in range(len(env) - 1, -1, -1):
            if env[i] == t.name:
                return len(env) - 1 - i
        return ("free", t.name)
    if isinstance(t, Abs):
        return ("abs", _de_bruijn(t.body, env + (t.var,)))
    return ("app", _de_bruijn(t.fun, env), _de_bruijn(t.arg, env))


def alpha_equal(a: LambdaTerm, b: LambdaTerm) -> bool:
    """Equality up to consistent renaming of bound variables."""
    return _de_bruijn(a, ()) == _de_bruijn(b, ())


def has_beta_redex(t: LambdaTerm) -> bool:
    """True iff some sub-term is an abstraction applied to an argument."""
    if isinstance(t, Var):
        return False
    if isinstance(t, Abs):
        return has_beta_redex(t.body)
    return isinstance(t.fun, Abs) or has_beta_redex(t.fun) or has_beta_redex(t.arg)


# ---------------------------------------------------------------------------
# Skeletons

class Skeleton:
    """Plane unary-binary tree; size is the number of leaves."""

    __slots__ = ("nleaf", "nunary", "_hash")

    def size(self) -> int:
        return self.nleaf

    def deficit(self) -> int:
        return self.nleaf - self.nunary

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Skeleton):
            return NotImplemented
        if self._hash != other._hash or type(self) is not type(other):
            return False
        if isinstance(self, Unary):
            return self.child == other.child
        if isinstance(self, Binary):
            return self.left == other.left and self.right == other.right
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return render_skeleton(self)


class Leaf(Skeleton):
    __slots__ = ()

    def __init__(self):
        self.nleaf = 1
        self.nunary = 0
        self._hash = hash(("L",))


class Unary(Skeleton):
    __slots__ = ("child",)

    def __init__(self, child: Skeleton):
        self.child = child
        self.nleaf = child.nleaf
        self.nunary = child.nunary + 1
        self._hash = hash(("U", child._hash))


class Binary(Skeleton):
    __slots__ = ("left", "right")

    def __init__(self, left: Skeleton, right: Skeleton):
        self.left = left
        self.right = right
        self.nleaf = left.nleaf + right.nleaf
        self.nunary = left.nunary + right.nunary
        self._hash = hash(("B", left._hash, right._hash))


LEAF = Leaf()


def wrap_unary(s: Skeleton, k: int) -> Skeleton:
    for _ in range(k):
        s = Unary(s)
    return s


def render_skeleton(s: Skeleton) -> str:
    if isinstance(s, Leaf):
        return "L"
    if isinstance(s, Unary):
        return f"U({render_skeleton(s.child)})"
    return f"B({render_skeleton(s.left)},{render_skeleton(s.right)})"


def parse_skeleton(text: str) -> Skeleton:
    """Parse the ``L`` / ``U(x)`` / ``B(x,y)`` format (whitespace ignored)."""
    s = "".join(text.split())
    pos = 0

    def rec() -> Skeleton:
        nonlocal pos
        if pos >= len(s):
            raise ParseError("unexpected end of input", pos)
        c = s[pos]
        if c == "L":
            pos += 1
            return LEAF
        if c == "U":
            expect("U(", 1)
            t = rec()
            expect(")", 0)
            return Unary(t)
        if c == "B":
            expect("B(", 1)
            l = rec()
            expect(",", 0)
            r = rec()
            expect(")", 0)
            return Binary(l, r)
        raise ParseError(f"unexpected character {c!r}", pos)

    def expect(tok: str, skip: int):
        nonlocal pos
        pos += skip
        want = tok[skip:]
        if not s.startswith(want, pos):
            raise ParseError(f"expected {want!r}", pos)
        pos += len(want)

    t = rec()
    if pos != len(s):
        raise ParseError(f"trailing input {s[pos:]!r}", pos)
    return t


def skeleton_of(t: LambdaTerm) -> Skeleton:
    if isinstance(t, Var):
        return LEAF
    if isinstance(t, Abs):
        return Unary(skeleton_of(t.body))
    return Binary(skeleton_of(t.fun), skeleton_of(t.arg))


def preorder(s: Skeleton):
    """Yield (id, node, parent_id) with ids assigned in pre-order from 0."""
    out = []

    def rec(node, parent):
        nid = len(out)
        out.append((nid, node, parent))
        if isinstance(node, Unary):
            rec(node.child, nid)
        elif isinstance(node, Binary):
            rec(node.left, nid)
            rec(node.right, nid)

    rec(s, -1)
    return out


def is_normal(s: Skeleton) -> bool:
    """No binary node has a unary left child."""
    if isinstance(s, Leaf):
        return True
    if isinstance(s, Unary):
        return is_normal(s.child)
    return (not isinstance(s.left, Unary)) and is_normal(s.left) and is_normal(s.right)


def parenthesis_word(s: Skeleton) -> str:
    """Pre-order word: '(' per unary node, ')' per leaf."""
    out = []

    def rec(node):
        if isinstance(node, Leaf):
            out.append(")")
        elif isinstance(node, Unary):
            out.append("(")
            rec(node.child)
        else:
            rec(node.left)
            rec(node.right)

    rec(s)
    return "".join(out)


def planar_match(s: Skeleton, right_first: bool = False) -> dict[int, int]:
    """Match unary nodes to leaves by stack discipline on the pre-order
    word, or with right_first on the clockwise contour, which descends into
    right subtrees first.  The two succeed alike on the connected family;
    outside it they can disagree.

    Returns {unary id: leaf id} over pre-order node ids.  Raises MatchFailure
    when a leaf finds an empty stack, unmatched unary nodes remain, or a
    pairing crosses scopes (the popped unary node is not an ancestor of the
    leaf, so it could not bind it).
    """
    match: dict[int, int] = {}
    open_unary: list[tuple[int, int]] = []  # (id, end of its id span)
    todo: list[tuple[int, Skeleton]] = [(0, s)]
    while todo:
        nid, node = todo.pop()
        if isinstance(node, Unary):
            open_unary.append((nid, nid + _node_span(node)))
            todo.append((nid + 1, node.child))
        elif isinstance(node, Binary):
            left = (nid + 1, node.left)
            right = (nid + 1 + _node_span(node.left), node.right)
            todo += (left, right) if right_first else (right, left)
        else:
            if not open_unary:
                raise MatchFailure(f"leaf {nid} has no enclosing unary node")
            unary, end = open_unary.pop()
            if not unary < nid < end:
                raise MatchFailure(
                    f"nesting violated: unary {unary} paired with leaf {nid} "
                    f"outside its subtree")
            match[unary] = nid
    if open_unary:
        raise MatchFailure(f"{len(open_unary)} unary nodes left unmatched")
    return match


def term_of_skeleton(s: Skeleton) -> LambdaTerm:
    """The planar linear term of a skeleton, variables named x1, x2, ...

    The binder of each atom is determined by planar_match.  Raises
    MatchFailure when the skeleton admits no planar linear binding.
    """
    match = planar_match(s)
    leaf_binder = {leaf: unary for unary, leaf in match.items()}
    names = {nid: f"x{i + 1}" for i, nid in enumerate(sorted(match))}
    nodes = preorder(s)

    def rec(i: int) -> tuple[LambdaTerm, int]:
        nid, node, _ = nodes[i]
        if isinstance(node, Leaf):
            return Var(names[leaf_binder[nid]]), i + 1
        if isinstance(node, Unary):
            body, j = rec(i + 1)
            return Abs(names[nid], body), j
        fun, j = rec(i + 1)
        arg, k = rec(j)
        return App(fun, arg), k

    term, _ = rec(0)
    return term


# ---------------------------------------------------------------------------
# Syntactic diagrams

@dataclass(frozen=True)
class Diagram:
    """Multigraph on the internal nodes of a skeleton.

    Edges are the skeleton edges between internal nodes plus one binder edge
    per leaf, from the leaf's parent to its matched unary node (a self-loop
    when the parent is the binder).  The root is the skeleton's root node.

    Binder edges follow the clockwise-contour matching (planar_match with
    right_first: right subtree visited first).  The mirror choice flips
    which unary node each leaf reaches; the two drawings agree on the
    connected and 2-connected classes but differ at 3-connectivity, where
    only the clockwise drawing matches the structural characterization.
    """
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    root: int


def _node_span(s: Skeleton) -> int:
    """Number of nodes in a subtree (span of pre-order ids): its leaves,
    its unary nodes and its nleaf - 1 binary nodes."""
    return 2 * s.nleaf - 1 + s.nunary


def diagram_of(s: Skeleton) -> Diagram:
    match = planar_match(s, right_first=True)
    leaf_binder = {leaf: unary for unary, leaf in match.items()}
    vertices = []
    edges = []
    for nid, node, parent in preorder(s):
        if isinstance(node, Leaf):
            edges.append((parent, leaf_binder[nid]))
        else:
            vertices.append(nid)
            if parent >= 0:
                edges.append((parent, nid))
    return Diagram(tuple(vertices), tuple(edges), 0)
