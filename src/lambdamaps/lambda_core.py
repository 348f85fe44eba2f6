"""Lambda terms, skeletons, planar binder matchings and syntactic diagrams.

A term is built from variables, applications and abstractions.  Its skeleton
is the plane unary-binary tree of the syntax, with a leaf per atom, a unary
node per abstraction and a binary node per application.  For linear planar
terms the binding structure is recovered from the skeleton alone: reading the
pre-order word with unary nodes as opening parentheses and leaves as closing
ones, the stack discipline pairs each abstraction with the atom it binds.

Terms (``Var``, ``App``, ``Abs``) and skeleton nodes (``Leaf``, ``Unary``,
``Binary``) are plain classes with ``__slots__``.  Terms compare and hash
field by field, as frozen dataclasses would, and skeletons by shape.

One stack matcher, ``_match``, does that pairing in one walk of the
skeleton and lists the nodes by pre-order id with their parent and binder
ids; ``planar_match``, ``term_of_skeleton`` and ``diagram_of`` read its
lists.  The term parser, the binding and alpha-equivalence scans, the
skeleton kernels and the equality and hash of terms and skeletons walk
their input by an explicit stack or a growing list of nodes, so their depth
is not bounded by the recursion limit; the printers, ``parse_skeleton``,
``parenthesis_word`` and ``has_beta_redex`` still recurse.
"""

from __future__ import annotations

import re
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

class _Term:
    """Equality and hash of Var, App and Abs: two terms are equal exactly
    when their types and fields are."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        xs, ys = [self], [other]  # breadth first, the two lists grow in step
        for a, b in zip(xs, ys):
            if a is b:
                continue
            kind = type(a)
            if kind is not type(b):
                return False
            if kind is App:
                xs += (a.fun, a.arg)
                ys += (b.fun, b.arg)
            elif kind is Abs:
                if a.var != b.var:
                    return False
                xs.append(a.body)
                ys.append(b.body)
            elif a.name != b.name:
                return False
        return True

    def __hash__(self):
        # The breadth-first word, an App as 0 and an Abs as 1 then its
        # variable, determines the term.
        word = []
        nodes = [self]
        for x in nodes:
            kind = type(x)
            if kind is App:
                word.append(0)
                nodes += (x.fun, x.arg)
            elif kind is Abs:
                word += (1, x.var)
                nodes.append(x.body)
            else:
                word.append(x.name)
        return hash(tuple(word))


class Var(_Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class App(_Term):
    __slots__ = ("fun", "arg")

    def __init__(self, fun: LambdaTerm, arg: LambdaTerm):
        self.fun = fun
        self.arg = arg


class Abs(_Term):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: LambdaTerm):
        self.var = var
        self.body = body


LambdaTerm = Var | App | Abs


_IDENT_TAIL = re.compile(r"[^\W_]*")  # the characters c with c.isalnum()


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
            j = _IDENT_TAIL.match(text, i + 1).end()
            toks.append(("id", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    return toks


# Frames of parse_term: an abstraction awaiting its body, an application
# awaiting its trailing abstraction, an open parenthesis.
_ABS, _APP, _PAREN = 0, 1, 2


def parse_term(text: str) -> LambdaTerm:
    """Parse ``\\x.t`` / juxtaposition / parenthesis syntax into a term.

    Application associates to the left and a trailing abstraction extends
    as far right as it can.  Free variables are allowed; closedness is
    checked separately with :func:`free_variables`.

    One loop over the tokens with an explicit stack of pending frames, so
    nesting depth is bounded by memory, not by the recursion limit.
    """
    toks = _tokenize(text)
    n = len(toks)
    eof = toks[-1][2] if toks else 0  # unexpected EOF is reported here
    pos = 0
    frames: list[tuple[int, object]] = []
    while True:
        # A term: abstraction headers, then an application whose first atom
        # is a variable or an opening parenthesis.
        while pos < n and toks[pos][0] == "\\":
            pos += 1
            tok = toks[pos] if pos < n else None
            if tok is None or tok[0] != "id":
                raise ParseError("expected variable after '\\'", tok[2] if tok else eof)
            pos += 1
            dot = toks[pos] if pos < n else None
            if dot is None or dot[0] != ".":
                raise ParseError("expected '.' after abstraction variable",
                                 dot[2] if dot else eof)
            pos += 1
            frames.append((_ABS, tok[1]))
        if pos == n:
            raise ParseError("unexpected end of input", eof)
        tok = toks[pos]
        pos += 1
        if tok[0] == "(":
            frames.append((_PAREN, None))
            continue
        if tok[0] != "id":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        acc: LambdaTerm = Var(tok[1])
        while True:
            # The application loop: extend acc until ')' or the end, then
            # hand the finished term to the frames it completes.
            tok = toks[pos] if pos < n else None
            if tok is None or tok[0] == ")":
                while frames:
                    frame, x = frames.pop()
                    if frame == _ABS:
                        acc = Abs(x, acc)
                    elif frame == _APP:
                        acc = App(x, acc)
                    else:
                        if tok is None:
                            raise ParseError("unbalanced parenthesis", eof)
                        pos += 1
                        acc = acc if x is None else App(x, acc)
                        break
                else:
                    if tok is not None:
                        raise ParseError(f"unexpected {tok[1]!r}", tok[2])
                    return acc
                continue
            if tok[0] == "id":
                pos += 1
                acc = App(acc, Var(tok[1]))
            elif tok[0] == "(":
                pos += 1
                frames.append((_PAREN, acc))
                break
            elif tok[0] == "\\":
                frames.append((_APP, acc))
                break
            else:
                raise ParseError(f"unexpected {tok[1]!r}", tok[2])


def render_term(t: LambdaTerm) -> str:
    """Minimal-parenthesis rendering; inverse of parse_term up to alpha.

    Levels: 0 = top or abstraction body, 1 = function position, 2 = argument
    position.  An abstraction only avoids parentheses at level 0 or as a
    final argument (nothing follows it); an application needs them exactly in
    argument position.
    """
    return _render(t, 0, True)


def _render(t: LambdaTerm, level: int, final: bool) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Abs):
        s = f"\\{t.var}.{_render(t.body, 0, True)}"
        if level == 0 or (level == 2 and final):
            return s
        return f"({s})"
    s = f"{_render(t.fun, 1, False)} {_render(t.arg, 2, level == 2 or final)}"
    return f"({s})" if level == 2 else s


def _binding_scan(t: LambdaTerm) -> tuple[list[str], list[int], set[str], str | None]:
    """One iterative pass over a term.

    Returns the variables of its abstractions in pre-order (function before
    argument), the number of atoms each one binds, the names of the free
    atoms, and why the binding breaks the stack discipline, or None.  An
    atom is bound by the innermost open abstraction over its name; with
    none open it is free.  The stack discipline holds when each bound atom
    is bound by the innermost abstraction that has bound no atom before it.
    """
    binders: list[str] = []
    counts: list[int] = []
    free: set[str] = set()
    crossing: str | None = None
    open_binders: dict[str, list[int]] = {}
    unmatched: list[int] = []
    stack: list[LambdaTerm | str] = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, Var):
            scope = open_binders.get(x.name)
            if scope:
                b = scope[-1]
                counts[b] += 1
                if unmatched and unmatched[-1] == b:
                    unmatched.pop()
                elif crossing is None and unmatched:
                    crossing = f"{x.name} is used before {binders[unmatched[-1]]}"
            else:
                free.add(x.name)
        elif isinstance(x, App):
            stack.append(x.arg)
            stack.append(x.fun)
        elif isinstance(x, Abs):
            open_binders.setdefault(x.var, []).append(len(binders))
            unmatched.append(len(binders))
            binders.append(x.var)
            counts.append(0)
            stack.append(x.var)  # popped once the body is done: closes the scope
            stack.append(x.body)
        else:
            open_binders[x].pop()
    return binders, counts, free, crossing


def free_variables(t: LambdaTerm) -> set[str]:
    return _binding_scan(t)[2]


def _linearity_message(binders: list[str], counts: list[int], free: set[str]) -> str | None:
    if free:
        return f"term is not closed: free {sorted(free)}"
    for var, c in zip(binders, counts):
        if c != 1:
            return f"abstraction over {var} binds {c} atoms, not 1"
    return None


def linearity_defect(t: LambdaTerm) -> str | None:
    """Why a term is not closed and linear, or None when it is.

    A free atom is reported first, listing every free name.  Otherwise the
    first abstraction in pre-order that does not bind exactly one atom is
    reported.
    """
    return _linearity_message(*_binding_scan(t)[:3])


def term_defect(t: LambdaTerm) -> str | None:
    """Why a term is not closed, linear and planar, or None when it is.

    A linearity defect is reported first, as by :func:`linearity_defect`.
    Otherwise the first atom in pre-order that is not bound by the innermost
    abstraction still without an atom is reported: such a term is not the
    term of its own skeleton.
    """
    binders, counts, free, crossing = _binding_scan(t)
    defect = _linearity_message(binders, counts, free)
    if defect is None and crossing is not None:
        defect = f"term is not planar: {crossing}"
    return defect


def alpha_equal(a: LambdaTerm, b: LambdaTerm) -> bool:
    """Equality up to consistent renaming of bound variables.

    Both terms are walked in parallel.  Each side maps a name to the depth
    of its innermost open binder, so two atoms agree when both are free
    under the same name or both are bound at the same depth.
    """
    env_a: dict[str, int | None] = {}
    env_b: dict[str, int | None] = {}
    depth = 0
    stack: list[tuple] = [(a, b)]
    while stack:
        x, y = stack.pop()
        kind = type(x)
        if kind is not type(y):
            return False
        if kind is Var:
            dx = env_a.get(x.name)
            if dx != env_b.get(y.name) or (dx is None and x.name != y.name):
                return False
        elif kind is App:
            stack.append((x.arg, y.arg))
            stack.append((x.fun, y.fun))
        elif kind is Abs:
            # popped once the bodies are done, to restore the shadowed depths
            stack.append(((x.var, env_a.get(x.var)), (y.var, env_b.get(y.var))))
            env_a[x.var] = env_b[y.var] = depth
            depth += 1
            stack.append((x.body, y.body))
        else:
            depth -= 1
            env_a[x[0]] = x[1]
            env_b[y[0]] = y[1]
    return True


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
    """Plane unary-binary tree; size is the number of leaves.  The hash is
    computed only when asked for."""

    __slots__ = ("nleaf", "nunary")

    def size(self) -> int:
        return self.nleaf

    def deficit(self) -> int:
        return self.nleaf - self.nunary

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Skeleton):
            return NotImplemented
        xs, ys = [self], [other]  # breadth first, the two lists grow in step
        for a, b in zip(xs, ys):
            if a is b:
                continue
            kind = type(a)
            if kind is not type(b) or a.nleaf != b.nleaf or a.nunary != b.nunary:
                return False
            if kind is Unary:
                xs.append(a.child)
                ys.append(b.child)
            elif kind is Binary:
                xs.append(a.left)
                xs.append(a.right)
                ys.append(b.left)
                ys.append(b.right)
        return True

    def __hash__(self):
        # The breadth-first word of node kinds determines the skeleton.
        word = bytearray()
        nodes = [self]
        for x in nodes:
            kind = type(x)
            if kind is Unary:
                word.append(1)
                nodes.append(x.child)
            elif kind is Binary:
                word.append(2)
                nodes += (x.left, x.right)
            else:
                word.append(0)
        return hash(bytes(word))

    def __repr__(self):
        return render_skeleton(self)


class Leaf(Skeleton):
    __slots__ = ()

    def __init__(self):
        self.nleaf = 1
        self.nunary = 0


class Unary(Skeleton):
    __slots__ = ("child",)

    def __init__(self, child: Skeleton):
        self.child = child
        self.nleaf = child.nleaf
        self.nunary = child.nunary + 1


class Binary(Skeleton):
    __slots__ = ("left", "right")

    def __init__(self, left: Skeleton, right: Skeleton):
        self.left = left
        self.right = right
        self.nleaf = left.nleaf + right.nleaf
        self.nunary = left.nunary + right.nunary


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
    order: list[LambdaTerm] = []  # pre-order, function before argument
    stack = [t]
    while stack:
        x = stack.pop()
        while type(x) is Abs:
            order.append(x)
            x = x.body
        order.append(x)
        if type(x) is App:
            stack.append(x.arg)
            stack.append(x.fun)
    # Bottom up in reverse pre-order: a node's children are built before it,
    # its function on top of its argument.
    out: list[Skeleton] = []
    for x in reversed(order):
        kind = type(x)
        if kind is Var:
            out.append(LEAF)
        elif kind is Abs:
            out[-1] = Unary(out[-1])
        else:
            left = out.pop()
            out[-1] = Binary(left, out[-1])
    return out[0]


def preorder(s: Skeleton) -> list[tuple[int, Skeleton, int]]:
    """(id, node, parent_id) with ids assigned in pre-order from 0."""
    out: list[tuple[int, Skeleton, int]] = []
    stack = [(s, -1)]
    while stack:
        node, parent = stack.pop()
        nid = len(out)
        out.append((nid, node, parent))
        if isinstance(node, Unary):
            stack.append((node.child, nid))
        elif isinstance(node, Binary):
            stack.append((node.right, nid))
            stack.append((node.left, nid))
    return out


def is_normal(s: Skeleton) -> bool:
    """No binary node has a unary left child."""
    stack = [s]
    while stack:
        node = stack.pop()
        if isinstance(node, Unary):
            stack.append(node.child)
        elif isinstance(node, Binary):
            if isinstance(node.left, Unary):
                return False
            stack.append(node.right)
            stack.append(node.left)
    return True


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


def _match(s: Skeleton, right_first: bool = False
           ) -> tuple[list[Skeleton], list[int], list[int]]:
    """The stack matcher: pair unary nodes with leaves in one walk.

    Walks s by an explicit stack, left subtrees first (the pre-order word)
    or with right_first right subtrees first (the clockwise contour).  A
    unary node is pushed when reached and popped by the next leaf.  Returns
    three lists indexed by pre-order id: the nodes, their parent ids (-1 at
    the root) and each leaf's binder id (-1 at internal nodes).  Raises
    MatchFailure when a leaf finds an empty stack, unmatched unary nodes
    remain, or a pairing crosses scopes (the popped unary node is not an
    ancestor of the leaf, so it could not bind it).
    """
    size = _node_span(s)
    nodes: list[Skeleton] = [s] * size
    parent = [-1] * size
    binder = [-1] * size
    open_unary: list[tuple[int, int]] = []  # (id, end of its id span)
    todo: list[tuple[int, Skeleton, int]] = [(0, s, -1)]
    while todo:
        nid, node, up = todo.pop()
        while True:  # down the first branch, pushing the other one
            nodes[nid] = node
            parent[nid] = up
            kind = type(node)
            if kind is Unary:
                open_unary.append((nid, nid + _node_span(node)))
                up, nid, node = nid, nid + 1, node.child
            elif kind is Binary:
                left = node.left
                right_id = nid + 1 + _node_span(left)
                if right_first:
                    todo.append((nid + 1, left, nid))
                    up, nid, node = nid, right_id, node.right
                else:
                    todo.append((right_id, node.right, nid))
                    up, nid, node = nid, nid + 1, left
            else:
                if not open_unary:
                    raise MatchFailure(f"leaf {nid} has no enclosing unary node")
                unary, end = open_unary.pop()
                if not unary < nid < end:
                    raise MatchFailure(
                        f"nesting violated: unary {unary} paired with leaf {nid} "
                        f"outside its subtree")
                binder[nid] = unary
                break
    if open_unary:
        raise MatchFailure(f"{len(open_unary)} unary nodes left unmatched")
    return nodes, parent, binder


def planar_match(s: Skeleton, right_first: bool = False) -> dict[int, int]:
    """Match unary nodes to leaves by stack discipline on the pre-order
    word, or with right_first on the clockwise contour, which descends into
    right subtrees first.  The two succeed alike on the connected family;
    outside it they can disagree.

    Returns {unary id: leaf id} over pre-order node ids.  Raises
    MatchFailure as :func:`_match` does.
    """
    binder = _match(s, right_first)[2]
    return {unary: leaf for leaf, unary in enumerate(binder) if unary >= 0}


def term_of_skeleton(s: Skeleton) -> LambdaTerm:
    """The planar linear term of a skeleton, variables named x1, x2, ...

    The i-th abstraction in pre-order binds xi; each atom is named after
    the binder the stack matcher gives it.  Raises MatchFailure when the
    skeleton admits no planar linear binding.
    """
    nodes, _parent, binder = _match(s)
    names = [""] * len(nodes)
    k = 0
    for nid, node in enumerate(nodes):
        if type(node) is Unary:
            k += 1
            names[nid] = f"x{k}"
    # Bottom up in reverse pre-order: a node's children are built before it,
    # its function on top of its argument.
    out: list[LambdaTerm] = []
    for nid in range(len(nodes) - 1, -1, -1):
        kind = type(nodes[nid])
        if kind is Leaf:
            out.append(Var(names[binder[nid]]))
        elif kind is Unary:
            out[-1] = Abs(names[nid], out[-1])
        else:
            fun = out.pop()
            out[-1] = App(fun, out[-1])
    return out[0]


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
    _nodes, parent, binder = _match(s, right_first=True)
    vertices = []
    edges = []
    for nid, unary in enumerate(binder):
        if unary >= 0:
            edges.append((parent[nid], unary))
        else:
            vertices.append(nid)
            if nid:
                edges.append((parent[nid], nid))
    return Diagram(tuple(vertices), tuple(edges), 0)
