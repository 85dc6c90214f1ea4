"""AST for DESQ pattern expressions (paper Sec. II).

The inductive definition from the paper:

1. for each item ``w``: ``w``, ``w=``, ``w↑``, ``w↑=`` are expressions;
2. ``.`` and ``.↑`` are expressions;
3. if ``E`` is an expression, so are ``(E)`` (capture), ``[E]``, ``[E]*``,
   ``[E]+``, ``[E]?``, ``[E]{n}``, ``[E]{n,}``, ``[E]{n,m}``;
4. if ``E1``, ``E2`` are expressions, so are ``[E1 E2]`` and ``[E1|E2]``.

ASCII ``^`` is accepted for ``↑``. ``DOT`` is the reserved item name for
``.``. Capture groups (parentheses) toggle output production for the items
matched inside them; everything else matches silently (outputs ε).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

DOT = "."


@dataclass(frozen=True)
class Node:
    """Base class for AST nodes."""


@dataclass(frozen=True)
class Item(Node):
    """An item expression: ``w``, ``w=``, ``w^``, ``w^=``, ``.``, ``.^``.

    ``name == DOT`` for the wildcard. ``up`` is the generalization marker
    ``↑``; ``eq`` is the exact-match / full-generalization marker ``=``.
    """

    name: str
    up: bool = False
    eq: bool = False


@dataclass(frozen=True)
class Concat(Node):
    """``E1 E2 … En`` — sequential composition."""

    children: Tuple[Node, ...]


@dataclass(frozen=True)
class Alt(Node):
    """``E1 | E2 | … | En`` — union."""

    children: Tuple[Node, ...]


@dataclass(frozen=True)
class Rep(Node):
    """``E{n,m}`` — repetition; ``m=None`` means unbounded.

    ``*`` = {0,∞}, ``+`` = {1,∞}, ``?`` = {0,1}, ``{n}`` = {n,n},
    ``{n,}`` = {n,∞}, ``{,m}`` = {0,m}.
    """

    child: Node
    lo: int
    hi: Optional[int]


@dataclass(frozen=True)
class Capture(Node):
    """``(E)`` — items matched inside produce output."""

    child: Node
