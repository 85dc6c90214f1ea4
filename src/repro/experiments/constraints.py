"""Subsequence constraints of the paper's Tab. III, adapted to the lite
datasets.

The pattern expressions are the paper's, with two adaptations documented in
DESIGN.md: the implicit context padding is written out as explicit ``.*``
(the FST consumes the whole input sequence), and the item names refer to
the lite vocabularies (which deliberately reuse the paper's names: ENTITY,
VERB, Electr, Book, DigitalCamera, MusicInstr, ...).

``T1``/``T2``/``T3`` are parametric: ``T1(σ, λ)`` PrefixSpan-style,
``T2(σ, γ, λ)`` MG-FSM-style, ``T3(σ, γ, λ)`` LASH-style.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

# Per scale: the corpus size of Tables II–IV and the factor on the bench σ.
SCALES = {"test": (150, 0.1), "bench": (3000, 1.0)}


@dataclass(frozen=True)
class Constraint:
    """A named constraint bound to a dataset and a σ for the bench scale."""

    name: str  # display name, e.g. "N1(5)"
    dataset: str  # key into repro.datasets.DATASETS
    expr: str
    sigma: int


# Parametric expression builders -------------------------------------------

def t1_expr(lam: int) -> str:
    """PrefixSpan setting: max length λ, arbitrary gaps, no hierarchy."""
    return f".* (.)[.*(.)]{{,{lam - 1}}} .*"


def t2_expr(gamma: int, lam: int) -> str:
    """MG-FSM setting: max length λ, max gap γ."""
    return f".* (.)[.{{0,{gamma}}}(.)]{{1,{lam - 1}}} .*"


def t3_expr(gamma: int, lam: int) -> str:
    """LASH setting: max length λ, max gap γ, hierarchy generalization."""
    return f".* (.^)[.{{0,{gamma}}}(.^)]{{1,{lam - 1}}} .*"


# Flexible constraints (Tab. III) ------------------------------------------

N_EXPRS: Dict[str, str] = {
    "N1": ".* ENTITY (VERB+ NOUN+? PREP?) ENTITY .*",
    "N2": ".* (ENTITY^ VERB+ NOUN+? PREP? ENTITY^) .*",
    "N3": ".* (ENTITY^ be^=) DET? (ADV? ADJ? NOUN) .*",
    "N4": ".* (.^){3} NOUN .*",
    "N5": ".* ([.^ . .]|[. .^ .]|[. . .^]) .*",
}

A_EXPRS: Dict[str, str] = {
    "A1": ".* (Electr^)[.{0,2}(Electr^)]{1,4} .*",
    "A2": ".* (Book)[.{0,2}(Book)]{1,4} .*",
    "A3": ".* DigitalCamera[.{0,3}(.^)]{1,4} .*",
    "A4": ".* (MusicInstr^)[.{0,2}(MusicInstr^)]{1,4} .*",
}


def flexible_constraints(scale: float = 1.0) -> Tuple[Constraint, ...]:
    """The N/A constraint grid with σ scaled to the corpus size.

    ``scale`` multiplies the bench-scale σ (bench corpora have ~3000
    sequences; tests pass a smaller scale).
    """

    def s(x: int) -> int:
        return max(2, int(round(x * scale)))

    return (
        Constraint("N1", "NYT-lite", N_EXPRS["N1"], s(5)),
        Constraint("N2", "NYT-lite", N_EXPRS["N2"], s(10)),
        Constraint("N3", "NYT-lite", N_EXPRS["N3"], s(5)),
        Constraint("N4", "NYT-lite", N_EXPRS["N4"], s(150)),
        Constraint("N5", "NYT-lite", N_EXPRS["N5"], s(150)),
        Constraint("A1", "AMZN-lite", A_EXPRS["A1"], s(40)),
        Constraint("A2", "AMZN-lite", A_EXPRS["A2"], s(8)),
        Constraint("A3", "AMZN-lite", A_EXPRS["A3"], s(10)),
        Constraint("A4", "AMZN-lite", A_EXPRS["A4"], s(40)),
    )


def traditional_constraints(scale: float = 1.0) -> Tuple[Constraint, ...]:
    def s(x: int) -> int:
        return max(2, int(round(x * scale)))

    return (
        Constraint("T1(100,5)", "AMZN-lite", t1_expr(5), s(100)),
        Constraint("T2(100,1,5)", "NYT-lite", t2_expr(1, 5), s(100)),
        Constraint("T3(50,1,5)", "AMZN-F-lite", t3_expr(1, 5), s(50)),
    )


def select(
    grid: Sequence[Constraint], names: Optional[Sequence[str]] = None
) -> List[Constraint]:
    """The rows of ``grid`` named in ``names``; all of them when it is not
    given. Raises ValueError, naming the valid rows, for a name that
    matches no row."""
    valid = [c.name for c in grid]
    unknown = [x for x in names or () if x not in valid]
    if unknown:
        raise ValueError(f"no row {' '.join(unknown)}; its rows are:"
                         f" {' '.join(valid) or '(none)'}")
    return [c for c in grid if not names or c.name in names]


def constraint_grid(
    scale: str, names: Optional[Sequence[str]] = None
) -> Tuple[int, List[Constraint]]:
    """Tables III and IV's corpus size and constraints at ``scale``; only
    the constraints in ``names`` when it is given (see :func:`select`)."""
    n, sig_scale = SCALES[scale]
    grid = flexible_constraints(sig_scale) + traditional_constraints(sig_scale)
    return n, select(grid, names)
