"""The benchmark's workloads: three Table V rows on the lite corpora.

Each workload fixes a corpus generator, a pattern expression, a corpus size
and a relative support; the seed comes from the command line, so the
program only ever sees the generated sequences.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro import datasets
from repro.experiments.constraints import N_EXPRS, t2_expr, t3_expr


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # key into repro.datasets.DATASETS
    expr: str
    n: int
    rel_support: float

    def sigma(self, n: int) -> int:
        return max(2, round(self.rel_support * n))

    def generate(self, n: int, seed: int):
        """Fresh ``(sequences, hierarchy)``; bypasses the datasets cache so
        that corpus generation is part of every timed set-up."""
        return datasets.DATASETS[self.dataset](n, seed)


WORKLOADS: Dict[str, Workload] = {
    # Flexible hierarchy constraint: D-SEQ's map (grid, ⊕, rewrite)
    # outweighs its reduce, and D-CAND's NFA aggregation wins.
    "nyt-n5": Workload("nyt-n5", "NYT-lite", N_EXPRS["N5"], 1000, 0.003),
    # Loose LASH-style constraint with the most output: local mining, NFA
    # mining and result materialisation dominate; D-CAND ships the most.
    "amznf-t3": Workload("amznf-t3", "AMZN-F-lite", t3_expr(1, 5), 2000, 0.005),
    # No hierarchy, longest sequences, heaviest pivot skew: many tiny
    # partitions plus one giant one, and little output.
    "cw-t2": Workload("cw-t2", "CW-lite", t2_expr(0, 5), 1200, 0.0025),
}


def fingerprint(seqs: Sequence[Sequence[str]], sigma: int) -> Dict:
    """Identifies the generated corpus, so runs on different seeds can be
    told apart."""
    h = hashlib.sha256()
    for s in seqs:
        h.update("\x1f".join(s).encode())
        h.update(b"\n")
    return {
        "n": len(seqs),
        "sigma": sigma,
        "items": sum(len(s) for s in seqs),
        "vocab": len({w for s in seqs for w in s}),
        "sha256": h.hexdigest()[:16],
    }


def result_digest(pairs: Iterable[Tuple[str, int]]) -> str:
    """Order-independent hash of (space-joined pattern, support) pairs."""
    lines = sorted(f"{p}\t{int(f)}" for p, f in pairs)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def decoded_pairs(result: Mapping[Tuple[str, ...], int]) -> List[Tuple[str, int]]:
    """``mine_sequential``'s ``{item tuple: support}`` as digest pairs."""
    return [(" ".join(k), f) for k, f in result.items()]
