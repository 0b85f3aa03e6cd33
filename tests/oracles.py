"""Test oracles: searches and measures that only the tests need.

``find_order_isomorphism`` decides whether two orders are isomorphic by
backtracking, and ``sentence_depth`` measures a sentence as
``institution.enumerate_sentences`` bounds it.  Neither is a law of the
paper, so they live beside the tests instead of in the package.
"""

from conceptua.finrel import FinFunction
from conceptua.institution import (
    Bottom, Not, Sentence, Top, Var, _Connective, _not_a_sentence, _preorder,
)
from conceptua.order import Preorder


def find_order_isomorphism(p: Preorder, q: Preorder) -> FinFunction | None:
    """Backtracking search for an order isomorphism; practical up to ~10 elements."""
    n = p.size
    if n != q.size:
        return None

    def profile(order: Preorder, i: int) -> tuple[int, int]:
        return order.leq.rows[i].bit_count(), order.leq.columns[i].bit_count()

    p_prof = [profile(p, i) for i in range(n)]
    q_prof = [profile(q, i) for i in range(n)]
    assignment: list[int] = []
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        for cand in range(n):
            if used[cand] or p_prof[i] != q_prof[cand]:
                continue
            ok = True
            for prev in range(i):
                if p.le_idx(i, prev) != q.le_idx(cand, assignment[prev]):
                    ok = False
                    break
                if p.le_idx(prev, i) != q.le_idx(assignment[prev], cand):
                    ok = False
                    break
            if ok:
                used[cand] = True
                assignment.append(cand)
                if extend(i + 1):
                    return True
                assignment.pop()
                used[cand] = False
        return False

    if extend(0):
        return FinFunction(p.carrier, q.carrier, tuple(assignment))
    return None


def sentence_depth(s: Sentence) -> int:
    """Nodes on the longest root-to-leaf path."""
    done: list[int] = []
    for t in reversed(_preorder(s)):
        if type(t) is Not:
            done.append(done.pop() + 1)
        elif isinstance(t, _Connective):
            done.append(max(done.pop(), done.pop()) + 1)
        elif isinstance(t, (Var, Top, Bottom)):
            done.append(1)
        else:
            raise _not_a_sentence(t)
    return done[0]
