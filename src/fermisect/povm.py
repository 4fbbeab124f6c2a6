"""Two-subsystem measurement toy model: joint and conditional tables.

Each subsystem has two outcomes.  A product preparation factorizes the joint
table; the two-term entangled mixture concentrates all weight on the
diagonal, which is what its conditional table makes visible.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "JointTable",
    "conditionals",
    "entangled_table",
    "product_table",
]


@dataclass(frozen=True)
class JointTable:
    """Joint outcome probabilities ``p_ij = P(a_i & b_j)``."""

    p11: float
    p12: float
    p21: float
    p22: float

    def marginal_a(self) -> tuple[float, float]:
        return (self.p11 + self.p12, self.p21 + self.p22)

    def marginal_b(self) -> tuple[float, float]:
        return (self.p11 + self.p21, self.p12 + self.p22)


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def product_table(pa: float, pb: float) -> JointTable:
    """Joint table of two independent subsystems."""
    _check_unit("pa", pa)
    _check_unit("pb", pb)
    return JointTable(
        p11=pa * pb,
        p12=pa * (1.0 - pb),
        p21=(1.0 - pa) * pb,
        p22=(1.0 - pa) * (1.0 - pb),
    )


def entangled_table(p: float) -> JointTable:
    """Joint table of the diagonal two-term mixture."""
    _check_unit("p", p)
    return JointTable(p11=p, p12=0.0, p21=0.0, p22=1.0 - p)


def conditionals(table: JointTable) -> tuple[tuple[float, float], tuple[float, float]]:
    """Column-normalized table ``P(a_i | b_j)``, rows i, columns j."""
    col1, col2 = table.marginal_b()
    if col1 == 0.0 or col2 == 0.0:
        raise ValueError("a b-outcome has zero probability")
    return (
        (table.p11 / col1, table.p12 / col2),
        (table.p21 / col1, table.p22 / col2),
    )
