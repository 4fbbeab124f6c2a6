import dataclasses
import re

import pytest

from fermisect.povm import (
    conditionals,
    entangled_table,
    product_table,
)


def test_product_table_corners_and_symmetry():
    t = product_table(1.0, 1.0)
    assert (t.p11, t.p12, t.p21, t.p22) == (1.0, 0.0, 0.0, 0.0)
    t = product_table(0.5, 0.5)
    assert (t.p11, t.p12, t.p21, t.p22) == (0.25, 0.25, 0.25, 0.25)


def test_product_table_values():
    t = product_table(0.3, 0.6)
    assert t.p11 == pytest.approx(0.18)
    assert t.p12 == pytest.approx(0.12)
    assert t.p21 == pytest.approx(0.42)
    assert t.p22 == pytest.approx(0.28)


def test_product_rule_exact():
    for pa in (0.0, 0.2, 0.5, 0.77, 1.0):
        for pb in (0.0, 0.31, 0.5, 0.9, 1.0):
            t = product_table(pa, pb)
            ma, mb = t.marginal_a(), t.marginal_b()
            cells = ((t.p11, t.p12), (t.p21, t.p22))
            for i in range(2):
                for j in range(2):
                    assert abs(cells[i][j] - ma[i] * mb[j]) <= 1e-15


def test_entangled_table_structure():
    assert dataclasses.asdict(entangled_table(1.0)) == {"p11": 1.0, "p12": 0.0, "p21": 0.0,
                                                         "p22": 0.0}
    t = entangled_table(0.5)
    assert (t.p11, t.p12, t.p21, t.p22) == (0.5, 0.0, 0.0, 0.5)
    for p in (0.1, 0.42, 0.9):
        t = entangled_table(p)
        assert t.p12 == 0.0 and t.p21 == 0.0


def test_tables_normalized():
    for p in (0.0, 0.3, 1.0):
        t = entangled_table(p)
        assert abs(t.p11 + t.p12 + t.p21 + t.p22 - 1.0) <= 1e-15
    t = product_table(0.123, 0.456)
    assert abs(t.p11 + t.p12 + t.p21 + t.p22 - 1.0) <= 1e-15


def test_out_of_range():
    with pytest.raises(ValueError, match=re.escape("pa must lie in [0, 1], got 1.2")):
        product_table(1.2, 0.5)
    with pytest.raises(ValueError, match=re.escape("pb must lie in [0, 1], got -0.1")):
        product_table(0.5, -0.1)
    with pytest.raises(ValueError, match=re.escape("p must lie in [0, 1], got 2.0")):
        entangled_table(2.0)


def test_entangled_conditionals_are_identity():
    assert conditionals(entangled_table(0.5)) == ((1.0, 0.0), (0.0, 1.0))
    assert conditionals(entangled_table(0.25)) == ((1.0, 0.0), (0.0, 1.0))


def test_product_conditionals_independent_of_column():
    t = product_table(0.3, 0.6)
    cond = conditionals(t)
    assert cond[0][0] == pytest.approx(cond[0][1]) == pytest.approx(0.3)
    assert cond[1][0] == pytest.approx(cond[1][1]) == pytest.approx(0.7)


def test_zero_marginal_conditionals_undefined():
    with pytest.raises(ValueError, match="a b-outcome has zero probability"):
        conditionals(entangled_table(1.0))
    with pytest.raises(ValueError, match="a b-outcome has zero probability"):
        conditionals(entangled_table(0.0))


def test_separability_witness():
    # any entangled table with p strictly inside (0, 1) violates the product
    # rule in at least one cell by at least min(p, 1-p)^2
    for p in (0.1, 0.5, 0.8):
        t = entangled_table(p)
        ma, mb = t.marginal_a(), t.marginal_b()
        cells = ((t.p11, t.p12), (t.p21, t.p22))
        violation = max(abs(cells[i][j] - ma[i] * mb[j]) for i in range(2) for j in range(2))
        assert violation >= min(p, 1.0 - p) ** 2
