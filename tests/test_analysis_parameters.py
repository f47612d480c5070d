"""Tests reproducing the paper's Appendix C numbers (Tables 1 and 2)."""


import pytest

from repro.analysis.parameters import (
    f_exponent,
    g_exponent,
    gamma0,
    gamma1,
    gamma2_appendix_b,
    solve_parameters,
    solve_table1,
    solve_table2,
    theorem13_constant,
)

# Paper values (Appendix C, Table 1), 6 published digits.
TABLE1 = {
    1: (2.97625, (0.274862,)),
    2: (2.85690, (0.192754, 0.334571)),
    3: (2.83925, (0.184664, 0.205128, 0.342677)),
    4: (2.83744, (0.183859, 0.186017, 0.206375, 0.343503)),
    5: (2.83729, (0.183795, 0.183967, 0.186125, 0.206474, 0.343569)),
    6: (2.83728, (0.183791, 0.183802, 0.183974, 0.186131, 0.206480, 0.343573)),
}

# Paper values (Appendix C, Table 2): (gamma_in, beta_6).
TABLE2 = [
    (3.0, 2.83728),
    (2.83728, 2.79364),
    (2.79364, 2.77981),
    (2.77981, 2.77521),
    (2.77521, 2.77366),
    (2.77366, 2.77313),
    (2.77313, 2.77295),
    (2.77295, 2.77289),
    (2.77289, 2.77287),
    (2.77287, 2.77286),
]


class TestExponentFunctions:
    def test_g_linear(self):
        assert g_exponent(0.2, 0.5, 2.0) == pytest.approx(0.5 + 0.3)

    def test_f_reduces_to_g_plus_entropy(self):
        x, y = 0.25, 0.5
        assert f_exponent(x, y, 3.0) == pytest.approx(
            0.5 * y * 1.0 + g_exponent(x, y, 3.0)
        )  # H(0.5) == 1

    def test_f_domain(self):
        with pytest.raises(ValueError):
            f_exponent(0.5, 0.4)


class TestSimpleCases:
    def test_gamma0(self):
        value, alpha = gamma0()
        assert value == pytest.approx(2.98581, abs=5e-6)
        assert alpha == pytest.approx(0.269577, abs=1e-6)

    def test_gamma1(self):
        value, alpha = gamma1()
        assert value == pytest.approx(2.97625, abs=5e-6)
        assert alpha == pytest.approx(0.274863, abs=1e-6)

    def test_gamma1_improves_on_gamma0(self):
        assert gamma1()[0] < gamma0()[0] < 3.0

    def test_appendix_b(self):
        value, a1, a2 = gamma2_appendix_b()
        assert value == pytest.approx(2.8569, abs=5e-5)
        assert a1 == pytest.approx(0.192755, abs=2e-6)
        assert a2 == pytest.approx(0.334571, abs=2e-6)


class TestTable1:
    @pytest.mark.parametrize("k", sorted(TABLE1))
    def test_gamma_k_matches_paper(self, k):
        row = solve_parameters(k, 3.0)
        paper_gamma, paper_alphas = TABLE1[k]
        # abs=2e-5 on the gamma column: our k=2 solution satisfies the
        # system to residual 1e-16 and matches the paper's alphas to all
        # six digits, but yields 2.856887 where the paper prints 2.85690
        # (a last-digit rounding artifact on their side; Appendix B quotes
        # the same quantity as 2.8569).
        assert row.base == pytest.approx(paper_gamma, abs=2e-5)
        for ours, theirs in zip(row.alphas, paper_alphas):
            assert ours == pytest.approx(theirs, abs=2e-6)

    def test_k1_equals_gamma1(self):
        assert solve_parameters(1, 3.0).base == pytest.approx(gamma1()[0])

    def test_monotone_improvement_in_k(self):
        rows = solve_table1(6)
        bases = [row.base for row in rows]
        assert bases == sorted(bases, reverse=True)

    def test_diminishing_returns(self):
        rows = solve_table1(6)
        assert rows[5].base > rows[4].base - 1e-4  # negligible beyond k=5/6

    def test_residuals_tiny(self):
        for row in solve_table1(6):
            assert row.residual < 1e-9

    def test_alphas_strictly_increasing(self):
        for row in solve_table1(6):
            assert list(row.alphas) == sorted(row.alphas)
            assert row.alphas[0] < 1 / 3  # the assumption the paper checks

    def test_k_validation(self):
        with pytest.raises(ValueError):
            solve_parameters(0)


class TestTable2:
    def test_all_rows_match_paper(self):
        rows = solve_table2(10)
        assert len(rows) == 10
        for row, (gamma_in, beta) in zip(rows, TABLE2):
            assert row.gamma_subroutine == pytest.approx(gamma_in, abs=5e-6)
            assert row.base == pytest.approx(beta, abs=5e-6)

    def test_alpha_vectors_match_paper_last_row(self):
        last = solve_table2(10)[-1]
        paper = (0.157910, 0.157914, 0.157990, 0.159230, 0.174208, 0.299109)
        for ours, theirs in zip(last.alphas, paper):
            assert ours == pytest.approx(theirs, abs=2e-6)

    def test_theorem13_constant(self):
        assert theorem13_constant() <= 2.77286 + 5e-6

    def test_iteration_is_contraction(self):
        rows = solve_table2(10)
        gaps = [abs(row.base - row.gamma_subroutine) for row in rows]
        assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))

    def test_fixed_point_stability(self):
        # Iterating past 10 moves the constant by < 1e-5.
        more = solve_table2(13)
        assert abs(more[-1].base - more[9].base) < 1e-5
