import time

from hopflab.report import VerificationReport, matrix_axiom


def test_elapsed_covers_evaluating_both_sides():
    def slow_identity():
        time.sleep(0.02)
        return {(0, 0): 1, (1, 1): 1}

    rep = VerificationReport("demo")
    matrix_axiom(rep, "slow", slow_identity, slow_identity)
    assert rep.ok
    assert rep.checks[0].elapsed_s >= 0.04


def test_witness_is_first_difference_in_row_major_order():
    rep = VerificationReport("demo")
    lhs = {(0, 2): 1, (1, 0): 5, (1, 1): 3}
    rhs = {(0, 2): 1, (1, 1): 4, (2, 0): 7}
    matrix_axiom(rep, "sparse", lambda: lhs, lambda: rhs, str, lambda j: f"c{j}")
    assert rep.checks[0].witness == {"row": "1", "col": "c0", "lhs": "5", "rhs": "0"}


def test_transposed_witness_is_first_difference_of_the_transposes():
    # The sides differ at (0, 2), (1, 0) and (2, 1): at (2, 0), (0, 1) and
    # (1, 2) of the matrices the axiom is about, whose transposes they are.
    rep = VerificationReport("demo")
    lhs = {(0, 2): 1, (1, 0): 5, (1, 1): 3}
    rhs = {(1, 1): 3, (2, 1): 7}
    matrix_axiom(rep, "dual", lambda: lhs, lambda: rhs, str, lambda j: f"c{j}", transposed=True)
    assert rep.checks[0].witness == {"row": "0", "col": "c1", "lhs": "5", "rhs": "0"}
