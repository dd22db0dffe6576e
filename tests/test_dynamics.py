"""Three-dimensional subspace dynamics: matrices, sequences, probabilities."""

import math
import random

import numpy as np
import pytest

from partial_search import (
    Kind,
    OperatorSequence,
    ParameterError,
    angles,
    apply_sequence,
    block_success_probability,
    global_grover_matrix,
    grover_full_search_probability,
    initial_state,
    local_grover_matrix,
    new_search_space,
)

G, L = Kind.GLOBAL, Kind.LOCAL


def seq(*runs):
    return OperatorSequence(runs)


# -- OperatorSequence value semantics ----------------------------------------


def test_sequence_normalizes_runs():
    s = seq((G, 1), (G, 2), (L, 0), (L, 3))
    assert s.runs == ((G, 3), (L, 3))
    assert s.total_queries == 6


def test_sequence_rejects_negative_count():
    with pytest.raises(ParameterError):
        seq((G, -1))


def test_run_counts_are_capped_at_two_to_the_53():
    # 2^53 is the largest count a double holds with every count below it
    assert seq((G, 2**53)).runs == ((G, 2**53),)
    for runs in [((G, 2**53 + 1),), ((L, 2**53), (L, 1)), ((G, 10**400),)]:
        with pytest.raises(ParameterError, match="exceeds 2\\^53"):
            seq(*runs)


def test_parsed_run_counts_are_capped_at_two_to_the_53():
    top = 2**53
    assert OperatorSequence.from_token_spec(f"g:{top}").runs == ((G, top),)
    assert OperatorSequence.from_token_spec("l:" + "0" * 40 + "7").runs == ((L, 7),)
    for spec in [f"g:{top + 1}", "g:" + "9" * 17, "l:" + "9" * 5000]:
        with pytest.raises(ParameterError, match="2\\^53"):
            OperatorSequence.from_token_spec(spec)


def test_parse_errors_echo_a_short_prefix():
    # an over-long token is echoed as its first 40 characters and '...',
    # so the message stays one short line
    with pytest.raises(ParameterError, match="2\\^53") as token:
        OperatorSequence.from_token_spec("g:" + "9" * 5000)
    assert f"'g:{'9' * 38}'..." in str(token.value) and len(str(token.value)) < 200
    with pytest.raises(ParameterError, match="'g:x',"):
        OperatorSequence.from_token_spec("g:x")


def test_token_spec_round_trip():
    for text in ["g:1", "l:2,g:4", "g:3,l:1,g:1", ""]:
        s = OperatorSequence.from_token_spec(text)
        assert OperatorSequence.from_token_spec(s.token_spec()) == s


def test_token_spec_rejects_garbage():
    for bad in ["x:1", "g:", "g:1;l:2", "gl:2", "g:-3"]:
        with pytest.raises(ParameterError):
            OperatorSequence.from_token_spec(bad)


def test_product_string_reverses_application_order():
    sp = new_search_space(8, 2)
    # apply one local, then one global = product G_8 G_2
    assert seq((L, 1), (G, 1)).product_string(sp) == "G_8G_2"
    assert seq((G, 6), (L, 1), (G, 1)).product_string(sp) == "G_8G_2G_8^6"
    assert seq().product_string(sp) == "I"


# -- initial state and matrices ----------------------------------------------


def test_initial_state_components():
    sp = new_search_space(8, 2)
    st = initial_state(sp)
    a = angles(sp)
    assert st.amp_t == pytest.approx(1 / 16, abs=1e-15)
    assert st.amp_bt == pytest.approx(math.sin(a.gamma) * math.cos(a.theta2), abs=1e-15)
    assert np.sum(st.as_array() ** 2) == pytest.approx(1.0, abs=1e-14)


def test_initial_state_two_block_case():
    st = initial_state(new_search_space(8, 7))
    assert st.amp_bbar == pytest.approx(1 / math.sqrt(2), abs=1e-15)


@pytest.mark.parametrize("n,m", [(2, 1), (8, 2), (8, 7), (20, 10), (62, 31), (62, 1)])
def test_matrix_invariants(n, m):
    sp = new_search_space(n, m)
    gn = global_grover_matrix(sp)
    lm = local_grover_matrix(sp)
    ident = np.eye(3)
    assert np.max(np.abs(gn.T @ gn - ident)) < 1e-12
    assert np.max(np.abs(lm.T @ lm - ident)) < 1e-12
    assert np.linalg.det(gn) == pytest.approx(-1.0, abs=1e-12)
    assert np.linalg.det(lm) == pytest.approx(1.0, abs=1e-12)


def test_global_matrix_top_left():
    for n, m in [(8, 2), (16, 5)]:
        sp = new_search_space(n, m)
        assert global_grover_matrix(sp)[0, 0] == pytest.approx(
            1 - 2 / sp.N, abs=1e-14
        )


def test_global_matrix_degenerate_block_is_plane_rotation():
    # b = 1: dynamics collapse to the 2D Grover rotation in the (t, bbar)
    # plane; the empty middle direction just carries a sign.
    sp = new_search_space(1, 0)
    gn = global_grover_matrix(sp)
    th1 = angles(sp).theta1
    c, s = math.cos(2 * th1), math.sin(2 * th1)
    assert gn[0, 0] == pytest.approx(c, abs=1e-14)
    assert gn[0, 2] == pytest.approx(s, abs=1e-14)
    assert gn[2, 0] == pytest.approx(-s, abs=1e-14)
    assert gn[2, 2] == pytest.approx(c, abs=1e-14)
    assert gn[1, 1] == pytest.approx(-1.0, abs=1e-14)


def test_local_matrix_shape():
    sp = new_search_space(8, 1)
    lm = local_grover_matrix(sp)
    assert lm[2, 2] == 1.0
    assert np.all(lm[2, :2] == 0.0) and np.all(lm[:2, 2] == 0.0)
    # m=1 means rotation by pi/2 in the block plane
    assert lm[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert lm[0, 1] == pytest.approx(1.0, abs=1e-15)


# -- sequence application ----------------------------------------------------


def test_empty_sequence_is_identity():
    sp = new_search_space(8, 3)
    assert apply_sequence(sp, seq()) == initial_state(sp)


def test_local_runs_preserve_bbar_amplitude():
    sp = new_search_space(8, 3)
    base = initial_state(sp)
    for k in (1, 2, 7, 30):
        st = apply_sequence(sp, seq((L, k)))
        assert abs(st.amp_bbar - base.amp_bbar) < 1e-13


def test_local_run_matches_repeated_matrix():
    sp = new_search_space(10, 4)
    lm = local_grover_matrix(sp)
    v = initial_state(sp).as_array()
    for _ in range(9):
        v = lm @ v
    st = apply_sequence(sp, seq((L, 9)))
    assert np.max(np.abs(st.as_array() - v)) < 1e-13


def test_sequences_match_explicit_matrix_products():
    rng = random.Random(3)
    for n, m in [(6, 2), (9, 5), (12, 11)]:
        sp = new_search_space(n, m)
        gn, lm = global_grover_matrix(sp), local_grover_matrix(sp)
        for _ in range(20):
            kinds = [rng.choice((G, L)) for _ in range(rng.randint(1, 15))]
            v = initial_state(sp).as_array()
            for kind in kinds:
                v = (gn if kind is G else lm) @ v
            st = apply_sequence(sp, OperatorSequence.from_kinds(kinds))
            assert np.max(np.abs(st.as_array() - v)) < 1e-12


def test_norm_conservation_long_sequences():
    rng = random.Random(11)
    sp = new_search_space(24, 12)
    for _ in range(3):
        runs = []
        total = 0
        while total < 10_000:
            c = rng.randint(1, 400)
            runs.append((rng.choice((G, L)), c))
            total += c
        st = apply_sequence(sp, OperatorSequence(runs))
        assert abs(np.sum(st.as_array() ** 2) - 1.0) < 1e-10


# -- probabilities ------------------------------------------------------------


def test_block_probability_of_uniform_state():
    sp = new_search_space(8, 3)
    assert block_success_probability(sp, seq()) == pytest.approx(1 / sp.K, abs=1e-14)


def test_table_corner_values():
    sp = new_search_space(8, 2)
    assert block_success_probability(sp, seq((L, 1), (G, 1))) == pytest.approx(
        0.105747, abs=5e-7
    )
    sp7 = new_search_space(8, 7)
    assert block_success_probability(sp7, seq((L, 1), (G, 1))) == pytest.approx(
        0.560089, abs=5e-7
    )


def test_target_probability_of_uniform_state():
    sp = new_search_space(8, 2)
    target = apply_sequence(sp, seq()).probabilities()[1]
    assert target == pytest.approx(1 / sp.N, abs=1e-16)


def test_global_only_equals_closed_form():
    for m in range(0, 8):
        sp = new_search_space(8, m)
        for k in (0, 1, 5, 12):
            target = apply_sequence(sp, seq((G, k))).probabilities()[1]
            assert target == pytest.approx(
                grover_full_search_probability(8, k), abs=1e-12
            )


def test_grover_closed_form_values():
    assert grover_full_search_probability(8, 12) > 0.9999
    assert grover_full_search_probability(8, 0) == pytest.approx(1 / 256, abs=1e-18)


def test_grover_rejects_negative_k():
    with pytest.raises(ParameterError):
        grover_full_search_probability(8, -1)


def only_block(sp, k):
    """Block success after k global queries: sin^2 u + (b-1)/(N-1) cos^2 u
    with u = (2k+1) theta1, the target amplitude plus the uniform
    remainder falling inside the block."""
    s2 = math.sin((2 * k + 1) * angles(sp).theta1) ** 2
    return s2 + (sp.b - 1) / (sp.N - 1) * (1.0 - s2)


def test_only_block_formula_uniform_and_degenerate():
    sp = new_search_space(8, 2)
    assert only_block(sp, 0) == pytest.approx(1 / sp.K, abs=1e-14)
    sp0 = new_search_space(8, 0)
    for k in (0, 3, 9):
        assert only_block(sp0, k) == pytest.approx(
            grover_full_search_probability(8, k), abs=1e-16
        )


def test_only_block_formula_matches_dynamics():
    sp = new_search_space(8, 2)
    for k in (1, 3, 7):
        assert only_block(sp, k) == pytest.approx(
            apply_sequence(sp, seq((G, k))).probabilities()[0], abs=1e-14
        )
