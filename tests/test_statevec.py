"""Full-statevector brute force vs the 3D subspace reduction."""

import math
import random

import numpy as np
import pytest

import partial_search.statevec as statevec
from partial_search import (
    FullState,
    Kind,
    OperatorSequence,
    ParameterError,
    ResourceLimitError,
    State3,
    angles,
    apply_global_diffusion,
    apply_local_diffusion,
    apply_oracle,
    apply_sequence,
    block_success_probability,
    grk_optimal_parameters,
    grover_full_search_probability,
    local_grover_matrix,
    new_search_space,
    verify_subspace,
)
from partial_search.cli import OutputRecord, render_json, run
from partial_search.dynamics import _apply_sequences

G, L = Kind.GLOBAL, Kind.LOCAL


def test_oracle_flips_target_only():
    st = FullState.uniform(2, target_index=3)
    out = apply_oracle(st)
    assert out.amplitudes[3] == pytest.approx(-0.5, abs=1e-15)
    assert np.all(out.amplitudes[:3] == st.amplitudes[:3])


def test_oracle_is_involution():
    st = FullState.uniform(5, target_index=17)
    twice = apply_oracle(apply_oracle(st))
    assert np.max(np.abs(twice.amplitudes - st.amplitudes)) == 0.0


def test_oracle_target_overlap():
    n = 6
    st = apply_oracle(FullState.uniform(n, target_index=9))
    assert st.amplitudes[9] == pytest.approx(-1 / math.sqrt(2**n), abs=1e-15)


def test_global_diffusion_fixes_uniform():
    st = FullState.uniform(4, target_index=0)
    out = apply_global_diffusion(st)
    assert np.max(np.abs(out.amplitudes - st.amplitudes)) < 1e-15


def test_global_diffusion_is_involution():
    rng = np.random.default_rng(0)
    v = rng.normal(size=64)
    v /= np.linalg.norm(v)
    st = FullState(amplitudes=v, n=6, target_index=5)
    twice = apply_global_diffusion(apply_global_diffusion(st))
    assert np.max(np.abs(twice.amplitudes - v)) < 1e-13


def test_grover_iterations_hit_closed_form():
    n, t = 6, 41
    st = FullState.uniform(n, target_index=t)
    for k in range(1, 7):
        st = apply_global_diffusion(apply_oracle(st))
        assert st.amplitudes[t] ** 2 == pytest.approx(
            grover_full_search_probability(n, k), abs=1e-13
        )


def test_local_diffusion_fixes_uniform():
    st = FullState.uniform(6, target_index=3)
    out = apply_local_diffusion(st, m=2)
    assert np.max(np.abs(out.amplitudes - st.amplitudes)) < 1e-15


def test_local_diffusion_confined_to_blocks():
    n, m = 6, 3
    b = 2**m
    v = np.zeros(2**n)
    v[:b] = np.random.default_rng(1).normal(size=b)
    v /= np.linalg.norm(v)
    out = apply_local_diffusion(FullState(amplitudes=v, n=n, target_index=0), m=m)
    assert np.all(out.amplitudes[b:] == 0.0)
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-13)


def test_local_query_matrix_element():
    # <bt~|G_m|t> in the full space equals the 3D matrix entry -sin(2 theta2)
    n, m = 6, 3
    sp = new_search_space(n, m)
    b = sp.b
    t = 11  # block 1
    v = np.zeros(2**n)
    v[t] = 1.0
    out = apply_local_diffusion(
        apply_oracle(FullState(amplitudes=v, n=n, target_index=t)), m=m
    )
    block = out.amplitudes[b : 2 * b].copy()
    block[t - b] = 0.0  # remove the target component
    overlap = block.sum() / math.sqrt(b - 1)
    assert overlap == pytest.approx(local_grover_matrix(sp)[1, 0], abs=1e-13)
    assert overlap == pytest.approx(-math.sin(2 * angles(sp).theta2), abs=1e-13)


# -- the one-vector reference against the reduced dynamics ---------------------


def test_simulate_table_corner():
    block, target, st3, _ = reference_project(reference_run(8, 2, 77, [L, G]), 77, 2)
    assert block == pytest.approx(0.105747, abs=5e-7)
    assert target == pytest.approx(st3.amp_t**2, abs=1e-14)


def test_projection_is_complete_and_matches_dynamics():
    rng = random.Random(5)
    n, m = 10, 4
    sp = new_search_space(n, m)
    for _ in range(30):
        kinds = [rng.choice((G, L)) for _ in range(rng.randint(0, 25))]
        seq = OperatorSequence.from_kinds(kinds)
        t = rng.randrange(2**n)
        _, _, st3, _ = reference_project(reference_run(n, m, t, kinds), t, m)
        assert st3.norm_sq() == pytest.approx(1.0, abs=1e-12)
        ref = apply_sequence(sp, seq)
        assert np.max(np.abs(st3.as_array() - ref.as_array())) < 1e-12


def test_target_index_invariance():
    n, m = 8, 3
    kinds = [G, G, L, L, L, G]
    probs = {reference_project(reference_run(n, m, t, kinds), t, m)[:2] for t in (0, 37, 255)}
    blocks = [p[0] for p in probs]
    targets = [p[1] for p in probs]
    assert max(blocks) - min(blocks) < 1e-13
    assert max(targets) - min(targets) < 1e-13


def test_grk_parameter_sequence_agrees_both_ways():
    sp = new_search_space(8, 4)
    p = grk_optimal_parameters(sp)
    seq = OperatorSequence([(G, p.k1), (L, p.k2), (G, 1)])
    kinds = [G] * p.k1 + [L] * p.k2 + [G]
    block, _, _, _ = reference_project(reference_run(8, 4, 200, kinds), 200, 4)
    assert block == pytest.approx(block_success_probability(sp, seq), abs=1e-12)


def test_degenerate_blocks_reduce_to_full_search():
    # m = 0: every item is its own block, so a global-only sequence is
    # plain Grover and the projection carries no block component.
    for k in (1, 4):
        block, target, st3, _ = reference_project(reference_run(6, 0, 13, [G] * k), 13, 0)
        assert block == pytest.approx(target, abs=1e-14)
        assert target == pytest.approx(grover_full_search_probability(6, k), abs=1e-13)
        assert st3.amp_bt == 0.0


# -- verify_subspace -----------------------------------------------------------


def test_verify_subspace_passes():
    report = verify_subspace(8, 3, num_random_sequences=40, max_k=25, tol=1e-10)
    assert report["passed"] is True
    assert report["failures"] == []
    assert report["max_deviation"] < 1e-10
    assert report["worst_case"]["deviation"] == report["max_deviation"]


def test_verify_subspace_is_seeded():
    a = verify_subspace(7, 2, num_random_sequences=10, max_k=15, seed=9)
    b = verify_subspace(7, 2, num_random_sequences=10, max_k=15, seed=9)
    assert a == b


@pytest.mark.parametrize("counts", [(0, 20), (10, 0), (-1, 5)])
def test_verify_subspace_rejects_counts_below_one(counts):
    sequences, max_k = counts
    with pytest.raises(ParameterError):
        verify_subspace(6, 2, num_random_sequences=sequences, max_k=max_k)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_verify_subspace_rejects_tol_that_is_not_finite_and_nonnegative(tol):
    # with tol = nan every `deviation > tol` is false and any report passes
    with pytest.raises(ParameterError):
        verify_subspace(6, 2, num_random_sequences=3, tol=tol)


def test_verify_subspace_reports_failures_at_absurd_tol():
    report = verify_subspace(6, 2, num_random_sequences=10, max_k=20, tol=1e-18)
    assert report["passed"] is False
    assert len(report["failures"]) > 0
    failure = report["failures"][0]
    assert set(failure) >= {"deviation", "sequence", "target_index"}


# -- the batch kernel against the one-vector primitives -------------------------


def reference_run(n, m, target, kinds):
    """Per-query composition of the public one-vector primitives."""
    state = FullState.uniform(n, target)
    for kind in kinds:
        state = apply_oracle(state)
        if kind is G:
            state = apply_global_diffusion(state)
        elif m:  # m = 0 blocks are single items; their diffusion is the identity
            state = apply_local_diffusion(state, m)
    return state.amplitudes


@pytest.mark.parametrize(
    "n, m, max_k",
    [
        (1, 0, 6), (4, 0, 9), (6, 2, 12), (7, 6, 9), (9, 4, 1),
        # row means and blocks of 2, 4 and 8, summed as strided columns
        (2, 1, 9), (3, 2, 9), (8, 1, 12), (9, 2, 12), (10, 3, 12),
        (12, 3, 9),  # one-row batches
    ],
)
def test_batch_kernel_matches_per_query_primitives(monkeypatch, n, m, max_k):
    # bit for bit: the same arithmetic, one row or one vector at a time
    rng = np.random.default_rng(n * 100 + m)
    count = 17
    local = [rng.integers(0, 2, 1 + i % max_k).astype(bool) for i in range(count)]
    local[0][:] = False  # an all-global and an all-local row, whatever the draw
    local[1][:] = True
    targets = rng.permutation(np.arange(count) % (1 << n))  # distinct where 2^n >= 17
    # five rows per batch, so the 17 sequences span four batches; from
    # n = 12 one row, as verify runs n = 14
    per_batch = 1 if n >= 12 else 5
    monkeypatch.setattr(statevec, "_BATCH_DOUBLES", {n: per_batch << n})
    flat, lengths = np.concatenate(local), np.array([len(bits) for bits in local])
    batches = list(statevec._simulate_batches(n, m, targets, flat, lengths))
    sizes = [min(per_batch, count - start) for start in range(0, count, per_batch)]
    assert [len(rows) for rows, _ in batches] == sizes
    for rows, amp in batches:
        for row, r in zip(amp, rows):
            kinds = [L if bit else G for bit in local[r]]
            assert np.array_equal(row, reference_run(n, m, int(targets[r]), kinds))
    assert sorted(r for rows, _ in batches for r in rows) == list(range(count))


@pytest.mark.parametrize("n, m", [(1, 0), (7, 3), (10, 4), (14, 7)])
def test_batch_size_does_not_change_reports(monkeypatch, n, m):
    # one row per batch, the former flat 2^14 amplitudes, and the per-n rule
    reports = []
    for doubles in (1 << n, 1 << 14, statevec._BATCH_DOUBLES[n]):
        monkeypatch.setattr(statevec, "_BATCH_DOUBLES", {n: doubles})
        reports.append(verify_subspace(n, m, seed=n + m))
    assert reports[0]["passed"]
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("shape", [(1 << 14,), (3, 1 << 13), (5, 2, 1 << 12)])
def test_shared_mean_is_numpy_mean_bit_for_bit(shape):
    # the kernel and the one-vector primitives take every mean from _mean;
    # here it meets numpy's own mean over every power-of-two width
    x = np.random.default_rng(len(shape)).normal(size=shape)
    for width in (1 << j for j in range(1, shape[-1].bit_length())):
        a = x.reshape(*shape[:-1], -1, width)
        assert np.array_equal(statevec._mean(a), a.mean(axis=-1)), width
    assert np.array_equal(statevec._mean(x), x.mean(axis=-1))


# -- verify_subspace against the per-query loop ---------------------------------


def reference_project(amp, t, m):
    """(block prob, target prob, State3, residual) of one full vector."""
    N, b = len(amp), 1 << m
    start = t // b * b
    block = amp[start : start + b]
    amp_t = float(amp[t])
    amp_bt = float((block.sum() - amp_t) / math.sqrt(b - 1)) if b > 1 else 0.0
    outside = np.concatenate([amp[:start], amp[start + b :]])
    amp_bbar = float(outside.sum() / math.sqrt(N - b))
    recon_block = np.full(b, amp_bt / math.sqrt(b - 1) if b > 1 else 0.0)
    recon_block[t - start] = amp_t
    residual = max(
        float(np.abs(block - recon_block).max()),
        float(np.abs(outside - amp_bbar / math.sqrt(N - b)).max()),
    )
    block_prob = float((block**2).sum())
    return block_prob, amp_t**2, State3(amp_t, amp_bt, amp_bbar), residual


def reference_verify(n, m, num_random_sequences=200, max_k=40, tol=1e-10, seed=42):
    """verify_subspace as one sequence at a time, one query at a time."""
    space = new_search_space(n, m)
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, max_k + 1, size=num_random_sequences)
    bits = iter(rng.integers(0, 2, size=int(lengths.sum())).tolist())
    targets = rng.integers(0, space.N, size=num_random_sequences)
    worst = {"deviation": -1.0, "sequence": None, "target_index": None}
    failures = []
    for k_tot, target in zip(lengths.tolist(), targets.tolist()):
        kinds = [L if next(bits) else G for _ in range(k_tot)]
        seq = OperatorSequence.from_kinds(kinds)
        reduced = apply_sequence(space, seq).as_array()
        block_prob, target_prob, proj, residual = reference_project(
            reference_run(n, m, target, kinds), target, m
        )
        dev = float(np.abs(reduced - proj.as_array()).max())
        dev = max(dev, residual)
        dev = max(dev, abs(block_prob - (1.0 - reduced[2] ** 2)))
        dev = max(dev, abs(target_prob - reduced[0] ** 2))
        case = {"sequence": seq.token_spec(), "target_index": target}
        if dev > worst["deviation"]:
            worst = {"deviation": dev, **case}
        if dev > tol:
            failures.append({**case, "deviation": dev})
    return {
        "n": n, "m": m, "sequences": num_random_sequences, "max_k": max_k,
        "tol": tol, "seed": seed, "max_deviation": worst["deviation"],
        "worst_case": worst, "failures": failures, "passed": not failures,
    }


@pytest.mark.parametrize(
    "n, m, seed, sizes",
    [pytest.param(n, m, seed, {}, id=f"{n}-{m}-{seed}") for n, m, seed in [
        (1, 0, 3), (2, 1, 42), (5, 0, 3), (6, 3, 42), (8, 2, 3), (10, 0, 42), (10, 0, 3),
        (10, 4, 42), (10, 9, 3), (12, 6, 42), (14, 7, 3),
        # multi-row batches at n = 10: strided subtracts (b <= 4), the
        # strided 8-entry mean and np.add.reduce block means (b >= 16)
        (10, 1, 3), (10, 2, 42), (10, 3, 3), (10, 5, 42), (10, 7, 3)]]
    # 3,000 draws of at most 2 queries: six distinct sequences, so the
    # reduced side applies each once and copies it to every repeat
    + [pytest.param(5, 2, 7, {"num_random_sequences": 3000, "max_k": 2}, id="5-2-7-short")],
)
def test_verify_report_equals_per_query_loop(n, m, seed, sizes):
    assert verify_subspace(n, m, seed=seed, **sizes) == reference_verify(n, m, seed=seed, **sizes)


def test_verify_cli_output_equals_per_query_loop(capsys):
    params = {"n": 10, "m": 4, "sequences": 200, "max_k": 40, "tol": 1e-10, "seed": 42}
    expected = render_json(OutputRecord("verify", params, [reference_verify(10, 4)]))
    assert run(["verify", "--n", "10", "--m", "4", "--format", "json"]) == 0
    assert capsys.readouterr().out == expected


def test_verify_failure_listing_equals_per_query_loop():
    args = dict(num_random_sequences=30, max_k=12, tol=1e-17, seed=5)
    report = verify_subspace(7, 3, **args)
    assert report["failures"]
    assert report == reference_verify(7, 3, **args)


def test_verify_flags_every_sequence_when_the_reduced_side_is_off(monkeypatch):
    def shifted(space, local, lengths):
        states = _apply_sequences(space, local, lengths)
        states[:, 0] += 1e-8
        return states

    monkeypatch.setattr(statevec, "_apply_sequences", shifted)
    report = verify_subspace(8, 3, num_random_sequences=25, max_k=15, seed=11)
    assert report["passed"] is False
    every = reference_verify(8, 3, num_random_sequences=25, max_k=15, tol=-1.0, seed=11)
    assert [(f["sequence"], f["target_index"]) for f in report["failures"]] == [
        (f["sequence"], f["target_index"]) for f in every["failures"]
    ]
    assert all(f["deviation"] >= 0.9e-8 for f in report["failures"])


def test_verify_refuses_n_above_cap_before_drawing(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("drew or simulated before refusing")

    monkeypatch.setattr(np.random, "default_rng", boom)
    monkeypatch.setattr(statevec, "_run_rows", boom)
    monkeypatch.setattr(statevec, "_apply_sequences", boom)
    with pytest.raises(ResourceLimitError):
        verify_subspace(15, 7)


def test_verify_refuses_negative_seed_before_drawing(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("drew or simulated before refusing")

    monkeypatch.setattr(np.random, "default_rng", boom)
    monkeypatch.setattr(statevec, "_run_rows", boom)
    monkeypatch.setattr(statevec, "_apply_sequences", boom)
    with pytest.raises(ParameterError, match="seed must be >= 0"):
        verify_subspace(4, 2, seed=-1)


@pytest.mark.parametrize(
    "n, sequences, max_k",
    [(14, 10**4, 40), (14, 1, 10**10), (1, 1, 10**9), (10, 6554, 40), (1, 2**18 + 1, 1)],
)
def test_verify_refuses_work_above_cap_before_drawing(monkeypatch, n, sequences, max_k):
    def boom(*args, **kwargs):
        raise AssertionError("drew or simulated before refusing")

    monkeypatch.setattr(np.random, "default_rng", boom)
    monkeypatch.setattr(statevec, "_run_rows", boom)
    monkeypatch.setattr(statevec, "_apply_sequences", boom)
    with pytest.raises(ResourceLimitError, match="work cap of 2\\^29"):
        verify_subspace(n, n // 2, num_random_sequences=sequences, max_k=max_k)
