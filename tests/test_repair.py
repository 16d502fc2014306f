import gc
import random
import sys
import threading
import tracemalloc
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from detcode.code import BadMode, StripeBatch, build_encoder, build_message_matrix, encode, recover_data
from detcode.field import Field
from detcode.repair import (
    OverlapError,
    RepairPayload,
    WrongTarget,
    combine_repair_space,
    decode_failed_nodes,
    decode_operator,
    decompress_payload,
    helper_payload,
    helper_payloads,
    repair_basis,
    repair_matrix,
)
from detcode.subsets import binom, incidence, subsets
from certificates import column_dependency, entry, shared_symbol
from oracles import column, mul_vec, plane_major, signed_sums_scalar, vec_mat


def test_repair_matrix_entries_golden(encoder8):
    xi = repair_matrix(5, 2, encoder8)
    psi = encoder8.row(5)
    rows = subsets(4, 2)
    cols = subsets(4, 1)
    assert xi[rows.rank((1, 2)), cols.rank((1,))] == psi[1]
    assert xi[rows.rank((1, 2)), cols.rank((2,))] == (-psi[0]) % 13
    assert xi[rows.rank((3, 4)), cols.rank((1,))] == 0
    assert xi[rows.rank((3, 4)), cols.rank((3,))] == psi[3]
    assert xi[rows.rank((3, 4)), cols.rank((4,))] == (-psi[2]) % 13


def test_mode_one_matrix_is_single_negated_column(encoder8):
    xi = repair_matrix(5, 1, encoder8)
    psi = encoder8.row(5)
    assert xi.shape == (4, 1)
    assert column(xi, 0) == [(-v) % 13 for v in psi]
    assert xi.rank() == 1


def test_column_count_of_nonzeros(encoder8):
    """Each column has d - m + 1 nonzero entries when the row has no zeros."""
    xi = repair_matrix(5, 2, encoder8)  # row 5 has no zero coefficients
    for j in range(xi.cols):
        assert sum(1 for v in column(xi, j) if v) == 3


def test_rank_bound_exhaustive_small(encoder8):
    for m in range(1, 5):
        for f in range(1, 9):
            assert repair_matrix(f, m, encoder8).rank() <= binom(3, m - 1)


def test_rank_bound_d6():
    enc = build_encoder(10, 6, Field(11))
    for f in range(1, 11):
        assert repair_matrix(f, 3, enc).rank() <= binom(5, 2)


def test_column_dependency_annihilates_everywhere(encoder8):
    for m in (2, 3, 4):
        for f in range(1, 9):
            psi = encoder8.row(f)
            xi = repair_matrix(f, m, encoder8)
            for j_label in subsets(4, m - 2):
                coeffs = column_dependency(j_label, f, m, encoder8)
                # nonzero whenever the row has support outside the core set
                if any(psi[y - 1] for y in range(1, 5) if y not in j_label):
                    assert any(coeffs), (f, m, j_label)
                assert all(v == 0 for v in mul_vec(xi, coeffs)), (f, m, j_label)


def test_column_dependency_annihilates_d6():
    enc = build_encoder(10, 6, Field(11))
    for f in (1, 7, 10):
        xi = repair_matrix(f, 3, enc)
        for j_label in subsets(6, 1):
            coeffs = column_dependency(j_label, f, 3, enc)
            assert all(v == 0 for v in mul_vec(xi, coeffs))


def test_column_dependency_concrete_coefficients(encoder8):
    """For the empty core set the coefficients are the negated encoder row."""
    psi = encoder8.row(5)
    assert column_dependency((), 5, 2, encoder8) == [(-v) % 13 for v in psi]


def test_payload_size_and_content(encoder8, contents8):
    for f in range(5, 9):
        for h in range(1, 5):
            payload = helper_payload(contents8[h - 1], h, (f,), encoder8, 2)
            assert len(payload.symbols) <= 3
            xi = repair_matrix(f, 2, encoder8)
            pivots, _ = xi.pivot_columns()
            assert pivots == sorted(pivots) and repair_basis(encoder8, (f,), 2)[0].cols == len(pivots)
            full = vec_mat(contents8[h - 1][0], xi)
            assert tuple(payload.symbols) == tuple(full[j] for j in pivots)


def test_zero_content_zero_payload(encoder8):
    payload = helper_payload(StripeBatch([0] * 6, 6), 1, (5,), encoder8, 2)
    assert all(v == 0 for v in payload.symbols)


def test_decompression_matches_direct_product(encoder8, contents8):
    for f in (5, 6):
        xi = repair_matrix(f, 2, encoder8)
        for h in range(1, 9):
            if h == f:
                continue
            payload = helper_payload(contents8[h - 1], h, (f,), encoder8, 2)
            assert list(decompress_payload(payload, encoder8)) == vec_mat(contents8[h - 1][0], xi)


def test_suppressed_symbol_reconstruction(encoder8, contents8):
    """The dropped fourth entry is minus the coefficient-weighted sum of the
    first three, scaled by the inverse of the last encoder coefficient."""
    f = 5
    psi = encoder8.row(f)
    payload = helper_payload(contents8[0], 1, (f,), encoder8, 2)
    assert repair_matrix(f, 2, encoder8).pivot_columns()[0] == [0, 1, 2]
    full = decompress_payload(payload, encoder8)
    acc = sum(psi[i] * full[i] for i in range(3)) % 13
    assert full[3] == -pow(psi[3], -1, 13) * acc % 13


def test_full_vector_golden_expressions(encoder8, message8, contents8):
    """Helper 1's raw repair vector written out in source symbols."""
    f = 6
    psi = encoder8.row(f)
    v = lambda x, lab: entry(message8, x, lab)
    w = lambda x, lab: shared_symbol(message8, x, lab)
    expected_row1 = [
        v(1, (1, 2)) * psi[1] + v(1, (1, 3)) * psi[2] + v(1, (1, 4)) * psi[3],
        -v(1, (1, 2)) * psi[0] + w(1, (1, 2, 3)) * psi[2] + w(1, (1, 2, 4)) * psi[3],
        -v(1, (1, 3)) * psi[0] - w(1, (1, 2, 3)) * psi[1] + w(1, (1, 3, 4)) * psi[3],
        -v(1, (1, 4)) * psi[0] - w(1, (1, 2, 4)) * psi[1] - w(1, (1, 3, 4)) * psi[2],
    ]
    expected_row3 = [
        w(3, (1, 2, 3)) * psi[1] + v(3, (1, 3)) * psi[2] + w(3, (1, 3, 4)) * psi[3],
        -w(3, (1, 2, 3)) * psi[0] + v(3, (2, 3)) * psi[2] + w(3, (2, 3, 4)) * psi[3],
        -v(3, (1, 3)) * psi[0] - v(3, (2, 3)) * psi[1] + v(3, (3, 4)) * psi[3],
        -w(3, (1, 3, 4)) * psi[0] - w(3, (2, 3, 4)) * psi[1] - v(3, (3, 4)) * psi[2],
    ]
    for helper, expected in ((1, expected_row1), (3, expected_row3)):
        payload = helper_payload(contents8[helper - 1], helper, (f,), encoder8, 2)
        assert list(decompress_payload(payload, encoder8)) == [e % 13 for e in expected]


def test_decode_entry_combination(encoder8, message8, contents8):
    """Decoded entry at (2,4) is the signed sum -space[2,(4)] + space[4,(2)]."""
    f = 7
    xi = repair_matrix(f, 2, encoder8)
    space = message8.matrix @ xi
    cols = subsets(4, 1)
    combined = (-space[1, cols.rank((4,))] + space[3, cols.rank((2,))]) % 13
    assert combined == contents8[f - 1][0][subsets(4, 2).rank((2, 4))]


def test_exact_repair_spot_checks(encoder8, contents8):
    for f, helpers in [(5, (1, 2, 3, 4)), (1, (5, 6, 7, 8)), (8, (2, 3, 5, 7))]:
        payloads = [helper_payload(contents8[h - 1], h, (f,), encoder8, 2) for h in helpers]
        assert decode_failed_nodes(payloads, helpers, encoder8, (f,))[f] == contents8[f - 1]


def test_zero_data_repairs_to_zero(encoder8, gf13):
    msg = build_message_matrix([0] * 20, 4, 2, gf13)
    contents = encode(encoder8, msg)
    payloads = [helper_payload(contents[h - 1], h, (5,), encoder8, 2) for h in (1, 2, 3, 4)]
    assert decode_failed_nodes(payloads, (1, 2, 3, 4), encoder8, (5,)) == {5: StripeBatch([0] * 6, 6)}


def test_exact_repair_all_modes(gf13, encoder8):
    """Every mode m repairs every node, one helper set sampled per (m, f)."""
    rng = random.Random(31)
    for m in range(1, 5):
        file_symbols = m * binom(5, m + 1)
        msg = build_message_matrix(
            [rng.randrange(13) for _ in range(file_symbols)], 4, m, gf13
        )
        contents = encode(encoder8, msg)
        for f in range(1, 9):
            others = [h for h in range(1, 9) if h != f]
            helpers = tuple(rng.sample(others, 4))
            payloads = [helper_payload(contents[h - 1], h, (f,), encoder8, m) for h in helpers]
            assert all(len(p.symbols) <= binom(3, m - 1) for p in payloads)
            assert decode_failed_nodes(payloads, helpers, encoder8, (f,))[f] == contents[f - 1]


def test_wrong_target_rejected(encoder8, contents8):
    """Payloads for one failure tuple are refused when decoding another,
    whether the tuples differ in a member, in order or in length."""
    for sent, asked in [((5,), (6,)), ((5, 6), (5, 7)), ((5, 6), (6, 5)), ((5, 6), (5,))]:
        payloads = [
            helper_payload(contents8[h - 1], h, sent, encoder8, 2) for h in (1, 2, 3, 4)
        ]
        with pytest.raises(WrongTarget):
            decode_failed_nodes(payloads, (1, 2, 3, 4), encoder8, asked)


def test_decode_validates_helper_count(encoder8, contents8):
    payloads = [helper_payload(contents8[h - 1], h, (5,), encoder8, 2) for h in (1, 2, 3)]
    with pytest.raises(ValueError):
        decode_failed_nodes(payloads, (1, 2, 3), encoder8, (5,))
    four = [helper_payload(contents8[h - 1], h, (5,), encoder8, 2) for h in (1, 2, 3, 4)]
    for bad in (four[:3], four[::-1], four[:3] + [four[0]]):
        with pytest.raises(ValueError, match="helpers"):
            decode_failed_nodes(bad, (1, 2, 3, 4), encoder8, (5,))


def test_decode_rejects_helpers_that_overlap_the_failed_set(encoder8, contents8):
    """Node 1 cannot help repair itself: refused like Cluster and centralized_repair refuse it."""
    payloads = [helper_payload(contents8[h - 1], h, (1,), encoder8, 2) for h in (1, 2, 3, 4)]
    with pytest.raises(OverlapError, match=r"helpers \[1\] are failed"):
        decode_failed_nodes(payloads, (1, 2, 3, 4), encoder8, (1,))


@pytest.mark.parametrize("bad", [0, 9])
def test_decode_refuses_helper_ids_outside_one_to_n(encoder8, contents8, bad):
    """Node 8's payload under helper id 0 once decoded node 5 right through
    a negative index into the encoder; helper id 9 raised IndexError."""
    payloads = [helper_payload(contents8[7], bad, (5,), encoder8, 2)]
    payloads += [helper_payload(contents8[h - 1], h, (5,), encoder8, 2) for h in (2, 3, 4)]
    with pytest.raises(ValueError, match=rf"node id {bad} not in \[1, 8\]"):
        decode_failed_nodes(payloads, (bad, 2, 3, 4), encoder8, (5,))


def test_decode_rejects_payloads_that_disagree_on_mode(encoder8, contents8):
    payloads = [helper_payload(contents8[h - 1], h, (5,), encoder8, 2) for h in (1, 2, 3, 4)]
    payloads[3] = replace(payloads[3], m=3)
    with pytest.raises(ValueError, match="payloads disagree on mode"):
        decode_failed_nodes(payloads, (1, 2, 3, 4), encoder8, (5,))


def test_repair_basis_rejects_repeated_failed_ids(encoder8, contents8):
    with pytest.raises(ValueError, match=r"failed ids must be distinct, got \[5, 5\]"):
        repair_basis(encoder8, (5, 5), 2)
    with pytest.raises(ValueError, match="failed ids must be distinct"):
        helper_payload(contents8[0], 1, (6, 5, 6), encoder8, 2)


@pytest.mark.parametrize("m", [0, 5, 6])  # 0, d + 1 and d + 2 at d = 4
def test_out_of_range_mode_is_reported_as_itself(encoder8, contents8, m):
    """Transmit, decompression and decode raise BadMode naming the m they were given."""
    message = rf"got m={m}, d=4$"
    with pytest.raises(BadMode, match=message):
        helper_payload(contents8[0], 1, (5,), encoder8, m)
    payloads = [RepairPayload((5,), h, m, (0, 0, 0)) for h in (1, 2, 3, 4)]
    with pytest.raises(BadMode, match=message):
        decompress_payload(payloads[0], encoder8)
    with pytest.raises(BadMode, match=message):
        decode_failed_nodes(payloads, (1, 2, 3, 4), encoder8, (5,))


def test_decode_rejects_payloads_of_different_stripe_counts(encoder8, contents8):
    """Helper 1 sends two stripes, the others one: decoding refuses the mix."""
    payloads = [
        helper_payload(StripeBatch(contents8[h - 1].symbols * (2 if h == 1 else 1), 6), h, (5,), encoder8, 2)
        for h in (1, 2, 3, 4)
    ]
    assert len(payloads[0].symbols) == 2 * len(payloads[1].symbols)
    with pytest.raises(ValueError):
        decode_failed_nodes(payloads, (1, 2, 3, 4), encoder8, (5,))


def test_payload_is_helper_set_independent(encoder8, contents8):
    """Payload bytes depend only on (helper content, failed id), by construction
    and by byte comparison across repeated computation."""
    blobs = set()
    for _ in range(5):
        payload = helper_payload(contents8[1], 2, (5,), encoder8, 2)
        blobs.add(payload.to_bytes(13))
    assert len(blobs) == 1


def test_exhaustive_repair_with_all_helper_sets(encoder8, contents8):
    for f in range(1, 9):
        others = [h for h in range(1, 9) if h != f]
        for helpers in combinations(others, 4):
            payloads = [
                helper_payload(contents8[h - 1], h, (f,), encoder8, 2) for h in helpers
            ]
            assert decode_failed_nodes(payloads, helpers, encoder8, (f,))[f] == contents8[f - 1]


def test_repair_builds_no_matrix_once_bases_are_cached(encoder8, contents8, monkeypatch):
    """Transmit, decompression and decode pass stripe data to the packed product
    as plain sequences: with the bases and inverses cached, an operator-path repair
    builds one Matrix, its decode operator of received symbols x e * alpha, whatever
    the stripe count, and only while the operator is not cached: a repair of the
    same tuple after it builds none."""
    from detcode.field import Matrix

    failed, helpers = (5, 6), (1, 2, 3, 4)
    def repeated(batch):
        return StripeBatch(plane_major([batch[0]] * 40), batch.alpha)  # enough stripes for the decode operator too

    batches = {h: repeated(contents8[h - 1]) for h in helpers}

    def repair():
        payloads = [helper_payload(batches[h], h, failed, encoder8, 2) for h in helpers]
        assert all(decompress_payload(payload, encoder8) for payload in payloads)
        return decode_failed_nodes(payloads, helpers, encoder8, failed)

    expected = repair()  # warms repair_basis and recover_weights
    decode_operator.cache_clear()
    built, wrap = [], Matrix.wrap
    monkeypatch.setattr(Matrix, "__init__", lambda *args, **kwargs: pytest.fail("Matrix built on the repair path"))
    monkeypatch.setattr(Matrix, "wrap", lambda field, rows, cols: built.append((len(rows), cols)) or wrap(field, rows, cols))
    assert repair() == expected == {f: repeated(contents8[f - 1]) for f in failed}
    assert built == [(4 * 5, 2 * 6)]  # 4 helpers of rank beta_e = 5 x 2 failures of alpha = 6; 40 stripes
    built.clear()
    assert repair() == expected
    assert built == []  # the operator is cached


def _charge(rows, cols):
    """Budget entries a kept rows x cols operator is charged: its entries, 4 per row and per column, and 64."""
    return rows * cols + 4 * (rows + cols) + 64


def _operator_batches(gf13, encoder8, stripes):
    """Node contents of a random message of *stripes* stripes at (8, 4, 2) over GF(13)."""
    rng = random.Random(stripes)
    return encode(encoder8, build_message_matrix([rng.randrange(13) for _ in range(stripes * 20)], 4, 2, gf13))


def test_below_rule_repairs_keep_no_operator():
    """One stripe at (16, 10, 3) is below the stripe-count rule in every mode: the factored
    decode runs, and no operator is looked up, built or kept."""
    from detcode import Cluster, CodeConfig

    config = CodeConfig(n=16, d=10, m=3, p=257)
    cluster = Cluster.from_file(random.Random(21).randbytes(config.file_symbols), config)
    assert cluster.stripe_count == 1
    decode_operator.cache_clear()
    for mode, failed in (("centralized", (2, 7, 11)), ("joint", (2, 7, 11)), ("naive", (4, 15)), ("single", (3,))):
        saved = {f: cluster.contents[f] for f in failed}
        cluster.fail_nodes(failed)
        cluster.repair(mode, failed)
        assert {f: cluster.contents[f] for f in failed} == saved
    info = decode_operator.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_operator_larger_than_the_budget_is_used_and_not_kept(gf13, encoder8, monkeypatch):
    """A decode operator of more entries than the whole budget decodes and is dropped, so the
    next decode of its tuple builds it again; one that fits the budget exactly is kept."""
    contents, failed, helpers = _operator_batches(gf13, encoder8, 40), (5, 6), (1, 2, 3, 4)
    payloads = [helper_payload(contents[h - 1], h, failed, encoder8, 2) for h in helpers]
    size = _charge(4 * 5, 2 * 6)  # 4 helpers of rank 5 x 2 failures of alpha 6
    decode_operator.cache_clear()
    for budget, kept in ((size - 1, 0), (size - 1, 0), (size, size), (size, size)):
        monkeypatch.setattr("detcode.repair.OPERATOR_BUDGET", budget)
        assert decode_failed_nodes(payloads, helpers, encoder8, failed) == {f: contents[f - 1] for f in failed}
        assert decode_operator.cache_info()[2:] == (budget, kept)
    assert decode_operator.cache_info()[:2] == (1, 3)


def test_kept_operator_entries_never_exceed_the_budget(gf13, encoder8, monkeypatch):
    """Repairing more distinct tuples than fit (single, joint and centralized, charged 208 to
    664 entries each) evicts least recently used operators first and never keeps more charged
    entries than the budget; a tuple found in the cache counts as used."""
    from detcode.multirepair import centralized_repair

    contents, helpers = _operator_batches(gf13, encoder8, 48), (1, 2, 3, 4)
    budget = 900
    monkeypatch.setattr("detcode.repair.OPERATOR_BUDGET", budget)
    decode_operator.cache_clear()

    def run(mode, failed):
        if mode == "centralized":
            decoded, _ = centralized_repair(failed, helpers, {h: contents[h - 1] for h in helpers}, encoder8, 2)
        else:
            payloads = [helper_payload(contents[h - 1], h, failed, encoder8, 2) for h in helpers]
            decoded = decode_failed_nodes(payloads, helpers, encoder8, failed)
        assert decoded == {f: contents[f - 1] for f in failed}
        info = decode_operator.cache_info()
        assert info.currsize <= budget
        return info

    # charged entries: (5,) 12 x 6 208, (5, 6) and (6, 7) 20 x 12 432,
    # centralized (5, 6, 7) 20 x 18 576, joint (5, 6, 7) 24 x 18 664
    steps = [
        ("joint", (5,), 0, 208),
        ("joint", (5, 6), 0, 640),
        ("joint", (5,), 1, 640),  # a hit: (5, 6) is now the least recently used
        ("joint", (6, 7), 1, 640),  # evicts (5, 6)
        ("joint", (5,), 2, 640),
        ("joint", (5, 6), 2, 640),  # built again; evicts (6, 7)
        ("centralized", (5, 6, 7), 2, 576),  # evicts both
        ("joint", (5, 6, 7), 2, 664),
    ]
    for mode, failed, hits, kept in steps:
        info = run(mode, failed)
        assert (info.hits, info.currsize) == (hits, kept)
    assert info.misses == len(steps) - info.hits


def test_operator_cache_bookkeeping_holds_under_threads(gf13, encoder8, monkeypatch):
    """Eight threads decoding five tuples at once, with a budget that evicts and a short switch
    interval: every decode is exact, every call is one hit or one miss, and the kept entries are
    those of the kept operators, within the budget."""
    contents, helpers = _operator_batches(gf13, encoder8, 48), (1, 2, 3, 4)
    tuples = [(5,), (6,), (5, 6), (6, 7), (5, 6, 7)]
    payloads = {failed: [helper_payload(contents[h - 1], h, failed, encoder8, 2) for h in helpers] for failed in tuples}
    monkeypatch.setattr("detcode.repair.OPERATOR_BUDGET", 1000)
    decode_operator.cache_clear()
    errors, rounds = [], 6

    def work(start):
        try:
            for k in range(rounds * len(tuples)):
                failed = tuples[(start + k) % len(tuples)]
                if decode_failed_nodes(payloads[failed], helpers, encoder8, failed) != {f: contents[f - 1] for f in failed}:
                    errors.append(failed)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    info = decode_operator.cache_info()
    assert info.hits + info.misses == 8 * rounds * len(tuples)
    assert info.currsize == sum(_charge(op.rows, op.cols) for op in decode_operator._kept.values()) <= 1000


def test_kept_operators_retain_less_heap_than_the_budget_estimate(monkeypatch):
    """The heap the kept operators retain, prepared columns and keys included, measured by
    tracemalloc around clearing the cache, stays under 18 bytes per charged entry for operators of
    114 x 60 ((12, 6, 3) joint, e = 3, about 15.7), 12 x 6 ((8, 4, 2) single) and 4 x 2 ((8, 4, 4)
    joint, e = 2), whose heap is mostly per-row and per-operator overhead. At (12, 6, 3) six
    tuples are repaired and three fit the budget."""
    from detcode import Cluster, CodeConfig

    def measure(n, d, m, mode, tuples):
        config = CodeConfig(n=n, d=d, m=m, p=257)
        cluster = Cluster.from_file(random.Random(22).randbytes(240 * config.file_symbols), config)
        decode_operator.cache_clear()
        tracemalloc.start()
        try:
            for failed in tuples:
                saved = {f: cluster.contents[f] for f in failed}
                cluster.fail_nodes(failed)
                cluster.repair(mode, failed)
                assert {f: cluster.contents[f] for f in failed} == saved
                assert decode_operator.cache_info().currsize <= budget
            gc.collect()
            shapes = [(op.rows, op.cols) for op in decode_operator._kept.values()]
            kept, before = decode_operator.cache_info().currsize, tracemalloc.get_traced_memory()[0]
            decode_operator.cache_clear()
            gc.collect()
            retained = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert decode_operator.cache_info().misses == 0
        assert 8 * sum(r * c for r, c in shapes) < retained < 18 * kept  # more than the row tuples alone
        return shapes, kept

    budget = 3 * _charge(6 * 19, 3 * 20)  # three operators of 6 helpers of rank 19 x 3 failures of alpha 20
    monkeypatch.setattr("detcode.repair.OPERATOR_BUDGET", budget)
    tuples = [(1, 5, 9), (2, 4, 10), (3, 7, 11), (1, 6, 12), (2, 8, 12), (3, 5, 10)]
    assert measure(12, 6, 3, "joint", tuples) == ([(114, 60)] * 3, budget)
    singles = [(f,) for f in range(1, 9)]
    assert measure(8, 4, 2, "single", singles) == ([(12, 6)] * 8, 8 * _charge(12, 6))
    pairs = [(5, 6), (5, 7), (6, 8), (1, 2), (3, 8), (2, 7)]
    assert measure(8, 4, 4, "joint", pairs) == ([(4, 2)] * 6, 6 * _charge(4, 2))


def test_joint_repair_packs_each_basis_weights_once(monkeypatch):
    """At (16,10,3) with one stripe, transmit and decompression pack their weights, not the
    short stripe rows: one joint repair packs compress and expand once each, a second none."""
    from detcode import Cluster, CodeConfig, field

    config = CodeConfig(n=16, d=10, m=3, p=257)
    cluster = Cluster.from_file(random.Random(15).randbytes(config.file_symbols), config)
    assert cluster.stripe_count == 1
    failed = (2, 7, 11)
    saved = {f: cluster.contents[f] for f in failed}
    repair_basis.cache_clear()
    packed, pack = [], field.Matrix.packed_rows.func
    monkeypatch.setattr(field.Matrix.packed_rows, "func", lambda weights: packed.append(weights.data) or pack(weights))
    for _ in range(2):
        cluster.fail_nodes(failed)
        event = cluster.repair("joint", failed)
        assert len(event.helpers) == 10 and all(cluster.contents[f] == saved[f] for f in failed)
        compress, expand = repair_basis(cluster.encoder, failed, 3)
        assert list(map(id, packed)) == [id(compress.data), id(expand.data)]


def test_warm_reads_and_repairs_prepare_no_weights(monkeypatch):
    """Once warm, a default read, an explicit d + 1-node read and a joint repair transpose and
    prepare no weights: each is a cached basis or read Matrix (the helpers' read weights decode
    a repair), prepared once."""
    from detcode import Cluster, CodeConfig, field

    config = CodeConfig(n=8, d=4, m=2, p=257)
    data = random.Random(16).randbytes(3 * config.file_symbols)
    cluster = Cluster.from_file(data, config)
    failed, saved, ids = (2, 5), {f: cluster.contents[f] for f in (2, 5)}, (8, 6, 4, 3, 1)

    def run():
        assert cluster.recover_file() == data
        message = recover_data([cluster.contents[i] for i in ids], ids, cluster.encoder, config.m)
        assert message == cluster.recover_stripes()
        cluster.fail_nodes(failed)
        cluster.repair("joint", failed)
        assert all(cluster.contents[f] == saved[f] for f in failed)

    run()
    seen = []

    def spy(label, fn):
        def wrapper(weights):
            seen.append(label)
            return fn(weights)
        return wrapper

    # each runs on a cache miss only
    monkeypatch.setattr(field.Matrix.unit_columns, "func", spy("column view", field.Matrix.unit_columns.func))
    monkeypatch.setattr(field.Matrix.packed_rows, "func", spy("packing", field.Matrix.packed_rows.func))
    monkeypatch.setattr(field.Matrix.T, "func", spy("transpose", field.Matrix.T.func))
    run()
    assert seen == []


@st.composite
def _repair_spaces(draw):
    """(d, m, groups, rows): the d rows (lists or tuples) of e = 1..3 groups of 0-3 plane-major repair spaces, over
    GF(257)."""
    d = draw(st.integers(1, 6))
    m = draw(st.integers(1, d))
    groups = draw(st.integers(1, 3))
    width = draw(st.integers(0, 3)) * groups * binom(d, m - 1)
    rows = [draw(st.lists(st.integers(0, 256), min_size=width, max_size=width)) for _ in range(d)]
    return d, m, groups, [tuple(row) for row in rows] if draw(st.booleans()) else rows  # Matrix rows are tuples


@settings(max_examples=40, deadline=None)
@given(case=_repair_spaces())
def test_combine_repair_space_matches_a_per_label_readout(case):
    """One signed sum over every column label reads out what one scalar signed sum per label does, group after
    group and label after label: column j of group g is the plane of every space from (g * C(d, m-1) + j) * B."""
    d, m, groups, rows = case
    seg, expected = binom(d, m - 1), []
    spaces = len(rows[0]) // (groups * seg)
    for g in range(groups):
        labels = [[] for _ in range(binom(d, m))]
        for i, x, j, sign in incidence(d, m):
            start = (g * seg + j) * spaces
            labels[i].append((sign, rows[x - 1][start : start + spaces]))
        expected += [v for terms in labels for v in signed_sums_scalar(terms, 257)]
    assert list(combine_repair_space(rows, d, m, Field(257), groups)) == expected


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 4), nodes=st.permutations(range(1, 9)), e=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_helper_payloads_match_one_payload_per_group(m, nodes, e, seed):
    """At (8, 4, m) a helper's payloads for e = 1..3 single-failure groups, one product by their compress bases side
    by side, are each group's helper_payload symbol for symbol: on both sides of batch_product's orientation rule
    (0 < S < e * beta and S >= e * beta), and where e * beta exceeds alpha (m = 2, e = 3: 9 > 6). Groups of unequal
    rank raise ValueError; where the ranks agree (m = 4: one failure and two both have rank 1) they split as well."""
    encoder, rng = build_encoder(8, 4, Field(257)), random.Random(seed)
    failed, helper = tuple(nodes[:e]), nodes[e]
    groups = [(f,) for f in failed]
    r, alpha = e * binom(3, m - 1), binom(4, m)
    short = [rng.randint(1, r - 1)] if r > 1 else []
    for stripes in short + [rng.randint(r, 2 * r + 1)]:
        content = StripeBatch([rng.randrange(257) for _ in range(stripes * alpha)], alpha)
        payloads = helper_payloads(content, helper, groups, encoder, m)
        assert payloads == [helper_payload(content, helper, group, encoder, m) for group in groups]
        if e == 3:
            mixed = [failed[:1], failed[1:]]
            if len({repair_basis(encoder, group, m)[0].cols for group in mixed}) > 1:
                with pytest.raises(ValueError, match="one basis rank"):
                    helper_payloads(content, helper, mixed, encoder, m)
            else:
                expected = [helper_payload(content, helper, group, encoder, m) for group in mixed]
                assert helper_payloads(content, helper, mixed, encoder, m) == expected
