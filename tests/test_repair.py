import gc
import random
import sys
import threading
import tracemalloc
from array import array
from collections import OrderedDict
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from detcode.code import BadMode, StripeBatch, build_encoder, build_message_matrix, encode, recover_data
from detcode.field import Field, Matrix
from detcode.repair import (
    OPERATOR_BUDGET,
    OverlapError,
    RepairPayload,
    WrongTarget,
    combine_repair_space,
    decode_failed_nodes,
    decode_operator,
    decode_repair_vectors,
    decompress_payload,
    helper_payload,
    helper_payloads,
    repair_basis,
    repair_matrix,
    transmit_plan,
)
from detcode.subsets import binom, incidence, subsets
from certificates import column_dependency, entry, multi_repair_matrix, shared_symbol
from oracles import column, mul_vec, plane_major, signed_sums_scalar, stripe_rows, unit_lead_pivots, vec_mat


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
            assert tuple(payload.symbols) == unit_lead_pivots(contents8[h - 1][0], xi, pivots)


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
        assert decode_failed_nodes(payloads, helpers, encoder8, (f,), 2)[f] == contents8[f - 1]


def test_zero_data_repairs_to_zero(encoder8, gf13):
    msg = build_message_matrix([0] * 20, 4, 2, gf13)
    contents = encode(encoder8, msg)
    payloads = [helper_payload(contents[h - 1], h, (5,), encoder8, 2) for h in (1, 2, 3, 4)]
    assert decode_failed_nodes(payloads, (1, 2, 3, 4), encoder8, (5,), 2) == {5: StripeBatch([0] * 6, 6)}


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
            assert decode_failed_nodes(payloads, helpers, encoder8, (f,), m)[f] == contents[f - 1]


def test_wrong_target_rejected(encoder8, contents8):
    """Payloads for one failure tuple are refused when decoding another,
    whether the tuples differ in a member, in order or in length."""
    for sent, asked in [((5,), (6,)), ((5, 6), (5, 7)), ((5, 6), (6, 5)), ((5, 6), (5,))]:
        payloads = [
            helper_payload(contents8[h - 1], h, sent, encoder8, 2) for h in (1, 2, 3, 4)
        ]
        with pytest.raises(WrongTarget):
            decode_failed_nodes(payloads, (1, 2, 3, 4), encoder8, asked, 2)


def test_decode_validates_helper_count(encoder8, contents8):
    payloads = [helper_payload(contents8[h - 1], h, (5,), encoder8, 2) for h in (1, 2, 3)]
    with pytest.raises(ValueError):
        decode_failed_nodes(payloads, (1, 2, 3), encoder8, (5,), 2)
    four = [helper_payload(contents8[h - 1], h, (5,), encoder8, 2) for h in (1, 2, 3, 4)]
    for bad in (four[:3], four[::-1], four[:3] + [four[0]]):
        with pytest.raises(ValueError, match="helpers"):
            decode_failed_nodes(bad, (1, 2, 3, 4), encoder8, (5,), 2)


def test_decode_rejects_helpers_that_overlap_the_failed_set(encoder8, contents8):
    """Node 1 cannot help repair itself: refused like Cluster and centralized_repair refuse it."""
    payloads = [helper_payload(contents8[h - 1], h, (1,), encoder8, 2) for h in (1, 2, 3, 4)]
    with pytest.raises(OverlapError, match=r"helpers \[1\] are failed"):
        decode_failed_nodes(payloads, (1, 2, 3, 4), encoder8, (1,), 2)


@pytest.mark.parametrize("bad", [0, 9])
def test_decode_refuses_helper_ids_outside_one_to_n(encoder8, contents8, bad):
    """Node 8's payload under helper id 0 once decoded node 5 right through
    a negative index into the encoder; helper id 9 raised IndexError."""
    payloads = [helper_payload(contents8[7], bad, (5,), encoder8, 2)]
    payloads += [helper_payload(contents8[h - 1], h, (5,), encoder8, 2) for h in (2, 3, 4)]
    with pytest.raises(ValueError, match=rf"node id {bad} not in \[1, 8\]"):
        decode_failed_nodes(payloads, (bad, 2, 3, 4), encoder8, (5,), 2)


def test_decode_rejects_payloads_that_disagree_on_mode(encoder8, contents8):
    payloads = [helper_payload(contents8[h - 1], h, (5,), encoder8, 2) for h in (1, 2, 3, 4)]
    payloads[3] = replace(payloads[3], m=3)
    with pytest.raises(ValueError, match=r"^payload from helper 4 has mode m=3, not the receiver's m=2$"):
        decode_failed_nodes(payloads, (1, 2, 3, 4), encoder8, (5,), 2)


def test_decode_refuses_payloads_relabelled_to_another_mode(encoder8, contents8):
    """Node 5's four m = 2 payloads relabelled m = 3 agree with each other, and once decoded without error to an
    alpha-4 batch that is not node 5, also after a wire round trip: the receiver's m = 2 refuses them."""
    payloads = [replace(helper_payload(contents8[h - 1], h, (5,), encoder8, 2), m=3) for h in (1, 2, 3, 4)]
    for sent in (payloads, [RepairPayload.from_bytes(payload.to_bytes(13), 13) for payload in payloads]):
        assert [payload.m for payload in sent] == [3] * 4
        with pytest.raises(ValueError, match=r"^payload from helper 1 has mode m=3, not the receiver's m=2$"):
            decode_failed_nodes(sent, (1, 2, 3, 4), encoder8, (5,), 2)
        decoded = decode_failed_nodes(sent, (1, 2, 3, 4), encoder8, (5,), 3)[5]  # what the payloads' own mode reads
        assert decoded.alpha == 4 and decoded != contents8[4]


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
        decode_failed_nodes(payloads, (1, 2, 3, 4), encoder8, (5,), m)


def test_decode_rejects_payloads_of_different_stripe_counts(encoder8, contents8):
    """Helper 1 sends two stripes, the others one: decoding refuses the mix."""
    payloads = [
        helper_payload(StripeBatch(contents8[h - 1].symbols * (2 if h == 1 else 1), 6), h, (5,), encoder8, 2)
        for h in (1, 2, 3, 4)
    ]
    assert len(payloads[0].symbols) == 2 * len(payloads[1].symbols)
    with pytest.raises(ValueError):
        decode_failed_nodes(payloads, (1, 2, 3, 4), encoder8, (5,), 2)


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
            assert decode_failed_nodes(payloads, helpers, encoder8, (f,), 2)[f] == contents8[f - 1]


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
        return decode_failed_nodes(payloads, helpers, encoder8, failed, 2)

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


def test_operator_larger_than_the_budget_is_kept_alone(gf13, encoder8, monkeypatch):
    """A decode operator of more entries than the whole budget decodes and is kept alone, so the
    next decode of its tuple finds it; a new result evicts it, and it is built again after that."""
    contents, helpers = _operator_batches(gf13, encoder8, 40), (1, 2, 3, 4)
    size = _charge(4 * 5, 2 * 6)  # (5, 6): 4 helpers of rank 5 x 2 failures of alpha 6
    decode_operator.cache_clear()
    steps = [
        (size - 1, (5, 6), (0, 1, size)),  # kept alone, over the budget
        (size - 1, (5, 6), (1, 1, size)),  # found, not built again
        (size - 1, (5,), (1, 2, _charge(4 * 3, 6))),  # evicts the larger operator
        (size - 1, (5, 6), (1, 3, size)),  # built again, alone
        (size, (5, 6), (2, 3, size)),  # fits the budget exactly
    ]
    for budget, failed, (hits, misses, kept) in steps:
        monkeypatch.setattr("detcode.repair.OPERATOR_BUDGET", budget)
        payloads = [helper_payload(contents[h - 1], h, failed, encoder8, 2) for h in helpers]
        assert decode_failed_nodes(payloads, helpers, encoder8, failed, 2) == {f: contents[f - 1] for f in failed}
        assert decode_operator.cache_info() == (hits, misses, budget, kept)


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
            decoded = decode_failed_nodes(payloads, helpers, encoder8, failed, 2)
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
                if decode_failed_nodes(payloads[failed], helpers, encoder8, failed, 2) != {f: contents[f - 1] for f in failed}:
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


def _parts(value):
    """The Matrices of a kept result: the one Matrix, or those of each part of a tuple (a basis, a transmit plan)."""
    if isinstance(value, tuple):
        return [w for part in value for w in _parts(part)]
    return [value] if isinstance(value, Matrix) else []


def _kept_charge(value):
    """Budget entries a kept result is charged: a Matrix by its shape, a tuple the sum of its parts, anything else (a
    transmit plan's plane index, its absent weights) one."""
    if isinstance(value, tuple):
        return sum(map(_kept_charge, value))
    return _charge(value.rows, value.cols) if isinstance(value, Matrix) else 1


def test_kept_bases_retain_less_heap_than_the_budget_estimate():
    """The heap kept bases and transmit plans retain with both kernel preparations of every Matrix
    (unit columns and packed rows), keys included, measured by tracemalloc around clearing each
    cache, stays under 22 bytes per charged entry (about 11.7 to 19.1) at (8, 4, 2), (12, 6, 3)
    and (16, 10, 3) with e <= 3: about 11 MiB at the budget. The plans are of stacked groups,
    systematic and parity ones side by side or parity ones alone, whose weights are their own."""

    def prepare(encoder, m, tuples, groupsets):
        for failed in tuples:
            for weights in repair_basis(encoder, failed, m):
                assert weights.unit_columns and weights.packed_rows
        for groups in groupsets:
            weights = transmit_plan(encoder, groups, m).weights
            assert weights.unit_columns and weights.packed_rows

    def measure(n, d, m, tuples, groupsets):
        encoder = build_encoder(n, d, Field(257))
        caches = (transmit_plan, repair_basis)  # plans are built from bases, and cleared first
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            prepare(encoder, m, tuples, groupsets)
            gc.collect()
            for cache in caches:
                entries = sum(w.rows * w.cols for value in cache._kept.values() for w in _parts(value))
                kept, before = cache.cache_info().currsize, tracemalloc.get_traced_memory()[0]
                assert kept == sum(map(_kept_charge, cache._kept.values())) <= OPERATOR_BUDGET
                cache.cache_clear()
                gc.collect()
                retained = before - tracemalloc.get_traced_memory()[0]
                assert 8 * entries < retained < 22 * kept, (n, d, m, cache.__name__, retained / kept)
        finally:
            tracemalloc.stop()

    measure(8, 4, 2, [(1,), (5,), (1, 2), (5, 6), (2, 5, 7)], [((1,), (5,)), ((5,), (6,), (7,))])
    measure(12, 6, 3, [(1,), (8,), (2, 9), (1, 5, 9)], [((1,), (8,)), ((7,), (8,), (9,))])
    measure(16, 10, 3, [(1,), (2, 13), (2, 7, 10)], [((1,), (12,)), ((11,), (12,), (13,))])


class _Lookups(OrderedDict):
    """A cache's kept results that record every key looked up and the charge of every result kept."""

    def __init__(self):
        super().__init__()
        self.keys, self.charges = [], {}

    def get(self, key, default=None):
        self.keys.append(key)
        return super().get(key, default)

    def __setitem__(self, key, value):
        self.charges[key] = _kept_charge(value)
        super().__setitem__(key, value)


def _least_recently_used(keys, charges, budget):
    """The keys a least-recently-used cache keeps after looking up *keys*, oldest first: a new key evicts the
    oldest until the charges fit *budget* or it is alone."""
    kept = OrderedDict()
    for key in keys:
        if key in kept:
            kept.move_to_end(key)
            continue
        kept[key] = charges[key]
        while sum(kept.values()) > budget and len(kept) > 1:
            kept.popitem(last=False)
    return list(kept)


def test_kept_bases_follow_least_recently_used_order_within_the_budget(gf13, encoder8, monkeypatch):
    """Repairing more distinct tuples than fit a small budget, in every mode: each repair is exact,
    the bases and stacked bases kept are those a least-recently-used cache of the charged entries
    keeps (compress plus expand for a basis), in that order, within the budget, and some were
    evicted and built again."""
    from detcode.multirepair import repair_nodes

    contents, budget = _operator_batches(gf13, encoder8, 48), 600
    monkeypatch.setattr("detcode.repair.OPERATOR_BUDGET", budget)
    caches = (repair_basis, transmit_plan)
    try:
        for cache in caches:
            cache.cache_clear()
            monkeypatch.setattr(cache, "_kept", _Lookups())
        plan = [
            ("single", (5,)), ("joint", (5, 6)), ("naive", (5, 6)), ("centralized", (5, 6, 7)),
            ("joint", (6, 7)), ("naive", (6, 7)), ("naive", (7, 8)), ("naive", (5, 8)),
            ("naive", (5, 6, 7)), ("single", (5,)), ("joint", (1, 2)), ("naive", (5, 6)),
        ]
        for mode, failed in plan:
            helpers = tuple(h for h in range(1, 9) if h not in failed)[:4]
            rebuilt, _ = repair_nodes(mode, failed, helpers, lambda h: contents[h - 1], encoder8, 2)
            assert rebuilt == {f: contents[f - 1] for f in failed}
            for cache in caches:
                kept = cache._kept
                assert list(kept) == _least_recently_used(kept.keys, kept.charges, budget)
                assert cache.cache_info().currsize == sum(kept.charges[key] for key in kept) <= budget
        for cache in caches:
            info = cache.cache_info()
            assert info.hits + info.misses == len(cache._kept.keys) and info.misses > len(set(cache._kept.keys))
    finally:
        for cache in caches:
            cache.cache_clear()


def test_basis_larger_than_the_budget_is_built_once(gf13, encoder8, monkeypatch):
    """A failure tuple whose basis charges more than the whole budget is kept alone: three joint
    repairs of it build it once. Each repair looks it up once per helper (the payload's shape, whose
    expand the factored decode reuses) and no more; the transmit plan's one build looks it up once."""
    from detcode.multirepair import repair_nodes

    contents, failed, helpers = _operator_batches(gf13, encoder8, 8), (5, 6, 7), (1, 2, 3, 4)
    size = _kept_charge(repair_basis(encoder8, failed, 2))
    monkeypatch.setattr("detcode.repair.OPERATOR_BUDGET", size - 1)
    repair_basis.cache_clear()
    transmit_plan.cache_clear()
    for _ in range(3):
        rebuilt, _ = repair_nodes("joint", failed, helpers, lambda h: contents[h - 1], encoder8, 2)
        assert rebuilt == {f: contents[f - 1] for f in failed}  # 8 stripes: the factored decode
    assert repair_basis.cache_info() == (3 * 4, 1, size - 1, size)
    assert transmit_plan.cache_info()[:2] == (3 * 4 - 1, 1)


def test_joint_repair_packs_each_basis_weights_once(monkeypatch):
    """At (16,10,3) with one stripe, transmit and decompression pack their weights, not the
    short stripe rows: one joint repair of two systematic nodes and a parity one packs the transmit
    plan's weights (compress on the planes and columns that are not plane copies) and expand once
    each, a second none."""
    from detcode import Cluster, CodeConfig, field

    config = CodeConfig(n=16, d=10, m=3, p=257)
    cluster = Cluster.from_file(random.Random(15).randbytes(config.file_symbols), config)
    assert cluster.stripe_count == 1
    failed = (2, 7, 11)
    saved = {f: cluster.contents[f] for f in failed}
    repair_basis.cache_clear()
    transmit_plan.cache_clear()
    packed, pack = [], field.Matrix.packed_rows.func
    monkeypatch.setattr(field.Matrix.packed_rows, "func", lambda weights: packed.append(weights.data) or pack(weights))
    for _ in range(2):
        cluster.fail_nodes(failed)
        event = cluster.repair("joint", failed)
        assert len(event.helpers) == 10 and all(cluster.contents[f] == saved[f] for f in failed)
        weights, expand = transmit_plan(cluster.encoder, (failed,), 3).weights, repair_basis(cluster.encoder, failed, 3)[1]
        assert weights.shape == (98, 85 - 64)  # the 21 parity columns read 98 of the 120 planes
        assert list(map(id, packed)) == [id(weights.data), id(expand.data)]


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


def _unit_lead_cases():
    """(encoder, failed, m): every failure tuple of at most 3 nodes at (8, 4, m), m = 1..4, over GF(13), then a
    sample at (12, 6, 3) over GF(257). Nodes 1..d are the systematic ones."""
    small, large = build_encoder(8, 4, Field(13)), build_encoder(12, 6, Field(257))
    for m in range(1, 5):
        for e in range(1, 4):
            for failed in combinations(range(1, 9), e):
                yield small, failed, m
    for failed in [(2,), (12,), (1, 2), (2, 7), (7, 12), (1, 2, 3), (2, 5, 6), (4, 6, 11), (7, 9, 12), (1, 6, 12)]:
        yield large, failed, 3


def test_repair_basis_is_the_unit_lead_factorization():
    """compress @ expand is the paper's repair matrix of the tuple, every compress column leads with 1, and a tuple
    of systematic nodes has only unit compress columns: its helpers send stored symbols unchanged. About 0.1 s."""
    for encoder, failed, m in _unit_lead_cases():
        compress, expand = repair_basis(encoder, failed, m)
        assert compress @ expand == multi_repair_matrix(failed, m, encoder), (encoder.n, failed, m)
        columns, units = compress.unit_columns
        assert all(next(v for v in col if v) == 1 for col in columns), (encoder.n, failed, m)
        if max(failed) <= encoder.d:
            assert None not in units, (encoder.n, failed, m)


def test_systematic_transmit_runs_no_multiply_add(monkeypatch):
    """On a batch of at least rank stripes, helper_payloads of a systematic tuple, as one group or one group per
    node, calls the kernel's multiply-add (field._combine) not at all: every output plane is a copy of a stored
    plane, the oracle's unit-lead symbols. A tuple whose basis has a column that is not a unit column calls it, and
    every single parity failure below m = d has one. About 0.3 s."""
    from detcode import field

    calls, combine = [], field._combine
    monkeypatch.setattr(field, "_combine", lambda *args: calls.append(1) or combine(*args))
    rng = random.Random(38)
    for encoder, failed, m in _unit_lead_cases():
        compress, _ = repair_basis(encoder, failed, m)
        systematic, units = max(failed) <= encoder.d, compress.unit_columns[1]
        for served in [(failed,), tuple((f,) for f in failed)] if systematic else [(failed,)]:
            stripes = sum(repair_basis(encoder, group, m)[0].cols for group in served)
            batch = StripeBatch([rng.randrange(encoder.field.p) for _ in range(stripes * compress.rows)], compress.rows)
            calls.clear()
            payloads = helper_payloads(batch, encoder.n, served, encoder, m)
            assert bool(calls) == (None in units and len(served) == 1) and not (calls and systematic), (encoder.n, served, m)
            for group, payload in zip(served, payloads if systematic else []):
                xi = multi_repair_matrix(group, m, encoder)
                expected = [unit_lead_pivots(row, xi, xi.pivot_columns()[0]) for row in stripe_rows(batch.symbols, batch.alpha)]
                assert list(payload.symbols) == plane_major(expected), (encoder.n, group, m)
        if len(failed) == 1 and not systematic and m < encoder.d:
            assert None in units, (encoder.n, failed, m)


@pytest.mark.parametrize("mode", ["single", "naive", "joint", "centralized"])
@pytest.mark.parametrize("stripes", [1, 200])
@pytest.mark.parametrize("n, d, m", [(12, 6, 3), (8, 4, 1)])
def test_plane_sent_as_stored_is_range_checked_by_the_receiver(n, d, m, stripes, mode):
    """A helper sends the planes of its unit columns as stored, unchecked; the receiver's product (the factored decode
    at 1 stripe, the decode operator at 200) range-checks every received symbol. With 257 in such a plane of the
    first helper, Cluster.repair raises ValueError, every failed node stays None and the ledger records no event: a
    declared error, not a wrong rebuild."""
    from detcode import Cluster, CodeConfig

    config = CodeConfig(n=n, d=d, m=m, p=257)
    cluster = Cluster.from_file(random.Random(41).randbytes(stripes * config.file_symbols), config)
    assert cluster.stripe_count == stripes
    failed = (2,) if mode == "single" else (1, 3)  # systematic: every compress column is a unit column
    cluster.fail_nodes(failed)
    helper = cluster.alive()[0]  # the first default helper, slot 1 in centralized
    served = {"naive": tuple((f,) for f in failed), "centralized": (failed[:1],)}.get(mode, (failed,))
    copied = {unit for group in served for unit in repair_basis(cluster.encoder, group, m)[0].unit_columns[1]}
    assert None not in copied
    cluster.contents[helper].symbols[min(copied) * stripes + stripes // 2] = 257
    looked_up = sum(decode_operator.cache_info()[:2])
    with pytest.raises(ValueError, match="out of field range"):
        cluster.repair(mode, failed)
    assert all(cluster.contents[f] is None for f in failed) and cluster.ledger.events == []
    assert (sum(decode_operator.cache_info()[:2]) > looked_up) == (stripes > 1)  # which decode checked it


@pytest.mark.parametrize("stripes", [1, 228])
def test_plane_the_joint_operator_does_not_read_is_range_checked(stripes):
    """The joint operator of (2, 7, 11) at (12, 6, 3), p = 257, from helpers 1, 4, 5, 8, 9, 12 takes the centralized
    form: the last payload fills slot 1, so the operator weighs its planes past beta_1 by zero. With 257 in the last
    payload's last plane, decode_failed_nodes raises ValueError and returns nothing, at 1 stripe (the factored decode)
    and at 228, twice the operator's 114 rows (the operator): the kernel range-checks every received symbol, weighed
    or not, so a product that dropped zero rows would fail here."""
    field = Field(257)
    encoder, failed, helpers, m = build_encoder(12, 6, field), (2, 7, 11), (1, 4, 5, 8, 9, 12), 3
    rank = repair_basis(encoder, failed, m)[0].cols
    operator = decode_operator(decode_repair_vectors, encoder, failed, tuple((h, failed, rank) for h in helpers), m)
    assert operator.shape == (114, 60) and not any(operator.data[-1]) and sum(map(any, operator.data)) == 102
    rng = random.Random(45)
    contents = encode(encoder, build_message_matrix([rng.randrange(257) for _ in range(stripes * 105)], 6, m, field))
    payloads = [helper_payload(contents[h - 1], h, failed, encoder, m) for h in helpers]
    assert decode_failed_nodes(payloads, helpers, encoder, failed, m) == {f: contents[f - 1] for f in failed}
    payloads[-1].symbols[-1] = 257  # the last stripe's symbol in the last plane
    hits = decode_operator.cache_info().hits
    with pytest.raises(ValueError, match="out of field range"):
        decode_failed_nodes(payloads, helpers, encoder, failed, m)
    assert decode_operator.cache_info().hits - hits == (stripes > 1)  # which decode checked it


def test_transmit_hands_the_kernel_only_the_planes_its_other_columns_read(monkeypatch):
    """At (16, 10, 3) with 3 stripes, each helper of a systematic single repair hands batch_product no plane and sends
    its 36 planes as stored; of a parity single repair, all 120 planes; of a joint repair of a systematic and a parity
    node, exactly the planes that compress's columns other than unit columns (the parity node's) read. Each repair is
    exact."""
    from detcode import Cluster, CodeConfig, repair

    config = CodeConfig(n=16, d=10, m=3, p=257)
    cluster = Cluster.from_file(random.Random(42).randbytes(3 * config.file_symbols), config)
    handed, inside, product, transmit = [], [], repair.batch_product, repair.helper_payloads

    def counted_product(parts, weights, blocks=1):
        if inside:
            handed[-1] += sum(width for _, width in parts)
        return product(parts, weights, blocks)

    def counted_transmit(*args):
        inside.append(True)
        handed.append(0)
        try:
            return transmit(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(repair, "batch_product", counted_product)
    monkeypatch.setattr(repair, "helper_payloads", counted_transmit)
    for failed, rank in [((2,), 36), ((13,), 36), ((2, 13), 64)]:
        columns, units = repair_basis(cluster.encoder, failed, 3)[0].unit_columns
        read = {i for column, unit in zip(columns, units) if unit is None for i, v in enumerate(column) if v}
        assert len(read) == {(2,): 0, (13,): 120}.get(failed, 112)
        saved = {f: cluster.contents[f] for f in failed}
        handed.clear()
        cluster.fail_nodes(failed)
        event = cluster.repair("single" if len(failed) == 1 else "joint", failed)
        assert all(cluster.contents[f] == saved[f] for f in failed)
        assert handed == [len(read)] * 10 and list(event.symbols_by_helper.values()) == [3 * rank] * 10


def test_transmit_payloads_hold_field_words():
    """A helper's payloads are arrays of the field's symbol_typecode whatever its batch holds: a batch of small
    symbols at p = 2**61 - 1 (array('I')) sends 'Q' planes, as stored and as products, and a batch holding a value
    past 2**32 at p = 257 (array('Q')) raises ValueError."""
    rng = random.Random(43)
    wide = build_encoder(8, 4, Field(2**61 - 1))
    batch = StripeBatch([rng.randrange(256) for _ in range(6 * 7)], 6)
    assert batch.symbols.typecode == "I"
    for groups in [((2,),), ((2,), (7,)), ((2, 7),), ((7,),)]:
        payloads = helper_payloads(batch, 1, groups, wide, 2)
        assert [p.symbols.typecode for p in payloads] == ["Q"] * len(groups)
        oracle = [helper_payload(StripeBatch(array("Q", batch.symbols), 6), 1, group, wide, 2) for group in groups]
        assert [list(p.symbols) for p in payloads] == [list(p.symbols) for p in oracle]
    with pytest.raises(ValueError, match="out of field range"):
        helper_payloads(StripeBatch([1 << 40] + [0] * 41, 6), 1, ((2,),), build_encoder(8, 4, Field(257)), 2)


@pytest.mark.parametrize("stripes", [1, 48])
def test_payload_built_with_a_list_of_failed_ids_decodes(gf13, encoder8, stripes):
    """RepairPayload keeps its failed ids as a tuple, whatever sequence it is given: at (8, 4, 2), payloads for (1, 2)
    built with lists equal the ones built with tuples, give identical to_bytes output and decode exactly, with the
    failed and helper ids of decode_failed_nodes given as lists too, by the factored decode (1 stripe) and by the
    decode operator (48)."""
    rng = random.Random(43 + stripes)
    contents = encode(encoder8, build_message_matrix([rng.randrange(13) for _ in range(20 * stripes)], 4, 2, gf13))
    helpers = [3, 4, 5, 6]
    sent = [helper_payload(contents[h - 1], h, (1, 2), encoder8, 2) for h in helpers]
    listed = [RepairPayload([1, 2], payload.helper, 2, payload.symbols) for payload in sent]
    assert listed == sent and all(type(payload.failed) is tuple for payload in listed)
    assert [payload.to_bytes(13) for payload in listed] == [payload.to_bytes(13) for payload in sent]
    assert [decompress_payload(payload, encoder8) for payload in listed] == [decompress_payload(p, encoder8) for p in sent]
    assert decode_failed_nodes(listed, helpers, encoder8, [1, 2], 2) == {1: contents[0], 2: contents[1]}


# SHA-256 of repr(rows) of each decode operator at (8, 4, 2), p = 257, as the decoders before the one-signature
# contract built it: a change of the decode's composition must leave the compiled map exactly as it was. The joint
# operator takes the centralized form, read from the prefix planes (44 weights on 18 of its 20 rows, not 66 on 20).
OPERATOR_DIGESTS = [
    ("single", (8,), (8,), (1, 2, 3, 4), (12, 6), "b01c1f864e5771c2031b6767c652e8ee800aec3501215c85b312dff10e9f9849"),
    ("joint", (1, 5), (1, 5), (2, 3, 4, 6), (20, 12), "6b680ab20c4efba25275edb0666dfebad113d9cd8f27d21aa39419b2fa9ef21f"),
    ("naive", (1, 5), (5,), (2, 3, 4, 6), (12, 6), "64f420f6fd9cf4690de0002174a5416bbcabe2b27398b9d40d47eeac96714552"),
    ("centralized", (1, 5), (1, 5), (2, 3, 4, 6), (18, 12), "33b1dab9cc97d0766e0bcba8f7f0e883204ddfd5d139315e91b903ddc6a3d31b"),
]


@pytest.mark.parametrize("mode, failed, group, helpers, shape, digest", OPERATOR_DIGESTS)
def test_compiled_decode_operators_are_pinned(mode, failed, group, helpers, shape, digest):
    """Cluster.repair at (8, 4, 2), p = 257, with 48 stripes (at least twice every operator's rows here) builds the
    decode operator of *group* from *helpers* with exactly the pinned rows, and the repair is exact."""
    import hashlib

    from detcode import Cluster, CodeConfig

    config = CodeConfig(n=8, d=4, m=2, p=257)
    cluster = Cluster.from_file(random.Random(44).randbytes(48 * config.file_symbols), config)
    saved = {f: cluster.contents[f] for f in failed}
    cluster.fail_nodes(failed)
    decode_operator.cache_clear()
    cluster.repair(mode, failed, helpers)
    assert {f: cluster.contents[f] for f in failed} == saved
    [operator] = [op for key, op in decode_operator._kept.items() if key[2] == group]
    assert operator.shape == shape
    assert hashlib.sha256(repr(operator.data).encode()).hexdigest() == digest
