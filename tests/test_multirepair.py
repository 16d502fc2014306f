import random
from fractions import Fraction
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from detcode.code import StripeBatch, build_encoder, build_message_matrix, encode
from detcode.field import Field, Matrix
from detcode.multirepair import (
    OverlapError,
    TooManyFailures,
    centralized_repair,
    helper_bound,
)
from detcode import multirepair, repair
from detcode.multirepair import decode_centralized
from detcode.repair import (
    RepairPayload,
    WrongTarget,
    decode_factored,
    decode_failed_nodes,
    decode_operator,
    decode_repair_vectors,
    decompress_payload,
    helper_payload,
    repair_basis,
    repair_matrix,
)
from detcode.subsets import binom, subsets

from certificates import (
    multi_repair_matrix,
    null_space_matrix,
    per_helper_bandwidth,
    supercode_helper_totals,
    supercode_schedule,
    total_bandwidth,
)
from oracles import brute_rank, column, is_zero, mul_vec, plane_major, unit_lead_pivots, vec_mat


# --- bandwidth formulas --------------------------------------------------


def test_joint_bandwidth_reduces_to_single():
    for d in range(2, 12):
        for m in range(1, d + 1):
            assert helper_bound(d, m, 1, "joint") == binom(d - 1, m - 1)


def test_joint_bandwidth_goldens():
    assert helper_bound(10, 3, 2, "joint") == 64
    assert helper_bound(10, 3, 8, "joint") == 120
    assert helper_bound(4, 2, 2, "joint") == 5


def test_centralized_bandwidth_goldens():
    assert helper_bound(10, 3, 2, "centralized") == Fraction(306, 5)
    assert helper_bound(10, 3, 8, "centralized") == 99  # file size over d, saturated
    for d in range(2, 12):
        for m in range(1, d + 1):
            assert helper_bound(d, m, 1, "centralized") == binom(d - 1, m - 1)


def test_bandwidth_monotonicity_and_caps():
    for d in range(2, 13):
        for m in range(1, d + 1):
            alpha = binom(d, m)
            prev = 0
            for e in range(1, d + 1):
                value = helper_bound(d, m, e, "joint")
                assert prev <= value <= alpha
                prev = value
                assert helper_bound(d, m, e, "centralized") / alpha <= Fraction(
                    m * (d + 1), d * (m + 1)
                )


def test_helper_bound_is_each_modes_binomial_closed_form():
    """helper_bound against the paper's closed forms, computed here by math.comb, for every
    mode, d <= 12, 1 <= m <= d and 1 <= e <= d (e = 1 for single)."""
    for d in range(1, 13):
        for m in range(1, d + 1):
            beta = comb(d - 1, m - 1)
            assert helper_bound(d, m, 1, "single") == beta
            for e in range(1, d + 1):
                assert helper_bound(d, m, e, "naive") == e * beta
                assert helper_bound(d, m, e, "joint") == comb(d, m) - comb(d - e, m)
                assert helper_bound(d, m, e, "centralized") == Fraction(m * (comb(d + 1, m + 1) - comb(d - e + 1, m + 1)), d)


def test_total_download_telescopes():
    """Sequential total equals the closed form for every (d, m, e)."""
    for d in range(1, 13):
        for m in range(1, d + 1):
            for e in range(1, d + 1):
                total = sum(helper_bound(d, m, j, "joint") for j in range(1, e + 1))
                total += (d - e) * helper_bound(d, m, e, "joint")
                assert total == m * (binom(d + 1, m + 1) - binom(d - e + 1, m + 1))
                assert Fraction(total, d) == helper_bound(d, m, e, "centralized")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_helper_bound_is_exact(gf13, data):
    """Measured traffic meets helper_bound with equality at GF(13), d <= 6: every helper
    of a single, naive or joint repair sends helper_bound times the stripes, and the
    helpers of a centralized repair send d times that in all."""
    from detcode import Cluster, CodeConfig

    d = data.draw(st.integers(1, 6), label="d")
    m = data.draw(st.integers(1, d), label="m")
    mode = data.draw(st.sampled_from(["single", "naive", "joint", "centralized"]), label="mode")
    e = 1 if mode == "single" else data.draw(st.integers(1, d if mode == "centralized" else 12 - d), label="e")
    n = data.draw(st.integers(d + e, 12), label="n")
    stripes = data.draw(st.integers(1, 3), label="stripes")
    failed = tuple(data.draw(st.permutations(range(1, n + 1)), label="order")[:e])
    config = CodeConfig(n=n, d=d, m=m, p=13)
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    cluster = Cluster.build(config, build_message_matrix([rng.randrange(13) for _ in range(stripes * config.file_symbols)], d, m, gf13))
    saved = {f: cluster.contents[f] for f in failed}
    cluster.fail_nodes(failed)
    event = cluster.repair(mode, failed)
    assert {f: cluster.contents[f] for f in failed} == saved
    bound = helper_bound(d, m, e, mode) * stripes
    if mode == "centralized":
        assert event.total == d * bound
    else:
        assert set(event.symbols_by_helper.values()) == {bound}
    assert cluster.ledger.within_bounds(config)


@pytest.mark.parametrize("mode", ["single", "naive", "joint", "centralized"])
def test_helper_bound_refuses_no_failure_in_every_mode(mode):
    """Every mode's bound, and so the ledger's check, needs at least one failure."""
    for e in (0, -1):
        with pytest.raises(ValueError, match=f"need at least one failure, got e={e}"):
            helper_bound(4, 2, e, mode)
    with pytest.raises(ValueError, match="need at least one failure, got e=0"):
        multirepair.within_bound(4, 2, mode, (), 1, {1: 5})


def test_helper_bound_prices_single_mode_at_one_failure_only():
    """check_request refuses single mode with more than one failure, so its bound, the bandwidth table and the
    ledger's check refuse such a repair too, instead of pricing it at e * beta."""
    assert helper_bound(4, 2, 1, "single") == 3
    assert multirepair.bandwidth_table(4, 2, 1, "single") == [(1, "single", 3, Fraction(1, 2))]
    for e in (2, 3):
        with pytest.raises(ValueError, match=rf"^single mode repairs exactly one node, got e={e}$"):
            helper_bound(4, 2, e, "single")
    with pytest.raises(ValueError, match=r"^single mode repairs exactly one node, got e=2$"):
        multirepair.bandwidth_table(4, 2, 2, "single")
    with pytest.raises(ValueError, match=r"^single mode repairs exactly one node, got e=2$"):
        multirepair.within_bound(4, 2, "single", (1, 2), 1, dict.fromkeys((3, 4, 5, 6), 3))


def test_helper_bound_refuses_an_unknown_mode():
    from detcode import BandwidthLedger, CodeConfig, RepairEvent, bandwidth_table

    with pytest.raises(ValueError, match="unknown mode 'bulk'"):
        helper_bound(4, 2, 1, "bulk")
    with pytest.raises(ValueError, match="unknown mode 'bulk'"):
        bandwidth_table(4, 2, 1, "bulk")
    ledger = BandwidthLedger([RepairEvent("bulk", (5,), (1, 2, 3, 4), 1, dict.fromkeys((1, 2, 3, 4), 3))])
    with pytest.raises(ValueError, match="unknown mode 'bulk'"):
        ledger.within_bounds(CodeConfig(n=8, d=4, m=2, p=13))


# --- concatenated repair matrix ------------------------------------------


def test_concatenation_structure(encoder8):
    xi = multi_repair_matrix((5, 6), 2, encoder8)
    assert xi.shape == (6, 8)
    left = repair_matrix(5, 2, encoder8)
    right = repair_matrix(6, 2, encoder8)
    assert xi.submatrix(range(6), range(4)) == left
    assert xi.submatrix(range(6), range(4, 8)) == right


def test_single_failure_concatenation_is_plain_matrix(encoder8):
    assert multi_repair_matrix((5,), 2, encoder8) == repair_matrix(5, 2, encoder8)


def test_two_failure_rank_is_five(encoder8):
    """Elimination and the minor-search oracle agree on rank 5 for the 6x8 case."""
    xi = multi_repair_matrix((5, 6), 2, encoder8)
    assert xi.rank() == 5
    assert brute_rank(xi) == 5


def test_rank_bound_sweep(encoder8):
    for m in (1, 2, 3, 4):
        for e in range(1, 5):
            for failed in combinations((5, 6, 7, 8), e):
                xi = multi_repair_matrix(failed, m, encoder8)
                assert xi.rank() <= helper_bound(4, m, e, "joint")


# --- null-space certificate ----------------------------------------------


def test_certificate_golden_entries(encoder8):
    cert = null_space_matrix((5, 6), 2, encoder8)
    assert cert.anchor == (1, 2)
    assert cert.row_labels == ((3, 4),)
    p5, p6 = encoder8.row(5), encoder8.row(6)
    cols = subsets(4, 2)
    expected = {
        (1, 2): p5[3] * p6[2] - p5[2] * p6[3],
        (1, 3): p5[1] * p6[3] - p5[3] * p6[1],
        (1, 4): p5[2] * p6[1] - p5[1] * p6[2],
        (2, 3): p5[3] * p6[0] - p5[0] * p6[3],
        (2, 4): p5[0] * p6[2] - p5[2] * p6[0],
        (3, 4): p5[1] * p6[0] - p5[0] * p6[1],
    }
    for label, value in expected.items():
        assert cert.matrix[0, cols.rank(label)] == value % 13


def test_certificate_annihilates_each_column(encoder8):
    cert = null_space_matrix((5, 6), 2, encoder8)
    xi = multi_repair_matrix((5, 6), 2, encoder8)
    for j in range(xi.cols):
        col = column(xi, j)
        assert all(v == 0 for v in mul_vec(cert.matrix, col))


def test_certificate_sweep(encoder8):
    for m in (1, 2, 3, 4):
        for e in range(1, 5):
            for failed in combinations((5, 6, 7, 8), e):
                cert = null_space_matrix(failed, m, encoder8)
                assert cert.matrix.shape == (binom(4 - e, m), binom(4, m))
                assert cert.matrix.rank() == binom(4 - e, m)
                xi = multi_repair_matrix(failed, m, encoder8)
                assert is_zero(cert.matrix @ xi)


def test_certificate_spot_check_d6():
    enc = build_encoder(10, 6, Field(11))
    for e in (1, 2, 3):
        for failed in [tuple(range(7, 7 + e)), tuple(range(1, 1 + e))]:
            cert = null_space_matrix(failed, 3, enc)
            assert cert.matrix.rank() == binom(6 - e, 3)
            xi = multi_repair_matrix(failed, 3, enc)
            assert is_zero(cert.matrix @ xi)
            assert xi.rank() <= helper_bound(6, 3, e, "joint")


def test_certificate_empty_when_all_helpers_fail(encoder8):
    cert = null_space_matrix((5, 6, 7, 8), 2, encoder8)
    assert cert.matrix.shape == (0, 6)
    assert helper_bound(4, 2, 4, "joint") == 6  # saturation at full node size


def test_too_many_failures(encoder8):
    with pytest.raises(TooManyFailures):
        null_space_matrix((1, 2, 3, 4, 5), 2, encoder8)


# --- joint payloads -------------------------------------------------------


def test_joint_payload_size_and_roundtrip(gf13, encoder8, contents8):
    """Every failure tuple of (8, 4) at every mode: each helper sends exactly
    beta_e symbols, which expand to its content times the paper's matrix."""
    failed = (5, 6)
    xi = multi_repair_matrix(failed, 2, encoder8)
    for h in (1, 2, 3, 4):
        payload = helper_payload(contents8[h - 1], h, failed, encoder8, 2)
        assert len(payload.symbols) == 5
        full = decompress_payload(payload, encoder8)
        assert list(full) == vec_mat(contents8[h - 1][0], xi)
    rng = random.Random(77)
    for m in range(1, 5):
        msg = build_message_matrix([rng.randrange(13) for _ in range(m * binom(5, m + 1))], 4, m, gf13)
        contents = encode(encoder8, msg)
        for e in range(1, 5):
            for failed in combinations(range(1, 9), e):
                xi = multi_repair_matrix(failed, m, encoder8)
                for h in (h for h in range(1, 9) if h not in failed):
                    payload = helper_payload(contents[h - 1], h, failed, encoder8, m)
                    assert len(payload.symbols) == helper_bound(4, m, e, "joint")
                    full = decompress_payload(payload, encoder8)
                    assert list(full) == vec_mat(contents[h - 1][0], xi), (m, failed, h)


def test_joint_payload_single_failure_matches_plain(encoder8, contents8):
    """At e = 1 the payload is the single-failure repair vector at the pivot
    columns of the plain repair matrix, each divided by its column's leading
    entry, beta symbols."""
    payload = helper_payload(contents8[0], 1, (5,), encoder8, 2)
    xi = repair_matrix(5, 2, encoder8)
    pivots, _ = xi.pivot_columns()
    assert tuple(payload.symbols) == unit_lead_pivots(contents8[0][0], xi, pivots)
    assert len(payload.symbols) == binom(3, 1)


def test_segment_extraction_matches_single_payload(encoder8, contents8):
    """Each failure's segment of a decompressed joint vector is that
    failure's own decompressed vector."""
    joint = decompress_payload(helper_payload(contents8[2], 3, (5, 7), encoder8, 2), encoder8)
    for idx, f in enumerate((5, 7)):
        single = decompress_payload(helper_payload(contents8[2], 3, (f,), encoder8, 2), encoder8)
        assert joint[idx * 4 : (idx + 1) * 4] == single


def test_joint_decode_equals_single_repairs(encoder8, contents8):
    failed = (5, 8)
    helpers = (1, 2, 3, 4)
    payloads = [
        helper_payload(contents8[h - 1], h, failed, encoder8, 2) for h in helpers
    ]
    decoded = decode_failed_nodes(payloads, helpers, encoder8, failed, 2)
    assert decoded[5] == contents8[4]
    assert decoded[8] == contents8[7]


def test_joint_repair_every_failure_pair(encoder8, contents8):
    for failed in combinations(range(1, 9), 2):
        helpers = tuple(h for h in range(1, 9) if h not in failed)[:4]
        payloads = [
            helper_payload(contents8[h - 1], h, failed, encoder8, 2)
            for h in helpers
        ]
        assert all(len(p.symbols) <= 5 for p in payloads)
        decoded = decode_failed_nodes(payloads, helpers, encoder8, failed, 2)
        for f in failed:
            assert decoded[f] == contents8[f - 1]


def test_joint_repair_all_modes(gf13, encoder8):
    """Joint two-failure repair stays exact at every trade-off mode."""
    rng = random.Random(55)
    failed = (6, 8)
    helpers = (1, 3, 5, 7)
    for m in range(1, 5):
        file_symbols = m * binom(5, m + 1)
        msg = build_message_matrix(
            [rng.randrange(13) for _ in range(file_symbols)], 4, m, gf13
        )
        contents = encode(encoder8, msg)
        payloads = [
            helper_payload(contents[h - 1], h, failed, encoder8, m)
            for h in helpers
        ]
        assert all(len(p.symbols) <= helper_bound(4, m, 2, "joint") for p in payloads)
        decoded = decode_failed_nodes(payloads, helpers, encoder8, failed, m)
        for f in failed:
            assert decoded[f] == contents[f - 1]


# --- stripe batches ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stripe_batch_equals_stacked_single_stripes(gf13, encoder8, data):
    """Joint and centralized repair of an S-stripe batch equal the one-row
    batches' results stacked, and each helper sends S times its one-stripe
    count."""
    m = data.draw(st.integers(1, 4), label="m")
    stripes = data.draw(st.integers(0, 4), label="stripes")
    failed = tuple(data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True), label="failed"))
    helpers = tuple(data.draw(st.permutations([h for h in range(1, 9) if h not in failed]), label="helpers")[:4])
    per_stripe = m * binom(5, m + 1)
    source = data.draw(st.lists(st.integers(0, 12), min_size=stripes * per_stripe, max_size=stripes * per_stripe))
    batch = encode(encoder8, build_message_matrix(source, 4, m, gf13))
    singles = [
        encode(encoder8, build_message_matrix(source[s * per_stripe : (s + 1) * per_stripe], 4, m, gf13))
        for s in range(stripes)
    ]
    assert batch == [StripeBatch(plane_major([row for one in singles for row in one[i]]), binom(4, m)) for i in range(8)]

    def joint(contents):
        payloads = [helper_payload(contents[h - 1], h, failed, encoder8, m) for h in helpers]
        return decode_failed_nodes(payloads, helpers, encoder8, failed, m), [len(p.symbols) for p in payloads]

    def central(contents):
        return centralized_repair(failed, helpers, {h: contents[h - 1] for h in helpers}, encoder8, m)

    beta_e = helper_bound(4, m, len(failed), "joint")
    decoded, counts = joint(batch)
    stacked = [joint(one) for one in singles]
    assert decoded == {f: StripeBatch(plane_major([row for one, _ in stacked for row in one[f]]), binom(4, m)) for f in failed}
    assert decoded == {f: batch[f - 1] for f in failed}
    assert all(one_counts == [beta_e] * 4 for _, one_counts in stacked)
    assert counts == [stripes * beta_e] * 4

    repaired, sent = central(batch)
    stacked = [central(one) for one in singles]
    assert repaired == {f: StripeBatch(plane_major([row for one, _ in stacked for row in one[f]]), binom(4, m)) for f in failed}
    one_sent = {h: helper_bound(4, m, min(slot, len(failed)), "joint") for slot, h in enumerate(helpers, start=1)}
    assert all(one == one_sent for _, one in stacked)
    assert sent == {h: stripes * v for h, v in one_sent.items()}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_operator_decode_equals_factored_path(gf13, encoder8, data):
    """Single, naive, joint and centralized repair equal the factored decode
    and the encoded contents on both sides of the stripe-count rule: from
    twice as many stripes as received symbols per stripe the decode builds
    and applies an operator, below that it does not. Symbol counts do not
    depend on the path, and above the rule every decode validation still
    raises."""
    m = data.draw(st.integers(1, 4), label="m")
    failed = tuple(data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True), label="failed"))
    helpers = tuple(data.draw(st.permutations([h for h in range(1, 9) if h not in failed]), label="helpers")[:4])
    e = len(failed)
    groups = {"naive": [(f,) for f in failed], "joint": [failed]}  # single repair is each naive group
    rows = {"naive": 4 * binom(3, m - 1), "joint": 4 * helper_bound(4, m, e, "joint")}
    rows["centralized"] = sum(helper_bound(4, m, min(slot, e), "joint") for slot in range(1, 5))
    below = data.draw(st.integers(0, 2 * min(rows.values()) - 1), label="below")
    above = data.draw(st.integers(2 * max(rows.values()), 2 * max(rows.values()) + 6), label="above")
    per_stripe = m * binom(5, m + 1)

    def batch(stripes):
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        source = [rng.randrange(13) for _ in range(stripes * per_stripe)]
        return encode(encoder8, build_message_matrix(source, 4, m, gf13))

    with mock.patch.object(repair, "decode_operator", wraps=decode_operator) as build:
        for stripes in (below, above):
            contents = batch(stripes)
            for mode, group_list in groups.items():
                for group in group_list:
                    payloads = [helper_payload(contents[h - 1], h, group, encoder8, m) for h in helpers]
                    assert [len(p.symbols) for p in payloads] == [stripes * helper_bound(4, m, len(group), "joint")] * 4
                    build.reset_mock()
                    decoded = decode_failed_nodes(payloads, helpers, encoder8, group, m)
                    assert build.called == (stripes >= 2 * rows[mode])
                    assert decoded == decode_factored(payloads, encoder8, group) == {f: contents[f - 1] for f in group}

            build.reset_mock()
            repaired, sent = centralized_repair(failed, helpers, {h: contents[h - 1] for h in helpers}, encoder8, m)
            assert build.called == (stripes >= 2 * rows["centralized"])
            payloads = [
                helper_payload(contents[h - 1], h, failed[: min(slot, e)], encoder8, m)
                for slot, h in enumerate(helpers, start=1)
            ]
            assert repaired == decode_centralized(payloads, encoder8, failed) == {f: contents[f - 1] for f in failed}
            assert sent == {p.helper: len(p.symbols) for p in payloads}
            assert sent == {h: stripes * helper_bound(4, m, min(slot, e), "joint") for slot, h in enumerate(helpers, start=1)}

    payloads = [helper_payload(contents[h - 1], h, failed, encoder8, m) for h in helpers]
    other = tuple(f for f in range(1, 9) if f not in failed and f not in helpers)[:1] + failed[1:]
    with pytest.raises(WrongTarget):
        decode_failed_nodes(payloads, helpers, encoder8, other, m)
    for bad in (payloads[::-1], payloads[:3]):
        with pytest.raises(ValueError, match="helpers"):
            decode_failed_nodes(bad, helpers, encoder8, failed, m)
    longer = batch(above + 1)
    mixed = [helper_payload(longer[helpers[0] - 1], helpers[0], failed, encoder8, m)] + payloads[1:]
    with pytest.raises(ValueError, match="stripe counts"):
        decode_failed_nodes(mixed, helpers, encoder8, failed, m)
    if helper_bound(4, m, e, "joint") > 1:  # rank 1 divides every count
        short = payloads[:3] + [RepairPayload(failed, helpers[3], m, payloads[3].symbols[:-1])]
        with pytest.raises(ValueError, match="multiple of the basis rank"):
            decode_failed_nodes(short, helpers, encoder8, failed, m)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_decode_operator_is_a_canonical_matrix(gf13, encoder8, data):
    """The decode operator is wrapped unchecked, so its entries must already be
    canonical: for single, joint and centralized sources it equals the checked
    constructor's Matrix of its own rows, of received symbols x e * alpha. A kept
    operator is shared, so its rows are tuples, as Matrix's own are."""
    m = data.draw(st.integers(1, 4), label="m")
    failed = tuple(data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True), label="failed"))
    helpers = tuple(data.draw(st.permutations([h for h in range(1, 9) if h not in failed]), label="helpers")[:4])
    mode = data.draw(st.sampled_from(["single", "joint", "centralized"]), label="mode")
    if mode == "single":
        failed = failed[:1]
    targets = [failed[: min(slot, len(failed))] if mode == "centralized" else failed for slot in range(1, 5)]
    sources = tuple((h, target, repair_basis(encoder8, target, m)[0].cols) for h, target in zip(helpers, targets))
    factored = decode_centralized if mode == "centralized" else decode_factored
    operator = decode_operator(factored, encoder8, failed, sources, m)
    assert operator.shape == (sum(rank for _, _, rank in sources), len(failed) * binom(4, m))
    assert operator == Matrix(gf13, operator.data)
    assert type(operator.data) is tuple and all(type(row) is tuple for row in operator.data)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_warm_decode_reuses_the_operator_of_its_complete_key(gf13, encoder8, data):
    """A second decode of one tuple builds nothing: it hits the operator cache and equals
    the factored or centralized oracle and the encoded contents, as the first does. The
    key is complete: two orders of one helper set, and joint against centralized repair
    of one failure tuple, are separate entries. Two files at one configuration, each
    repaired with the default helpers after the same nodes fail, share one operator."""
    from detcode import Cluster, CodeConfig

    m = data.draw(st.integers(1, 4), label="m")
    failed = tuple(data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True), label="failed"))
    helpers = tuple(data.draw(st.permutations([h for h in range(1, 9) if h not in failed]), label="helpers")[:4])
    e, per_stripe = len(failed), m * binom(5, m + 1)
    stripes = 2 * 4 * helper_bound(4, m, e, "joint") + data.draw(st.integers(0, 4), label="extra")  # joint rows bound the centralized
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))

    def message():
        return build_message_matrix([rng.randrange(13) for _ in range(stripes * per_stripe)], 4, m, gf13)

    contents = encode(encoder8, message())
    expected = {f: contents[f - 1] for f in failed}

    def joint(order):
        payloads = [helper_payload(contents[h - 1], h, failed, encoder8, m) for h in order]
        return decode_failed_nodes(payloads, order, encoder8, failed, m), decode_factored(payloads, encoder8, failed)

    def central(order):
        payloads = [
            helper_payload(contents[h - 1], h, failed[: min(slot, e)], encoder8, m) for slot, h in enumerate(order, start=1)
        ]
        repaired, _ = centralized_repair(failed, order, {h: contents[h - 1] for h in order}, encoder8, m)
        return repaired, decode_centralized(payloads, encoder8, failed)

    repair.decode_operator.cache_clear()
    for run in (joint, central):
        for order in (helpers, helpers[::-1]):
            for hit in (False, True):
                before = repair.decode_operator.cache_info()
                decoded, oracle = run(order)
                after = repair.decode_operator.cache_info()
                assert (after.hits - before.hits, after.misses - before.misses) == ((1, 0) if hit else (0, 1))
                assert decoded == oracle == expected
    info = repair.decode_operator.cache_info()
    assert (info.hits, info.misses) == (4, 4)  # four keys, each built once and found once

    config = CodeConfig(n=8, d=4, m=m, p=13)
    clusters = [Cluster.build(config, message()) for _ in range(2)]
    repair.decode_operator.cache_clear()
    for cluster in clusters:
        saved = {f: cluster.contents[f] for f in failed}
        cluster.fail_nodes(failed)
        cluster.repair("joint", failed)
        assert {f: cluster.contents[f] for f in failed} == saved
    info = repair.decode_operator.cache_info()
    assert (info.hits, info.misses) == (1, 1)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_decompression_in_both_kernel_orientations(encoder8, data):
    """One stripe packs expand's rows (its pivot columns are multiplied by 1); e * C(d, m-1)
    stripes or more pack the received rows (its pivot columns are copied). Either way a
    payload decompresses to each stripe times the failures' repair matrices side by side."""
    m = data.draw(st.integers(1, 4), label="m")
    failed = tuple(data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True), label="failed"))
    helper = data.draw(st.sampled_from([h for h in range(1, 9) if h not in failed]), label="helper")
    width, alpha = len(failed) * binom(4, m - 1), binom(4, m)
    stripes = data.draw(st.sampled_from([1, width, width + 3]), label="stripes")
    size = stripes * alpha
    batch = StripeBatch(data.draw(st.lists(st.integers(0, 12), min_size=size, max_size=size), label="symbols"), alpha)
    xi = Matrix.hstack([repair_matrix(f, m, encoder8) for f in failed])
    expected = plane_major([vec_mat(batch[s], xi) for s in range(stripes)])
    assert list(decompress_payload(helper_payload(batch, helper, failed, encoder8, m), encoder8)) == expected


# --- centralized sequential repair ----------------------------------------


def _central_schedule(failed, helpers, encoder, contents, m=2):
    """Run centralized_repair and record its prefix schedule: (repaired, sent, the
    (helper, served prefix) of each slot's transmit, the helper tuple of each step).
    A slot's transmit serves one group, its prefix."""
    with (
        mock.patch.object(repair, "helper_payloads", wraps=repair.helper_payloads) as send,
        mock.patch.object(multirepair, "decode_repair_vectors", wraps=decode_repair_vectors) as step,
    ):
        repaired, sent = centralized_repair(failed, helpers, {h: contents[h - 1] for h in helpers}, encoder, m)
    served = [(call.args[1], call.args[2][0]) for call in send.call_args_list[: len(helpers)]]
    return repaired, sent, served, [call.args[1] for call in step.call_args_list]


def test_plan_accounting(encoder8, contents8):
    """Two failures at (d, m) = (4, 2), one stripe: slot j serves failed[:j], step s
    reads failed[:s] + helpers[s:], and the helpers send (3, 5, 5, 5), d * beta_bar_2 in all."""
    repaired, sent, served, steps = _central_schedule((5, 6), (1, 2, 3, 4), encoder8, contents8)
    assert repaired == {5: contents8[4], 6: contents8[5]}
    assert served == [(1, (5,)), (2, (5, 6)), (3, (5, 6)), (4, (5, 6))]
    assert steps == [(1, 2, 3, 4), (5, 2, 3, 4)]
    assert tuple(sent.values()) == per_helper_bandwidth(4, 2, 2) == (3, 5, 5, 5)
    assert sum(sent.values()) == total_bandwidth(4, 2, 2) == 18
    assert Fraction(total_bandwidth(4, 2, 2), 4) == helper_bound(4, 2, 2, "centralized") == Fraction(9, 2)


def _all_contents(contents8):
    return {h: contents8[h - 1] for h in range(1, 9)}


def test_plan_rejects_overlap(encoder8, contents8):
    with pytest.raises(OverlapError):
        centralized_repair((5, 6), (1, 2, 3, 5), _all_contents(contents8), encoder8, 2)


def test_plan_rejects_repeated_ids(encoder8, contents8):
    with pytest.raises(ValueError, match="failed ids must be distinct"):
        centralized_repair((5, 5), (1, 2, 3, 4), _all_contents(contents8), encoder8, 2)
    with pytest.raises(ValueError, match="helper ids must be distinct"):
        centralized_repair((5, 6), (1, 2, 2, 4), _all_contents(contents8), encoder8, 2)


def test_plan_rejects_more_failures_than_helpers(encoder8, contents8):
    """Five failures need five helper slots, more than d = 4; four fill them all,
    and the last step reads the three rebuilt nodes and the last helper."""
    with pytest.raises(TooManyFailures):
        centralized_repair((1, 2, 3, 4, 5), (6, 7, 8), _all_contents(contents8), encoder8, 2)
    repaired, sent, _, steps = _central_schedule((1, 2, 3, 4), (5, 6, 7, 8), encoder8, contents8)
    assert repaired == {f: contents8[f - 1] for f in (1, 2, 3, 4)}
    assert steps[3] == (1, 2, 3, 8)
    assert tuple(sent.values()) == per_helper_bandwidth(4, 2, 4) == (3, 5, 6, 6)


def test_centralized_repair_checks_its_helpers(encoder8, contents8):
    """The helper tuple follows decode_failed_nodes' rule: exactly d ids, each a node."""
    for helpers in ((1, 2, 3), (1, 2, 3, 4, 7)):
        with pytest.raises(ValueError, match=r"need exactly 4 distinct helper ids"):
            centralized_repair((5, 6), helpers, _all_contents(contents8), encoder8, 2)
    with pytest.raises(ValueError, match=r"node id 99 not in \[1, 8\]"):
        centralized_repair((5, 6), (1, 2, 3, 99), _all_contents(contents8), encoder8, 2)


class _RecordedReads(dict):
    """A contents mapping that records the ids read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = []

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)


@pytest.mark.parametrize(
    "failed,helpers,error",
    [((5, 5), (1, 2, 3, 4), "failed ids must be distinct"), ((5, 99), (1, 2, 3, 4), r"node id 99 not in"),
     ((1, 2, 3, 4, 5), (6, 7, 8), "5 failures need as many helper slots"),
     ((5, 6), (1, 2, 3), "need exactly 4 distinct helper ids"), ((5, 6), (1, 2, 2, 4), "helper ids must be distinct"),
     ((5, 6), (1, 2, 3, 99), r"node id 99 not in"), ((5, 6), (1, 2, 3, 5), r"helpers \[5\] are failed"),
     ((), (1, 2, 3, 4), "nothing to repair")],
)
def test_centralized_refusals_read_no_helper(encoder8, contents8, failed, helpers, error):
    """Every refusal of centralized_repair comes before it reads any helper's content."""
    contents = _RecordedReads(_all_contents(contents8))
    with pytest.raises(ValueError, match=error):
        centralized_repair(failed, helpers, contents, encoder8, 2)
    assert contents.reads == []


@pytest.mark.parametrize("stripes", [3, 40])
def test_centralized_repair_is_the_cluster_repair(gf13, stripes):
    """centralized_repair and Cluster.repair("centralized") return the same batches
    and symbol counts for every two-failure tuple at (8, 4, 2), on both sides of the
    decode operator's stripe-count rule."""
    from detcode import Cluster, CodeConfig

    config, rng = CodeConfig(n=8, d=4, m=2, p=13), random.Random(35)
    cluster = Cluster.build(config, build_message_matrix([rng.randrange(13) for _ in range(stripes * 20)], 4, 2, gf13))
    contents = dict(cluster.contents)
    for failed in combinations(range(1, 9), 2):
        helpers = tuple(h for h in range(1, 9) if h not in failed)[:4]
        repaired, sent = centralized_repair(failed, helpers, contents, cluster.encoder, 2)
        cluster.fail_nodes(failed)
        event = cluster.repair("centralized", failed)
        assert event.helpers == helpers and event.symbols_by_helper == sent
        assert repaired == {f: cluster.contents[f] for f in failed} == {f: contents[f] for f in failed}


def test_plan_totals_match_closed_form_d10():
    for e in range(1, 11):
        expected = 3 * (binom(11, 4) - binom(11 - e, 4))
        assert total_bandwidth(10, 3, e) == expected == 10 * helper_bound(10, 3, e, "centralized")


def test_centralized_repair_exact_and_within_budget(encoder8, contents8):
    for e in (2, 3):
        for failed in combinations(range(1, 9), e):
            helpers = tuple(h for h in range(1, 9) if h not in failed)[:4]
            repaired, sent = centralized_repair(
                failed, helpers, {h: contents8[h - 1] for h in helpers}, encoder8, 2
            )
            for f in failed:
                assert repaired[f] == contents8[f - 1]
            assert sum(sent.values()) <= 4 * helper_bound(4, 2, e, "centralized")


def test_centralized_repair_single_failure_costs_beta_each(encoder8, contents8):
    repaired, sent = centralized_repair(
        (5,), (1, 2, 3, 4), {h: contents8[h - 1] for h in (1, 2, 3, 4)}, encoder8, 2
    )
    assert repaired[5] == contents8[4]
    assert all(v == 3 for v in sent.values())


# --- rotation schedule -----------------------------------------------------


def test_schedule_is_a_latin_square():
    table = supercode_schedule(5, 2)
    for row in table:
        assert sorted(row) == [1, 2, 3, 4, 5]
    for col in zip(*table):
        assert sorted(col) == [1, 2, 3, 4, 5]


def test_schedule_rotation_rule():
    table = supercode_schedule(4, 2)
    assert table[0] == (1, 2, 3, 4)
    assert table[1] == (2, 3, 4, 1)
    assert table[3] == (4, 1, 2, 3)


def test_supercode_totals_equalized():
    for d, m in [(4, 2), (10, 3), (6, 3)]:
        for e in range(1, d + 1):
            totals = supercode_helper_totals(d, m, e)
            expected = m * (binom(d + 1, m + 1) - binom(d - e + 1, m + 1))
            assert totals == [expected] * d


def test_supercode_data_plane_integration(gf13, encoder8):
    """One d-fold concatenated run: rotated roles, every helper pays the same."""
    rng = random.Random(404)
    segments = [
        build_message_matrix([rng.randrange(13) for _ in range(20)], 4, 2, gf13)
        for _ in range(4)
    ]
    contents = {i: [] for i in range(1, 9)}
    for seg in segments:
        for node, row in enumerate(encode(encoder8, seg), start=1):
            contents[node].append(row)
    failed = (5, 6)
    helpers = (1, 2, 3, 4)
    schedule = supercode_schedule(4, len(failed))
    per_helper = dict.fromkeys(helpers, 0)
    for seg_idx, roles in enumerate(schedule):
        by_role = {role: helpers[slot] for slot, role in enumerate(roles)}
        ordered = tuple(by_role[j] for j in range(1, 5))
        repaired, sent = centralized_repair(
            failed,
            ordered,
            {h: contents[h][seg_idx] for h in helpers},
            encoder8,
            2,
        )
        for f in failed:
            assert repaired[f] == contents[f][seg_idx]
        for h, v in sent.items():
            per_helper[h] += v
    expected = 2 * (binom(5, 3) - binom(3, 3))  # d * average per-helper cost
    assert set(per_helper.values()) == {expected}
