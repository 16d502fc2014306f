import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from detcode.code import (
    BadMode,
    CodeConfig,
    FieldTooSmall,
    OverlapError,
    ParityViolation,
    StripeBatch,
    WrongLength,
    build_encoder,
    build_message_matrix,
    checked_ids,
    derive_params,
    encode,
    recover_data,
    source_cells,
)
from detcode.field import CompositeModulus, Field, Matrix, reduced
from detcode.code import MessageMatrix
from detcode.subsets import binom, incidence, subsets

from certificates import entry, shared_symbol, tradeoff_bound
from conftest import GOLDEN_TAIL_ROWS
from oracles import identity, is_zero, reduced_scalar, signed_sums_scalar


@pytest.mark.parametrize(
    "d,m,expected",
    [
        (4, 2, (6, 3, 20)),
        (10, 3, (120, 36, 990)),
        (6, 3, (20, 10, 105)),
        (4, 1, (4, 1, 10)),
        (4, 4, (1, 1, 4)),
    ],
)
def test_derive_params(d, m, expected):
    assert derive_params(d, m) == expected


@pytest.mark.parametrize("d,m", [(4, 0), (4, 5), (3, -1)])
def test_bad_mode(d, m):
    with pytest.raises(BadMode):
        derive_params(d, m)


def test_tradeoff_bound_goldens():
    assert tradeoff_bound(4, 2, 6, 3) == 20
    assert tradeoff_bound(10, 3, 120, 36) == 990
    assert tradeoff_bound(4, 0, 6, 3) == Fraction(30)
    assert isinstance(tradeoff_bound(5, 2, 10, 4), Fraction)


def test_mode_corner_points_meet_bound():
    """The (alpha, beta, F) triple sits exactly on the trade-off bound at its level."""
    for d in range(1, 13):
        for m in range(1, d + 1):
            alpha, beta, total = derive_params(d, m)
            assert d * beta == m * alpha
            assert tradeoff_bound(d, m, alpha, beta) == total


def test_normalized_corner_coordinates():
    for d in range(1, 13):
        for m in range(1, d + 1):
            alpha, beta, total = derive_params(d, m)
            assert Fraction(alpha, total) == Fraction(m + 1, m * (d + 1))
            assert Fraction(beta, total) == Fraction(m + 1, d * (d + 1))


def test_config_validation():
    config = CodeConfig(n=8, d=4, m=2, p=13)
    assert (config.alpha, config.beta, config.file_symbols) == (6, 3, 20)
    with pytest.raises(FieldTooSmall):
        CodeConfig(n=8, d=4, m=2, p=7)
    with pytest.raises(CompositeModulus):
        CodeConfig(n=8, d=4, m=2, p=15)
    with pytest.raises(BadMode):
        CodeConfig(n=8, d=4, m=5, p=13)
    with pytest.raises(ValueError):
        CodeConfig(n=4, d=4, m=2, p=13)


def test_config_refuses_a_modulus_of_two_to_the_64_or_more():
    """No shard header records such a p (it packs p in 8 bytes) and no machine word holds its symbols: refused
    when the config is built, naming p. The largest prime below 2**64 is accepted."""
    for p in (2**64 + 13, 2**89 - 1):
        with pytest.raises(ValueError, match=rf"^p = {p} is 2\*\*64 or more"):
            CodeConfig(n=8, d=4, m=2, p=p)
    assert CodeConfig(n=8, d=4, m=2, p=2**64 - 59).p == 2**64 - 59


# --- encoder -----------------------------------------------------------


def test_systematic_encoder_golden(encoder8):
    for i in range(1, 5):
        assert encoder8.row(i) == [1 if j == i - 1 else 0 for j in range(4)]
    assert [encoder8.row(i) for i in range(5, 9)] == GOLDEN_TAIL_ROWS


def test_encoder_rejects_small_field():
    with pytest.raises(FieldTooSmall):
        build_encoder(8, 4, Field(7))


def test_field_size_boundary_is_one_rule():
    """p >= n + 1, the same rule for CodeConfig and build_encoder: n = 6 fits GF(7), n = 7 does not."""
    assert CodeConfig(n=6, d=4, m=2, p=7).n == 6
    with pytest.raises(FieldTooSmall, match=r"need p >= n \+ 1 = 8 distinct nonzero generators, got p=7"):
        CodeConfig(n=7, d=4, m=2, p=7)
    with pytest.raises(FieldTooSmall):
        build_encoder(7, 4, Field(7))


def test_encoder_accepts_minimal_field():
    # five generators need p >= 6; p = 7 is the smallest prime that works
    enc = build_encoder(5, 4, Field(7))
    assert enc.n == 5 and enc.d == 4


def test_every_d_subset_invertible(encoder8, gf13):
    for ids in combinations(range(1, 9), 4):
        sub = encoder8.rows_submatrix(ids)
        assert sub @ sub.inverse() == identity(gf13, 4)


@pytest.mark.parametrize("n,d", [(8, 4), (12, 6), (16, 10)])
def test_encoder_is_mds(n, d):
    """Every d-subset of encoder rows has full rank (build_encoder does not check)."""
    enc = build_encoder(n, d, Field(257))
    for ids in combinations(range(1, n + 1), d):
        assert enc.rows_submatrix(ids).rank() == d, ids


def test_encoder_is_shared_per_parameters():
    assert build_encoder(12, 6, Field(257)) is build_encoder(12, 6, Field(257))
    assert build_encoder(12, 6, Field(257)) is not build_encoder(12, 6, Field(263))


# --- message matrix ----------------------------------------------------


def test_symbol_counts():
    for d in range(1, 9):
        for m in range(1, d + 1):
            cells, direct = source_cells(d, m), incidence(d, m)
            assert len(direct) == m * binom(d, m)
            assert cells[: len(direct)] == tuple((x - 1, i) for i, x, _, _ in direct)
            assert len(cells) - len(direct) == m * binom(d, m + 1)
            assert len(cells) == derive_params(d, m)[2]
            assert (len(incidence(d, m + 1)) if m < d else 0) == (m + 1) * binom(d, m + 1)


@pytest.mark.parametrize("m", [0, 5])  # 0 and d + 1 at d = 4
def test_out_of_range_mode_is_reported_as_itself(gf13, encoder8, contents8, m):
    """Building, wrapping and recovering a message raise BadMode naming the m they were given."""
    message = rf"got m={m}, d=4$"
    with pytest.raises(BadMode, match=message):
        build_message_matrix([0] * 20, 4, m, gf13)
    with pytest.raises(BadMode, match=message):
        MessageMatrix(Matrix(gf13, [[0] * 6 for _ in range(4)]), m)
    with pytest.raises(BadMode, match=message):
        recover_data(contents8[:4], (1, 2, 3, 4), encoder8, m)


def test_zero_source_gives_zero_matrix(gf13):
    msg = build_message_matrix([0] * 20, 4, 2, gf13)
    assert is_zero(msg.matrix)
    assert list(msg.extract_symbols()) == [0] * 20


def test_source_is_reduced_on_entry(gf13):
    """Negative and >= p source ints give the canonical matrix of the source reduced mod p."""
    rng = random.Random(13)
    src = [rng.choice([rng.randrange(-40, 0), rng.randrange(13, 60), rng.randrange(13)]) for _ in range(60)]
    msg = build_message_matrix(src, 4, 2, gf13)
    assert all(0 <= v < 13 for row in msg.matrix.data for v in row)
    assert msg == build_message_matrix([v % 13 for v in src], 4, 2, gf13)
    msg.verify_parity()


@pytest.mark.parametrize("p", [13, 257, 263, 65537, 2**61 - 1])
def test_non_canonical_list_source_encodes_as_its_reduction(p):
    """A list source with negative entries and entries p or more (three stripes at (4, 2)) reduces on entry
    (field.reduced) to the scalar reduction, and its message and node batches are those of the pre-reduced source."""
    rng = random.Random(p)
    src = [rng.choice([rng.randrange(-3 * p, 0), rng.randrange(p, 3 * p), rng.randrange(p)]) for _ in range(60)]
    assert list(reduced(src, p)) == reduced_scalar(src, p)
    field = Field(p)
    msg, expected = build_message_matrix(src, 4, 2, field), build_message_matrix(reduced_scalar(src, p), 4, 2, field)
    assert msg == expected
    encoder = build_encoder(6, 4, field)
    assert encode(encoder, msg) == encode(encoder, expected)


@pytest.mark.parametrize("p", [13, 251, 257])
def test_byte_source_skips_its_reduction_only_where_bytes_are_canonical(p):
    """bytes or a bytearray give the matrix of their list of ints: as they are at p = 257, reduced at p = 13 and
    p = 251, where a byte can be p or more."""
    source = bytes(random.Random(p).choices(range(256), k=58)) + bytes([p % 256 if p < 256 else 0, 255])
    expected = build_message_matrix(list(source), 4, 2, Field(p))
    assert all(0 <= v < p for row in expected.matrix.data for v in row)
    assert build_message_matrix(source, 4, 2, Field(p)) == expected
    assert build_message_matrix(bytearray(source), 4, 2, Field(p)) == expected
    expected.verify_parity()


def test_wrong_source_length(gf13):
    with pytest.raises(WrongLength):
        build_message_matrix([0] * 19, 4, 2, gf13)


def test_roundtrip_random_sources(gf13):
    rng = random.Random(123)
    for _ in range(1000):
        src = [rng.randrange(13) for _ in range(20)]
        msg = build_message_matrix(src, 4, 2, gf13)
        assert list(msg.extract_symbols()) == src


def test_parity_completion_goldens(gf13):
    """Each 3-set's largest-member slot is the difference of the other two."""
    rng = random.Random(5)
    msg = build_message_matrix([rng.randrange(13) for _ in range(20)], 4, 2, gf13)
    for group in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]:
        a, b, top = group
        assert shared_symbol(msg, top, group) == (
            shared_symbol(msg, b, group) - shared_symbol(msg, a, group)
        ) % 13


def test_entry_placement_golden(gf13):
    rng = random.Random(6)
    src = [rng.randrange(13) for _ in range(20)]
    msg = build_message_matrix(src, 4, 2, gf13)
    # column (1,2): rows 1,2 hold direct symbols; row 3 holds the (1,2,3) share
    assert entry(msg, 1, (1, 2)) == src[0]
    assert entry(msg, 2, (1, 2)) == src[1]
    assert entry(msg, 3, (1, 2)) == shared_symbol(msg, 3, (1, 2, 3))


def test_parity_violation_detected(gf13):
    msg = build_message_matrix(list(range(20)), 4, 2, gf13)
    rows = [row[:] for row in msg.matrix.data]
    # row 3, column (1,2) is the parity-owned slot of the set (1,2,3)
    rows[2][subsets(4, 2).rank((1, 2))] += 1
    with pytest.raises(ParityViolation):
        MessageMatrix(Matrix(gf13, rows), 2).verify_parity()


def first_parity_violation(message):
    """The message of a per-group check: the first group with a nonzero signed sum, then its first stripe."""
    rows, p, stripes, size = message.matrix.data, message.matrix.field.p, message.stripes, message.m + 1
    table = incidence(message.d, size) if size <= message.d else ()
    for g in range(0, len(table), size):  # position c of every stripe is the plane from c * S
        sums = signed_sums_scalar([(sign, rows[x - 1][c * stripes : (c + 1) * stripes]) for _, x, c, sign in table[g : g + size]], p)
        bad = [s for s, v in enumerate(sums) if v]
        if bad:
            return f"stripe {bad[0]}: parity fails for {subsets(message.d, size).unrank(g // size)}"
    return None


@pytest.mark.parametrize("d, m", [(4, 2), (10, 3)])
def test_verify_parity_names_the_group_and_stripe_of_a_per_group_check(d, m):
    """Damage every cell of a two-stripe message, alone and with its mirror cell: one signed sum over
    every group names the same group and stripe as checking group after group."""
    field = Field(257)
    message = build_message_matrix(random.Random(d).choices(range(257), k=2 * derive_params(d, m)[2]), d, m, field)
    clean, width = [list(row) for row in message.matrix.data], message.matrix.cols
    for r in range(d):
        for c in range(width):
            for cells in ([(r, c)], [(r, c), (d - 1 - r, width - 1 - c)]):
                rows = [row[:] for row in clean]
                for y, x in cells:
                    rows[y][x] = (rows[y][x] + 1) % 257
                damaged = MessageMatrix(Matrix.wrap(field, rows, width), m)
                expected = first_parity_violation(damaged)
                if expected is None:
                    damaged.verify_parity()
                else:
                    with pytest.raises(ParityViolation, match=f"^{re.escape(expected)}$"):
                        damaged.verify_parity()


# --- encode / recover --------------------------------------------------


def test_systematic_node_contents(encoder8, message8, contents8):
    assert contents8[0] == StripeBatch(message8.matrix.row(0), 6)
    assert contents8[3] == StripeBatch(message8.matrix.row(3), 6)


def test_zero_message_encodes_to_zero(encoder8, gf13):
    contents = encode(encoder8, build_message_matrix([0] * 20, 4, 2, gf13))
    assert all(all(v == 0 for v in batch[0]) for batch in contents)


def test_node_entry_formula(encoder8, message8, contents8):
    """Entry at column (1,2) mixes two direct symbols and two shared ones."""
    for f in range(5, 9):
        psi = encoder8.row(f)
        expected = (
            psi[0] * entry(message8, 1, (1, 2))
            + psi[1] * entry(message8, 2, (1, 2))
            + psi[2] * shared_symbol(message8, 3, (1, 2, 3))
            + psi[3] * shared_symbol(message8, 4, (1, 2, 4))
        ) % 13
        assert contents8[f - 1][0][0] == expected


def test_recovery_from_systematic_nodes_is_direct(encoder8, message8, contents8):
    rec = recover_data(contents8[:4], [1, 2, 3, 4], encoder8, 2)
    assert rec.matrix == message8.matrix


def test_recovery_from_any_subset(encoder8, message8, contents8):
    for ids in [(1, 3, 5, 7), (5, 6, 7, 8), (2, 4, 6, 8)]:
        rec = recover_data([contents8[i - 1] for i in ids], ids, encoder8, 2)
        assert rec.matrix == message8.matrix


def test_recovery_needs_d_ids_and_one_batch_per_id(encoder8, contents8):
    with pytest.raises(ValueError, match=r"need at least 4 distinct node ids, got \[1, 2, 3\]"):
        recover_data(contents8[:3], [1, 2, 3], encoder8, 2)
    for count in (4, 6):
        with pytest.raises(ValueError, match=f"{count} stripe batches for 5 node ids"):
            recover_data(contents8[:count], [1, 2, 3, 4, 5], encoder8, 2)


def test_further_ids_check_the_d_read(encoder8, message8, contents8):
    """Ids past the first d are re-encoded from the d read, not decoded from."""
    assert recover_data(contents8[:6], [1, 2, 3, 4, 5, 6], encoder8, 2) == message8
    changed = [StripeBatch(list(b.symbols), 6) for b in contents8[:6]]
    changed[0].symbols[0] = (changed[0].symbols[0] + 1) % 13  # a direct cell: no parity covers it
    with pytest.raises(ParityViolation, match=r"node 5 disagrees with the data read from nodes \[1, 2, 3, 4\]"):
        recover_data(changed, [1, 2, 3, 4, 5, 6], encoder8, 2)
    changed = [StripeBatch(list(b.symbols), 6) for b in contents8[:6]]
    changed[5].symbols[0] = (changed[5].symbols[0] + 1) % 13
    with pytest.raises(ParityViolation, match="node 6 disagrees"):
        recover_data(changed, [1, 2, 3, 4, 5, 6], encoder8, 2)


def test_parity_violation_lists_every_disagreeing_further_node(encoder8, contents8):
    """The message names the first disagreeing further node; ``nodes`` lists all of them in read order,
    and is empty when the first d fail parity themselves."""
    ids = (1, 2, 3, 4, 8, 5, 6, 7)
    changed = [StripeBatch(list(contents8[i - 1].symbols), 6) for i in ids]
    for t in (4, 6):  # nodes 8 and 6
        changed[t].symbols[0] = (changed[t].symbols[0] + 1) % 13
    with pytest.raises(ParityViolation, match=r"^node 8 disagrees with the data read from nodes \[1, 2, 3, 4\]$") as info:
        recover_data(changed, ids, encoder8, 2)
    assert info.value.nodes == (8, 6)
    changed = [StripeBatch(list(b.symbols), 6) for b in contents8[:6]]
    changed[0].symbols[3] = (changed[0].symbols[3] + 1) % 13  # node 1's shared cell of column (2,3)
    with pytest.raises(ParityViolation, match="parity fails") as info:
        recover_data(changed, [1, 2, 3, 4, 5, 6], encoder8, 2)
    assert info.value.nodes == ()


def test_recovery_rejects_duplicates(encoder8, contents8):
    with pytest.raises(ValueError):
        recover_data(contents8[:4], [1, 1, 2, 3], encoder8, 2)


@pytest.mark.parametrize("bad", [0, 9])
def test_node_ids_outside_one_to_n_are_refused(encoder8, contents8, bad):
    """Id 0 once selected node 8's encoder row through a negative index
    (node 8's batch sent as id 0 decoded right), and id 9 raised IndexError."""
    ids, batches = (bad, 2, 3, 4), [contents8[7]] + contents8[1:4]
    for call in (lambda: encoder8.rows_submatrix(ids), lambda: recover_data(batches, ids, encoder8, 2)):
        with pytest.raises(ValueError, match=rf"node id {bad} not in \[1, 8\]"):
            call()


@pytest.mark.parametrize(
    "ids, kwargs, error, match",
    [
        ((1, 2, 3), {"count": 4}, ValueError, r"need exactly 4 distinct node ids, got \[1, 2, 3\]"),
        ((1, 2, 2, 3), {"count": 4}, ValueError, r"node ids must be distinct, got \[1, 2, 2, 3\]"),
        ((1, 2, 3, 0), {"n": 8}, ValueError, r"node id 0 not in \[1, 8\]"),
        ((1, 2, 6, 5), {"failed": (5, 6, 7)}, OverlapError, r"helpers \[5, 6\] are failed"),
    ],
)
def test_checked_ids_is_the_one_node_id_rule(ids, kwargs, error, match):
    with pytest.raises(error, match=match):
        checked_ids(ids, "node ids", **kwargs)
    assert checked_ids(iter((5, 1, 8)), "node ids", n=8, count=3, failed=(2,)) == (5, 1, 8)


def test_tampered_content_raises_parity_violation(encoder8, contents8):
    # systematic helpers: hit a shared-symbol slot (row 1 of column (2,3))
    rows = [list(r[0]) for r in contents8[:4]]
    rows[0][3] = (rows[0][3] + 1) % 13
    with pytest.raises(ParityViolation):
        recover_data([StripeBatch(r, 6) for r in rows], [1, 2, 3, 4], encoder8, 2)
    # mixed helpers: a single flip spreads over a whole recovered column
    rows = [list(contents8[i - 1][0]) for i in (5, 6, 7, 8)]
    rows[1][0] = (rows[1][0] + 1) % 13
    with pytest.raises(ParityViolation):
        recover_data([StripeBatch(r, 6) for r in rows], [5, 6, 7, 8], encoder8, 2)


def test_parity_violation_names_the_stripe(encoder8, gf13, message8):
    """Parity is checked per stripe block of a batch; the error names the stripe."""
    message = build_message_matrix(message8.extract_symbols() * 3, 4, 2, gf13)
    assert message.stripes == 3
    flats = [list(batch.symbols) for batch in encode(encoder8, message)[:4]]
    assert recover_data([StripeBatch(f, 6) for f in flats], [1, 2, 3, 4], encoder8, 2) == message
    flats[0][3 * 3 + 2] = (flats[0][3 * 3 + 2] + 1) % 13  # a shared-symbol slot of stripe 2: plane 3, entry 2
    with pytest.raises(ParityViolation, match="stripe 2"):
        recover_data([StripeBatch(f, 6) for f in flats], [1, 2, 3, 4], encoder8, 2)


def test_capacity_does_not_depend_on_node_count():
    field = Field(29)
    rng = random.Random(17)
    src = [rng.randrange(29) for _ in range(105)]
    for n in (7, 12, 25):
        msg = build_message_matrix(src, 6, 3, field)
        enc = build_encoder(n, 6, field)
        contents = encode(enc, msg)
        ids = list(range(n - 5, n + 1))
        rec = recover_data([contents[i - 1] for i in ids], ids, enc, 3)
        assert list(rec.extract_symbols()) == src


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: StripeBatch([1, "2", 3], 3), ValueError, r"^stripe symbols must be ints in \[0, 2\*\*64\)$"),
        (lambda: StripeBatch([1, 2.0, 3], 3), ValueError, r"^stripe symbols must be ints in \[0, 2\*\*64\)$"),
        (lambda: MessageMatrix(Matrix(Field(13), [[0] * 7 for _ in range(4)]), 2), WrongLength, r"must be 4 x \(S \* 6\), got \(4, 7\)"),
    ],
    ids=["stripe-batch-str", "stripe-batch-float", "message-width"],
)
def test_code_shape_and_type_errors(build, error, match):
    """A stripe batch of a symbol that is not an int, and a message matrix that is not whole stripes wide."""
    with pytest.raises(error, match=match):
        build()
