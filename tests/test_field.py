import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from detcode.field import (
    CompositeModulus,
    DimensionMismatch,
    Field,
    Matrix,
    Singular,
    combine_rows,
    element_width,
    interleave,
    is_prime,
    next_prime_at_least,
    pack_symbols,
    signed_sums,
    slot_width,
    unpack_symbols,
)
from oracles import identity, is_zero, matmul_scalar, signed_sums_scalar, vec_mat


@pytest.mark.parametrize("bad", [0, 1, 4, 12, 100, 13 * 17])
def test_composite_modulus_rejected(bad):
    with pytest.raises(CompositeModulus):
        Field(bad)


@pytest.mark.parametrize("p", [2, 3, 13, 257, 65537])
def test_prime_moduli_accepted(p):
    assert Field(p).p == p


def test_every_nonzero_element_inverts(gf13):
    for a in range(1, 13):
        assert Matrix(gf13, [[a]]) @ Matrix(gf13, [[a]]).inverse() == identity(gf13, 1)


def test_inverse_of_zero_raises(gf13):
    with pytest.raises(Singular):
        Matrix(gf13, [[0]]).inverse()
    with pytest.raises(Singular):
        Matrix(gf13, [[13]]).inverse()  # canonical zero


def test_is_prime_matches_trial_division():
    def slow(n):
        return n >= 2 and all(n % k for k in range(2, int(n**0.5) + 1))

    for n in range(1000):
        assert is_prime(n) == slow(n), n


def test_next_prime_at_least():
    assert next_prime_at_least(257) == 257
    assert next_prime_at_least(258) == 263
    assert next_prime_at_least(26) == 29
    assert next_prime_at_least(1) == 2


def test_element_width():
    assert element_width(13) == 1
    assert element_width(251) == 1
    assert element_width(257) == 2
    assert element_width(65537) == 3


# --- matrices ----------------------------------------------------------


def test_identity_multiplication(gf13):
    b = Matrix(gf13, [[1, 2], [3, 4], [5, 6]])
    assert identity(gf13, 3) @ b == b


def test_zero_annihilates(gf13):
    a = Matrix(gf13, [[1, 2], [3, 4]])
    z = Matrix(gf13, [[0, 0], [0, 0]])
    assert is_zero(a @ z)


def test_dimension_mismatch(gf13):
    a = Matrix(gf13, [[1, 2]])
    with pytest.raises(DimensionMismatch):
        a @ a


def test_modulus_mismatch(gf13):
    a = Matrix(gf13, [[1]])
    b = Matrix(Field(7), [[1]])
    with pytest.raises(DimensionMismatch):
        a @ b


def test_inverse_of_identity(gf13):
    eye = identity(gf13, 4)
    assert eye.inverse() == eye


def test_vandermonde_on_first_four_points_invertible(gf13):
    vand = Matrix(gf13, [[pow(i, j, 13) for j in range(4)] for i in range(1, 5)])
    assert vand @ vand.inverse() == identity(gf13, 4)


def test_repeated_row_is_singular(gf13):
    with pytest.raises(Singular):
        Matrix(gf13, [[1, 2], [1, 2]]).inverse()


def test_random_inverse_roundtrip(gf13):
    """mat_mul(A, inverse(A)) is the identity for 1000 random invertible sizes <= 8."""
    rng = random.Random(42)
    count = 0
    while count < 1000:
        n = rng.randint(1, 8)
        a = Matrix(gf13, [[rng.randrange(13) for _ in range(n)] for _ in range(n)])
        if a.rank() < n:
            continue
        assert a @ a.inverse() == identity(gf13, n)
        count += 1


def test_rank_of_zero_matrix(gf13):
    assert Matrix(gf13, [[0] * 5 for _ in range(3)]).rank() == 0


def test_rank_equals_transpose_rank(gf13):
    rng = random.Random(7)
    for _ in range(200):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        a = Matrix(gf13, [[rng.randrange(13) for _ in range(c)] for _ in range(r)])
        assert a.rank() == Matrix(gf13, list(zip(*a.data))).rank()


def test_pivot_expansion_reconstructs_matrix(gf13):
    """The pivot columns times the reduced rows give back the matrix."""
    rng = random.Random(11)
    for _ in range(200):
        r, c = rng.randint(1, 6), rng.randint(1, 8)
        a = Matrix(gf13, [[rng.randrange(13) for _ in range(c)] for _ in range(r)])
        pivots, expand = a.pivot_columns()
        assert pivots == sorted(pivots)
        assert a == a.submatrix(range(r), pivots) @ expand, a.data


def test_det_matches_cofactor_oracle(gf13):
    from oracles import det_cofactor

    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 5)
        data = [[rng.randrange(13) for _ in range(n)] for _ in range(n)]
        assert Matrix(gf13, data).det() == det_cofactor(data) % 13


def test_vec_mat(gf13):
    m = Matrix(gf13, [[1, 2], [3, 4]])
    assert vec_mat([1, 1], m) == [4, 6]
    with pytest.raises(DimensionMismatch):
        vec_mat([1, 1, 1], m)


def test_empty_matrix_needs_explicit_cols(gf13):
    with pytest.raises(DimensionMismatch):
        Matrix(gf13, [])
    z = Matrix(gf13, [], cols=4)
    assert z.shape == (0, 4)
    assert z.rank() == 0
    assert (z @ Matrix(gf13, [[0, 0]] * 4)).shape == (0, 2)


def test_entries_always_canonical(gf13):
    m = Matrix(gf13, [[-1, 14], [26, -13]])
    assert m.data == ((12, 1), (0, 0))


# --- packed product and symbol codec ------------------------------------


@pytest.mark.parametrize(
    "p, k, width",
    [
        (257, 65535, 4),
        (257, 65536, 8),
        (65521, 1, 4),
        (65521, 2, 8),
        (2**31 - 1, 4, 8),
        (2**31 - 1, 5, 9),
        (2**31 - 1, 0, 8),  # no rows: sized to hold a canonical entry
    ],
)
def test_slot_width_crossovers(p, k, width):
    assert slot_width(p, k) == width


@st.composite
def products(draw):
    """Two matrices that multiply over one of the fields the kernel must cover.

    Entries are drawn from p-1 (the worst case for the slot bound), 0 and
    anything in between; shapes include empty rows, columns and inner
    dimensions, and both wide and tall left operands.
    """
    p = draw(st.sampled_from([13, 257, 65521, 2**31 - 1, 2**61 - 1]))
    rows, inner, cols = (draw(st.integers(0, 7)) for _ in range(3))
    entry = st.one_of(st.just(p - 1), st.just(0), st.integers(0, p - 1))
    field = Field(p)

    def matrix(r, c):
        return Matrix(field, [[draw(entry) for _ in range(c)] for _ in range(r)], cols=c)

    return matrix(rows, inner), matrix(inner, cols)


@settings(max_examples=300, deadline=None)
@given(products())
def test_product_matches_triple_loop(operands):
    a, b = operands
    product = a @ b
    assert product.shape == (a.rows, b.cols)
    assert product.data == matmul_scalar(a, b)


@pytest.mark.parametrize("p", [13, 257, 65521, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("shape", [(2, 5, 9), (9, 5, 2), (3, 4, 3), (0, 3, 4), (4, 3, 0), (5, 0, 2), (2, 0, 5)])
def test_product_of_full_entries(p, shape):
    """Every entry at p - 1 fills each slot to the bound, in both orientations and with empty dimensions."""
    rows, inner, cols = shape
    field = Field(p)
    a = Matrix(field, [[p - 1] * inner for _ in range(rows)], cols=inner)
    b = Matrix(field, [[p - 1] * cols for _ in range(inner)], cols=cols)
    product = a @ b
    assert product.shape == (rows, cols)
    assert product.data == matmul_scalar(a, b)


@pytest.mark.parametrize("p, width", [(13, 1), (257, 2), (65537, 3), (2**31 - 1, 4), (2**61 - 1, 8), (2**64 + 13, 9)])
def test_symbol_codec_round_trip(p, width):
    """Every width, array-backed or generic, writes little-endian and checks the range."""
    values = [0, 1, p - 1, p // 2]
    blob = pack_symbols(values, p)
    assert element_width(p) == width
    assert blob == b"".join(v.to_bytes(width, "little") for v in values)
    assert unpack_symbols(blob, p) == values
    with pytest.raises(ValueError, match="symbol out of field range"):
        pack_symbols(values + [p], p)
    with pytest.raises(ValueError, match="symbol out of field range"):
        unpack_symbols(blob + p.to_bytes(width, "little"), p)


# --- the linear-combination kernel ---------------------------------------


@st.composite
def combinations(draw):
    """K rows and K x r weights over one of the kernel's fields, at L in {0, 1, r-1, r, r+1}.

    Entries are drawn from p-1 (the worst case for the slot bound), 0 and
    anything in between; L < r packs the weights, L >= r the rows.
    """
    p = draw(st.sampled_from([13, 257, 65521, 2**31 - 1, 2**61 - 1]))
    k, r = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    length = draw(st.sampled_from([0, 1, r - 1, r, r + 1]))
    entry = st.one_of(st.just(p - 1), st.just(0), st.integers(0, p - 1))
    rows = [[draw(entry) for _ in range(length)] for _ in range(k)]
    weights = [[draw(entry) for _ in range(r)] for _ in range(k)]
    return p, rows, weights


@settings(max_examples=400, deadline=None)
@given(combinations())
def test_combine_rows_matches_triple_loop(case):
    """Output i is the sum of weights[k][i] * rows[k], whichever side is packed."""
    p, rows, weights = case
    field = Field(p)
    length = len(rows[0])
    expected = matmul_scalar(Matrix(field, list(zip(*weights))), Matrix(field, rows, cols=length))
    assert combine_rows(rows, Matrix(field, weights)) == expected
    assert combine_rows([tuple(row) for row in rows], Matrix(field, weights)) == expected  # any sequences


@pytest.mark.parametrize("p", [13, 2**64 + 13])  # array-backed and generic slots
@pytest.mark.parametrize("r", [0, 1, 3])
def test_combine_rows_of_no_rows_gives_r_empty_outputs(p, r):
    """No rows and a 0 x r weight Matrix: r empty outputs, and the transpose has r empty rows."""
    weights = Matrix(Field(p), [], cols=r)
    assert combine_rows([], weights) == [[]] * r
    assert weights.unit_columns[0] == weights.T.data == ((),) * r and weights.T.shape == (r, 0)


@pytest.mark.parametrize("length", [1, 5])  # fewer entries than outputs, and more
def test_combine_rows_rejects_ragged_rows(length):
    rows, field = [[1] * length, [1] * (length + 1)], Field(257)
    with pytest.raises(DimensionMismatch, match="ragged rows"):
        combine_rows(rows, Matrix(field, [[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(DimensionMismatch):
        combine_rows([[1] * length] * 2, Matrix(field, [[1, 2, 3]]))  # one weight row for two rows


@pytest.mark.parametrize("p", [13, 257, 65521, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("length", [1, 5])  # fewer entries than outputs, and more
def test_combine_rows_range_is_the_field(p, length):
    """Entries up to p - 1 combine exactly; a negative one, p, or one past the symbol width raises ValueError."""
    weights = Matrix(Field(p), [[1, 2, 3], [4, 5, 6]])
    assert combine_rows([[p - 1] * length, [0] * length], weights) == [[(p - 1) * c % p] * length for c in (1, 2, 3)]
    for bad in (-1, p, 1 << 8 * element_width(p)):
        rows = [[0] * length, [0] * (length - 1) + [bad]]
        with pytest.raises(ValueError, match=rf"field range \[0, {p}\)"):
            combine_rows(rows, weights)


@pytest.mark.parametrize("k, width", [(65535, 4), (65536, 8)])
def test_combine_rows_exact_at_slot_crossover(k, width):
    """At p = 257 the kernel's slots follow slot_width(257, k): k * 256**2 fills a 4-byte slot up to k = 65535."""
    assert slot_width(257, k) == width
    for length in (1, 3):  # weights packed, rows packed
        rows = [[256] * length] * k
        expected = k * 256 * 256 % 257
        assert combine_rows(rows, Matrix(Field(257), [[256, 256]] * k)) == [[expected] * length] * 2


# --- range checks at their edges and unit weight columns ----------------

RANGE_MODULI = [13, 257, 65521, 65537, 2**31 - 1, 2**61 - 1, 2**64 + 13]


def edge_entries(p, slots):
    """The entries each range test turns on over GF(p), with b = p.bit_length(), for each slot width."""
    b = p.bit_length()
    edges = {-1, p - 1, p, (1 << b) - 1, 1 << b, 2**16 + 5}
    for slot in slots:
        edges |= {(1 << 8 * slot) - 1, 1 << 8 * slot}
    return sorted(edges)


def entry_lists(draw, p, slots, count):
    """count entries: all in [0, p), or drawn from the edge entries as well."""
    canonical = st.one_of(st.just(p - 1), st.just(0), st.integers(0, p - 1))
    entry = st.one_of(canonical, st.sampled_from(edge_entries(p, slots))) if draw(st.booleans()) else canonical
    return draw(st.lists(entry, min_size=count, max_size=count))


def exact_message(message):
    return f"^{re.escape(message)}$"


@st.composite
def edge_combinations(draw):
    """K rows at L in {0, 1, r-1, r, r+1} (both orientations) with entries at the range tests' edges."""
    p = draw(st.sampled_from(RANGE_MODULI))
    k, r = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    length = draw(st.sampled_from([0, 1, r - 1, r, r + 1]))
    entries = entry_lists(draw, p, {element_width(p), slot_width(p, k)}, k * length)
    weights = [draw(st.lists(st.integers(0, p - 1), min_size=r, max_size=r)) for _ in range(k)]
    return p, [entries[i * length : (i + 1) * length] for i in range(k)], weights


@settings(max_examples=400, deadline=None)
@given(edge_combinations())
def test_combine_rows_rejects_exactly_the_entries_outside_the_field(case):
    p, rows, weights = case
    if any(not 0 <= v < p for row in rows for v in row):
        with pytest.raises(ValueError, match=exact_message(f"operand entry out of field range [0, {p})")):
            combine_rows(rows, Matrix(Field(p), weights))
    else:
        expected = matmul_scalar(Matrix(Field(p), list(zip(*weights))), Matrix(Field(p), rows, cols=len(rows[0])))
        assert combine_rows(rows, Matrix(Field(p), weights)) == expected


@st.composite
def weight_edge_combinations(draw):
    """Canonical rows at L in {0, 1, r-1, r, r+1} (both orientations) with weights at the range tests' edges."""
    p = draw(st.sampled_from(RANGE_MODULI))
    k, r = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    length = draw(st.sampled_from([0, 1, r - 1, r, r + 1]))
    rows = [draw(st.lists(st.integers(0, p - 1), min_size=length, max_size=length)) for _ in range(k)]
    entries = entry_lists(draw, p, {slot_width(p, k)}, k * r)
    return p, rows, [entries[i * r : (i + 1) * r] for i in range(k)]


@settings(max_examples=400, deadline=None)
@given(weight_edge_combinations())
def test_combine_rows_reduces_weights_outside_the_field(case):
    """A Matrix holds a weight outside [0, p) reduced, so the product is the reduced weight's: none overflows a slot."""
    p, rows, weights = case
    expected = matmul_scalar(Matrix(Field(p), list(zip(*weights))), Matrix(Field(p), rows, cols=len(rows[0])))  # reduced
    assert combine_rows(rows, Matrix(Field(p), weights)) == expected


@pytest.mark.parametrize("weight", [2**25, 257, -1])
def test_weight_outside_the_field_never_reaches_a_slot(weight):
    """A Matrix of 2**25 (whose 2**25 * 256 would carry out of its 4-byte slot into the next output),
    257 or -1 (which would not pack) gives the scalar oracle of the reduced weight."""
    weights = Matrix(Field(257), [[weight]])
    assert weights.data == ((weight % 257,),)
    assert combine_rows([[256, 0]], weights) == [[256 * (weight % 257) % 257, 0]]


def test_weights_refuse_ragged_rows_and_another_field():
    with pytest.raises(DimensionMismatch, match="ragged rows"):
        Matrix(Field(257), [[1, 2], [3]])
    weights = Matrix(Field(257), [[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch, match="moduli differ"):
        weights @ Matrix(Field(13), [[1], [2]])
    with pytest.raises(DimensionMismatch, match="2 weight rows for 3 rows"):
        combine_rows([[1], [2], [3]], weights)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_symbol_codec_rejects_exactly_the_symbols_outside_the_field(data):
    """pack_symbols checks 2-byte symbols before narrowing them; unpack_symbols checks every width it reads."""
    p = data.draw(st.sampled_from(RANGE_MODULI))
    width = element_width(p)
    values = entry_lists(data.draw, p, {width, 4}, data.draw(st.integers(0, 12)))
    in_field = all(0 <= v < p for v in values)
    if in_field:
        assert pack_symbols(values, p) == b"".join(v.to_bytes(width, "little") for v in values)
    else:
        with pytest.raises(ValueError, match=exact_message("symbol out of field range")):
            pack_symbols(values, p)
    stored = [v for v in values if 0 <= v < 1 << 8 * width]  # what a blob can hold
    blob = b"".join(v.to_bytes(width, "little") for v in stored)
    if all(v < p for v in stored):
        assert unpack_symbols(blob, p) == stored
    else:
        with pytest.raises(ValueError, match=exact_message("symbol out of field range")):
            unpack_symbols(blob, p)


@pytest.mark.parametrize("p", [251, 257])
def test_pack_symbols_never_narrows_an_out_of_range_symbol(p):
    """2**16 + 5 would be written as 5 at p = 257 if the 2-byte codec narrowed it unchecked; p = 251 fills its byte."""
    for bad in (p, 1 << 8 * element_width(p), 2**16 + 5):
        with pytest.raises(ValueError, match=exact_message("symbol out of field range")):
            pack_symbols([0, bad, 1], p)
    with pytest.raises(ValueError, match=exact_message("symbol out of field range")):
        unpack_symbols(p.to_bytes(element_width(p), "little"), p)


@st.composite
def unit_mixes(draw, any_length=False):
    """Weight columns each a unit, zero, scaled-unit (2 e_k) or dense column.

    Rows are packed (L >= r), or with *any_length* L is also 0 or below r,
    where the weights are packed.
    """
    p = draw(st.sampled_from([13, 257, 65521, 2**31 - 1, 2**61 - 1]))
    k, r = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    length = draw(st.integers(0, r + 4) if any_length else st.integers(r, r + 4))
    entry = st.one_of(st.just(p - 1), st.just(0), st.integers(0, p - 1))
    rows = [[draw(entry) for _ in range(length)] for _ in range(k)]
    columns = []
    for _ in range(r):
        kind, at = draw(st.sampled_from(["unit", "zero", "scaled", "dense"])), draw(st.integers(0, k - 1))
        if kind == "dense":
            columns.append([draw(entry) for _ in range(k)])
        else:
            columns.append([{"unit": 1, "zero": 0, "scaled": 2}[kind] if i == at else 0 for i in range(k)])
    return p, rows, [list(w) for w in zip(*columns)]


@settings(max_examples=300, deadline=None)
@given(unit_mixes())
def test_unit_weight_columns_are_fresh_copies(case):
    """Unit columns copy their row, others multiply; mutating any output never touches an input row."""
    p, rows, weights = case
    field, before = Field(p), [row[:] for row in rows]
    expected = matmul_scalar(Matrix(field, list(zip(*weights))), Matrix(field, rows, cols=len(rows[0])))
    outputs = combine_rows(rows, Matrix(field, weights))
    product = Matrix(field, list(zip(*weights))) @ Matrix.wrap(field, rows, len(rows[0]))
    assert outputs == product.data == expected
    for output in outputs + product.data:
        output[0] += 1
    assert rows == before


@settings(max_examples=300, deadline=None)
@given(unit_mixes(any_length=True))
def test_weights_match_plain_weights(case):
    """A shared Matrix gives the scalar oracle's outputs of its weights in both orientations, fresh lists every time,
    and never changes."""
    p, rows, weights = case
    shared, before = Matrix(Field(p), weights), [row[:] for row in rows]
    expected = matmul_scalar(Matrix(Field(p), list(zip(*weights))), Matrix(Field(p), rows, cols=len(rows[0])))
    units = tuple(column.index(1) if sorted(column) == [0] * (len(column) - 1) + [1] else None for column in zip(*weights))
    state = (shared.data, shared.cols, shared.unit_columns, shared.T)
    assert state[:3] == (tuple(map(tuple, weights)), len(weights[0]), (tuple(zip(*weights)), units))
    assert shared.T.data == tuple(zip(*weights)) and shared.T.shape == (len(weights[0]), len(weights))
    for _ in range(3):  # the first product may pack the weights, the others reuse them
        outputs = combine_rows(rows, shared)
        assert outputs == expected
        assert all(type(output) is list for output in outputs)
        assert len({id(output) for output in outputs + rows}) == len(outputs) + len(rows)
        for output in outputs:
            if output:
                output[0] += 1
        assert rows == before
        assert (shared.data, shared.cols, shared.unit_columns) == state[:3]
        assert shared.unit_columns is state[2] and shared.T is state[3]  # prepared once
    if len(rows[0]) < len(weights[0]):  # weights packed: once, then the same ints
        packed = shared.packed_rows
        assert packed is shared.packed_rows
        slot = slot_width(p, len(weights))
        assert packed == tuple(int.from_bytes(b"".join(v.to_bytes(slot, "little") for v in row), "little") for row in weights)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10), st.sampled_from([0, 1, 4, 5, 6, 40]), st.data())
def test_interleave_matches_scalar_oracle(count, length, data):
    """Columns side by side, row after row, on both sides of the zip / slice crossover at 5 entries."""
    columns = [data.draw(st.lists(st.integers(-5, 2**70), min_size=length, max_size=length)) for _ in range(count)]
    assert interleave(columns) == [column[t] for t in range(length) for column in columns]
    assert interleave([tuple(column) for column in columns]) == interleave(columns)  # any sequences


@st.composite
def signed_terms(draw):
    """1-6 (sign, sequence) terms of one length 0-50 over one of four moduli, entries negative or >= p too."""
    p = draw(st.sampled_from([13, 257, 65537, 2**61 - 1]))
    length, count = draw(st.integers(0, 50)), draw(st.integers(1, 6))
    entries = draw(st.lists(st.integers(-3 * p, 3 * p), min_size=length * count, max_size=length * count))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=count, max_size=count))
    return p, [(sign, entries[t * length : (t + 1) * length]) for t, sign in enumerate(signs)]


@settings(max_examples=200, deadline=None)
@given(signed_terms())
def test_signed_sums_matches_scalar_oracle(case):
    """Canonical entry-wise signed sums, whichever term carries the first +1 sign, or none."""
    p, terms = case
    expected = signed_sums_scalar(terms, p)
    assert signed_sums(terms, p) == expected
    assert signed_sums([(sign, tuple(seq)) for sign, seq in terms], p) == expected  # any sequences
    assert all(0 <= v < p for v in expected)
