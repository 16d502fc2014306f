import random
import re
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import detcode
from detcode.field import (
    WINDOW,
    CompositeModulus,
    DimensionMismatch,
    Field,
    FieldTooLarge,
    Matrix,
    Singular,
    _folded,
    _masks,
    batch_product,
    combine_rows,
    element_width,
    is_prime,
    next_prime_at_least,
    pack_symbols,
    reduced,
    slot_width,
    symbol_typecode,
    unpack_symbols,
)
from detcode.code import MessageMatrix, ParityViolation, build_message_matrix, derive_params, source_cells
from detcode.repair import RepairPayload, combine_repair_space
from detcode.subsets import binom, incidence, subsets
from oracles import (
    as_lists,
    first_nonzero_scalar,
    identity,
    is_zero,
    matmul_scalar,
    plane_major,
    reduced_scalar,
    signed_sums_scalar,
    stripe_rows,
    symbol_body_spec,
    vec_mat,
)


@pytest.mark.parametrize("bad", [0, 1, 4, 12, 100, 13 * 17])
def test_composite_modulus_rejected(bad):
    with pytest.raises(CompositeModulus):
        Field(bad)


@pytest.mark.parametrize("p", [2, 3, 13, 257, 65537, 2**64 - 59])  # up to the largest prime below 2**64
def test_prime_moduli_accepted(p):
    assert Field(p).p == p


PSEUDOPRIME = 318665857834031151167461  # 399165290221 * 798330580441, a strong pseudoprime to bases 2 to 37
LARGE_MODULI = [2**64 + 13, 2**89 - 1, PSEUDOPRIME]


@pytest.mark.parametrize("p", LARGE_MODULI)
def test_field_refuses_a_modulus_of_two_to_the_64_or_more(p):
    """No machine word holds such a field's symbols, prime (2**64 + 13, 2**89 - 1) or not: refused naming p, before
    any primality test (which is not exact there)."""
    with pytest.raises(FieldTooLarge, match=rf"^p = {p} is 2\*\*64 or more"):
        Field(p)


@pytest.mark.parametrize("p", LARGE_MODULI)
def test_every_entry_of_a_bare_modulus_refuses_two_to_the_64_or_more(p):
    """No entry that takes p itself returns a result over such a modulus. Unchecked, unpack_symbols would read the
    72 bytes of eight 9-byte symbols as nine 8-byte items."""
    body = RepairPayload((3,), 1, 2, [0] * 8).to_bytes(13)[:-8] + bytes(72)  # a valid v4 header for eight symbols
    calls = [
        lambda: unpack_symbols(bytes(72), p),
        lambda: pack_symbols([0], p),
        lambda: reduced([1, 2], p),
        lambda: element_width(p),
        lambda: slot_width(p, 1),
        lambda: RepairPayload.from_bytes(body, p),
        lambda: RepairPayload((3,), 1, 2, [0] * 8).to_bytes(p),
    ]
    for call in calls:
        with pytest.raises(FieldTooLarge):
            call()


def test_is_prime_refuses_to_answer_from_two_to_the_64():
    """Miller-Rabin to bases 2 to 37 is exact only below 2**64 here: the smallest strong pseudoprime to all twelve
    (Sorenson and Webster, 2017) raises rather than passing as prime, and no prime search runs past 2**64."""
    for n in (PSEUDOPRIME, 2**64, 2**64 + 13):
        with pytest.raises(ValueError, match=r"exact only below 2\*\*64"):
            is_prime(n)
    assert is_prime(2**64 - 59) and not is_prime(2**64 - 1)
    with pytest.raises(ValueError, match=r"exact only below 2\*\*64"):
        next_prime_at_least(2**64 - 58)  # 2**64 - 59 is the largest prime below 2**64


def test_a_big_endian_host_cannot_import_the_package():
    """The shard and wire formats are little-endian and arrays are packed as their own buffers, so the import fails
    on a big-endian host, naming its byte order: checked in a fresh interpreter that reports big-endian."""
    source = str(Path(detcode.__file__).parents[1])
    script = (
        f"import sys; sys.path.insert(0, {source!r}); sys.byteorder = 'big'\n"
        "try:\n    import detcode\nexcept ImportError as exc:\n    print(exc)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert result.stdout == "detcode needs a little-endian host; this one is big-endian\n"


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
    assert as_lists(product.data) == matmul_scalar(a, b)


@pytest.mark.parametrize("p", [13, 257, 65521, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("shape", [(2, 5, 9), (9, 5, 2), (3, 4, 3), (0, 3, 4), (4, 3, 0), (5, 0, 2), (2, 0, 5)])
def test_product_of_full_entries(p, shape):
    """Every entry at p - 1 fills each slot to the bound, with fewer entries than outputs or more and with empty
    dimensions."""
    rows, inner, cols = shape
    field = Field(p)
    a = Matrix(field, [[p - 1] * inner for _ in range(rows)], cols=inner)
    b = Matrix(field, [[p - 1] * cols for _ in range(inner)], cols=cols)
    product = a @ b
    assert product.shape == (rows, cols)
    assert as_lists(product.data) == matmul_scalar(a, b)


@pytest.mark.parametrize("p, width", [(13, 1), (257, 2), (65537, 3), (2**31 - 1, 4), (2**61 - 1, 8)])
def test_symbol_codec_round_trip(p, width):
    """Every width writes little-endian and checks the range; at p = 257 the one 256 of four symbols makes the
    escaped layout longer, so the body is the fixed one: tag 2, then two bytes per symbol."""
    values = [0, 1, p - 1, p // 2]
    blob = pack_symbols(values, p)
    assert element_width(p) == width
    assert blob == symbol_body_spec(values, p) == (b"\x02" if p == 257 else b"") + b"".join(v.to_bytes(width, "little") for v in values)
    assert list(unpack_symbols(blob, p)) == values
    with pytest.raises(ValueError, match="symbol out of field range"):
        pack_symbols(values + [p], p)
    with pytest.raises(ValueError, match="symbol out of field range"):
        unpack_symbols(blob + p.to_bytes(width, "little"), p)


# --- the linear-combination kernel ---------------------------------------


@st.composite
def combinations(draw):
    """K rows and K x r weights over one of the kernel's fields, at L in {0, 1, r-1, r, r+1}.

    Entries are drawn from p-1 (the worst case for the slot bound), 0 and
    anything in between; L < r gives fewer entries than outputs, L >= r more.
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
    """Output i is the sum of weights[k][i] * rows[k], with fewer entries than outputs or more."""
    p, rows, weights = case
    field = Field(p)
    length = len(rows[0])
    expected = matmul_scalar(Matrix(field, list(zip(*weights))), Matrix(field, rows, cols=length))
    assert as_lists(combine_rows(rows, Matrix(field, weights))) == expected
    assert as_lists(combine_rows([tuple(row) for row in rows], Matrix(field, weights))) == expected  # any sequences


@pytest.mark.parametrize("p", [13, 2**61 - 1])  # machine-word and 16-byte slots
@pytest.mark.parametrize("r", [0, 1, 3])
def test_combine_rows_of_no_rows_gives_r_empty_outputs(p, r):
    """No rows and a 0 x r weight Matrix: r empty outputs, and the transpose has r empty rows."""
    weights = Matrix(Field(p), [], cols=r)
    assert as_lists(combine_rows([], weights)) == [[]] * r
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
    assert as_lists(combine_rows([[p - 1] * length, [0] * length], weights)) == [[(p - 1) * c % p] * length for c in (1, 2, 3)]
    for bad in (-1, p, 1 << 8 * element_width(p)):
        rows = [[0] * length, [0] * (length - 1) + [bad]]
        with pytest.raises(ValueError, match=rf"field range \[0, {p}\)"):
            combine_rows(rows, weights)


@pytest.mark.parametrize("k, width", [(65535, 4), (65536, 8)])
def test_combine_rows_exact_at_slot_crossover(k, width):
    """At p = 257 the kernel's slots follow slot_width(257, k): k * 256**2 fills a 4-byte slot up to k = 65535."""
    assert slot_width(257, k) == width
    weights, expected = Matrix(Field(257), [[256, 256]] * k), k * 256 * 256 % 257
    for length in (1, 3):  # fewer entries than outputs, and more
        assert as_lists(combine_rows([[256] * length] * k, weights)) == [[expected] * length] * 2
    assert list(batch_product([([256] * k, k)], weights)[0]) == [expected] * 2  # one stripe: the weights packed


# --- range checks at their edges and unit weight columns ----------------

RANGE_MODULI = [13, 257, 65521, 65537, 2**31 - 1, 2**61 - 1]


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
    """K rows at L in {0, 1, r-1, r, r+1} (fewer entries than outputs, and more) with entries at the range tests'
    edges."""
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
        assert as_lists(combine_rows(rows, Matrix(Field(p), weights))) == expected


@st.composite
def weight_edge_combinations(draw):
    """Canonical rows at L in {0, 1, r-1, r, r+1} (fewer entries than outputs, and more) with weights at the range tests'
    edges."""
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
    assert as_lists(combine_rows(rows, Matrix(Field(p), weights))) == expected


@pytest.mark.parametrize("weight", [2**25, 257, -1])
def test_weight_outside_the_field_never_reaches_a_slot(weight):
    """A Matrix of 2**25 (whose 2**25 * 256 would carry out of its 4-byte slot into the next output),
    257 or -1 (which would not pack) gives the scalar oracle of the reduced weight."""
    weights = Matrix(Field(257), [[weight]])
    assert weights.data == ((weight % 257,),)
    assert as_lists(combine_rows([[256, 0]], weights)) == [[256 * (weight % 257) % 257, 0]]


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
        assert pack_symbols(values, p) == symbol_body_spec(values, p)
    else:
        with pytest.raises(ValueError, match=exact_message("symbol out of field range")):
            pack_symbols(values, p)
    stored = [v for v in values if 0 <= v < 1 << 8 * width]  # what a blob can hold
    if all(v < p for v in stored):
        assert list(unpack_symbols(symbol_body_spec(stored, p), p)) == stored
    else:  # at p = 257 such symbols fit only the fixed layout, tag 2
        blob = (b"\x02" if p == 257 else b"") + b"".join(v.to_bytes(width, "little") for v in stored)
        with pytest.raises(ValueError, match=exact_message("symbol out of field range")):
            unpack_symbols(blob, p)


@pytest.mark.parametrize("p", [251, 257])
def test_pack_symbols_never_narrows_an_out_of_range_symbol(p):
    """2**16 + 5 would be written as 5 at p = 257 if the 2-byte codec narrowed it unchecked; p = 251 fills its byte."""
    for bad in (p, 1 << 8 * element_width(p), 2**16 + 5):
        with pytest.raises(ValueError, match=exact_message("symbol out of field range")):
            pack_symbols([0, bad, 1], p)
    tag = b"\x02" if p == 257 else b""  # p itself in the fixed layout of GF(257)
    with pytest.raises(ValueError, match=exact_message("symbol out of field range")):
        unpack_symbols(tag + p.to_bytes(element_width(p), "little"), p)


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
    assert as_lists(outputs) == as_lists(product.data) == expected
    for output in outputs + product.data:
        output[0] += 1
    assert rows == before


@settings(max_examples=300, deadline=None)
@given(unit_mixes(any_length=True))
def test_weights_match_plain_weights(case):
    """A shared Matrix gives the scalar oracle's outputs of its weights at any length, fresh lists every time, and
    never changes; its packed rows (batch_product's packed weights) are built once."""
    p, rows, weights = case
    shared, before = Matrix(Field(p), weights), [row[:] for row in rows]
    expected = matmul_scalar(Matrix(Field(p), list(zip(*weights))), Matrix(Field(p), rows, cols=len(rows[0])))
    units = tuple(column.index(1) if sorted(column) == [0] * (len(column) - 1) + [1] else None for column in zip(*weights))
    state = (shared.data, shared.cols, shared.unit_columns, shared.T)
    assert state[:3] == (tuple(map(tuple, weights)), len(weights[0]), (tuple(zip(*weights)), units))
    assert shared.T.data == tuple(zip(*weights)) and shared.T.shape == (len(weights[0]), len(weights))
    for _ in range(3):  # the first product may prepare the weights, the others reuse them
        outputs = combine_rows(rows, shared)
        assert as_lists(outputs) == expected
        assert all(type(output) is array and output.typecode == symbol_typecode(p) for output in outputs)
        assert len({id(output) for output in outputs + rows}) == len(outputs) + len(rows)
        for output in outputs:
            if output:
                output[0] += 1
        assert rows == before
        assert (shared.data, shared.cols, shared.unit_columns) == state[:3]
        assert shared.unit_columns is state[2] and shared.T is state[3]  # prepared once
    packed = shared.packed_rows  # once, then the same ints, unit columns included
    assert packed is shared.packed_rows
    slot = slot_width(p, len(weights))
    assert packed == tuple(int.from_bytes(b"".join(v.to_bytes(slot, "little") for v in row), "little") for row in weights)


BATCH_PRIMES = [13, 257, 263, 65537, 2**61 - 1]  # % p at 4, 4, 8 and 16 bytes a slot, and the GF(257) fold


@st.composite
def stripe_batches(draw):
    """(p, stripes, parts, weights): 1-3 plane-major parts (arrays or lists) of 0, 1, 7, 9 or WINDOW +- 1 stripes side by
    side and a weight Matrix with or without unit columns, of up to 12 columns: fewer than the stripes (the windows)
    or more (the packed weights, folded at p = 257: the kernel's only weight-packed products)."""
    p = draw(st.sampled_from(BATCH_PRIMES))
    stripes = draw(st.sampled_from([0, 1, 7, 9, WINDOW - 1, WINDOW + 1]))
    widths = draw(st.lists(st.integers(1, 2 if stripes > WINDOW // 2 else 4), min_size=1, max_size=3))
    rows, cols = sum(widths), draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    weights = [[rng.choice([0, 1, p - 1, rng.randrange(p)]) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, cols - 1))):  # unit columns
        for k, row in enumerate(weights):
            row[i] = int(k == i % rows)
    code = symbol_typecode(p)
    parts = [([rng.randrange(p) for _ in range(stripes * w)], w) for w in widths]
    parts = [(array(code, flat) if draw(st.booleans()) else flat, w) for flat, w in parts]
    return p, stripes, parts, Matrix(Field(p), weights)


@settings(max_examples=80, deadline=None)
@given(stripe_batches(), st.data())
def test_batch_product_matches_scalar_oracle(case, data):
    """Stripe s of the product is stripe s of the parts side by side times the weights, plane-major, in both
    orientations and split into any number of blocks of columns dividing them, leaving the parts as they were; an
    entry outside the field raises the kernel's ValueError, a partial stripe, unequal stripe counts, a width sum
    other than the weight rows or blocks not dividing the columns DimensionMismatch."""
    p, stripes, parts, weights = case
    before = [stripe_rows(flat, w) for flat, w in parts]
    batch = [[v for part in before for v in part[s]] for s in range(stripes)]
    expected = matmul_scalar(Matrix(Field(p), batch, cols=weights.rows), weights)
    out = batch_product(parts, weights)
    assert len(out) == 1 and type(out[0]) is array and out[0].typecode == symbol_typecode(p)
    assert list(out[0]) == plane_major(expected)
    blocks = data.draw(st.sampled_from([b for b in range(2, weights.cols + 1) if weights.cols % b == 0] or [1]))
    width = weights.cols // blocks
    out = batch_product(parts, weights, blocks)
    assert all(type(block) is array and block.typecode == symbol_typecode(p) for block in out)
    assert as_lists(out) == [plane_major([row[b * width : (b + 1) * width] for row in expected]) for b in range(blocks)]
    assert [stripe_rows(flat, w) for flat, w in parts] == before
    if stripes:
        i = data.draw(st.integers(0, len(parts) - 1))
        bad = list(parts[i][0])
        bad[data.draw(st.integers(0, len(bad) - 1))] = data.draw(st.sampled_from([p, 2 * p - 1, p + 2**32, 2**64]))
        with pytest.raises(ValueError, match=exact_message(f"operand entry out of field range [0, {p})")):
            batch_product(parts[:i] + [(bad, parts[i][1])] + parts[i + 1 :], weights)
    i = data.draw(st.integers(0, len(parts) - 1))
    if parts[i][1] > 1 or len(parts) > 1:  # one more symbol: a partial stripe, or a stripe count of its own
        with pytest.raises(DimensionMismatch):
            batch_product(parts[:i] + [([*parts[i][0], 0], parts[i][1])] + parts[i + 1 :], weights)
    with pytest.raises(DimensionMismatch):
        batch_product(parts + [([0] * stripes, 1)], weights)
    with pytest.raises(DimensionMismatch):
        batch_product(parts, weights, weights.cols + 1)


# --- windows, the GF(257) fold and the alternating sums as products ----


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2, 255, 256, 257, 65535]), st.sampled_from([*range(1, 10), WINDOW - 1, WINDOW]), st.data())
def test_fold_matches_scalar_reduction(k, count, data):
    """A window of any length, one slot to WINDOW, folded mod 257 equals % 257 per slot, for slot values at the fold's
    edges: 0, p - 1, p, 2**16, 2**17 - 1 and the largest k products admit, k * 256**2, with k on both sides of the
    second fold (k > 256) and up to the largest k a 4-byte slot admits."""
    largest = k * 256 * 256
    assert slot_width(257, k) == 4 and slot_width(257, k + 1) == (4 if k < 65535 else 8)
    edges = [v for v in (0, 256, 257, 2**16, 2**17 - 1, largest - 1, largest) if v <= largest]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    values = [rng.choice(edges) if rng.random() < 0.5 else rng.randrange(largest + 1) for _ in range(count)]
    values[data.draw(st.integers(0, count - 1))] = data.draw(st.sampled_from(edges))
    acc = int.from_bytes(b"".join(v.to_bytes(4, "little") for v in values), "little")
    assert list(_folded(acc, count, k, _masks(count, 4, 257))) == reduced_scalar(values, 257)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([257, 65521]), st.booleans(), st.data())
def test_combine_rows_exact_across_windows_and_the_fold_threshold(p, more_entries, data):
    """Rows of WINDOW - 1, WINDOW, WINDOW + 1 and 2 * WINDOW + 1 entries (whole windows and tails) and of 7 to 9
    entries, or of 1 to 2 entries into 7 to 9 outputs, give the scalar oracle at p = 257 and at another prime (% p).
    Every one runs windowed, and at p = 257 every window is folded, the shortest (one entry) included: no length
    switches a window to % p."""
    short = [7, 8, 9]
    if more_entries:
        length, r = data.draw(st.sampled_from([WINDOW - 1, WINDOW, WINDOW + 1, 2 * WINDOW + 1, *short])), data.draw(st.integers(1, 3))
    else:
        length, r = data.draw(st.integers(1, 2)), data.draw(st.sampled_from(short))
    k = data.draw(st.integers(1, 4))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    rows = [[rng.choice((0, p - 1, rng.randrange(p))) for _ in range(length)] for _ in range(k)]
    weights = [[rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(r)] for _ in range(k)]
    field = Field(p)
    expected = matmul_scalar(Matrix(field, list(zip(*weights))), Matrix(field, rows, cols=length))
    assert as_lists(combine_rows(rows, Matrix(field, weights))) == expected


SIGN_PRIMES = [13, 257, 263, 65537, 2**61 - 1]  # % p at 4, 4, 8 and 16 bytes a slot, and the GF(257) fold


@st.composite
def sign_column_cases(draw):
    """(p, d, m, stripes): p in SIGN_PRIMES, d in 1..5, m = 1, d - 1, d or any in between, 0-3 stripes, or
    WINDOW - 1 or WINDOW + 1 stripes where d <= 3."""
    p, d = draw(st.sampled_from(SIGN_PRIMES)), draw(st.integers(1, 5))
    m = draw(st.sampled_from(sorted({1, max(d - 1, 1), d, draw(st.integers(1, d))})))
    stripes = draw(st.sampled_from([0, 1, 2, 3] + ([WINDOW - 1, WINDOW + 1] if d <= 3 else [])))
    return p, d, m, stripes


@settings(max_examples=60, deadline=None)
@given(sign_column_cases(), st.randoms(use_true_random=False))
def test_parity_completion_and_readout_match_scalar_oracle(case, rng):
    """Parity completion and the repair readout, each one product by a sign column, give what one scalar signed
    sum per parity group or column label gives: with the fold, % p and 16-byte slots, m = 1 (a one-entry sign
    column), m = d - 1, m = d (no parity groups), no stripe or repair space, one, and counts on both sides of
    WINDOW."""
    p, d, m, stripes = case
    alpha, _, per_stripe = derive_params(d, m)
    source = [rng.randrange(p) for _ in range(stripes * per_stripe)]
    expected = [[[0] * alpha for _ in range(stripes)] for _ in range(d)]  # row, stripe, position
    for t, (r, c) in enumerate(source_cells(d, m)):
        for s in range(stripes):
            expected[r][s][c] = source[s * per_stripe + t]
    table = incidence(d, m + 1) if m < d else ()
    for g in range(0, len(table), m + 1):  # the parity cell, the largest member's, makes the group's sum vanish
        *others, (_, x, i, sign) = table[g : g + m + 1]
        for s in range(stripes):
            expected[x - 1][s][i] = sum(-sign * z * expected[y - 1][s][j] for _, y, j, z in others) % p
    assert as_lists(build_message_matrix(source, d, m, Field(p)).matrix.data) == [plane_major(row) for row in expected]

    seg, alpha, groups = binom(d, m - 1), binom(d, m), rng.randint(1, 3)
    space = [array(symbol_typecode(p), [rng.randrange(p) for _ in range(groups * stripes * seg)]) for _ in range(d)]
    sums = []  # group after group, label after label
    for g in range(groups):
        labels = [[] for _ in range(alpha)]
        for i, x, j, sign in incidence(d, m):
            start = (g * seg + j) * stripes  # column j of every space of group g
            labels[i].append((sign, space[x - 1][start : start + stripes]))
        sums += [v for terms in labels for v in signed_sums_scalar(terms, p)]
    assert list(combine_repair_space(space, d, m, Field(p), groups)) == sums


@settings(max_examples=40, deadline=None)
@given(sign_column_cases(), st.randoms(use_true_random=False))
def test_verify_parity_names_the_first_nonzero_sum_of_every_damage(case, rng):
    """One cell of a message damaged by every delta in 1..p-1 (by 1, p - 1, the delta that zeroes the cell and 8
    random ones where p > 263 or the message has WINDOW -+ 1 stripes): verify_parity passes exactly where the scalar
    signed sums all vanish, and otherwise names the group and stripe of the first that does not."""
    p, d, m, stripes = case
    field, code = Field(p), symbol_typecode(p)
    message = build_message_matrix([rng.randrange(p) for _ in range(stripes * derive_params(d, m)[2])], d, m, field)
    message.verify_parity()
    clean, width = [list(row) for row in message.matrix.data], message.matrix.cols
    if not width:
        return
    r, c = rng.randrange(d), rng.randrange(width)
    if p < 300 and stripes < 4:
        deltas = range(1, p)
    else:
        deltas = [1, p - 1, (p - clean[r][c]) % p or 1, *(rng.randrange(1, p) for _ in range(8))]
    table, size = (incidence(d, m + 1) if m < d else ()), m + 1
    for delta in deltas:
        rows = [row[:] for row in clean]
        rows[r][c] = (rows[r][c] + delta) % p
        terms = [(table[i][3], [v for _, x, j, _ in table[i::size] for v in rows[x - 1][j * stripes : (j + 1) * stripes]]) for i in range(size if table else 0)]
        bad = first_nonzero_scalar(terms, p) if terms else None
        damaged = MessageMatrix(Matrix.wrap(field, [array(code, row) for row in rows], width), m)
        if bad is None:
            damaged.verify_parity()
        else:
            group, stripe = divmod(bad, stripes)
            expected = f"stripe {stripe}: parity fails for {subsets(d, size).unrank(group)}"
            with pytest.raises(ParityViolation, match=f"^{re.escape(expected)}$"):
                damaged.verify_parity()
