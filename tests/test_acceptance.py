"""Acceptance suite. Every criterion is exact: integer or rational equality,
no tolerances. Run `pytest tests/test_acceptance.py -v -s` for one printed
pass/fail line per criterion (with elapsed time).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from detcode import (
    Cluster,
    CodeConfig,
    Field,
    bandwidth_table,
    binom,
    build_encoder,
    build_message_matrix,
    decode_failed_nodes,
    derive_params,
    encode,
    helper_bound,
    helper_payload,
    recover_data,
    repair_matrix,
)
from certificates import capacity_curve, multi_repair_matrix, null_space_matrix, supercode_helper_totals, total_bandwidth, tradeoff_bound
from conftest import GOLDEN_TAIL_ROWS
from oracles import is_zero


@contextmanager
def criterion(num: int, text: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:02d} FAIL: {text}")
        raise
    print(f"criterion {num:02d} PASS ({time.perf_counter() - start:.2f}s): {text}")


@pytest.fixture(scope="module")
def single_repair_sweep(encoder8, contents8):
    """Every (failed node, helper 4-subset) pair decoded, payload bytes kept."""
    payload_bytes: dict[tuple[int, int], set[bytes]] = {}
    sizes_ok = True
    exact = True
    for f in range(1, 9):
        others = [h for h in range(1, 9) if h != f]
        for helpers in combinations(others, 4):
            payloads = [
                helper_payload(contents8[h - 1], h, (f,), encoder8, 2) for h in helpers
            ]
            for payload in payloads:
                sizes_ok &= len(payload.symbols) <= 3
                payload_bytes.setdefault((f, payload.helper), set()).add(
                    payload.to_bytes(13)
                )
            exact &= decode_failed_nodes(payloads, helpers, encoder8, (f,), 2)[f] == contents8[f - 1]
    return exact, sizes_ok, payload_bytes


def test_01_parameter_identities():
    with criterion(1, "parameter triples (6,3,20) / (120,36,990) / (20,10,105)"):
        assert derive_params(4, 2) == (6, 3, 20)
        assert derive_params(10, 3) == (120, 36, 990)
        assert derive_params(6, 3) == (20, 10, 105)


def test_02_golden_encoder(encoder8):
    with criterion(2, "systematic generator rows over GF(13) match the golden matrix"):
        for i in range(1, 5):
            assert encoder8.row(i) == [1 if j == i - 1 else 0 for j in range(4)]
        assert [encoder8.row(i) for i in range(5, 9)] == GOLDEN_TAIL_ROWS


def test_03_data_recovery(encoder8, gf13):
    with criterion(3, "all 70 four-node subsets recover 100 random sources exactly"):
        rng = random.Random(0xABCD)
        id_sets = list(combinations(range(1, 9), 4))
        for _ in range(100):
            source = [rng.randrange(13) for _ in range(20)]
            message = build_message_matrix(source, 4, 2, gf13)
            contents = encode(encoder8, message)
            for ids in id_sets:
                recovered = recover_data(
                    [contents[i - 1] for i in ids], ids, encoder8, 2
                )
                assert recovered.matrix == message.matrix
                assert list(recovered.extract_symbols()) == source


def test_04_single_repair_exhaustive(single_repair_sweep):
    with criterion(4, "8 x 35 (failed, helpers) pairs repair bit-exactly, <= 3 symbols each"):
        exact, sizes_ok, _ = single_repair_sweep
        assert exact
        assert sizes_ok


def test_05_helper_independence(single_repair_sweep):
    with criterion(5, "payload bytes per (helper, failed) identical across helper sets"):
        _, _, payload_bytes = single_repair_sweep
        assert len(payload_bytes) == 8 * 7  # every ordered (failed, helper) pair
        assert all(len(blobs) == 1 for blobs in payload_bytes.values())


def test_06_rank_certificates(encoder8):
    with criterion(6, "rank bounds and null-space certificates, d=4 exhaustive + d=6 spot"):
        for m in range(1, 5):
            beta = binom(3, m - 1)
            for f in range(1, 9):
                assert repair_matrix(f, m, encoder8).rank() <= beta
            for e in range(1, 5):
                for failed in combinations((5, 6, 7, 8), e):
                    xi = multi_repair_matrix(failed, m, encoder8)
                    cert = null_space_matrix(failed, m, encoder8)
                    assert cert.matrix.rank() == binom(4 - e, m)
                    assert is_zero(cert.matrix @ xi)
        enc6 = build_encoder(10, 6, Field(11))
        for f in (1, 5, 10):
            assert repair_matrix(f, 3, enc6).rank() <= binom(5, 2)
        for e in (1, 2, 3):
            for failed in [tuple(range(7, 7 + e)), tuple(range(2, 2 + e))]:
                xi = multi_repair_matrix(failed, 3, enc6)
                cert = null_space_matrix(failed, 3, enc6)
                assert cert.matrix.rank() == binom(6 - e, 3)
                assert is_zero(cert.matrix @ xi)


def test_07_multi_repair_bandwidth(encoder8, contents8):
    with criterion(7, "two-failure payloads are 5 symbols; e in {2,3} repairs exact at n=8"):
        failed = (5, 6)
        assert multi_repair_matrix(failed, 2, encoder8).rank() == 5
        for h in (1, 2, 3, 4):
            payload = helper_payload(contents8[h - 1], h, failed, encoder8, 2)
            assert len(payload.symbols) == 5 == helper_bound(4, 2, 2, "joint")
        for e in (2, 3):
            for failure_set in combinations(range(1, 9), e):
                helpers = tuple(h for h in range(1, 9) if h not in failure_set)[:4]
                payloads = [
                    helper_payload(contents8[h - 1], h, failure_set, encoder8, 2)
                    for h in helpers
                ]
                assert all(
                    len(p.symbols) <= helper_bound(4, 2, e, "joint") for p in payloads
                )
                decoded = decode_failed_nodes(payloads, helpers, encoder8, failure_set, 2)
                for f in failure_set:
                    assert decoded[f] == contents8[f - 1]


def test_08_bandwidth_curves():
    with criterion(8, "all three bandwidth curves at (d=10, m=3) as exact rationals"):
        expected_naive = [min(e * 36, 120) for e in range(1, 11)]
        expected_joint = [
            Fraction(3, 10), Fraction(8, 15), Fraction(17, 24), Fraction(5, 6),
            Fraction(11, 12), Fraction(29, 30), Fraction(119, 120),
            Fraction(1), Fraction(1), Fraction(1),
        ]
        expected_central = [
            Fraction(3, 10), Fraction(51, 100), Fraction(13, 20), Fraction(59, 80),
            Fraction(63, 80), Fraction(13, 16), Fraction(329, 400),
            Fraction(33, 40), Fraction(33, 40), Fraction(33, 40),
        ]
        table = {
            (e, kind): (value, norm)
            for e, kind, value, norm in bandwidth_table(10, 3, 10, mode="all")
        }
        for e in range(1, 11):
            value, norm = table[(e, "naive")]
            assert value == expected_naive[e - 1]
            assert norm == Fraction(expected_naive[e - 1], 120)
            assert table[(e, "joint")][1] == expected_joint[e - 1]
            assert table[(e, "centralized")][1] == expected_central[e - 1]


def test_09_capacity_curve():
    with criterion(9, "capacity stays at 105 for d=6, m=3 across n = 7..25, recovery verified"):
        rows = capacity_curve(6, 3, range(7, 26))
        assert rows == [(n, 105) for n in range(7, 26)]


def test_10_centralized_ledger():
    with criterion(10, "prefix-schedule totals and rotation totals match the closed form"):
        for e in range(1, 11):
            expected = 3 * (binom(11, 4) - binom(11 - e, 4))
            assert total_bandwidth(10, 3, e) == expected == 10 * helper_bound(10, 3, e, "centralized")
            totals = supercode_helper_totals(10, 3, e)
            assert totals == [expected] * 10


def test_11_corner_point_optimality():
    with criterion(11, "derived triples meet the trade-off bound with equality, d <= 12"):
        for d in range(1, 13):
            for m in range(1, d + 1):
                alpha, beta, total = derive_params(d, m)
                bound = tradeoff_bound(d, m, alpha, beta)
                assert bound == Fraction(total)


def test_12_file_pipeline():
    with criterion(12, "10 KiB file: encode, joint repair, single repair, recover bytes"):
        rng = random.Random(0xF11E)
        data = bytes(rng.randrange(256) for _ in range(10 * 1024))
        config = CodeConfig(n=8, d=4, m=2, p=257)
        cluster = Cluster.from_file(data, config)
        two = rng.sample(range(1, 9), 2)
        cluster.fail_nodes(two)
        cluster.repair("joint", two)
        one = rng.sample(range(1, 9), 1)
        cluster.fail_nodes(one)
        cluster.repair("single", one)
        ids = sorted(rng.sample(range(1, 9), 4))
        assert cluster.recover_file(ids) == data
        assert cluster.ledger.within_bounds(config)
