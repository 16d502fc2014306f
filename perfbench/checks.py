"""Output checks for the benchmark, computed apart from the program.

Every check compares a program output with something the benchmark knows on
its own: the bytes it generated, a node's content saved before the node was
failed, or the paper's closed-form symbol counts evaluated here with
``math.comb``. Nothing is compared with a stored copy of earlier output.

Run ``python3 perfbench/checks.py`` to show that each check rejects a wrong
answer (one flipped byte, one repaired symbol off by one, one symbol above
its bound in each mode) and accepts the right one; every run does the same
before it starts.
"""

from __future__ import annotations

from math import comb


class CheckFailed(AssertionError):
    """A program output disagrees with the independent oracle."""


def beta(d: int, m: int) -> int:
    """Symbols one helper sends to repair one node: C(d-1, m-1)."""
    return comb(d - 1, m - 1)


def beta_e(d: int, m: int, e: int) -> int:
    """Symbols one helper sends to repair e nodes jointly: C(d, m) - C(d-e, m)."""
    return comb(d, m) - comb(d - e, m)


def central_total(d: int, m: int, e: int) -> int:
    """d * beta_bar_e = m * (C(d+1, m+1) - C(d-e+1, m+1)), symbols per stripe."""
    return m * (comb(d + 1, m + 1) - comb(d - e + 1, m + 1))


def helper_cap(mode: str, d: int, m: int, e: int) -> int:
    """Most symbols one helper may send per stripe in single, naive or joint mode."""
    return {"single": beta(d, m), "naive": e * beta(d, m), "joint": beta_e(d, m, e)}[mode]


def check_bytes(got: bytes, want: bytes, what: str) -> None:
    if got != want:
        where = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        raise CheckFailed(f"{what}: returned bytes differ from the input at offset {where}")


def check_repaired(rebuilt, saved, node: int) -> None:
    """Exact repair: the rebuilt node equals its content before the failure."""
    rebuilt = [list(row) for row in rebuilt]
    saved = [list(row) for row in saved]
    if rebuilt != saved:
        stripe = next((s for s, (a, b) in enumerate(zip(rebuilt, saved)) if a != b), min(len(rebuilt), len(saved)))
        raise CheckFailed(f"node {node}: repaired content differs from the saved content at stripe {stripe}")


def check_symbols(mode: str, d: int, m: int, failed, helpers, stripes: int, symbols_by_helper: dict) -> None:
    """Per-helper symbol counts of one repair against the paper's closed forms."""
    e = len(failed)
    if len(set(helpers)) != d or set(helpers) & set(failed):
        raise CheckFailed(f"{mode}: helpers {sorted(helpers)} are not {d} nodes outside {sorted(failed)}")
    if set(symbols_by_helper) != set(helpers):
        raise CheckFailed(f"{mode}: counts cover {sorted(symbols_by_helper)}, helpers were {sorted(helpers)}")
    if mode == "centralized":
        total = sum(symbols_by_helper.values())
        want = central_total(d, m, e) * stripes
        if total != want:
            raise CheckFailed(f"centralized: ledger total {total} != d * beta_bar_e * stripes = {want}")
        return
    per_stripe = helper_cap(mode, d, m, e)
    cap = per_stripe * stripes
    over = {h: v for h, v in symbols_by_helper.items() if v > cap}
    if over:
        raise CheckFailed(f"{mode}: helpers {over} exceed {per_stripe} symbols x {stripes} stripes = {cap}")


def _expect_rejection(what: str, fn, *args) -> None:
    try:
        fn(*args)
    except CheckFailed:
        return
    raise SystemExit(f"self-test: the check accepted {what}")


def self_test() -> None:
    """Each check accepts a right answer and rejects one wrong detail.

    The right answers are built here, not by the program, so the self-test
    says nothing about the program and holds while the program is broken.
    """
    import random

    rng = random.Random("perfbench-selftest")
    data = rng.randbytes(400)
    check_bytes(data, data, "self-test get")
    flipped = bytearray(data)
    flipped[200] ^= 0x01
    _expect_rejection("a flipped byte", check_bytes, bytes(flipped), data, "self-test get")

    saved = [[rng.randrange(257) for _ in range(6)] for _ in range(20)]
    check_repaired([row[:] for row in saved], saved, 3)
    off = [row[:] for row in saved]
    off[1][0] = (off[1][0] + 1) % 257
    _expect_rejection("a repaired symbol off by one", check_repaired, off, saved, 3)

    d, m, stripes, helpers = 4, 2, 20, (1, 3, 5, 6)
    for mode, failed in (("single", (2,)), ("naive", (2, 4, 7)), ("joint", (2, 4, 7)), ("centralized", (2, 4, 7))):
        e = len(failed)
        if mode == "centralized":
            # the helper in slot j serves the first min(j, e) failures
            counts = {h: beta_e(d, m, min(j, e)) * stripes for j, h in enumerate(helpers, start=1)}
        else:
            counts = dict.fromkeys(helpers, helper_cap(mode, d, m, e) * stripes)
        check_symbols(mode, d, m, failed, helpers, stripes, counts)
        counts[helpers[0]] += 1
        _expect_rejection(f"a {mode} count one above its bound", check_symbols, mode, d, m, failed, helpers, stripes, counts)


if __name__ == "__main__":
    self_test()
    print("self-test passed: every check rejected its wrong answer and accepted the right one")
