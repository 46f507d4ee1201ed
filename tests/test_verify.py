"""Each claim of a suite is one unit: a named perturbation of what a mod3
claim checks makes that claim fail, and a claim that raises fails alone
while the rest of its suite still runs and is reported in order."""

import multiprocessing

import pytest

from upadic import mod3, verify
from upadic.mod3 import F3BiSeries, poly

MOD3_IDS = ["selfsim-base", "selfsim-printed-erratum", "selfsim-full",
            "cube-extraction", "vanishing", "cube-ladder",
            "gbar-factorization", "minor-pattern", "excellent-counts",
            "excellent-minor-consistency", "recursive-witness-degree-40"]
CACHES = (mod3.gbar, mod3.r_factor, mod3.kbar_rows)


@pytest.fixture
def fresh_caches():
    # a perturbed run must neither read nor leave behind cached values
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()


def _with(f, key, value):
    """f with its coefficient at key set to value."""
    return F3BiSeries({**f.data, key: value}, f.known_upto)


def _series(name, key, value, arg=None):
    """Patch the mod3 series function name (at argument arg only, if given)
    to return its value with one coefficient set."""
    def patch(monkeypatch):
        orig = getattr(mod3, name)
        monkeypatch.setattr(mod3, name, lambda a: _with(orig(a), key, value)
                            if arg is None or a == arg else orig(a))
    return patch


def _constant(name, key, value):
    """Patch the mod3 polynomial constant name with one coefficient set."""
    return lambda monkeypatch: monkeypatch.setattr(
        mod3, name, _with(getattr(mod3, name), key, value))


def _kbar(entries):
    """Patch Kbar, at every size, with the given 1-indexed entries set."""
    def patch(monkeypatch):
        orig = mod3.kbar_rows

        def rows(size):
            out = [list(row) for row in orig(size)]
            for (i, j), v in entries.items():
                if i <= size and j <= size:
                    out[i - 1][j - 1] = v
            return tuple(map(tuple, out))
        monkeypatch.setattr(mod3, "kbar_rows", rows)
    return patch


def _printed_display_corrected(monkeypatch):
    monkeypatch.setattr(mod3, "PRINTED_MULTIPLIER", mod3.SELFSIM_MULTIPLIER)
    monkeypatch.setattr(mod3, "PRINTED_TAIL", mod3.SELFSIM_TAIL)


def _witness_block_swapped(monkeypatch):
    # pi(3t-1) and pi(3t+1) of every block of the recursion exchanged
    orig = mod3.recursive_witness_permutation

    def witness(i):
        pi = list(orig(i))
        for t in range(1, (len(pi) - 1) // 3 + 1):
            pi[3 * t - 2], pi[3 * t] = pi[3 * t], pi[3 * t - 2]
        return tuple(pi)
    monkeypatch.setattr(mod3, "recursive_witness_permutation", witness)


# one named perturbation per mod3 claim, in report order
MUTATIONS = [
    ("selfsim-base", _constant("SELFSIM_TAIL", (1, 1), 0)),
    ("selfsim-printed-erratum", _printed_display_corrected),
    ("selfsim-full", _constant("SELFSIM_MULTIPLIER", (-2, 2), 0)),
    ("cube-extraction", _series("gbar", (3, 3), 2, arg=40)),
    ("vanishing", _series("gbar", (1, 3), 1, arg=40)),
    ("cube-ladder", _series("r_factor", (1, 0), 1, arg=2)),
    ("gbar-factorization", lambda monkeypatch: monkeypatch.setattr(
        mod3, "gbar0", lambda: poly({(1, 1): 1, (2, 2): -1, (1, 3): 1}))),
    ("minor-pattern", _kbar({(2, 2): 1})),
    ("excellent-counts", _kbar({(4, 2): 0})),
    ("excellent-minor-consistency", _kbar({(1, 2): 1, (2, 1): 1, (2, 2): 1})),
    ("recursive-witness-degree-40", _witness_block_swapped),
]


def test_the_mutation_table_names_every_mod3_claim():
    assert [cid for cid, _ in MUTATIONS] == MOD3_IDS


@pytest.mark.parametrize("cid,perturb", MUTATIONS, ids=MOD3_IDS)
def test_a_perturbation_fails_its_mod3_claim(monkeypatch, fresh_caches, cid,
                                             perturb):
    perturb(monkeypatch)
    claims = verify.suite_mod3()
    assert [c["id"] for c in claims] == MOD3_IDS
    assert not {c["id"]: c for c in claims}[cid]["pass"]


def _boom(window):
    raise TypeError("boom")


def test_a_raising_claim_fails_alone(monkeypatch):
    monkeypatch.setattr(mod3, "vanishing_check", _boom)
    claims = verify.suite_mod3()
    assert [c["id"] for c in claims] == MOD3_IDS
    assert [c["id"] for c in claims if not c["pass"]] == ["vanishing"]
    assert claims[4]["observed"] == "TypeError: boom"
    assert claims[4]["expected"] == "0 violations"


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only a forked worker sees the monkeypatch")
def test_the_parallel_path_isolates_a_raising_claim(monkeypatch):
    monkeypatch.setattr(mod3, "vanishing_check", _boom)
    serial = verify.run_suites(["mod3", "congruence"], parallel=1)
    assert verify.run_suites(["mod3", "congruence"], parallel=2) == serial
    assert [c["id"] for c in serial[0]["suites"][0]["claims"]] == MOD3_IDS


def test_a_claim_records_its_outcome_or_fails():
    claims = []
    with verify._claim(claims, "a", "raises", "x"):
        raise ZeroDivisionError("division by zero")
    with verify._claim(claims, "b", "records nothing", "x"):
        pass
    with verify._claim(claims, "c", "holds", "x") as observe:
        observe("x", 1)
    assert [(c["observed"], c["pass"]) for c in claims] == [
        ("ZeroDivisionError: division by zero", False), (None, False),
        ("x", True)]
    with pytest.raises(KeyboardInterrupt):
        with verify._claim(claims, "d", "interrupted", "x"):
            raise KeyboardInterrupt
