"""The contracts of the layers that both sides of an identity share: the
coefficients, K, J, Y, L and the Voronoi kernel give the same bits in a
part of a call as in the whole, and from a warm table as from a cold one,
and hold their tables and temporaries within bounds.  One test per
contract; a new cache, chunk or batch of a layer is one more row."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from tblab import arith, clear_caches, series, specfun
from tblab.arith import DivisorSumSpec, _coefficients, coefficient_array
from tblab.bessel import _HOT_DOUBLES, JY_CUT, K_ASYM_CUT, jy_values, k_values
from tblab.characters import TRIVIAL, enumerate_characters
from tblab.identities import THEOREMS, IdentityCase, verify
from tblab.series import _KernelInterpolant, bessel_series
from tblab.specfun import L_derivative, dirichlet_L
from test_arith import _is_real, _multiplying_sweeps

# f(2) = chi1(1) chi2(2) + chi1(2) chi2(1) = 0: moduli 4 and 6 share the prime 2
ZERO = [DivisorSumSpec(0, enumerate_characters(4)[1], chi) for chi in enumerate_characters(6)]


def _bits(values) -> list[bytes]:
    return [np.asarray(v).tobytes() for v in values]


def _record(monkeypatch, module, *names) -> list:
    """(name, arguments) of each call module makes to one of names, from now on."""
    calls = []
    for name in names:
        monkeypatch.setattr(module, name, lambda *args, real=getattr(module, name), name=name:
                            calls.append((name, args)) or real(*args))
    return calls


def _one_sum(spec, lam, nu, terms) -> complex:
    """bessel_series' sum formed whole, with one k_values call and complex coefficients."""
    cs = np.asarray(coefficient_array(spec, terms)[1:], dtype=complex)
    ns = np.arange(1, terms + 1, dtype=float)
    return 0j + np.sum(cs * ns ** (0.5 * nu) * k_values(nu, lam * np.sqrt(ns)))


def _coefficient_prefix(monkeypatch, count):
    # each n gets its terms in ascending d whatever the count, real sweep or
    # complex, tabled or not: the Voronoi kernel rounds concatenate arrays
    chi8, chi12 = enumerate_characters(8)[3], enumerate_characters(12)[2]
    specs = (DivisorSumSpec(), DivisorSumSpec(-0.5, chi8.conjugate(), chi8),
             DivisorSumSpec(0.3 + 0.7j, chi12, enumerate_characters(5)[1]),
             DivisorSumSpec(-1.25, enumerate_characters(7)[2], TRIVIAL))
    short = [coefficient_array(spec, count) for spec in specs]
    assert all(a.size == count + 1 and not a.flags.writeable for a in short)
    return [a[1:] for a in short], [coefficient_array(s, 10 ** 4)[1:count + 1] for s in specs]


def _kernel_prefix(monkeypatch):
    # at every (nu, a sqrt(x), count) of the registered closed-form records,
    # each (nu, lam)'s counts ascending from a cold store, so each extends it
    kernels, calls = series._kernels, _record(monkeypatch, series, "_kernels")
    for tid, entry in THEOREMS.items():
        if entry.section in ("sec2", "classical", "cohen", "cohen-half"):
            for point in entry.points:
                verify(IdentityCase(tid, **point))
    seen = sorted({args for _, args in calls})
    clear_caches()
    chunks = [list(kernels(*args)) for args in seen]
    assert len(seen) > 20 and not any(c.flags.writeable for cs in chunks for c in cs)
    return [np.concatenate(cs) for cs in chunks], [
        k_values(nu, lam * np.sqrt(np.arange(1.0, 2 * count + 130.0)))[:count]
        for nu, lam, count in seen]


def _aligned_chunks(monkeypatch, values, nu):
    # chunks that start on a block of _on_grid, each side of the cuts
    xs = 0.2 * np.sqrt(np.arange(1.0, 30001.0))
    assert xs[0] < JY_CUT < K_ASYM_CUT < xs[-1]
    edges = [0, 64, 4096, 4096 + _HOT_DOUBLES, 4096 + 2 * _HOT_DOUBLES, 28992, xs.size]
    chunks = [np.stack(values(nu, xs[lo:hi])) for lo, hi in zip(edges, edges[1:])]
    return [np.concatenate(chunks, axis=-1)], [np.stack(values(nu, xs))]


def _chunked_series(monkeypatch, lam, weight, nu, cap, terms):
    if cap is not None:
        monkeypatch.setenv("TBL_MAX_TERMS", str(cap))
    r = bessel_series(DivisorSumSpec(weight), lam, 1.0, nu)
    return [r.terms, r.value], [terms, _one_sum(DivisorSumSpec(weight), lam, nu, terms)]


def _em_units(monkeypatch, s):
    # each unit mod 40 alone and in its batch, zeta and zeta', regularized or not
    avals = [a / 40 for a in range(1, 40) if math.gcd(a, 40) == 1]
    flags = list(itertools.product((False, True), repeat=2))
    return ([specfun._em_array(s, avals, *f) for f in flags],
            [[specfun._em_array(s, [a], *f)[0] for a in avals] for f in flags])


PARTS = {
    **{f"coefficient-prefix-{n}": (_coefficient_prefix, (n,))
       for n in (1, 2, 9, 100, 401, 2048, 2049, 4096, 5000)},
    "kernel-table-prefix": (_kernel_prefix, ()),
    **{f"{name}-chunks-{nu}": (_aligned_chunks, (values, nu)) for nu in (0.0, 0.25, 1.3)
       for name, values in (("k_values", lambda nu, xs: [k_values(nu, xs)]),
                            ("jy_values", jy_values))},
    # above 18 / sqrt(8193) = 0.199 the first chunk reaches the expansion
    # (below it, kernel-long-0.15-0-0.25 has the quadrature run past it);
    # the last series is cut by the term budget 5,424 terms into a chunk
    **{"series-chunks-{}-{}-{}".format(*args): (_chunked_series, args) for args in (
        (0.2, 0, 0.0, None, 65536), (0.2, 0, 0.25, None, 65536), (0.2, 0.5, 1.3, None, 131072),
        (0.3, 1, 0.0, None, 65536), (0.3, 2, 0.25, None, 65536), (0.3, 1, 1.3, None, 65536),
        (0.27, 0, 0.25, 30000, 30000))},
    # lvalue-scan's regions: Re s in [1.5, 3], the strip, 1 - s for its
    # reflected points, and |Im s| = 1e4, where the head is summed in blocks
    **{f"em-units-{name}": (_em_units, (s,)) for name, s in (
        ("right", 2.2 + 3.3j), ("strip", 0.4 - 7.1j), ("reflected", 4.1 - 5.5j),
        ("blocks", 0.5 + 1e4j))},
}


@pytest.mark.parametrize("row, args", PARTS.values(), ids=PARTS.keys())
def test_a_part_has_the_bits_of_the_whole(monkeypatch, row, args):
    parts, wholes = row(monkeypatch, *args)
    assert _bits(parts) == _bits(wholes)


def _coefficient_view(monkeypatch, count):
    # a view of the table's entry up to _HOT_DOUBLES, afresh past it:
    # read-only either way, so no caller writes into what another reads
    spec = DivisorSumSpec(0.3 + 0.7j, enumerate_characters(4)[1], enumerate_characters(3)[1])
    clear_caches()
    cold, warm = coefficient_array(spec, count), coefficient_array(spec, count)
    assert np.shares_memory(warm, cold) == (count <= _HOT_DOUBLES) and not warm.flags.writeable
    return [cold, warm], [warm, _multiplying_sweeps(spec, count)]


def _coefficient_orders(monkeypatch):
    # counts ascending, descending or shuffled, cold or warm: the table
    # keeps per spec the longest array of up to _HOT_DOUBLES terms yet
    chi4, chi3, chi5 = (enumerate_characters(q)[1] for q in (4, 3, 5))
    specs = [DivisorSumSpec(2, chi4), DivisorSumSpec(1, chi3, chi4),
             DivisorSumSpec(-0.25, TRIVIAL, enumerate_characters(8)[3]), DivisorSumSpec(1.5, chi5),
             DivisorSumSpec(0.3 + 0.7j, chi4, chi3), DivisorSumSpec(0, chi3, chi5)]
    assert [_is_real(spec) for spec in specs] == [True] * 3 + [False] * 3
    counts = [0, 1, 9, 400, 2049, 5000, _HOT_DOUBLES, _HOT_DOUBLES + 1, 9000]
    shuffled = counts[:]
    random.Random(0).shuffle(shuffled)
    got, fresh = [], []
    for order in (counts, counts[::-1], shuffled):
        clear_caches()
        for spec, count in itertools.product(specs * 2, order):  # cold, then warm
            got.append(coefficient_array(spec, count))
            fresh.append(_coefficients(spec, count))
            assert got[-1].dtype == (float if _is_real(spec) else complex)
            assert got[-1].size == count + 1 and not got[-1].flags.writeable
        assert set(arith._coefficient_table) == set(specs)
        assert all(a.size == _HOT_DOUBLES + 1 for a in arith._coefficient_table.values())
    clear_caches()
    assert not arith._coefficient_table and arith._coefficient_table.held == 0
    return got, fresh


def _kernel_table(monkeypatch, terms, spec, a, x, nu, first=None):
    # K comes from _kernel_store in chunks of _HOT_DOUBLES from n = 1
    # whatever the coefficients (a zero f(n) times its K adds 0): a warm
    # series forms no K; with first, the warm store is another spec's series
    calls = _record(monkeypatch, series, "k_values")
    clear_caches()
    cold = bessel_series(spec, a, x, nu)
    xs = [args[1] for _, args in calls]
    held = [(key, sum(c.size for c in v)) for key, v in series._kernel_store.items()]
    assert cold.terms == terms and held == [((nu, a * math.sqrt(x)), terms)]
    assert [v.size for v in xs] == [min(_HOT_DOUBLES, terms - lo)
                                    for lo in range(0, terms, _HOT_DOUBLES)]
    if a * math.sqrt(x) < 0.199:  # below 18 / sqrt(8193) the first chunk ends in the quadrature
        assert xs[0][-1] < xs[1][0] < K_ASYM_CUT
    assert (coefficient_array(spec, cold.terms)[1:] == 0).any() == (spec in ZERO)
    if first is not None:
        clear_caches()
        assert bessel_series(first, a, x, nu).terms == cold.terms
    calls.clear()
    warm = bessel_series(spec, a, x, nu)
    assert warm.terms == cold.terms and calls == []
    return [cold.value, warm.value], [warm.value, _one_sum(spec, a * math.sqrt(x), nu, cold.terms)]


def _kernel_store(monkeypatch, lam, nu, first, then, formed):
    # after a series of another length at the same (nu, lam), one forms
    # only the K it lacks: the chunks, a cut chunk again from its last
    # whole _on_grid block, or the part of a block it ends inside; first
    # and then are (term budget or None, tol)
    calls = _record(monkeypatch, series, "k_values")

    def run(cap, tol):
        monkeypatch.delenv("TBL_MAX_TERMS", raising=False)
        if cap is not None:
            monkeypatch.setenv("TBL_MAX_TERMS", str(cap))
        return bessel_series(DivisorSumSpec(), lam, 1.0, nu, tol=tol)

    clear_caches()
    cold = run(*then)
    clear_caches()
    run(*first)
    calls.clear()
    warm = run(*then)
    assert warm.terms == cold.terms and [args[1].size for _, args in calls] == formed
    return [cold.value, warm.value], [warm.value, _one_sum(DivisorSumSpec(), lam, nu, cold.terms)]


def _kernel_store_trimmed(monkeypatch):
    # making room cuts the least recently used entries back to their chunks
    # that hold an argument below K_ASYM_CUT, in their place: one at lam >=
    # K_ASYM_CUT, which holds none, leaves whole, and later the series at
    # 0.15 keeps 2 of its 16 chunks; read again, each forms exactly the
    # chunks it lost, no argument below the cut, in the bits of a cold one
    calls = _record(monkeypatch, series, "k_values")

    def run(lam, tol=1e-12):
        return bessel_series(DivisorSumSpec(), lam, 1.0, 0.25, tol=tol)

    def store():
        return [(key[1], len(v)) for key, v in series._kernel_store.items()]

    clear_caches()
    colds = [run(20.0), run(0.15)]
    assert [cold.terms for cold in colds] == [256, 16 * _HOT_DOUBLES]
    run(0.1), run(0.11, 1e-8)  # 32 and 16 chunks
    assert store() == [(0.15, 16), (0.1, 32), (0.11, 16)]
    run(0.2)  # 8 chunks
    assert store() == [(0.15, 2), (0.1, 32), (0.11, 16), (0.2, 8)]
    calls.clear()
    warm_long = run(0.15)
    xs = [args[1] for _, args in calls]
    assert [x.size for x in xs] == [_HOT_DOUBLES] * 14 and xs[0][0] >= K_ASYM_CUT
    assert _bits([np.concatenate(xs)]) == _bits([0.15 * np.sqrt(np.arange(16385.0, 131073.0))])
    calls.clear()
    warm_short = run(20.0)
    assert [args[1].size for _, args in calls] == [256]
    return [cold.value for cold in colds], [warm_short.value, warm_long.value]


def _voronoi_tables(monkeypatch):
    # a warm call reads every piece's K, Y and J coefficients and the
    # endpoint expansion from the tables; a new expansion reads f again
    calls = _record(monkeypatch, series, "jy_values", "k_values")
    cs = 4 * math.pi / math.sqrt(5.0) * np.sqrt(np.arange(1.0, 5001.0))

    def f(t):
        calls.append(("f" if np.iscomplexobj(t) else "f on the panels", t))
        return np.exp(-t)

    def integrals():
        calls.clear()
        got = series.oscillatory_kernel_integrals(f, 0.5, 3.4, 0.25, cs, -0.125, "even-cos")
        return got, {name for name, _ in calls}

    clear_caches()
    (first, cold), (second, warm) = integrals(), integrals()
    series._endpoint_expansion.cache_clear()
    third, rebuilt = integrals()
    assert {"jy_values", "k_values", "f"} <= cold and warm == {"f on the panels"}
    assert rebuilt == {"f", "f on the panels"}
    return [first, first], [second, third]


def _voronoi_pages(monkeypatch):
    # a range wider than a quarter of the page table reads its pages: the
    # same pieces, whichever range asked for them first
    clear_caches()
    wide = _KernelInterpolant("even-cos", 0.25, 1.0, 100.0 + 128.0 * series._PAGE_TABLE / 4)
    pages = series._page_coefs.cache_info().currsize
    narrow = _KernelInterpolant("even-cos", 0.25, 1.0, 500.0)
    assert series._page_coefs.cache_info().currsize == pages > series._PAGE_TABLE // 4
    clear_caches()
    cold = _KernelInterpolant("even-cos", 0.25, 1.0, 500.0).coefs
    return [wide.coefs[:, :narrow.coefs.shape[1]], cold], [narrow.coefs, narrow.coefs]


def _dirichlet_tails(monkeypatch, make):
    # at a shift of at most 1 the tails at DEFAULT_HEAD do not depend on the
    # shift: after a larger one, which takes as many orders or more, a warm
    # tail evaluates no L-product
    spec, D = DivisorSumSpec(0.25, enumerate_characters(5)[2]), series.DEFAULT_HEAD
    calls = _record(monkeypatch, series, "closed_form_F", "closed_form_F_prime")
    clear_caches()
    cold = make(spec, 0.6)
    assert calls and cold.terms == D
    clear_caches()
    make(spec, 0.9)
    calls.clear()
    warm = make(spec, 0.6)
    assert calls == []
    coef, ns = np.asarray(coefficient_array(spec, D)[1:], dtype=complex), np.arange(1.0, D + 1)
    return ([cold.value] + [series._dirichlet_tail(spec, D, s, False) for s in (2.5, 3.5, 4.0)],
            [warm.value] + [series.closed_form_F(spec, s) - complex(np.sum(coef * ns ** (-s)))
                            for s in (2.5, 3.5, 4.0)])


def _em_grids(monkeypatch):
    # L and L' at lvalue-scan's regions for every primitive chi mod 3, 37
    # and 40: every cache cleared before each call, then only the L-values,
    # while the grids fill and once all are warm, forward and in reverse
    cases = [(f, s, chi) for q in (3, 37, 40) for chi in enumerate_characters(q)
             if chi.is_primitive for s in (2.2 + 3.3j, 0.4 - 7.1j, -3.1 + 5.5j)
             for f in (dirichlet_L, L_derivative)]
    warm = specfun._dirichlet_L_cached.cache_clear

    def values(clear, step=1):
        return [clear() or f(s, chi) for f, s, chi in cases[::step]][::step]

    cold, filling = values(clear_caches), values(warm)
    misses = specfun._em_grid.cache_info().misses
    warms = [values(warm), values(warm, -1)]
    info = specfun._em_grid.cache_info()
    assert info.misses == misses and info.hits >= 2 * len(cases), info
    return [cold] * 3, [filling, *warms]


WARM = {
    **{f"coefficient-view-{n}": (_coefficient_view, (n,))
       for n in (1, 400, 2048, 2049, 5000, _HOT_DOUBLES, _HOT_DOUBLES + 1)},
    "coefficient-any-order": (_coefficient_orders, ()),
    "voronoi-pages-and-expansions": (_voronoi_tables, ()),
    "voronoi-wide-range": (_voronoi_pages, ()),
    "kernel-small-lambda": (_kernel_table, (32768, DivisorSumSpec(), 0.27, 1.0, 0.25)),
    "kernel-zero-coefficient": (_kernel_table, (2048, ZERO[1], 1.0, 1.0, 0.25)),
    "kernel-second-zero-spec": (_kernel_table, (4096, ZERO[0], 1.0, 0.7, 0.3, ZERO[1])),
    "kernel-second-spec": (_kernel_table, (4096, DivisorSumSpec(-0.25), 1.0, 0.7, 0.3,
                                           DivisorSumSpec(0.5))),
    **{f"kernel-long-{lam}-{w}-{nu}": (_kernel_table, (terms, DivisorSumSpec(w), lam, 1.0, nu))
       for lam, w, nu, terms in ((0.15, 0, 0.25, 131072), (0.2, 0.5, 1.5, 131072),
                                 (0.27, -0.25, 0.0, 32768), (1.0, 3, 2.5, 8192))},
    # a budget of 30,000 cuts the series at 0.27 5,424 terms into its
    # fourth chunk, 48 into a block
    "kernel-store-after-cut": (_kernel_store, (0.27, 0.25, (30000, 1e-12), (None, 1e-12),
                                               [32768 - 29952])),
    "kernel-store-cut-after-longer": (_kernel_store, (0.27, 0.25, (None, 1e-12), (30000, 1e-12),
                                                      [48])),
    "kernel-store-longer": (_kernel_store, (0.15, 0.25, (None, 1e-4), (None, 1e-12),
                                            [_HOT_DOUBLES] * 8)),
    "kernel-store-shorter": (_kernel_store, (0.2, 1.3, (None, 1e-12), (None, 1e-4), [])),
    # 256 and 4,096 terms at the same (nu, lam), inside the first chunk
    "kernel-store-longer-in-a-chunk": (_kernel_store, (0.8, 0.25, (None, 0.1), (None, 1e-12),
                                                       [4096 - 256])),
    "kernel-store-shorter-in-a-chunk": (_kernel_store, (0.8, 0.25, (None, 1e-12), (None, 0.1),
                                                        [])),
    # an entry cut back to its quadrature chunks, and one at lam >= 18 that leaves
    "kernel-store-trimmed": (_kernel_store_trimmed, ()),
    **{f"dirichlet-tail-{name}": (_dirichlet_tails, (make,)) for name, make in (
        ("shifted-power", lambda spec, c: series.shifted_power_series(spec, 2.5, c)),
        ("log-kernel", lambda spec, c: series.log_kernel_series(spec, c, over_n=True)),
        ("cohen", lambda spec, c: series.cohen_tail_series(spec, 0.5, c)))},
    "em-grids": (_em_grids, ()),
}


@pytest.mark.parametrize("row, args", WARM.values(), ids=WARM.keys())
def test_a_warm_table_gives_the_cold_bits_and_evaluates_only_what_it_lacks(monkeypatch, row,
                                                                             args):
    colds, warms = row(monkeypatch, *args)
    assert _bits(colds) == _bits(warms)


def _peak(call) -> tuple:
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _coefficient_table_bytes(monkeypatch):
    # 80 complex arrays of _HOT_DOUBLES terms are 10 MB: the least
    # recently used specs leave, and a read moves its spec to the back
    specs = [DivisorSumSpec(complex(0.5, k / 100), enumerate_characters(5)[1]) for k in range(80)]
    clear_caches()
    held = []
    for i, spec in enumerate(specs):
        coefficient_array(spec, _HOT_DOUBLES)
        coefficient_array(specs[0], 1)
        held.append(sum(a.nbytes for a in arith._coefficient_table.values()))
        assert arith._coefficient_table.held == held[-1]
        assert list(arith._coefficient_table)[-2:] == [spec, specs[0]][-min(i + 1, 2):]
    assert len(arith._coefficient_table) < len(specs)
    assert arith._coefficient_table[specs[0]].size == _HOT_DOUBLES + 1
    clear_caches()
    return held, 8 << 20


def _series_bytes(monkeypatch):
    # a series of N = 131,072 forms its terms and K in chunks of
    # _HOT_DOUBLES: at most 1 MiB besides coefficients, terms and the K
    # chunks it leaves in _kernel_store, if any
    spec, lam, nu = DivisorSumSpec(), 0.15, 0.25
    terms = bessel_series(spec, lam, 1.0, nu).terms  # and fills the kernel store
    cs = coefficient_array(spec, terms)
    monkeypatch.setattr(series, "coefficient_array", lambda spec, count: cs)
    assert terms == 131072
    warm = _peak(lambda: bessel_series(spec, lam, 1.0, nu))[1]
    series._kernel_store.cache_clear()
    chunks = _peak(lambda: bessel_series(spec, lam, 1.0, nu))[1] - 8 * terms
    return [warm, chunks], 16 * terms + 2 ** 20


def _em_head_bytes(monkeypatch):
    # at s = 1e5 i the head is 100,010 terms for each of the 16 units mod
    # 40: a 25.6 MB grid if taken whole, about 0.27 MB in 64 kB blocks
    chi = enumerate_characters(40)[3]
    clear_caches()
    peaks = [_peak(lambda: f(1e5j, chi)) for f in (dirichlet_L, L_derivative)]  # L' reads L
    assert all(np.isfinite(value) for value, _ in peaks)
    return [peak for _, peak in peaks], 2 ** 20 - 1


def _quadrature_chunks(lam) -> int:
    """The chunks of _HOT_DOUBLES arguments that hold one lam sqrt(n) < K_ASYM_CUT."""
    return sum(lam * math.sqrt(lo + 1) < K_ASYM_CUT for lo in range(0, 10 ** 6, _HOT_DOUBLES))


def _kernel_store_bytes(monkeypatch):
    # series of 32,768 to 131,072 terms hold at most 64 chunks of
    # _HOT_DOUBLES arguments: the least recently used (nu, lam) are cut
    # back to their quadrature chunks, in their place, and none leaves
    # while that makes room; a read moves its (nu, lam) to the back; one
    # of 524,288 keeps all its arguments and nothing else, and one of 10^6
    # terms keeps nothing new: it reads what its entry holds, in the bits
    # of a cold one
    spec, lams = DivisorSumSpec(), (0.15, 0.2, 0.25, 0.18, 0.22, 0.27, 0.16)
    clear_caches()
    held, terms = [], {}
    for i, lam in enumerate(lams):
        terms[0.25, lam] = bessel_series(spec, lam, 1.0, 0.25).terms
        bessel_series(spec, lams[0], 1.0, 0.25)
        held.append(sum(8 * c.size for v in series._kernel_store.values() for c in v))
        assert series._kernel_store.held == held[-1]
        assert list(series._kernel_store)[-2:] == [(0.25, lam), (0.25, lams[0])][-min(i + 1, 2):]
        sizes = {key: sum(c.size for c in v) for key, v in series._kernel_store.items()}
        trimmed = [size < terms[key] for key, size in sizes.items()]
        assert trimmed == sorted(trimmed, reverse=True)  # the least recently used first
        assert all(size in (terms[key], _HOT_DOUBLES * _quadrature_chunks(key[1]))
                   for key, size in sizes.items())
    assert len(series._kernel_store) == len(lams) and any(trimmed)
    def entries(table):  # alive in kept, so no id is reused
        return [(key, [id(c) for c in v]) for key, v in table]

    kept = [(key, list(v)) for key, v in series._kernel_store.items()]
    cold = bessel_series(spec, 0.07, 1.0, 0.25)
    assert cold.terms == 10 ** 6 and entries(series._kernel_store.items()) == entries(kept)
    assert bessel_series(spec, 0.07, 1.0, 0.25, tol=1e-8).terms == 524288
    assert [(key, sum(c.size for c in v)) for key, v in series._kernel_store.items()] == [
        ((0.25, 0.07), 524288)] and series._kernel_store.held == 4 << 20
    kept = [(key, list(v)) for key, v in series._kernel_store.items()]
    calls = _record(monkeypatch, series, "k_values")
    warm = bessel_series(spec, 0.07, 1.0, 0.25)
    sizes = [args[1].size for _, args in calls]  # n past 64 chunks
    assert sizes == [_HOT_DOUBLES] * 58 + [10 ** 6 - 122 * _HOT_DOUBLES]
    assert entries(series._kernel_store.items()) == entries(kept)
    assert _bits([warm.value]) == _bits([cold.value])
    clear_caches()
    return held, 4 << 20


BOUNDS = {"coefficient-table-8-mb": _coefficient_table_bytes,
          "series-16n-plus-1-mib": _series_bytes, "em-head-1-mib": _em_head_bytes,
          "kernel-store-4-mb": _kernel_store_bytes}


@pytest.mark.parametrize("row", BOUNDS.values(), ids=BOUNDS.keys())
def test_a_table_or_temporary_stays_within_its_bound(monkeypatch, row):
    sizes, bound = row(monkeypatch)
    assert max(sizes) <= bound, sizes
