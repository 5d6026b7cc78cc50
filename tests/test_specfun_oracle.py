"""Gamma, Hurwitz zeta, L and L' against mpmath at 30 digits.

Points are drawn over Re s in [-4, 3], |Im s| <= 10, a in (0, 1] and
every primitive non-principal character mod q <= 40; Hurwitz zeta over
Re s in [-1.75, 3], as left of that line it is refused by name.  Left of
the reflection threshold, where L and L' come from the functional equation of
the primitive character that induces chi, a fixed table of mpmath values
takes principal and imprimitive characters too, and L(1-n, chi) is checked
against the exact -B_{n,chi}/n for every chi mod 32, 64, 81 and 128, both
within 1e-13; the trivial zeros there are exactly 0.  B_{n,chi} itself
(every chi mod 64, 81 and 128), and zeta and zeta' on -3.5 <= Re s < -1.75,
are held to 1e-13 too.  Each error is
|got - value| / max(1, |value|): absolute where the function is small,
as at its zeros, and relative elsewhere.  The draws are derandomized, so
a run is repeatable.  Each bound is about 3 times the worst error of
random draws: 3,000 for Gamma, 48,000 for Hurwitz zeta (24,000 of them
with Re s in [-1.75, -1.6]), and for L and L' 1,600 over the whole range
plus 600 with Re s in [-1.75, -1.27].  The worst were 2.7e-14 (Gamma
near its pole at -4), 1.7e-12 (zeta(s, a) at s = -1.734 - 6.263i,
a = 0.148, just right of the reflection threshold), 3.2e-12
(L just right of its reflection threshold at Re s = -1.75) and 9.9e-12
(L' at s = -1.52 + 0.03i, chi mod 19 index 4, where L' takes log q times
the error of L(s) just right of that threshold).  So the L' bound, kept
at 1e-11, is only about 1 times its worst error.  From Re s = 8 on, where
L' takes the Dirichlet series, it is held to 1e-15 relative on fixed
points, against mpmath at 40 + 0.7 Re s digits.
"""

import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tblab.characters import _factorize, enumerate_characters
from tblab.errors import DomainError, PoleError
from tblab.specfun import (
    L_derivative,
    _digamma,
    dirichlet_L,
    gamma,
    generalized_bernoulli,
    hurwitz_zeta,
    riemann_zeta,
    zeta_derivative,
)

mpmath = pytest.importorskip("mpmath")

from golden_distances import mp_L, mp_values  # noqa: E402  (after the mpmath check)

CHARS = [chi for q in range(3, 41) for chi in enumerate_characters(q)
         if chi.is_primitive and not chi.is_principal]

GAMMA_BOUND = 1e-13
HURWITZ_BOUND = 5e-12
L_BOUND = 1e-11
# worst 8.8e-12, chi_0 mod 40 at s = -1.6: the Euler-Maclaurin route just
# right of the reflection threshold, as for L above
PRINCIPAL_L_BOUND = 3e-11
L_DERIVATIVE_BOUND = 1e-11

# s on a grid of step 2^-10, whole numbers included: mpmath's zeta(s, a)
# and L(s, chi) raise ZeroDivisionError at some |s| below about 1e-80
points = st.builds(complex, st.integers(-4 * 1024, 3 * 1024).map(lambda k: k / 1024),
                   st.integers(-10 * 1024, 10 * 1024).map(lambda k: k / 1024))
shifts = st.floats(0.0, 1.0, exclude_min=True)
characters = st.sampled_from(CHARS)
oracle = settings(max_examples=40, deadline=None, derandomize=True)


def _error(got, value) -> float:
    return float(abs(got - complex(value)) / max(1, abs(value)))


def _mp_L(chi):
    """s -> L(s, chi) in mpmath, from exact character values: summed over
    Hurwitz zeta for Re s >= 1/2, else by the functional equation, as
    mpmath's Hurwitz zeta takes seconds at Re s = -4."""
    q, kappa = chi.modulus, 1 if chi.is_odd else 0
    values = mp_values(chi)
    conj = [mpmath.conj(v) for v in values]
    tau = sum(v * mpmath.expjpi(mpmath.mpf(2 * n) / q) for n, v in enumerate(values))
    root = tau / (mpmath.j ** kappa * mpmath.sqrt(q))

    def L(s):
        s = mpmath.mpc(s)
        if s.real >= 0.5:
            return mpmath.dirichlet(s, values)
        return (root * (q / mpmath.pi) ** (0.5 - s) * mpmath.gamma((1 - s + kappa) / 2)
                * mpmath.rgamma((s + kappa) / 2) * mpmath.dirichlet(1 - s, conj))
    return L


@oracle
@given(points)
def test_gamma(s):
    try:
        got = gamma(s)
    except PoleError:
        assert s.imag == 0 and s.real == round(s.real) <= 0
        return
    with mpmath.workdps(30):
        assert _error(got, mpmath.gamma(s)) < GAMMA_BOUND


# hurwitz_zeta evaluates right of the reflection threshold, Re s = -1.75
# included, and refuses the strip left of it, below
right = st.builds(complex, st.integers(-7 * 256, 3 * 1024).map(lambda k: k / 1024),
                  st.integers(-10 * 1024, 10 * 1024).map(lambda k: k / 1024))
strip = st.builds(complex, st.integers(-7 * 512, -7 * 256 - 1).map(lambda k: k / 1024),
                  st.integers(-10 * 1024, 10 * 1024).map(lambda k: k / 1024))


@oracle
@given(right, shifts, strip)
def test_hurwitz_zeta(s, a, left):
    assume(s != 1)
    with pytest.raises(DomainError, match="Re s >= -1.75, got .* dirichlet_L"):
        hurwitz_zeta(left, a)
    with mpmath.workdps(30):
        value = mpmath.zeta(s, a)
    if abs(value) > sys.float_info.max:  # a^{-s} alone, for a tiny a
        with pytest.raises(DomainError, match="outside the double range"):
            hurwitz_zeta(s, a)
    else:
        assert _error(hurwitz_zeta(s, a), value) < HURWITZ_BOUND


# zeta and zeta' take the reflected route on -3.5 <= Re s < -1.75, like
# every L; the Euler-Maclaurin route errs there by up to about 3e-10.
# Re s = -1.75 itself is on the Euler-Maclaurin side, with the loss just
# right of the line that PRINCIPAL_L_BOUND allows for.
ZETA_STRIP_BOUND = 1e-13


@settings(oracle, max_examples=60)
@given(strip)
def test_zeta_and_zeta_derivative_left_of_the_reflection_line(s):
    with mpmath.workdps(30):
        assert _error(riemann_zeta(s), mpmath.zeta(s)) < ZETA_STRIP_BOUND
        assert _error(zeta_derivative(s), mpmath.zeta(s, 1, 1)) < ZETA_STRIP_BOUND


@settings(oracle, max_examples=25)
@given(points, characters)
def test_dirichlet_L(s, chi):
    with mpmath.workdps(30):
        assert _error(dirichlet_L(s, chi), _mp_L(chi)(s)) < L_BOUND


@settings(oracle, max_examples=25)
@given(points, characters)
def test_L_derivative(s, chi):
    with mpmath.workdps(40):  # a central difference good to about 1e-18
        L = _mp_L(chi)  # tau and the root number at 40 digits too
        h = mpmath.mpf("1e-9")
        value = (L(s + h) - L(s - h)) / (2 * h)
    assert _error(L_derivative(s, chi), value) < L_DERIVATIVE_BOUND


# L' from Re s = 8 on is the Dirichlet series, as the Euler-Maclaurin
# assembly cancels there: 6.9e-12, 1.5e-10, 1.3e-5 and 9.3e4 relative at
# s = 8, 10, 20 and 40 (chi mod 40 index 3).  The series sums its terms by
# math.fsum: over chi mod 2 and every non-principal chi mod 3 to 12 and
# mod 40 at these s, the worst is 6.8e-16 (chi mod 9 index 4 at s = 8),
# and below 6.0e-16 (chi mod 7 index 2 at s = 8.5 + 3i); one running sum
# erred by up to 1.5e-15 (chi mod 7 index 3 at s = 8).
LARGE_RE_BOUND = 1e-15


@pytest.mark.parametrize("q, index", [(40, 3), (5, 1), (7, 2), (2, 0), (7, 1), (7, 3)])
def test_L_derivative_at_large_re_s(q, index):
    chi = enumerate_characters(q)[index]
    for s in (8, complex(8.5, 3), 10, 20, 40):
        value = mp_L(s, chi, 1, dps=40 + round(0.7 * complex(s).real))
        assert abs(L_derivative(s, chi) - value) < LARGE_RE_BOUND * abs(value), s


# both routes, either side of the threshold -1.75, and around the pole
PRINCIPAL_POINTS = [complex(-3.0, 0.5), complex(-2.2, -7.1), complex(-1.9, 3.0),
                    complex(-1.6, 0.0), complex(-1.0, -4.2), 0j, complex(0.5, 9.3),
                    complex(1.001, 0.0), complex(0.9999, 0.0), complex(1.0, 1e-5),
                    complex(1 + 1e-7, -1e-7), complex(2.0, -10.0), complex(3.0, 1.7)]


@pytest.mark.parametrize("q", range(2, 41))
def test_principal_L_against_zeta_euler_factors(q):
    # L(s, chi_0) = zeta(s) prod_{p | q} (1 - p^{-s})
    chi = enumerate_characters(q)[0]
    assert chi.is_principal
    with mpmath.workdps(30):
        for s in PRINCIPAL_POINTS:
            value = mpmath.zeta(s)
            for p, _ in _factorize(q):
                value *= 1 - mpmath.power(p, -mpmath.mpc(s))
            assert _error(dirichlet_L(s, chi), value) < PRINCIPAL_L_BOUND, s


# (q, index, s, L(s, chi), L'(s, chi)) left of the reflection threshold:
# the principal characters mod 32, 64, 81 and 128, and non-principal chi
# mod q <= 40, all but two imprimitive; the rows at s = -3 and -3 + 7.5i
# take a character of each modulus of test_specfun's per-residue test.  Made
# by mpmath.dirichlet(s, mp_values(chi), d) for d = 0 and 1 at 30 digits,
# printed to 25 (about 5 minutes, 90 s of them at q = 128); mpmath's value
# at a trivial zero can read about 1e-24 there.
REFLECTED_TABLE = [
    (32, 0, complex(-5.984, -4.448),
     complex(-12.60816808169741918428993, 28.32369795481757487481636),
     complex(-15.99922658126276537102422, -38.0800461174458378937464)),
    (32, 0, complex(-5.0, 0.0),
     complex(0.1230158730158730158730159, 0.0),
     complex(-0.07025612420875599873000707, 0.0)),
    (32, 0, complex(-6.0, 0.0),
     complex(0.0, 0.0),
     complex(0.3716848260415040593896823, 0.0)),
    (32, 0, complex(-5.0, 0.5),
     complex(0.1529444465783179267771295, -0.04500066072910818141088078),
     complex(-0.1303240711078589569077689, -0.1183414020617169524288245)),
    (32, 0, complex(-1.8, 9.5),
     complex(-7.53035839604746652223261, 0.4467599788968859654441671),
     complex(10.04200922215214371262852, 2.034930443967404856417404)),
    (64, 0, complex(-5.984, -4.448),
     complex(-12.60816808169741918428994, 28.32369795481757487481633),
     complex(-15.99922658126276537102437, -38.08004611744583789374621)),
    (64, 0, complex(-5.0, 0.0),
     complex(0.1230158730158730158730159, 0.0),
     complex(-0.07025612420875599873000705, 0.0)),
    (64, 0, complex(-6.0, 0.0),
     complex(0.0, 0.0),
     complex(0.3716848260415040593896818, 0.0)),
    (64, 0, complex(-5.0, 0.5),
     complex(0.1529444465783179267771295, -0.04500066072910818141088078),
     complex(-0.1303240711078589569077689, -0.1183414020617169524288246)),
    (64, 0, complex(-3.3, -7.7),
     complex(19.52801925051006184711616, 13.60413802640007243066977),
     complex(-25.74280022501838108058536, -5.833772663614733585399292)),
    (81, 0, complex(-5.984, -4.448),
     complex(-275.0714046633698189194476, -208.7798883970082490654037),
     complex(567.7675530915843797220057, 10.91858100572517632906111)),
    (81, 0, complex(-5.0, 0.0),
     complex(0.9603174603174603174603174, 0.0),
     complex(-0.9207135282933217685233087, 0.0)),
    (81, 0, complex(-6.0, 0.0),
     complex(-1.301417752583988835352529e-24, 0.0),
     complex(4.295024656479602464058525, 0.0)),
    (81, 0, complex(-5.0, 0.5),
     complex(1.102351767175677446359367, -0.5740454919139397897296092),
     complex(-1.599807423756769672005439, -0.4804867300092892534707731)),
    (81, 0, complex(-2.2, 0.1),
     complex(-0.04977085093680311472329416, 0.02530803700855365280221807),
     complex(0.2542983864138804466297986, -0.001105271855977654592290722)),
    (128, 0, complex(-5.984, -4.448),
     complex(-12.60816808169741918428833, 28.32369795481757487482015),
     complex(-15.99922658126276537099045, -38.08004611744583789375394)),
    (128, 0, complex(-5.0, 0.0),
     complex(0.1230158730158730158730161, 0.0),
     complex(-0.07025612420875599873000579, 0.0)),
    (128, 0, complex(-6.0, 0.0),
     complex(0.0, 0.0),
     complex(0.3716848260415040593900408, 0.0)),
    (128, 0, complex(-5.0, 0.5),
     complex(0.1529444465783179267771292, -0.04500066072910818141088058),
     complex(-0.1303240711078589569077697, -0.1183414020617169524288256)),
    (128, 0, complex(-4.6, 3.3),
     complex(-2.591064527002257292239296, -2.132766471978831432790949),
     complex(-0.4608376439012274217204494, 4.004855105344027390099459)),
    (5, 1, complex(-3.0, 0.0),
     complex(0.0, 0.0),
     complex(-2.955769641976079091863122, -1.626702093605824269136944)),
    (5, 2, complex(-3.0, 7.5),
     complex(-235.17732377009092120748, 518.5455360011053156955791),
     complex(662.029826351748142569406, -888.151913405019793376193)),
    (8, 2, complex(-3.0, 0.0),
     complex(0.0, 0.0),
     complex(-1.530959004624158044370222, 0.0)),
    (8, 2, complex(-3.0, 7.5),
     complex(-122.9153843436619720687817, 239.4106625109117947192743),
     complex(311.3882414652389623908973, -340.4514791336301715526542)),
    (12, 2, complex(-3.0, 0.0),
     complex(0.0, 0.0),
     complex(-42.86685212947642524236622, 0.0)),
    (12, 1, complex(-3.0, 7.5),
     complex(413.1204038838146018458087, -691.9085384493330926170396),
     complex(-1168.013817187712937744185, 1222.777934101897238592158)),
    (21, 2, complex(-3.0, 0.0),
     complex(25.42857142857142857142857, -183.1025139429955996014729),
     complex(-51.96582915280492442565446, 454.2815049061759707762553)),
    (21, 6, complex(-3.0, 7.5),
     complex(20156.11697479275162973429, -25507.14536944876843603221),
     complex(-77655.17318925679876088828, 77086.19703560601152464166)),
    (40, 4, complex(-3.0, 0.0),
     complex(1386.0, 0.0),
     complex(-4310.097681948148903711945, 0.0)),
    (40, 9, complex(-3.0, 7.5),
     complex(-2279.712137061760960258428, -75555.73210744923336696578),
     complex(-25210.48303152766299113905, 2.472268096381763951082207e+5)),
    (9, 3, complex(-1.8, 0.4),
     complex(-0.2317098300309993830420677, 0.06165747155974389409676568),
     complex(0.1764860627288066520215449, 0.1499625702564098580185525)),
    (16, 6, complex(-4.25, -2.5),
     complex(-569.1029826965551455117918, -1050.655256287334732354795),
     complex(2235.405715204370423164612, 1404.912337876065595750843)),
    (20, 2, complex(-1.9, 9.0),
     complex(146.34527117816136002559, -479.0577933006663746576553),
     complex(-490.5531568052322959246199, 1207.996882556689881954754)),
    (24, 5, complex(-3.7, 2.2),
     complex(-1543.149435277478262914859, 721.4707726874467629762772),
     complex(4183.692075313301671226615, 95.8634091959674237715084)),
    (25, 10, complex(-5.5, 1.0),
     complex(-86.04779434550237703199904, 94.94754708425982425764863),
     complex(258.1417191556176886888982, -16.60280403588105694072452)),
    (27, 12, complex(-2.6, -6.3),
     complex(531.334945671820570178842, -817.9548666876715375206503),
     complex(-899.0767357696924619936905, 2138.95647621076681673963)),
    (28, 6, complex(-4.0, 0.0),
     complex(6005.0, 0.0),
     complex(-18037.49269002585261585752, 0.0)),
    (36, 9, complex(-6.0, 0.0),
     complex(-6.141108813450582053903532e-28, 0.0),
     complex(-60519.50001187419301428758, 0.0)),
]
REFLECTED_BOUND = 1e-13
BERNOULLI_BOUND = 1e-13


@pytest.mark.parametrize("q, index, s, value, derivative", REFLECTED_TABLE,
                         ids=[f"{q}-{index}-{s:g}" for q, index, s, *_ in REFLECTED_TABLE])
def test_L_and_L_derivative_left_of_the_reflection_threshold(q, index, s, value, derivative):
    chi = enumerate_characters(q)[index]
    assert _error(dirichlet_L(s, chi), value) < REFLECTED_BOUND
    assert _error(L_derivative(s, chi), derivative) < REFLECTED_BOUND


@pytest.mark.parametrize("q", [32, 64, 81, 128])
def test_L_at_negative_integers_against_exact_bernoulli_numbers(q):
    # L(1-n, chi) = -B_{n,chi}/n with B_{n,chi} = q^{n-1} sum_a chi(a) B_n(a/q)
    # for n = 3..6, and exactly 0 where n and chi differ in parity
    with mpmath.workdps(30):
        bern = {n: [mpmath.bernpoly(n, mpmath.mpf(a) / q) for a in range(q)] for n in range(3, 7)}
        for chi in enumerate_characters(q):
            values = mp_values(chi)
            for n in range(3, 7):
                got = dirichlet_L(1.0 - n, chi)
                if (n - chi.is_odd) % 2:
                    assert got == 0, (chi.index, n)
                    continue
                value = -q ** (n - 1) * mpmath.fsum(v * b for v, b in zip(values, bern[n])) / n
                assert _error(got, value) < REFLECTED_BOUND, (chi.index, n)


@pytest.mark.parametrize("q", [64, 81, 128])
def test_generalized_bernoulli_against_mpmath(q):
    # B_{n,chi} = q^{n-1} sum_a chi(a) B_n(a/q) for n = 1..6 and every chi
    with mpmath.workdps(40):
        bern = {n: [mpmath.bernpoly(n, mpmath.mpf(a) / q) for a in range(q)] for n in range(1, 7)}
        for chi in enumerate_characters(q):
            values = mp_values(chi)
            for n in range(1, 7):
                value = q ** (n - 1) * mpmath.fsum(v * b for v, b in zip(values, bern[n]))
                assert _error(generalized_bernoulli(n, chi), value) < BERNOULLI_BOUND, (chi.index, n)


def test_oracle_characters_and_its_functional_equation_branch():
    assert {chi.modulus for chi in CHARS} == {q for q in range(3, 41) if q % 4 != 2}
    assert len(CHARS) == 284
    # at Re s = 1/4 mpmath's direct sum is still fast: both branches agree
    with mpmath.workdps(30):
        s = mpmath.mpc(0.25, 3)
        for chi in CHARS[::29]:
            direct = mpmath.dirichlet(s, [complex(chi.value(n)) for n in range(chi.modulus)])
            assert abs(_mp_L(chi)(s) - direct) < 1e-14 * max(1, abs(direct))


# the arguments 1 - s of the reflected route of L': Re s < -1.75
@oracle
@given(points.filter(lambda s: s.real < -1.75))
def test_digamma_on_the_reflected_route(s):
    with mpmath.workdps(30):
        assert _error(_digamma(1.0 - s), mpmath.digamma(1 - mpmath.mpc(s))) < 1e-15


@pytest.mark.parametrize("s", [1 + 1e-2, 1 + 1e-4, 1 + 1e-6, 1 + 1e-8, complex(1, 1e-3)])
def test_zeta_derivative_near_its_pole(s):
    got = zeta_derivative(s)
    with mpmath.workdps(30):
        value = mpmath.zeta(mpmath.mpc(s), 1, 1)
    assert abs(got - complex(value)) < 1e-13 * abs(value)
    if isinstance(s, float):
        assert got.imag == 0.0


@pytest.mark.parametrize("chi", [chi for chi in CHARS if chi.is_real],
                         ids=lambda chi: f"{chi.modulus}-{chi.index}")
def test_L_derivative_around_one(chi):
    values = [int(chi.value(n).real) for n in range(chi.modulus)]
    # L is real on the real axis, so L'(x) = Im L(x + ih)/h + O(h^2 L'''):
    # one mpmath L value per real point, at 40 digits as L(x + ih) ~ 1/h
    h = mpmath.mpf("1e-10")
    for x in (1.0, 1 + 1e-6, 1 - 1e-6):
        with mpmath.workdps(40):
            value = mpmath.dirichlet(mpmath.mpc(x, h), values).imag / h
        assert _error(L_derivative(x, chi), value) < 1e-13, x
    s = complex(1, 1e-4)
    with mpmath.workdps(30):
        assert _error(L_derivative(s, chi), mpmath.dirichlet(s, values, 1)) < 1e-13
