"""Regenerate the frozen oracle constants used by the test suite.

Every constant asserted in the tests was produced here by a method that is
independent of the library code: brute-force midpoint panels, exact-rational
series, telescoping closed forms with harmonic-number limits, or mpmath
reference quadrature at 40 digits.  Run with

    python tests/make_oracles.py

and compare the printed values against the ``O_*`` constants in the tests.

Note: far tails are never handed to ``mp.quad`` directly; algebraic tails of
the interval sums are closed out with exact harmonic identities (mp.quad on
[A, inf) of slowly decaying integrands is unreliable for large A).
"""

from fractions import Fraction
import math

import numpy as np
import mpmath as mp

mp.mp.dps = 40


def midpoint_unit_interval(f, panels=10_000_000, chunks=20):
    acc = 0.0
    per = panels // chunks
    for c in range(chunks):
        k = np.arange(c * per, (c + 1) * per, dtype=np.float64)
        t = (k + 0.5) / panels
        acc += float(np.sum(f(t)))
    return acc / panels


def o_exp_well():
    # integral over (0,1) of exp(-1/t - 1/(1-t)); degenerate flat endpoints
    f = lambda t: np.exp(-1.0 / t - 1.0 / (1.0 - t))
    mid = midpoint_unit_interval(f)
    ref = mp.quad(lambda t: mp.e ** (-1 / t - 1 / (1 - t)), [0, 1])
    print(f"O_EXP_WELL     midpoint(1e7) = {mid!r}   mpmath = {float(ref)!r}")


def o_beta_half():
    # extended Beta B(1,1;1/2,1/2) = integral of exp(-1/(2t) - 1/(2(1-t)))
    f = lambda t: np.exp(-0.5 / t - 0.5 / (1.0 - t))
    mid = midpoint_unit_interval(f)
    ref = mp.quad(lambda t: mp.e ** (-mp.mpf(1) / (2 * t) - mp.mpf(1) / (2 * (1 - t))), [0, 1])
    print(f"O_BETA_HALF    midpoint(1e7) = {mid!r}   mpmath = {float(ref)!r}")


def o_beta_large_pq():
    # B(1,1;139,29) = integral of exp(-139/t - 29/(1-t)): every derivative
    # vanishes at both endpoints, so the plain trapezoid rule converges
    # exponentially; N = 1000, 2000, 4000 at 40 digits agree to 28 digits,
    # and so does Gauss-Legendre on 240 pieces at 40 and 60 digits.
    # mp.quad's default tanh-sinh is NOT a reference here: at 30 to 80 digits
    # with 240 pieces it reads 3.722978487050475328e-130, 3.7e-14 high (and
    # it is 4.5e-13 low on the closed form e^-p - p E1(p) of
    # integral of exp(-139/t)); with 60 pieces it moves in the 17th digit.
    f = lambda t: mp.exp(-mp.mpf(139) / t - mp.mpf(29) / (1 - t))
    for n in (1000, 2000, 4000):
        trap = mp.fsum(f(mp.mpf(k) / n) for k in range(1, n)) / n
        print(f"O_BETA_LARGE_PQ trapezoid({n}) = {mp.nstr(trap, 28)}")
    for dps in (40, 60):
        with mp.workdps(dps):
            gl = mp.quad(f, mp.linspace(0, 1, 241), method="gauss-legendre")
        print(f"O_BETA_LARGE_PQ gauss-legendre(240 pieces, dps {dps}) = {mp.nstr(gl, 28)}")


def o_beta_narrow_peak():
    # B(182,1;132,150) = integral of t^181 exp(-132/t - 150/(1-t)): as for
    # O_BETA_LARGE_PQ every derivative vanishes at both endpoints, and N =
    # 1000, 2000, 4000 agree with Gauss-Legendre on 240 pieces at 40 and 60
    # digits to 28 digits.  The peak sits at t ~ 0.565 with width ~ 0.013.
    f = lambda t: t ** 181 * mp.exp(-mp.mpf(132) / t - mp.mpf(150) / (1 - t))
    for n in (1000, 2000, 4000):
        trap = mp.fsum(f(mp.mpf(k) / n) for k in range(1, n)) / n
        print(f"O_BETA_NARROW_PEAK trapezoid({n}) = {mp.nstr(trap, 28)}")
    for dps in (40, 60):
        with mp.workdps(dps):
            gl = mp.quad(f, mp.linspace(0, 1, 241), method="gauss-legendre")
        print(f"O_BETA_NARROW_PEAK gauss-legendre(240 pieces, dps {dps}) = {mp.nstr(gl, 28)}")


def o_kummer_half():
    # 1F1(1/2; 3/2; -2) = sum (-2)^n / ((2n+1) n!), exact rationals
    s = Fraction(0)
    for n in range(200):
        s += Fraction(-2) ** n / (Fraction(2 * n + 1) * math.factorial(n))
    print(f"O_KUMMER_HALF  rational(200) = {float(s)!r}   mpmath = {float(mp.hyp1f1(0.5, 1.5, -2))!r}")


def o_ext_kummer():
    # (p,q)-extended Kummer Phi_{0.1,0.1}(1;2;-1): 120-term series, each
    # coefficient B(1+n,1;0.1,0.1) integrated by mpmath on (0,1)
    p = q = mp.mpf("0.1")
    s = mp.mpf(0)
    for n in range(120):
        c = mp.quad(lambda t: t ** n * mp.e ** (-p / t - q / (1 - t)), [0, 1])
        s += c * (-1) ** n / mp.factorial(n)
    print(f"O_EXT_KUMMER   mpmath(120)   = {float(s)!r}")


def o_mathieu_log():
    # sum_{n>=1} ln(1+1/n)/(n+1): head at 40 dps + Euler-Maclaurin tail with
    # the integral done after the substitution u = 1/x (keeps mp.quad honest)
    A = 20001
    head = mp.fsum(mp.log(1 + mp.mpf(1) / n) / (n + 1) for n in range(1, A))
    g = lambda x: mp.log(1 + 1 / x) / (x + 1)
    integral = mp.quad(lambda u: mp.log(1 + u) / (u * (1 + u)), [0, mp.mpf(1) / A])
    total = head + integral + g(mp.mpf(A)) / 2 - mp.diff(g, mp.mpf(A)) / 12 + mp.diff(g, mp.mpf(A), 3) / 720
    print(f"O_MATHIEU_LOG  EM(A=2e4)     = {float(total)!r}")


def o_mathieu_log_alt():
    # sum (-1)^(n-1) ln(1+1/n)/(n+1): head + Euler transformation of the tail
    g0 = lambda n: mp.log(1 + mp.mpf(1) / n) / (n + 1)
    A = 4001  # odd, so the tail enters with sign +1
    head = mp.fsum((1 if n % 2 else -1) * g0(n) for n in range(1, A))
    vals = [g0(A + j) for j in range(25)]
    tail = mp.mpf(0)
    for j in range(24):
        tail += (-1) ** j * vals[0] / mp.mpf(2) ** (j + 1)
        vals = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    print(f"O_MATHIEU_ALT  Euler tail    = {float(head + tail)!r}")


def o_cahen_count():
    # integral over (1,inf) of floor(x)/(x (x+1)^2), a_n = n.  Interval sums
    # telescope: total = v_1 + sum_{N>=2} v_N with v_N = ln((N+1)/N) - 1/(N+1)
    # and sum_{N>=A} v_N = H_A - ln A - gamma exactly, giving 1 - gamma.
    exact = 1 - mp.euler
    # spec-stated oracle: 1e5 weighted intervals, midpoint panels inside each
    acc = 0.0
    for n in range(1, 100001):
        t = n + (np.arange(32) + 0.5) / 32.0
        acc += n * float(np.mean(1.0 / (t * (t + 1.0) ** 2)))
    A = mp.mpf(100001)
    v = lambda N: mp.log((N + 1) / N) - 1 / (N + 1)
    tail = A * v(A) + (mp.harmonic(100002) - mp.log(100002) - mp.euler)
    print(f"O_CAHEN_COUNT  midpoint(1e5) = {acc + float(tail)!r}   1-gamma = {float(exact)!r}")


def o_u_integral():
    # integral over (1,inf) of floor(x)/(x^2 (x+1)^2) telescopes to 2*gamma-1
    exact = 2 * mp.euler - 1
    acc = 0.0
    for n in range(1, 100001):
        t = n + (np.arange(32) + 0.5) / 32.0
        acc += n * float(np.mean(1.0 / (t ** 2 * (t + 1.0) ** 2)))
    A = mp.mpf(100001)
    v = lambda N: 1 / N + 1 / (N + 1) - 2 * mp.log((N + 1) / N)
    tail = A * v(A) + (2 * mp.euler + 2 * mp.log(100002) - mp.harmonic(100001) - mp.harmonic(100002))
    print(f"O_U_INTEGRAL   midpoint(1e5) = {acc + float(tail)!r}   2*gamma-1 = {float(exact)!r}")


def o_power_tail_closed_form():
    # integral over (a1,inf) of x^(-lam) (x+r^2)^(-eta) against the
    # Gauss-hypergeometric closed form (GR 3.194.1): third parameter lam+eta
    for lam, eta, r, a1 in [(1, 1, 1, 2), (0.5, 1, 0.5, 1), (2, 1, 1, 1), (1.3, 0.9, 0.8, 1.7)]:
        direct = mp.quad(lambda x: x ** (-mp.mpf(lam)) * (x + r * r) ** (-mp.mpf(eta)), [a1, mp.inf])
        s = mp.mpf(lam) + eta
        closed = mp.hyp2f1(eta, s - 1, s, -mp.mpf(r) ** 2 / a1) / ((s - 1) * mp.mpf(a1) ** (s - 1))
        print(f"O_TAIL lam={lam} eta={eta} r={r} a1={a1}: direct = {float(direct)!r}  closed = {float(closed)!r}")


if __name__ == "__main__":
    o_exp_well()
    o_beta_half()
    o_beta_large_pq()
    o_beta_narrow_peak()
    o_kummer_half()
    o_ext_kummer()
    o_mathieu_log()
    o_mathieu_log_alt()
    o_cahen_count()
    o_u_integral()
    o_power_tail_closed_form()
