"""Expected H^3(G; Z/m) for the cohomology ladder, from closed forms.

The table is derived by hand, not from the program's output.

Universal coefficients (trivial action, G finite):

    H^3(G; Z/m) = H^3(G; Z) (x) Z/m  +  Tor(H^4(G; Z), Z/m),

with Z/k (x) Z/m = Tor(Z/k, Z/m) = Z/gcd(k, m).  The integral cohomology used:

    C_n:        H^3 = 0,    H^4 = Z/n               (periodic resolution)
    C_a x C_b:  H^3 = Z/d,  H^4 = Z/a + Z/b + Z/d,  d = gcd(a, b)
                (Kunneth: H^3 gets Tor(H^2, H^2); H^4 gets H^0(x)H^4,
                H^4(x)H^0 and H^2(x)H^2)
    C2^3:       over F_2 the Poincare series is 1/(1-t)^3, so
                dim H^3(C2^3; F_2) = C(5, 2) = 10.

Factors are listed as cohomology() reports them: an ascending chain of
invariant factors.
"""

from __future__ import annotations

from typing import NamedTuple


class LadderRow(NamedTuple):
    orders: tuple[int, ...]
    modulus: int
    factors: list[int]
    derivation: str


LADDER = (
    LadderRow((2,), 2, [2], "C2: 0 + Tor(Z/2, Z/2) = Z/2"),
    LadderRow((3,), 3, [3], "C3: 0 + Tor(Z/3, Z/3) = Z/3"),
    LadderRow((4,), 4, [4], "C4: 0 + Tor(Z/4, Z/4) = Z/4"),
    LadderRow((5,), 5, [5], "C5: 0 + Tor(Z/5, Z/5) = Z/5"),
    LadderRow((6,), 6, [6], "C6: 0 + Tor(Z/6, Z/6) = Z/6"),
    LadderRow((7,), 7, [7], "C7: 0 + Tor(Z/7, Z/7) = Z/7"),
    LadderRow((8,), 8, [8], "C8: 0 + Tor(Z/8, Z/8) = Z/8"),
    LadderRow((2, 2), 4, [2, 2, 2, 2],
              "C2xC2, d=2: Z/2(x)Z/4 + Tor(Z/2+Z/2+Z/2, Z/4) = (Z/2)^4"),
    LadderRow((2, 4), 4, [2, 2, 2, 4],
              "C2xC4, d=2: Z/2(x)Z/4 + Tor(Z/2+Z/4+Z/2, Z/4) = (Z/2)^3 + Z/4"),
    LadderRow((2, 2, 2), 2, [2] * 10,
              "C2^3: F_2 Poincare series 1/(1-t)^3 gives dim 10, so (Z/2)^10"),
    LadderRow((3, 3), 3, [3, 3, 3, 3],
              "C3xC3, d=3: Z/3(x)Z/3 + Tor(Z/3+Z/3+Z/3, Z/3) = (Z/3)^4"),
)
