"""Shared fixtures: prime pools are session-scoped (prime search is the
slow part of the suite) and every random stream is seeded for bit-exact
reproducibility — the suite guards bit-faithful range claims, so flaky
inputs would defeat its purpose."""

import numpy as np
import pytest

from repro.rns.primes import PrimePool


@pytest.fixture(scope="session")
def pool64() -> PrimePool:
    """A small 25-30 construction over N=64 shared by most tests."""
    return PrimePool.generate(64, num_main=4, num_terminal=2, num_aux=1)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0x5EED)


def negacyclic_schoolbook(a, b, q: int) -> np.ndarray:
    """Reference ``a * b mod (x^N + 1, q)`` via ``numpy.polymul``.

    Exact: coefficients are lifted to Python ints (object dtype) so the
    quadratic-size intermediate products never wrap.
    """
    n = len(a)
    # numpy.polymul wants highest-degree-first coefficients.
    full = np.polymul(
        np.asarray(a, dtype=object)[::-1], np.asarray(b, dtype=object)[::-1]
    )[::-1]
    out = np.zeros(n, dtype=object)
    for i, c in enumerate(full):
        if i < n:
            out[i] += c
        else:
            out[i % n] -= c  # x^N = -1: degree >= N wraps negated
    return np.array([int(x) % q for x in out], dtype=np.uint64)


def crt_oracle(primes, limbs, *, centered: bool = True) -> list[int]:
    """The sum-of-lifts CRT reconstruction in Python ints, one coefficient
    at a time: ``X = sum_i x_i * (Q/q_i) * ((Q/q_i)^-1 mod q_i) mod Q``,
    centered into ``(-Q/2, Q/2]`` on request.  Independent of the
    mixed-radix reconstruction the library runs."""
    big_q = 1
    for q in primes:
        big_q *= q
    acc = [0] * limbs.shape[1]
    for i, q in enumerate(primes):
        m_i = big_q // q
        lift = m_i * pow(m_i, -1, q)
        for j, x in enumerate(limbs[i].tolist()):
            acc[j] = (acc[j] + x * lift) % big_q
    if centered:
        acc = [c - big_q if c > big_q // 2 else c for c in acc]
    return acc
