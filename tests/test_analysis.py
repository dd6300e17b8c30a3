"""Level-1 static range analysis: family certificates.

The acceptance grid — all four reducer backends at ``N in {1024, 4096} x
L in {4, 12}`` — must come back fully proved, and the certificate's
lazy-accumulation headroom must be the number the accumulator and the
plan checker enforce.
"""

from functools import lru_cache
from types import SimpleNamespace

import pytest

from repro.analysis import Interval, certify_kernels
from repro.analysis.intervals import lazy_fold
from repro.analysis.plan_check import _Checker
from repro.analysis.ranges import IntervalOps, Reg, _Prover
from repro.errors import ParameterError, StaticAnalysisError
from repro.poly.lazy import LazyAccumulator
from repro.poly.rns_poly import PolyContext
from repro.rns.primes import PrimePool
from repro.rns.reduction import make_reducer, montgomery_mul, shoup_mul
from repro.scheme._circuit import _Step

METHODS = ("barrett", "montgomery", "shoup", "smr")
GRID = [(1024, 4), (1024, 12), (4096, 4), (4096, 12)]


@lru_cache(maxsize=None)
def _family(n: int, num_limbs: int) -> tuple[int, ...]:
    pool = PrimePool.generate(
        n, num_main=num_limbs - 1, num_terminal=1, num_aux=4
    )
    return tuple(p.value for p in pool.limb_primes(1, num_limbs - 1))


class TestFamilyCertificates:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n,num_limbs", GRID)
    def test_acceptance_grid_proves(self, method, n, num_limbs):
        primes = _family(n, num_limbs)
        cert = certify_kernels(n, primes, method)
        assert cert.ok, cert.describe()
        assert all(o.proved for o in cert.obligations)
        assert cert.raise_if_failed() is cert
        assert "proved" in cert.describe()
        # The per-stage invariant the sanitizer asserts at runtime:
        # canonical [0, q) for the uint32 kernels, 2q-lazy for Barrett.
        factor = 2 if method == "barrett" else 1
        assert cert.stage_bounds == tuple(
            factor * q - 1 for q in primes
        )

    @pytest.mark.parametrize("method", METHODS)
    def test_accumulation_headroom_facts(self, method):
        cert = certify_kernels(1024, _family(1024, 4), method)
        # §4.2: lazy accumulation defers ~2^32 folds on every backend.
        assert cert.reduced_headroom >= 2**32

    @pytest.mark.parametrize("method", METHODS)
    def test_headroom_agrees_with_accumulator_and_plan_checker(self, method):
        # One §4.2 rule, three readers on one limb basis: a fresh
        # accumulator, the kernel certificate, and the plan checker's
        # mac-overflow boundary (fires at headroom + 1 terms, not before).
        primes = _family(1024, 4)
        acc = LazyAccumulator(make_reducer(method, primes), (len(primes), 1))
        headroom = acc.headroom
        assert certify_kernels(1024, primes, method).reduced_headroom == headroom
        plan = SimpleNamespace(
            ctx=PolyContext(1024, primes, method), _sigma=3.2, _n_slots=1,
            _inputs=[], _steps=[], _outputs={},
        )
        step = _Step("mac", dst=0, level=len(primes))
        for terms, codes in ((headroom, []), (headroom + 1, ["mac-overflow"])):
            checker = _Checker(plan, drift_warn_bits=2.0)
            checker._check_mac_headroom(0, step, terms)
            assert [d.code for d in checker.errors] == codes, terms

    def test_oversized_modulus_refuted(self):
        cert = certify_kernels(1024, [2**33 - 9], "shoup")
        assert not cert.ok
        assert cert.diagnostics[0].code == "modulus-within-31-bits"
        with pytest.raises(StaticAnalysisError, match="range analysis"):
            cert.raise_if_failed()
        assert "FAILED" in cert.describe()

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError, match="unknown reduction"):
            certify_kernels(1024, [97], "karatsuba")

    def test_empty_primes_rejected(self):
        with pytest.raises(ParameterError, match="at least one limb"):
            certify_kernels(1024, [], "smr")


class TestIntervalDomain:
    def test_arithmetic_is_exact_on_corners(self):
        a = Interval(-3, 5)
        b = Interval(2, 4)
        assert a + b == Interval(-1, 9)
        assert a - b == Interval(-7, 3)
        assert a * b == Interval(-12, 20)
        assert -a == Interval(-5, 3)
        assert Interval(7, 21) >> 2 == Interval(1, 5)
        with pytest.raises(ValueError, match="empty interval"):
            Interval(4, 2)

    def test_lazy_fold_models_wrap_select(self):
        # Below q: untouched.  Above: one conditional subtract, and the
        # result can exceed q-1 only through the unfolded upper corner.
        assert lazy_fold(Interval(0, 96), 97) == Interval(0, 96)
        assert lazy_fold(Interval(0, 150), 97) == Interval(0, 96)
        assert lazy_fold(Interval(0, 300), 97) == Interval(0, 203)
        with pytest.raises(ValueError):
            lazy_fold(Interval(-1, 5), 97)


class TestIntervalInterpretation:
    """The certificate interprets the numpy kernels' own definitions, so a
    violation names the definition, the primitive and the register."""

    Q = 1073741969

    def _failures(self, body):
        prover = _Prover("planted")
        body(IntervalOps(prover))
        return [d.code for d in prover.diagnostics]

    def test_refutes_shoup_constant_reaching_q(self):
        q = self.Q

        def body(ops):
            w = Reg("uint32", 0, q)  # one constant too many: w = q
            ws = Reg("uint64", 0, (q << 32) // q)
            shoup_mul(ops, Reg("uint32"), Reg("uint32", 0, q - 1), w, ws,
                      Reg("uint32", q), Reg("uint64"), Reg("uint32"))

        # w = q has the 33-bit companion 2^32: the high product no longer
        # reads words, and Shoup's lemma no longer applies
        assert self._failures(body) == [
            "shoup_mul: mulhi -> h reads words",
            "shoup_mul: shoup axiom -> out precondition",
        ]
        # the canonical constant range proves
        assert not self._failures(lambda ops: shoup_mul(
            ops, Reg("uint32"), Reg("uint32", 0, q - 1),
            Reg("uint32", 0, q - 1), Reg("uint64", 0, ((q - 1) << 32) // q),
            Reg("uint32", q), Reg("uint64"), Reg("uint32"),
        ))

    def test_refutes_a_64_bit_register_that_can_overflow(self):
        q = self.Q

        def body(ops):
            # full-word operands break Montgomery's x < q*2^32: the 64-bit
            # sum x + m*q can wrap
            word = Reg("uint32", 0, 2**32 - 1)
            montgomery_mul(ops, Reg("uint32"), word, word, Reg("uint64", q),
                           Reg("uint32", 7), Reg("uint64"), Reg("uint32"),
                           Reg("uint64"))

        failures = self._failures(body)
        assert failures[0] == "montgomery_mul: add -> mq fits uint64"
        assert "montgomery_mul: montgomery axiom -> mq precondition" in failures

    def test_certificate_names_the_failing_step(self, monkeypatch):
        # A planted companion range that reaches 2^32 fails the family's
        # certificate at the Shoup definition's high product.
        from repro.analysis import ranges

        def wide_tables(method, q):
            return (Reg("uint32", 0, q - 1), Reg("uint64", 0, 2**32))

        monkeypatch.setattr(ranges, "_tables", wide_tables)
        cert = certify_kernels(1024, _family(1024, 4), "shoup")
        assert not cert.ok
        assert cert.diagnostics[0].code == "shoup_mul: mulhi -> h reads words"
