"""Compiled backend tier: ctypes-loaded C kernels.

The C source (``_kernels.c``, shipped next to this module) implements
the four Table-3 butterfly stage-kernel families, the lazy
product-accumulate and fold for all four reducers, the basis-conversion
CRT tensor pass and ModDown's combine step over exactly the tables and
reducer constants the numpy kernels use, so the outputs are
bit-identical by the canonical-exactness argument in the package
docstring.  The shared library is built lazily on first use with
whatever C compiler is around (``$CC``, else ``cc``/``gcc``/``clang``)
and cached by source hash under ``$REPRO_KERNEL_CACHE`` (default: a
per-user directory in the system tempdir), so one build serves every
process and every test run.

No toolchain — or a failing build — is *not* an error: :func:`get_lib`
warns once per process with :class:`~repro.poly.backends.
BackendFallbackWarning` and every subsequent call silently uses the
numpy tier.  ``_reset()`` clears that latch for tests.

Checked mode runs *inside* the C NTT kernels: each (limb, stage) pass
re-scans the live row against the certified stage bound (canonical
``q-1`` for the Shoup / Montgomery / SMR families, Harvey-lazy ``2q-1``
for Barrett) and a violation surfaces as the same
:class:`~repro.errors.SanitizerError` shape the numpy kernels raise.
The accumulator, the converter and ModDown's combine are the
exceptions: under ``checked`` they decline, so the numpy path runs with
the LazyAccumulator's fold-soundness instrumentation (not just the
output bound) engaged.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from functools import partial
from pathlib import Path

import numpy as np

from repro.errors import SanitizerError
from repro.poly.backends import BackendFallbackWarning
from repro.poly.ntt import _range_error
from repro.rns.reduction import (
    BarrettReducer,
    MontgomeryReducer,
    ShoupReducer,
    SignedMontgomeryReducer,
)

_SOURCE = Path(__file__).with_name("_kernels.c")

#: lazy product kernel per reducer, and the per-limb reducer constant it
#: takes (Shoup needs per-element companions instead)
_LAZY_KERNELS = {
    BarrettReducer: ("lazy_mac_barrett", "mu"),
    MontgomeryReducer: ("lazy_mac_montgomery", "q_inv_neg"),
    ShoupReducer: ("lazy_mac_shoup", None),
    SignedMontgomeryReducer: ("lazy_mac_smr", "m"),
}

_VP, _I64 = ctypes.c_void_p, ctypes.c_int64
#: argument types of the accumulator and combine kernels (all return void)
_SIGNATURES = {
    **{name: [_VP] * 7 + [_I64, _I64] for name, _ in _LAZY_KERNELS.values()},
    "lazy_fold_unsigned": [_VP] * 3 + [_I64, _I64, _VP],
    "lazy_fold_signed": [_VP] * 3 + [_I64, _I64, _VP],
    "moddown_combine": [_VP] * 5 + [_I64, _I64, _VP],
}

_LIB: ctypes.CDLL | None = None
_FAILED = False


def _reset() -> None:
    """Forget the loaded library and the warn-once latch (tests only)."""
    global _LIB, _FAILED
    _LIB = None
    _FAILED = False


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_KERNEL_CACHE", "").strip()
    if env:
        return Path(env)
    uid = getattr(os, "getuid", lambda: "all")()
    return Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"


def _compiler() -> str | None:
    cc = os.environ.get("CC", "").strip()
    if cc:
        return cc
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    return None


def _build_lib() -> Path:
    """Compile (or reuse) the kernel shared library, returning its path.

    The artifact name carries a source hash, so editing ``_kernels.c``
    invalidates stale caches naturally; the build lands under a
    temporary name and is published with an atomic ``os.replace`` so
    concurrent processes never load a half-written library.
    """
    digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
    cache = _cache_dir()
    so = cache / f"repro_kernels_{digest}.so"
    if so.exists():
        return so
    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler found ($CC unset, no cc/gcc/clang)")
    cache.mkdir(parents=True, exist_ok=True)
    tmp = so.with_name(f"{so.name}.tmp{os.getpid()}")
    cmd = [cc, "-O3", "-fPIC", "-shared", "-o", str(tmp), str(_SOURCE)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode:
        tmp.unlink(missing_ok=True)
        detail = (proc.stderr or proc.stdout).strip()[:400]
        raise RuntimeError(f"{cc} failed (rc={proc.returncode}): {detail}")
    os.replace(tmp, so)
    return so


def get_lib() -> ctypes.CDLL | None:
    """The kernel library, building it on first call; ``None`` if absent.

    Degradation is loud exactly once: the first failed attempt emits one
    :class:`BackendFallbackWarning` naming the cause, then the failure
    is latched and later calls return ``None`` silently.
    """
    global _LIB, _FAILED
    if _LIB is not None:
        return _LIB
    if _FAILED:
        return None
    try:
        lib = ctypes.CDLL(str(_build_lib()))
        for name, argtypes in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, None
        _LIB = lib
    except Exception as exc:  # noqa: BLE001 - any build/load failure degrades
        _FAILED = True
        _LIB = None
        warnings.warn(
            f"compiled backend unavailable ({exc}); "
            "falling back to the numpy reference tier",
            BackendFallbackWarning,
            stacklevel=3,
        )
        return None
    return _LIB


def _ptr(a: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(a.ctypes.data)


def _c(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a)


def _ptr_or_null(a: np.ndarray | None) -> ctypes.c_void_p:
    return ctypes.c_void_p(None) if a is None else _ptr(a)


def _words(x, shape: tuple[int, ...]) -> bool:
    """``x`` is a contiguous array of 64-bit integers shaped ``shape``.

    Signed and unsigned words are equally good: the numpy reducers cast
    either way with the same bits, and so do the C kernels.
    """
    return (
        isinstance(x, np.ndarray)
        and x.shape == shape
        and x.dtype.kind in "iu"
        and x.dtype.itemsize == 8
        and x.flags.c_contiguous
    )


class CompiledNtt:
    """C-kernel implementation bound to one :class:`BatchNTT` engine.

    Holds contiguous casts of the engine's prepared twiddle tables in the
    C ABI dtypes (built once per engine — ``take``/``extend`` clones
    get their own impl) plus one persistent state buffer, so a transform
    is: range-check, one copy in, one C call, one copy out.
    """

    def __init__(self, engine, lib: ctypes.CDLL) -> None:
        self.engine = engine
        self.lib = lib
        self.n = engine.n
        self.num_limbs = len(engine.primes)
        red = engine.backend.red
        q64 = np.array(engine.primes, dtype=np.uint64)
        self._q_col = q64.reshape(-1, 1)
        self._err = np.zeros(4, dtype=np.uint64)
        self._products = None  # pointwise accumulator, built on first use
        method = engine.method
        fwd, inv, ninv = engine._fwd, engine._inv, engine._n_inv
        if method == "barrett":
            self._state = np.empty((self.num_limbs, self.n), np.uint64)
            q = _c(q64)
            mu = _c(np.asarray(red.mu, dtype=np.uint64).reshape(-1))
            self._fwd_call = (lib.ntt_fwd_barrett, (_c(fwd[0]), q, mu))
            self._inv_call = (
                lib.ntt_inv_barrett,
                (_c(inv[0]), _c(ninv[0].reshape(-1)), q, mu),
            )
        else:
            self._state = np.empty((self.num_limbs, self.n), np.uint32)
            q32 = _c(q64.astype(np.uint32))
            if method == "shoup":
                nv = _c(ninv[0].reshape(-1).astype(np.uint32))
                nvsh = _c(ninv[1].reshape(-1))
                self._fwd_call = (
                    lib.ntt_fwd_shoup,
                    (_c(fwd[0].astype(np.uint32)), _c(fwd[1]), q32),
                )
                self._inv_call = (
                    lib.ntt_inv_shoup,
                    (_c(inv[0].astype(np.uint32)), _c(inv[1]), nv, nvsh, q32),
                )
            elif method == "montgomery":
                qi = _c(np.asarray(red.q_inv_neg).reshape(-1).astype(np.uint32))
                self._fwd_call = (lib.ntt_fwd_mont, (_c(fwd[0]), q32, qi))
                self._inv_call = (
                    lib.ntt_inv_mont,
                    (_c(inv[0]), _c(ninv[0].reshape(-1)), q32, qi),
                )
            elif method == "smr":
                m32 = _c(
                    np.bitwise_and(
                        np.asarray(red.m, dtype=np.int64).reshape(-1),
                        np.int64(0xFFFFFFFF),
                    ).astype(np.uint32)
                )
                self._fwd_call = (lib.ntt_fwd_smr, (_c(fwd[0]), q32, m32))
                self._inv_call = (
                    lib.ntt_inv_smr,
                    (_c(inv[0]), _c(ninv[0].reshape(-1)), q32, m32),
                )
            else:  # pragma: no cover - BatchNTT validates the method first
                raise ValueError(f"no compiled kernel for method {method!r}")

    def _run(self, call, direction: str) -> None:
        fn, tables = call
        err = self._err
        err[:] = 0
        kernel = self.engine._kernel
        # Read the *live* bound column each call: it is the same certified
        # per-stage bound the numpy kernel asserts, and tests tighten it
        # in place to prove the asserts run inside the hot loop.
        bound_col = None
        if kernel.checked:
            bound_col = np.ascontiguousarray(
                np.asarray(kernel._bound_col, dtype=np.uint64).reshape(-1)
            )
        rc = fn(
            _ptr(self._state),
            *(_ptr(t) for t in tables),
            ctypes.c_int64(self.num_limbs),
            ctypes.c_int64(self.n),
            ctypes.c_void_p(None) if bound_col is None else _ptr(bound_col),
            _ptr(err),
        )
        if rc:
            limb = int(err[2])
            bound = int(bound_col[limb])
            m = int(err[1])
            stage = f"{direction} stage m={m}" if m else "n^-1 scale"
            raise SanitizerError(
                f"checked mode: {self.engine.method} NTT {stage} produced "
                f"{int(err[0])} outside [0, {bound}] at row {limb}, "
                f"coefficient index {int(err[3])}"
            )

    def _transform(self, a, call, direction, out):
        a = np.asarray(a, dtype=np.uint64)
        if a.size and np.any(a >= self._q_col):
            raise _range_error(a, self._q_col)
        np.copyto(self._state, a, casting="unsafe")
        self._run(call, direction)
        if out is None:
            return self._state.astype(np.uint64)
        np.copyto(out, self._state, casting="unsafe")
        return out

    def forward(self, a, out=None):
        return self._transform(a, self._fwd_call, "forward", out)

    def inverse(self, a_hat, out=None):
        return self._transform(a_hat, self._inv_call, "inverse", out)

    def pointwise(self, a_hat, prepared):
        """NTT-domain product through the lazy product kernel: one term
        into a zeroed accumulator, then its fold (canonical residues)."""
        from repro.poly.lazy import LazyAccumulator

        a = np.asarray(a_hat, dtype=np.uint64)
        if a.size and np.any(a >= self._q_col):
            raise _range_error(a, self._q_col)
        if self._products is None:
            self._products = LazyAccumulator(
                self.engine.backend.red, (self.num_limbs, self.n),
                checked=self.engine.checked, backend="compiled",
            )
        acc = self._products
        acc.reset()
        acc.accumulate_product(
            a, prepared[0], b_shoup=prepared[1] if len(prepared) > 1 else None
        )
        return acc.fold()


class CompiledConvert:
    """C CRT tensor pass bound to one :class:`BasisConverter`.

    Takes over the scale step and ``convert``'s ``(L_out, L_in, N)``
    cross-product + fold; the exact ``v`` correction stays in the caller
    (the v guard needs Python big ints).  Declines (returns ``None``)
    under checked mode so the accumulator instrumentation stays engaged,
    and on non-contiguous input.
    """

    def __init__(self, converter, lib: ctypes.CDLL) -> None:
        self.converter = converter
        self.lib = lib
        self._m = _c(converter._m)
        self._msh = _c(converter._m_sh)
        self._corr = _c(converter._corr.reshape(-1))
        self._corrsh = _c(converter._corr_sh.reshape(-1))
        self._p = _c(np.array(converter.dst, dtype=np.uint64))
        self._mu = _c(
            np.array([(1 << 64) // p for p in converter.dst], dtype=np.uint64)
        )
        self._w = _c(converter._w.reshape(-1))
        self._wsh = _c(converter._w_sh.reshape(-1))
        self._q_src = _c(converter._q_src.reshape(-1))

    def scale_core(self, x, out):
        """The per-row Shoup scale in C; caller has already range-checked."""
        if self.converter.checked:
            return None
        if not (
            x.flags.c_contiguous
            and x.dtype == np.uint64
            and out.flags.c_contiguous
            and out.dtype == np.uint64
        ):
            return None
        self.lib.crt_scale(
            _ptr(x),
            _ptr(self._w),
            _ptr(self._wsh),
            _ptr(self._q_src),
            ctypes.c_int64(len(self.converter.src)),
            ctypes.c_int64(self.converter.n),
            _ptr(out),
        )
        return out

    def convert_core(self, x_hat, v_row, out):
        conv = self.converter
        if conv.checked:
            return None
        if not (
            x_hat.flags.c_contiguous
            and v_row.flags.c_contiguous
            and out.flags.c_contiguous
            and out.dtype == np.uint64
        ):
            return None
        self.lib.crt_convert(
            _ptr(x_hat),
            _ptr(self._m),
            _ptr(self._msh),
            _ptr(v_row),
            _ptr(self._corr),
            _ptr(self._corrsh),
            _ptr(self._p),
            _ptr(self._mu),
            ctypes.c_int64(len(conv.src)),
            ctypes.c_int64(len(conv.dst)),
            ctypes.c_int64(conv.n),
            _ptr(out),
        )
        return out

    def combine_core(self, x_base, conv, w, w_sh, out):
        """ModDown's combine ``out = (x_base - conv) * w mod p`` in one C
        loop over the converter's target basis; ``w`` / ``w_sh`` are the
        per-limb ``P^-1`` and its Shoup companion.  Declines like
        :meth:`convert_core`."""
        if self.converter.checked:
            return None
        shape = (len(self.converter.dst), self.converter.n)
        if not all(
            _words(x, shape) and x.dtype == np.uint64 for x in (x_base, conv, out)
        ) or not all(_words(c, (shape[0], 1)) for c in (w, w_sh)):
            return None
        self.lib.moddown_combine(
            _ptr(x_base),
            _ptr(conv),
            _ptr(w),
            _ptr(w_sh),
            _ptr(self._p),
            ctypes.c_int64(shape[0]),
            ctypes.c_int64(shape[1]),
            _ptr(out),
        )
        return out


class CompiledLazy:
    """C product-accumulate and fold bound to one :class:`LazyAccumulator`.

    :meth:`product` validates one ``accumulate_product`` call and returns
    the ready C call (the accumulator charges its bound tracker before
    running it, so an overflow raises before anything is written), or
    ``None`` to decline; :meth:`fold` folds into ``out`` or declines.
    Both decline under checked mode, for the ``raw`` strategy, and for
    operands that are not contiguous ``(L, N)`` 64-bit words (scalars,
    broadcast rows, strided views), non-``int64`` or out-of-range
    permutations, and operands that overlap the accumulator.
    """

    def __init__(self, acc, lib: ctypes.CDLL) -> None:
        self.acc = acc
        red = acc.reducer
        self.shape = acc.acc.shape
        name, const = _LAZY_KERNELS[type(red)]
        self._mac = getattr(lib, name)
        self._fold = lib.lazy_fold_signed if acc.signed else lib.lazy_fold_unsigned
        self._shoup = const is None
        # The store and the constants live as long as this impl, so their
        # addresses are taken once (a swapped-out store declines).
        self._store = acc.acc
        self._q = _c(np.array(red.q_ints, dtype=np.uint64))
        self._mu = _c(np.array([(1 << 64) // q for q in red.q_ints], np.uint64))
        self._const = (
            None
            if const is None
            else _c(np.asarray(getattr(red, const)).reshape(-1)).view(np.uint64)
        )
        dims = (ctypes.c_int64(self.shape[0]), ctypes.c_int64(self.shape[1]))
        self._store_ptr = _ptr(self._store)
        self._fold_args = (self._store_ptr, _ptr(self._q), _ptr(self._mu), *dims)
        self._mac_tail = (_ptr(self._q), _ptr_or_null(self._const), *dims)

    def _declines(self) -> bool:
        acc = self.acc
        return acc.checked or acc.strategy != "reduced" or acc.acc is not self._store

    def product(self, a, b, b_shoup, perm):
        if self._declines():
            return None
        operands = (a, b) if not self._shoup else (a, b, b_shoup)
        if not all(
            _words(x, self.shape) and not np.may_share_memory(x, self._store)
            for x in operands
        ):
            return None
        if perm is not None:
            n = self.shape[1]
            if not (
                isinstance(perm, np.ndarray)
                and perm.shape == (n,)
                and perm.dtype == np.int64
                and perm.flags.c_contiguous
                and int(perm.min()) >= 0
                and int(perm.max()) < n
            ):
                return None
        return partial(
            self._mac,
            self._store_ptr,
            _ptr(a),
            _ptr(b),
            _ptr_or_null(b_shoup if self._shoup else None),
            _ptr_or_null(perm),
            *self._mac_tail,
        )

    def fold(self, out):
        if self._declines() or not (_words(out, self.shape) and out.dtype == np.uint64):
            return None
        self._fold(*self._fold_args, _ptr(out))
        return out


def make_compiled_ntt(engine):
    lib = get_lib()
    return None if lib is None else CompiledNtt(engine, lib)


def make_compiled_convert(converter):
    lib = get_lib()
    return None if lib is None else CompiledConvert(converter, lib)


def make_compiled_lazy(acc):
    """A :class:`CompiledLazy` for ``acc``, or ``None`` when the library
    is absent or ``acc`` is not one ``(L, N)`` limb matrix over a batched
    reducer with one modulus per row (the shape every caller uses)."""
    red = acc.reducer
    if not (
        acc.acc.ndim == 2
        and getattr(red, "batched", False)
        and len(red.q_ints) == acc.acc.shape[0]
        and type(red) in _LAZY_KERNELS
    ):
        return None
    lib = get_lib()
    return None if lib is None else CompiledLazy(acc, lib)
