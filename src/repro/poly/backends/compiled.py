"""Compiled backend tier: ctypes-loaded C kernels.

The C source (``_kernels.c``, shipped next to this module) implements
the four Table-3 butterfly families as whole transforms, the lazy
product-accumulate and fold for all four reducers, the basis-conversion
CRT tensor pass and ModDown's combine step over exactly the tables and
reducer constants the numpy kernels use, so the outputs are
bit-identical by the canonical-exactness argument in the package
docstring.  The shared library is built lazily on first use with
whatever C compiler is around (``$CC``, else ``cc``/``gcc``/``clang``),
for the host's instruction set (``-O3 -march=native``), retrying once
with the portable ``-O3`` when the compiler rejects that flag.  It is
cached under ``$REPRO_KERNEL_CACHE`` (default: a per-user directory in
the system tempdir) by a digest of the source, the flags used and the
host's ISA features, so one build serves every process and every test
run on this CPU, and a shared cache never hands one CPU a library built
for another.

No toolchain — or a failing build — is *not* an error: :func:`get_lib`
warns once per process with :class:`~repro.poly.backends.
BackendFallbackWarning` and every subsequent call silently uses the
numpy tier.  ``_reset()`` clears that latch for tests.

Checked mode runs *inside* the C NTT kernels: each (limb, stage) pass
re-scans the live row against the certified stage bound (canonical
``q-1`` for the Shoup / Montgomery / SMR families, Harvey-lazy ``2q-1``
for Barrett) in one vectorizable OR pass, walking the row again only
to locate a violation, and a violation surfaces as the same
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
import platform
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

#: build flags: for the host's instruction set first, then the portable
#: retry for a compiler that rejects ``-march=native``
NATIVE_FLAGS = ("-O3", "-march=native")
PORTABLE_FLAGS = ("-O3",)

#: per reducer: the kernel-name suffix, and the per-limb reducer constant
#: the NTT and lazy product kernels take (Shoup takes per-element
#: companions instead)
_FAMILIES = {
    BarrettReducer: ("barrett", "mu"),
    MontgomeryReducer: ("montgomery", "q_inv_neg"),
    ShoupReducer: ("shoup", None),
    SignedMontgomeryReducer: ("smr", "m"),
}

_VP, _I64 = ctypes.c_void_p, ctypes.c_int64
#: (argument types, return type) of every kernel
_SIGNATURES = {
    **{
        f"ntt_fwd_{name}": ([_VP] * 7 + [_I64, _I64, _VP, _VP], ctypes.c_int)
        for name, _ in _FAMILIES.values()
    },
    **{
        f"ntt_inv_{name}": ([_VP] * 9 + [_I64, _I64, _VP, _VP], ctypes.c_int)
        for name, _ in _FAMILIES.values()
    },
    **{
        f"lazy_mac_{name}": ([_VP] * 7 + [_I64, _I64], None)
        for name, _ in _FAMILIES.values()
    },
    "lazy_fold_unsigned": ([_VP] * 3 + [_I64, _I64, _VP], None),
    "lazy_fold_signed": ([_VP] * 3 + [_I64, _I64, _VP], None),
    "moddown_combine": ([_VP] * 5 + [_I64, _I64, _VP], None),
    "crt_convert": ([_VP] * 8 + [_I64, _I64, _I64, _VP], ctypes.c_int),
    "crt_scale": ([_VP] * 4 + [_I64, _I64, _VP], ctypes.c_int),
}

_LIB: ctypes.CDLL | None = None
_LIB_FLAGS: tuple[str, ...] | None = None
_FAILED = False


def _reset() -> None:
    """Forget the loaded library and the warn-once latch (tests only)."""
    global _LIB, _LIB_FLAGS, _FAILED
    _LIB = None
    _LIB_FLAGS = None
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


def _isa_fingerprint() -> str:
    """The host CPU's instruction-set features, as one string.

    On Linux, the ``flags`` line of ``/proc/cpuinfo`` (``Features`` on
    ARM); elsewhere the machine and processor names.
    """
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                key, sep, value = line.partition(":")
                if sep and key.strip() in ("flags", "Features"):
                    return value.strip()
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def _artifact_name(flags: tuple[str, ...]) -> str:
    """Library file name for a build with ``flags`` on this host: a digest
    of the source, the flags and the ISA fingerprint, so editing
    ``_kernels.c``, changing flags or moving a shared cache to another
    CPU never loads a stale or foreign library."""
    h = hashlib.sha256(_SOURCE.read_bytes())
    h.update("\0".join(flags).encode())
    h.update(b"\0" + _isa_fingerprint().encode())
    return f"repro_kernels_{h.hexdigest()[:16]}.so"


def _compile(cc: str, flags: tuple[str, ...], so: Path) -> str | None:
    """Build ``so`` with ``flags``; the compiler's complaint on failure.

    The build lands under a temporary name and is published with an
    atomic ``os.replace`` so concurrent processes never load a
    half-written library.
    """
    tmp = so.with_name(f"{so.name}.tmp{os.getpid()}")
    cmd = [cc, *flags, "-fPIC", "-shared", "-o", str(tmp), str(_SOURCE)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode:
        tmp.unlink(missing_ok=True)
        detail = (proc.stderr or proc.stdout).strip()[:400]
        return f"{cc} {' '.join(flags)} failed (rc={proc.returncode}): {detail}"
    os.replace(tmp, so)
    return None


def _build_lib() -> tuple[Path, tuple[str, ...]]:
    """Compile (or reuse) the kernel shared library: its path and flags.

    Builds for the host ISA first; if the compiler rejects that, retries
    once with the portable flags.  Raises when both fail.
    """
    cache = _cache_dir()
    cc = None
    failures = []
    for flags in (NATIVE_FLAGS, PORTABLE_FLAGS):
        so = cache / _artifact_name(flags)
        if so.exists():
            return so, flags
        if cc is None:
            cc = _compiler()
            if cc is None:
                raise RuntimeError("no C compiler found ($CC unset, no cc/gcc/clang)")
            cache.mkdir(parents=True, exist_ok=True)
        failure = _compile(cc, flags, so)
        if failure is None:
            return so, flags
        failures.append(failure)
    raise RuntimeError("; ".join(failures))


def get_lib() -> ctypes.CDLL | None:
    """The kernel library, building it on first call; ``None`` if absent.

    Degradation is loud exactly once: the first failed attempt emits one
    :class:`BackendFallbackWarning` naming the cause, then the failure
    is latched and later calls return ``None`` silently.
    """
    global _LIB, _LIB_FLAGS, _FAILED
    if _LIB is not None:
        return _LIB
    if _FAILED:
        return None
    try:
        path, flags = _build_lib()
        lib = ctypes.CDLL(str(path))
        for name, (argtypes, restype) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
        _LIB, _LIB_FLAGS = lib, flags
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


def built_for_host() -> bool:
    """Whether the loaded library was built for the host ISA rather than
    by the portable retry (``False`` when none is loaded)."""
    return _LIB is not None and _LIB_FLAGS == NATIVE_FLAGS


def _ptr(a: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(a.ctypes.data)


def _c(a: np.ndarray, dtype=None) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=dtype)


def _ptr_or_null(a: np.ndarray | None) -> ctypes.c_void_p:
    return ctypes.c_void_p(None) if a is None else _ptr(a)


def _words(x, shape: tuple[int, ...], size: int = 8) -> bool:
    """``x`` is a contiguous array of ``size``-byte integers shaped ``shape``.

    Signed and unsigned words are equally good: the numpy reducers cast
    either way with the same bits, and so do the C kernels.
    """
    return (
        isinstance(x, np.ndarray)
        and x.shape == shape
        and x.dtype.kind in "iu"
        and x.dtype.itemsize == size
        and x.flags.c_contiguous
    )


def _limb_const(red, attr: str | None) -> np.ndarray | None:
    """The reducer's per-limb constant ``attr`` as contiguous 64-bit
    patterns (SMR's signed ``m`` keeps its bits), or ``None``."""
    if attr is None:
        return None
    return _c(np.asarray(getattr(red, attr)).reshape(-1)).view(np.uint64)


def _u32(a: np.ndarray) -> np.ndarray:
    """A prepared table as contiguous 32-bit words (signed SMR forms keep
    their two's-complement bits); every value fits, since q < 2^31."""
    return _c(np.asarray(a).astype(np.uint32))


def _part_ptrs(parts: tuple) -> tuple[ctypes.c_void_p, ctypes.c_void_p]:
    """A prepared operand ``(w,)`` or ``(w, w')`` as the kernels' pointer
    pair; one-part forms pass a NULL companion."""
    ptrs = tuple(_ptr(p) for p in parts)
    return ptrs + (ctypes.c_void_p(None),) * (2 - len(ptrs))


class CompiledNtt:
    """C-kernel implementation bound to one :class:`BatchNTT` engine.

    Holds the engine's prepared twiddle tables and ``n^-1`` as 32-bit
    words (built once per engine — ``take``/``extend`` clones get their
    own impl) plus one persistent uint32 state buffer, so a transform is
    one C call: range-check and narrow, every stage, widen into ``out``.
    """

    def __init__(self, engine, lib: ctypes.CDLL) -> None:
        self.engine = engine
        self.n = engine.n
        self.num_limbs = len(engine.primes)
        shape = (self.num_limbs, self.n)
        red = engine.reducer
        name, const = _FAMILIES[type(red)]
        self._q = _c(np.array(engine.primes, dtype=np.uint64))
        self._q_col = self._q.reshape(-1, 1)
        self._const = _limb_const(red, const)
        self._state = np.empty(shape, np.uint32)
        self._err = np.zeros(4, dtype=np.uint64)
        self._products = None  # pointwise accumulator, built on first use
        # (twiddles[, Shoup companions]) as 32-bit words, named like the
        # numpy kernel's tables and kept alive for the pointers below
        self.fwd_n, self.inv_n, self.n_inv = (
            tuple(_u32(p) for p in parts)
            for parts in (engine._fwd, engine._inv, engine._n_inv)
        )
        fwd, inv, ninv = (
            _part_ptrs(parts) for parts in (self.fwd_n, self.inv_n, self.n_inv)
        )
        state, tail = _ptr(self._state), (_ptr(self._q), _ptr_or_null(self._const))
        self._fwd = (getattr(lib, f"ntt_fwd_{name}"), (state, *fwd, *tail, *shape))
        self._inv = (
            getattr(lib, f"ntt_inv_{name}"),
            (state, *inv, *ninv, *tail, *shape),
        )

    def _transform(self, call, a, out, direction):
        fn, args = call
        shape = self._state.shape
        a = np.ascontiguousarray(a, dtype=np.uint64)
        writable = _words(out, shape) and out.dtype == np.uint64
        res = out if writable else np.empty(shape, np.uint64)
        # Read the *live* bound column each call: it is the same certified
        # per-stage bound the numpy kernel asserts, and tests tighten it
        # in place to prove the asserts run inside the hot loop.
        kernel = self.engine._kernel
        bound_col = None
        if kernel.checked:
            bound_col = _c(np.asarray(kernel._bound_col, dtype=np.uint64).reshape(-1))
        err = self._err
        rc = fn(_ptr(a), _ptr(res), *args, _ptr_or_null(bound_col), _ptr(err))
        if rc == 2:  # an input word out of range; nothing was written
            raise _range_error(a, self._q_col)
        if rc:
            limb = int(err[2])
            m = int(err[1])
            stage = f"{direction} stage m={m}" if m else "n^-1 scale"
            raise SanitizerError(
                f"checked mode: {self.engine.method} NTT {stage} produced "
                f"{int(err[0])} outside [0, {int(bound_col[limb])}] at row "
                f"{limb}, coefficient index {int(err[3])}"
            )
        if out is None or res is out:
            return res
        np.copyto(out, res, casting="unsafe")
        return out

    def forward(self, a, out=None):
        return self._transform(self._fwd, a, out, "forward")

    def inverse(self, a_hat, out=None):
        return self._transform(self._inv, a_hat, out, "inverse")

    def pointwise(self, a, prepared):
        """NTT-domain product of range-checked uint64 ``a`` through the
        lazy product kernel: one term into a zeroed accumulator, then its
        fold (canonical residues)."""
        from repro.poly.lazy import LazyAccumulator

        if self._products is None:
            self._products = LazyAccumulator(
                self.engine.reducer, (self.num_limbs, self.n),
                checked=self.engine.checked, backend="compiled",
            )
        acc = self._products
        acc.reset()
        acc.accumulate_product(a, prepared)
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
        # the kernels read the word constants as uint32_t
        self._m = _c(converter._m, np.uint32)
        self._msh = _c(converter._m_sh)
        self._corr = _c(converter._corr.reshape(-1), np.uint32)
        self._corrsh = _c(converter._corr_sh.reshape(-1))
        self._p = _c(np.array(converter.dst, dtype=np.uint64))
        self._mu = _c(
            np.array([(1 << 64) // p for p in converter.dst], dtype=np.uint64)
        )
        self._w = _c(converter._w.reshape(-1), np.uint32)
        self._wsh = _c(converter._w_sh.reshape(-1))
        self._q_src = _c(converter._q_src.reshape(-1), np.uint32)

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
        ) or not (_words(w, (shape[0], 1), 4) and _words(w_sh, (shape[0], 1))):
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
    Both decline under checked mode and for operands that are not
    contiguous ``(L, N)`` 64-bit words (scalars, broadcast rows, strided
    views), prepared tuples of the wrong length for the family,
    non-``int64`` or out-of-range permutations, and operands that overlap
    the accumulator.
    """

    def __init__(self, acc, lib: ctypes.CDLL) -> None:
        self.acc = acc
        red = acc.reducer
        self.shape = acc.acc.shape
        name, const = _FAMILIES[type(red)]
        self._mac = getattr(lib, f"lazy_mac_{name}")
        self._fold = lib.lazy_fold_signed if acc.signed else lib.lazy_fold_unsigned
        #: parts of the family's prepared operand: Shoup's companion has
        #: no per-limb constant to stand in for it
        self._parts = 1 if const else 2
        # The store and the constants live as long as this impl, so their
        # addresses are taken once (a swapped-out store declines).
        self._store = acc.acc
        self._q = _c(np.array(red.q_ints, dtype=np.uint64))
        self._mu = _c(np.array([(1 << 64) // q for q in red.q_ints], np.uint64))
        self._const = _limb_const(red, const)
        dims = (ctypes.c_int64(self.shape[0]), ctypes.c_int64(self.shape[1]))
        self._store_ptr = _ptr(self._store)
        self._fold_args = (self._store_ptr, _ptr(self._q), _ptr(self._mu), *dims)
        self._mac_tail = (_ptr(self._q), _ptr_or_null(self._const), *dims)

    def _declines(self) -> bool:
        acc = self.acc
        return acc.checked or acc.acc is not self._store

    def product(self, a, parts, perm):
        if self._declines() or len(parts) != self._parts:
            return None
        if not all(
            _words(x, self.shape) and not np.may_share_memory(x, self._store)
            for x in (a, *parts)
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
            *_part_ptrs(parts),
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
        and type(red) in _FAMILIES
    ):
        return None
    lib = get_lib()
    return None if lib is None else CompiledLazy(acc, lib)
