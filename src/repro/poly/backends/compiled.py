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
BackendFallbackWarning`, and every kernel object then built on the
compiled tier runs numpy.  ``_reset()`` clears that latch for tests.

Each class here is the one implementation of a kernel object that chose
C: it never hands a call back to numpy.  Its entry points take the
operands numpy takes (strided, broadcast, narrower or overlapping ones
are copied into contiguous 64-bit words; slot permutations follow numpy's
indexing rules) and raise where numpy raises.

Checked mode runs *inside* the C NTT kernels: each (limb, stage) pass
re-scans the live row against the certified stage bound (canonical
``q-1`` for the Shoup / Montgomery / SMR families, Harvey-lazy ``2q-1``
for Barrett) in one vectorizable OR pass, walking the row again only
to locate a violation, and a violation surfaces as the same
:class:`~repro.errors.SanitizerError` shape the numpy kernels raise.
The accumulator, the converter and ModDown's combine carry no checks: a
checked one is built on numpy, so the LazyAccumulator's fold-soundness
instrumentation (not just the output bound) runs.
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
from functools import cached_property, partial
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


def _words(x, shape: tuple[int, ...]) -> np.ndarray:
    """``x`` as the kernels read an operand: C-contiguous 64-bit words of
    ``shape``.  ``x`` itself when it is one (signed and unsigned words
    carry the same bits); else a copy, widened and broadcast as numpy
    would.  A ctypes pointer does not keep a copy alive: hold it until the
    C call returns."""
    x = np.asarray(x)
    if x.dtype.kind not in "iu" or x.dtype.itemsize != 8:
        x = x.astype(np.uint64)
    if x.shape != shape:
        x = np.broadcast_to(x, shape)
    return np.ascontiguousarray(x)


def _target(out, shape: tuple[int, ...], *reads: np.ndarray) -> np.ndarray:
    """Where a kernel writes a ``shape`` result bound for ``out``: ``out``
    itself when it is a writable C-contiguous uint64 array of that shape
    that overlaps none of ``reads``, else a fresh buffer for
    :func:`_deliver` to copy out."""
    if (
        isinstance(out, np.ndarray)
        and out.shape == shape
        and out.dtype == np.uint64
        and out.flags.c_contiguous
        and out.flags.writeable
        and not any(np.may_share_memory(out, r) for r in reads)
    ):
        return out
    return np.empty(shape, np.uint64)


def _deliver(res: np.ndarray, out) -> np.ndarray:
    """``res`` copied into ``out``; ``res`` itself if it is ``out`` or none."""
    if out is None or res is out:
        return res
    np.copyto(out, res, casting="unsafe")
    return out


def _slots(perm, n: int) -> np.ndarray:
    """``perm`` as the product kernels' gather: ``n`` contiguous int64
    slot indices in ``[0, n)``, read by the rules of the numpy tier's
    ``np.take`` (integer indices only, a negative one counts from the
    end, one outside ``[-n, n)`` raises :class:`IndexError`)."""
    perm = np.asarray(perm)
    if perm.dtype != np.int64 or perm.shape != (n,):
        perm = perm.astype(np.int64, casting="same_kind", copy=False)
        perm = np.broadcast_to(perm, (n,))
    lo, hi = int(perm.min()), int(perm.max())
    if lo < -n or hi >= n:
        bad = lo if lo < -n else hi
        raise IndexError(f"slot index {bad} is out of bounds for {n} slots")
    return np.ascontiguousarray(perm + n * (perm < 0) if lo < 0 else perm)


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


def _part_ptrs(parts) -> tuple[ctypes.c_void_p, ctypes.c_void_p]:
    """A prepared operand ``(w,)`` or ``(w, w')`` as the kernels' pointer
    pair; one-part forms pass a NULL companion."""
    ptrs = tuple(_ptr(p) for p in parts)
    return ptrs + (ctypes.c_void_p(None),) * (2 - len(ptrs))


class CompiledNtt:
    """C-kernel implementation of one :class:`BatchNTT` engine.

    Holds the engine's prepared twiddle tables and ``n^-1`` as 32-bit
    words (built once per engine — ``take``/``extend`` clones get their
    own) plus one persistent uint32 state buffer, so a transform is one C
    call: range-check and narrow, every stage, widen into ``out``.  A
    checked engine's stages are scanned in C against the bound column of
    its numpy stage kernel.
    """

    def __init__(self, engine, lib: ctypes.CDLL) -> None:
        #: the numpy stage kernel, whose live certified bound column a
        #: checked transform scans against
        self.kernel = engine._kernel
        self.method = engine.method
        self.reducer = engine.reducer
        self.n = engine.n
        self.num_limbs = len(engine.primes)
        shape = (self.num_limbs, self.n)
        name, const = _FAMILIES[type(self.reducer)]
        self._q = _c(np.array(engine.primes, dtype=np.uint64))
        self._q_col = self._q.reshape(-1, 1)
        self._const = _limb_const(self.reducer, const)
        self._state = np.empty(shape, np.uint32)
        self._err = np.zeros(4, dtype=np.uint64)
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
        a = np.ascontiguousarray(a, dtype=np.uint64)
        # the kernel narrows the input into its state before any write,
        # so ``out`` may alias ``a``
        res = _target(out, self._state.shape)
        # Read the *live* bound column each call: it is the same certified
        # per-stage bound the numpy kernel asserts, and tests tighten it
        # in place to prove the asserts run inside the hot loop.
        kernel = self.kernel
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
                f"checked mode: {self.method} NTT {stage} produced "
                f"{int(err[0])} outside [0, {int(bound_col[limb])}] at row "
                f"{limb}, coefficient index {int(err[3])}"
            )
        return _deliver(res, out)

    def forward(self, a, out=None):
        return self._transform(self._fwd, a, out, "forward")

    def inverse(self, a_hat, out=None):
        return self._transform(self._inv, a_hat, out, "inverse")

    @cached_property
    def _products(self):
        from repro.poly.lazy import LazyAccumulator

        return LazyAccumulator(
            self.reducer, (self.num_limbs, self.n),
            checked=self.kernel.checked, backend="compiled",
        )

    def pointwise(self, a, prepared):
        """NTT-domain product of range-checked uint64 ``a`` through the
        lazy product kernel: one term into a zeroed accumulator, then its
        fold (canonical residues)."""
        acc = self._products
        acc.reset()
        acc.accumulate_product(a, prepared)
        return acc.fold()


class CompiledConvert:
    """C scale step, CRT tensor pass and ModDown combine over one
    :class:`BasisConverter`'s constants.

    The exact ``v`` correction stays in the converter (the v guard needs
    Python big ints).  Each method takes operands of any layout (copied
    into contiguous words first), writes its result to ``out`` and
    returns it.
    """

    def __init__(self, converter, lib: ctypes.CDLL) -> None:
        self.lib = lib
        self.n = converter.n
        self.l_in, self.l_out = len(converter.src), len(converter.dst)
        # The kernels read the word constants as uint32_t.  The tables live
        # as long as this impl, so their addresses are taken once.
        self._tables = (
            _c(converter._w.reshape(-1), np.uint32),  # scale step
            _c(converter._w_sh.reshape(-1)),
            _c(converter._q_src.reshape(-1), np.uint32),
            _c(converter._m, np.uint32),  # tensor pass
            _c(converter._m_sh),
            _c(converter._corr.reshape(-1), np.uint32),
            _c(converter._corr_sh.reshape(-1)),
            _c(np.array(converter.dst, dtype=np.uint64)),
            _c(np.array([(1 << 64) // p for p in converter.dst], np.uint64)),
        )
        ptrs = tuple(_ptr(t) for t in self._tables)
        self._scale_args, self._cross_args = ptrs[:3], ptrs[3:5]
        self._corr_args, self._p = ptrs[5:], ptrs[7]

    def scale_core(self, x, out):
        """The per-row Shoup scale of range-checked ``x``."""
        shape = (self.l_in, self.n)
        x = _words(x, shape)
        res = _target(out, shape, x)
        self.lib.crt_scale(_ptr(x), *self._scale_args, self.l_in, self.n, _ptr(res))
        return _deliver(res, out)

    def convert_core(self, x_hat, v_row, out):
        """The tensor pass and fold of canonical ``x_hat`` with the exact
        correction multiplicities ``v_row``."""
        x_hat = _words(x_hat, (self.l_in, self.n))
        v_row = _words(v_row, (1, self.n))
        res = _target(out, (self.l_out, self.n), x_hat, v_row)
        self.lib.crt_convert(
            _ptr(x_hat), *self._cross_args, _ptr(v_row), *self._corr_args,
            self.l_in, self.l_out, self.n, _ptr(res),
        )
        return _deliver(res, out)

    def combine_core(self, x_base, conv, w, w_sh, out):
        """ModDown's combine ``out = (x_base - conv) * w mod p`` in one C
        loop over the converter's target basis; ``w`` / ``w_sh`` are the
        per-limb ``P^-1`` column and its Shoup companion."""
        shape = (self.l_out, self.n)
        x_base, conv = _words(x_base, shape), _words(conv, shape)
        w, w_sh = _c(w, np.uint32), _c(w_sh, np.uint64)
        res = _target(out, shape, x_base, conv)
        self.lib.moddown_combine(
            _ptr(x_base), _ptr(conv), _ptr(w), _ptr(w_sh), self._p,
            self.l_out, self.n, _ptr(res),
        )
        return _deliver(res, out)


class CompiledLazy:
    """C product-accumulate and fold over one :class:`LazyAccumulator`'s
    ``(L, N)`` store, one modulus per row.

    :meth:`product` prepares one ``accumulate_product`` call and returns
    it as a deferred C call, which the accumulator runs only after it has
    charged its bound tracker, so an overflow raises before anything is
    written.  Operands of any layout are copied into contiguous ``(L, N)``
    words first, and so is one that overlaps the store; the deferred call
    holds the copies until it runs.  :meth:`fold` folds into ``out``.
    """

    def __init__(self, acc, lib: ctypes.CDLL) -> None:
        red = self.reducer = acc.reducer
        self.shape = acc.acc.shape
        name, const = _FAMILIES[type(red)]
        self._mac = getattr(lib, f"lazy_mac_{name}")
        self._fold = lib.lazy_fold_signed if acc.signed else lib.lazy_fold_unsigned
        # The store and the constants live as long as this impl, so their
        # addresses are taken once.
        self._store = acc.acc
        self._q = _c(np.array(red.q_ints, dtype=np.uint64))
        self._mu = _c(np.array([(1 << 64) // q for q in red.q_ints], np.uint64))
        self._const = _limb_const(red, const)
        dims = (ctypes.c_int64(self.shape[0]), ctypes.c_int64(self.shape[1]))
        self._store_ptr = _ptr(self._store)
        self._fold_args = (self._store_ptr, _ptr(self._q), _ptr(self._mu), *dims)
        self._mac_tail = (_ptr(self._q), _ptr_or_null(self._const), *dims)

    def product(self, a, parts, perm):
        ops = [
            _words(x, self.shape)
            for x in (a, *self.reducer.check_prepared(parts))
        ]
        ops = [x.copy() if np.may_share_memory(x, self._store) else x for x in ops]
        if perm is not None:
            perm = _slots(perm, self.shape[1])
        return partial(self._accumulate, ops, perm)

    def _accumulate(self, ops, perm) -> None:
        self._mac(
            self._store_ptr,
            _ptr(ops[0]),
            *_part_ptrs(ops[1:]),
            _ptr_or_null(perm),
            *self._mac_tail,
        )

    def fold(self, out):
        res = _target(out, self.shape)
        self._fold(*self._fold_args, _ptr(res))
        return _deliver(res, out)
