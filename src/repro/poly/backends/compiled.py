"""Compiled backend tier: ctypes-loaded C stage kernels and CRT pass.

The C source (``_kernels.c``, shipped next to this module) implements
the four Table-3 butterfly stage-kernel families and the basis-conversion
CRT tensor pass over exactly the tables the numpy kernels use, so the
outputs are bit-identical by the canonical-exactness argument in the
package docstring.  The shared library is built lazily on first use with
whatever C compiler is around (``$CC``, else ``cc``/``gcc``/``clang``)
and cached by source hash under ``$REPRO_KERNEL_CACHE`` (default: a
per-user directory in the system tempdir), so one build serves every
process and every test run.

No toolchain — or a failing build — is *not* an error: :func:`get_lib`
warns once per process with :class:`~repro.poly.backends.
BackendFallbackWarning` and every subsequent call silently uses the
numpy tier.  ``_reset()`` clears that latch for tests.

Checked mode runs *inside* the C kernels: each (limb, stage) pass
re-scans the live row against the certified stage bound (canonical
``q-1`` for the Shoup / Montgomery / SMR families, Harvey-lazy ``2q-1``
for Barrett) and a violation surfaces as the same
:class:`~repro.errors.SanitizerError` shape the numpy kernels raise.
The converter is the one exception: under ``checked`` it falls through
to the numpy path so the LazyAccumulator's fold-soundness
instrumentation (not just the output bound) stays active.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np

from repro.errors import SanitizerError
from repro.poly.backends import BackendFallbackWarning
from repro.poly.ntt import _range_error

_SOURCE = Path(__file__).with_name("_kernels.c")

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
        _LIB = ctypes.CDLL(str(_build_lib()))
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


class CompiledNtt:
    """C-kernel implementation bound to one :class:`BatchNTT` engine.

    Holds contiguous casts of the engine's prepared twiddle tables in the
    C ABI dtypes (built once per engine — ``take_rows``/``extend`` clones
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


def make_compiled_ntt(engine):
    lib = get_lib()
    return None if lib is None else CompiledNtt(engine, lib)


def make_compiled_convert(converter):
    lib = get_lib()
    return None if lib is None else CompiledConvert(converter, lib)
