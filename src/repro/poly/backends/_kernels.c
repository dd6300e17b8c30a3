/* Compiled backend tier: the four Table-3 butterfly stage-kernel
 * families (Barrett / Montgomery / Shoup / SMR), the lazy
 * product-accumulate and fold of the key-switch inner product (one
 * kernel per reducer), the CRT tensor pass of fast basis conversion and
 * ModDown's combine step, as plain C over the same precomputed tables
 * and reducer constants the numpy kernels use.
 *
 * Bit-exactness contract: every transform output is the *canonical
 * exact* negacyclic NTT (or inverse) over the same bit-reversed twiddle
 * tables as repro.poly.batch_ntt, and the converter output is the exact
 * residue X mod p_j — so outputs are bit-identical to the numpy tier by
 * construction, independent of how intermediates are scheduled.  The
 * stage invariants nevertheless mirror the numpy kernels exactly
 * (canonical [0, q) state for the Shoup / Montgomery / SMR families,
 * Harvey 2q-lazy [0, 2q) state for Barrett) so that checked mode
 * asserts the very same certified per-stage bounds.  The lazy
 * product-accumulate and the ModDown combine go further: they replay
 * the numpy reducers' 64-bit wrapping arithmetic step for step, so even
 * the unfolded accumulator state matches the numpy tier bit for bit.
 *
 * Checked mode: with `bound` non-NULL, each (limb, stage) pass scans
 * the live row against bound[limb] — the caller passes the engine's
 * live certified bound column, so tightened bounds (tests) and the
 * PR 7 certificates apply to this tier exactly as to numpy.  The first
 * violation stops the transform and reports {value, stage m (0 = the
 * n^-1 scale), limb, coefficient} through `err`, and the function
 * returns 1.  The Python wrapper raises SanitizerError from that
 * tuple.  The accumulator, converter and combine kernels carry no
 * checks: under checked mode their Python wrappers decline and the
 * instrumented numpy path runs instead.
 *
 * Layout: data is one contiguous (L, n) row-major matrix; twiddle
 * tables are contiguous (L, n) in the backend-prepared dtype; per-limb
 * constants are length-L vectors.  Loops run limb-major (each limb
 * completes all stages before the next limb starts) — at n = 4096 a row
 * is 16-32 KiB, so the whole per-limb working set lives in L1/L2.
 */

#include <stdint.h>

#define EXPORT __attribute__((visibility("default")))

/* -- checked-mode row scans ---------------------------------------- */

/* Saturate a 64-bit bound into the uint32 state domain: any bound at or
 * above 2^32 - 1 can never trip on uint32 state, which matches numpy's
 * semantics of comparing the full-width value. */
static inline uint32_t b32(uint64_t b) {
    return b > 0xffffffffu ? 0xffffffffu : (uint32_t)b;
}

static int scan32(const uint32_t *row, int64_t n, uint32_t bound,
                  int64_t stage, int64_t limb, uint64_t *err) {
    for (int64_t k = 0; k < n; ++k) {
        if (row[k] > bound) {
            err[0] = row[k];
            err[1] = (uint64_t)stage;
            err[2] = (uint64_t)limb;
            err[3] = (uint64_t)k;
            return 1;
        }
    }
    return 0;
}

static int scan64(const uint64_t *row, int64_t n, uint64_t bound,
                  int64_t stage, int64_t limb, uint64_t *err) {
    for (int64_t k = 0; k < n; ++k) {
        if (row[k] > bound) {
            err[0] = row[k];
            err[1] = (uint64_t)stage;
            err[2] = (uint64_t)limb;
            err[3] = (uint64_t)k;
            return 1;
        }
    }
    return 0;
}

/* -- Shoup family ---------------------------------------------------
 * Twiddles: w (uint32 canonical) with companion w' = floor(w<<32 / q)
 * (uint64 carrier).  One 64-bit high product per multiply; state stays
 * canonical uint32. */

static inline uint32_t shoup_mul(uint32_t v, uint32_t w, uint64_t wsh,
                                 uint32_t q) {
    uint32_t hi = (uint32_t)(((uint64_t)v * wsh) >> 32);
    uint32_t r = v * w - hi * q; /* (v*w - hi*q) mod 2^32, in [0, 2q) */
    return r < q ? r : r - q;
}

EXPORT int ntt_fwd_shoup(uint32_t *x, const uint32_t *w, const uint64_t *wsh,
                         const uint32_t *q, int64_t L, int64_t n, const uint64_t *bound,
                         uint64_t *err) {
    for (int64_t l = 0; l < L; ++l) {
        uint32_t ql = q[l];
        uint32_t *row = x + l * n;
        const uint32_t *wl = w + l * n;
        const uint64_t *wshl = wsh + l * n;
        for (int64_t m = 1, t = n >> 1; m < n; m <<= 1, t >>= 1) {
            for (int64_t g = 0; g < m; ++g) {
                uint32_t tw = wl[m + g];
                uint64_t twsh = wshl[m + g];
                uint32_t *u = row + g * 2 * t;
                uint32_t *v = u + t;
                for (int64_t k = 0; k < t; ++k) {
                    uint32_t r = shoup_mul(v[k], tw, twsh, ql);
                    uint32_t uk = u[k];
                    uint32_t s = uk + r;
                    s = s < ql ? s : s - ql;
                    uint32_t d = uk + ql - r;
                    d = d < ql ? d : d - ql;
                    u[k] = s;
                    v[k] = d;
                }
            }
            if (bound && scan32(row, n, b32(bound[l]), m, l, err)) return 1;
        }
    }
    return 0;
}

EXPORT int ntt_inv_shoup(uint32_t *x, const uint32_t *w, const uint64_t *wsh,
                         const uint32_t *ninv, const uint64_t *ninvsh,
                         const uint32_t *q, int64_t L, int64_t n, const uint64_t *bound,
                         uint64_t *err) {
    for (int64_t l = 0; l < L; ++l) {
        uint32_t ql = q[l];
        uint32_t *row = x + l * n;
        const uint32_t *wl = w + l * n;
        const uint64_t *wshl = wsh + l * n;
        for (int64_t m = n, t = 1; m > 1; m >>= 1, t <<= 1) {
            int64_t h = m >> 1;
            for (int64_t g = 0; g < h; ++g) {
                uint32_t tw = wl[h + g];
                uint64_t twsh = wshl[h + g];
                uint32_t *u = row + g * 2 * t;
                uint32_t *v = u + t;
                for (int64_t k = 0; k < t; ++k) {
                    uint32_t uk = u[k], vk = v[k];
                    uint32_t s = uk + vk;
                    s = s < ql ? s : s - ql;
                    uint32_t d = uk + ql - vk;
                    d = d < ql ? d : d - ql;
                    u[k] = s;
                    v[k] = shoup_mul(d, tw, twsh, ql);
                }
            }
            if (bound && scan32(row, n, b32(bound[l]), m, l, err)) return 1;
        }
        uint32_t nv = ninv[l];
        uint64_t nvsh = ninvsh[l];
        for (int64_t k = 0; k < n; ++k) row[k] = shoup_mul(row[k], nv, nvsh, ql);
        if (bound && scan32(row, n, b32(bound[l]), 0, l, err)) return 1;
    }
    return 0;
}

/* -- (unsigned) Montgomery family -----------------------------------
 * Twiddles in Montgomery form (w * 2^32 mod q, uint64 carrier); the
 * butterfly reduce cancels the 2^-32, keeping coefficients plain. */

static inline uint32_t mont_mul(uint32_t v, uint64_t twf, uint32_t q,
                                uint32_t qinv_neg) {
    uint64_t p = (uint64_t)v * twf;                       /* < q^2 * 2 */
    uint32_t m = (uint32_t)p * qinv_neg;                  /* mullo32 */
    uint32_t t = (uint32_t)((p + (uint64_t)m * q) >> 32); /* < 2q */
    return t < q ? t : t - q;
}

EXPORT int ntt_fwd_mont(uint32_t *x, const uint64_t *w, const uint32_t *q,
                        const uint32_t *qinv, int64_t L, int64_t n,
                        const uint64_t *bound, uint64_t *err) {
    for (int64_t l = 0; l < L; ++l) {
        uint32_t ql = q[l], qi = qinv[l];
        uint32_t *row = x + l * n;
        const uint64_t *wl = w + l * n;
        for (int64_t m = 1, t = n >> 1; m < n; m <<= 1, t >>= 1) {
            for (int64_t g = 0; g < m; ++g) {
                uint64_t tw = wl[m + g];
                uint32_t *u = row + g * 2 * t;
                uint32_t *v = u + t;
                for (int64_t k = 0; k < t; ++k) {
                    uint32_t r = mont_mul(v[k], tw, ql, qi);
                    uint32_t uk = u[k];
                    uint32_t s = uk + r;
                    s = s < ql ? s : s - ql;
                    uint32_t d = uk + ql - r;
                    d = d < ql ? d : d - ql;
                    u[k] = s;
                    v[k] = d;
                }
            }
            if (bound && scan32(row, n, b32(bound[l]), m, l, err)) return 1;
        }
    }
    return 0;
}

EXPORT int ntt_inv_mont(uint32_t *x, const uint64_t *w, const uint64_t *ninv,
                        const uint32_t *q, const uint32_t *qinv, int64_t L,
                        int64_t n, const uint64_t *bound, uint64_t *err) {
    for (int64_t l = 0; l < L; ++l) {
        uint32_t ql = q[l], qi = qinv[l];
        uint32_t *row = x + l * n;
        const uint64_t *wl = w + l * n;
        for (int64_t m = n, t = 1; m > 1; m >>= 1, t <<= 1) {
            int64_t h = m >> 1;
            for (int64_t g = 0; g < h; ++g) {
                uint64_t tw = wl[h + g];
                uint32_t *u = row + g * 2 * t;
                uint32_t *v = u + t;
                for (int64_t k = 0; k < t; ++k) {
                    uint32_t uk = u[k], vk = v[k];
                    uint32_t s = uk + vk;
                    s = s < ql ? s : s - ql;
                    uint32_t d = uk + ql - vk;
                    d = d < ql ? d : d - ql;
                    u[k] = s;
                    v[k] = mont_mul(d, tw, ql, qi);
                }
            }
            if (bound && scan32(row, n, b32(bound[l]), m, l, err)) return 1;
        }
        uint64_t nv = ninv[l];
        for (int64_t k = 0; k < n; ++k) row[k] = mont_mul(row[k], nv, ql, qi);
        if (bound && scan32(row, n, b32(bound[l]), 0, l, err)) return 1;
    }
    return 0;
}

/* -- SMR (signed Montgomery, Alg. 2) family -------------------------
 * Twiddles in signed Montgomery form (int64 carrier, values in
 * (-q, q)); each Alg. 2 output is canonicalized into [0, q) so the
 * butterfly combines run in uint32, exactly like the numpy kernel. */

static inline uint32_t smr_mul(uint32_t v, int64_t twf, uint32_t q,
                               uint32_t m) {
    int64_t p = (int64_t)v * twf; /* |p| < q * 2^31: Alg. 2's domain */
    int64_t x_hi = p >> 32;
    uint32_t x_lo = (uint32_t)p;
    int32_t z = (int32_t)(x_lo * m); /* signed mullo32 wrap */
    int64_t hi = ((int64_t)z * (int64_t)q) >> 32;
    int64_t t = x_hi - hi; /* in (-q, q) */
    return t < 0 ? (uint32_t)(t + q) : (uint32_t)t;
}

EXPORT int ntt_fwd_smr(uint32_t *x, const int64_t *w, const uint32_t *q,
                       const uint32_t *m, int64_t L, int64_t n, const uint64_t *bound,
                       uint64_t *err) {
    for (int64_t l = 0; l < L; ++l) {
        uint32_t ql = q[l], ml = m[l];
        uint32_t *row = x + l * n;
        const int64_t *wl = w + l * n;
        for (int64_t mm = 1, t = n >> 1; mm < n; mm <<= 1, t >>= 1) {
            for (int64_t g = 0; g < mm; ++g) {
                int64_t tw = wl[mm + g];
                uint32_t *u = row + g * 2 * t;
                uint32_t *v = u + t;
                for (int64_t k = 0; k < t; ++k) {
                    uint32_t r = smr_mul(v[k], tw, ql, ml);
                    uint32_t uk = u[k];
                    uint32_t s = uk + r;
                    s = s < ql ? s : s - ql;
                    uint32_t d = uk + ql - r;
                    d = d < ql ? d : d - ql;
                    u[k] = s;
                    v[k] = d;
                }
            }
            if (bound && scan32(row, n, b32(bound[l]), mm, l, err)) return 1;
        }
    }
    return 0;
}

EXPORT int ntt_inv_smr(uint32_t *x, const int64_t *w, const int64_t *ninv,
                       const uint32_t *q, const uint32_t *m, int64_t L,
                       int64_t n, const uint64_t *bound, uint64_t *err) {
    for (int64_t l = 0; l < L; ++l) {
        uint32_t ql = q[l], ml = m[l];
        uint32_t *row = x + l * n;
        const int64_t *wl = w + l * n;
        for (int64_t mm = n, t = 1; mm > 1; mm >>= 1, t <<= 1) {
            int64_t h = mm >> 1;
            for (int64_t g = 0; g < h; ++g) {
                int64_t tw = wl[h + g];
                uint32_t *u = row + g * 2 * t;
                uint32_t *v = u + t;
                for (int64_t k = 0; k < t; ++k) {
                    uint32_t uk = u[k], vk = v[k];
                    uint32_t s = uk + vk;
                    s = s < ql ? s : s - ql;
                    uint32_t d = uk + ql - vk;
                    d = d < ql ? d : d - ql;
                    u[k] = s;
                    v[k] = smr_mul(d, tw, ql, ml);
                }
            }
            if (bound && scan32(row, n, b32(bound[l]), mm, l, err)) return 1;
        }
        int64_t nv = ninv[l];
        for (int64_t k = 0; k < n; ++k) row[k] = smr_mul(row[k], nv, ql, ml);
        if (bound && scan32(row, n, b32(bound[l]), 0, l, err)) return 1;
    }
    return 0;
}

/* -- Barrett family --------------------------------------------------
 * Harvey-style 2q-lazy uint64 state, exactly the numpy kernel's
 * schedule: mu = floor(2^64 / q) split into 32-bit halves (same dropped
 * carries, so even the lazy intermediates match), one fold per
 * butterfly output into [0, 2q), exit fold to canonical. */

static inline uint64_t barrett_mul(uint64_t v, uint64_t w, uint64_t q,
                                   uint64_t q2, uint64_t mu_hi,
                                   uint64_t mu_lo) {
    uint64_t x = v * w; /* exact: v < 2q, w < q, so x < 2q^2 < 2^63 */
    uint64_t x_hi = x >> 32;
    uint64_t x_lo = x & 0xffffffffu;
    uint64_t mid = x_lo * mu_hi + ((x_lo * mu_lo) >> 32) + x_hi * mu_lo;
    uint64_t qhat = x_hi * mu_hi + (mid >> 32);
    uint64_t r = x - qhat * q; /* in [0, 3q) */
    return r < q2 ? r : r - q2;
}

EXPORT int ntt_fwd_barrett(uint64_t *x, const uint64_t *w, const uint64_t *q,
                           const uint64_t *mu, int64_t L, int64_t n,
                           const uint64_t *bound, uint64_t *err) {
    for (int64_t l = 0; l < L; ++l) {
        uint64_t ql = q[l], q2 = 2 * ql;
        uint64_t mu_hi = mu[l] >> 32, mu_lo = mu[l] & 0xffffffffu;
        uint64_t *row = x + l * n;
        const uint64_t *wl = w + l * n;
        for (int64_t m = 1, t = n >> 1; m < n; m <<= 1, t >>= 1) {
            for (int64_t g = 0; g < m; ++g) {
                uint64_t tw = wl[m + g];
                uint64_t *u = row + g * 2 * t;
                uint64_t *v = u + t;
                for (int64_t k = 0; k < t; ++k) {
                    uint64_t r = barrett_mul(v[k], tw, ql, q2, mu_hi, mu_lo);
                    uint64_t uk = u[k];
                    uint64_t s = uk + r;
                    s = s < q2 ? s : s - q2;
                    uint64_t d = uk + q2 - r;
                    d = d < q2 ? d : d - q2;
                    u[k] = s;
                    v[k] = d;
                }
            }
            if (bound && scan64(row, n, bound[l], m, l, err)) return 1;
        }
        for (int64_t k = 0; k < n; ++k) { /* exit fold to canonical */
            uint64_t s = row[k];
            row[k] = s < ql ? s : s - ql;
        }
    }
    return 0;
}

EXPORT int ntt_inv_barrett(uint64_t *x, const uint64_t *w,
                           const uint64_t *ninv, const uint64_t *q,
                           const uint64_t *mu, int64_t L, int64_t n,
                           const uint64_t *bound, uint64_t *err) {
    for (int64_t l = 0; l < L; ++l) {
        uint64_t ql = q[l], q2 = 2 * ql;
        uint64_t mu_hi = mu[l] >> 32, mu_lo = mu[l] & 0xffffffffu;
        uint64_t *row = x + l * n;
        const uint64_t *wl = w + l * n;
        for (int64_t m = n, t = 1; m > 1; m >>= 1, t <<= 1) {
            int64_t h = m >> 1;
            for (int64_t g = 0; g < h; ++g) {
                uint64_t tw = wl[h + g];
                uint64_t *u = row + g * 2 * t;
                uint64_t *v = u + t;
                for (int64_t k = 0; k < t; ++k) {
                    uint64_t uk = u[k], vk = v[k];
                    uint64_t s = uk + vk;
                    s = s < q2 ? s : s - q2;
                    uint64_t d = uk + q2 - vk;
                    d = d < q2 ? d : d - q2;
                    u[k] = s;
                    v[k] = barrett_mul(d, tw, ql, q2, mu_hi, mu_lo);
                }
            }
            if (bound && scan64(row, n, bound[l], m, l, err)) return 1;
        }
        uint64_t nv = ninv[l];
        for (int64_t k = 0; k < n; ++k)
            row[k] = barrett_mul(row[k], nv, ql, q2, mu_hi, mu_lo);
        if (bound && scan64(row, n, bound[l], 0, l, err)) return 1;
        for (int64_t k = 0; k < n; ++k) { /* exit fold to canonical */
            uint64_t s = row[k];
            row[k] = s < ql ? s : s - ql;
        }
    }
    return 0;
}

/* -- CRT tensor pass --------------------------------------------------
 * out[j] = (sum_i x_hat[i] * M[j,i] + v * corr[j]) mod p_j, the
 * (L_out, L_in, N) pass of fast basis conversion collapsed row by row:
 * Shoup lazy products in [0, 2p_j) accumulate in uint64 (L_in <= a few
 * dozen, so sums stay far below 2^64 — the same §4.2 headroom the numpy
 * LazyAccumulator certifies), then one exact Barrett fold per output
 * element via mu_j = floor(2^64 / p_j) with a subtract-until-canonical
 * tail, so the result is the exact residue regardless of the one-off
 * approximation error.  x_hat and v are canonical (computed by the
 * main-process scale step / exact v guard). */

EXPORT int crt_convert(const uint64_t *x_hat, const uint64_t *m,
                       const uint64_t *msh, const uint64_t *v,
                       const uint64_t *corr, const uint64_t *corrsh,
                       const uint64_t *p, const uint64_t *mu, int64_t L_in,
                       int64_t L_out, int64_t n, uint64_t *out) {
    for (int64_t j = 0; j < L_out; ++j) {
        uint64_t pj = p[j];
        uint64_t *oj = out + j * n;
        const uint64_t *mj = m + j * L_in;
        const uint64_t *mshj = msh + j * L_in;
        for (int64_t k = 0; k < n; ++k) oj[k] = 0;
        for (int64_t i = 0; i < L_in; ++i) {
            uint64_t w = mj[i], wsh = mshj[i];
            const uint64_t *xi = x_hat + i * n;
            for (int64_t k = 0; k < n; ++k) {
                uint64_t a = xi[k]; /* < 2^31 */
                uint64_t hi = (a * wsh) >> 32;
                oj[k] += (a * w - hi * pj) & 0xffffffffu; /* + [0, 2p) */
            }
        }
        uint64_t cw = corr[j], cwsh = corrsh[j], muj = mu[j];
        for (int64_t k = 0; k < n; ++k) {
            uint64_t a = v[k];
            uint64_t hi = (a * cwsh) >> 32;
            uint64_t s = oj[k] + ((a * cw - hi * pj) & 0xffffffffu);
            uint64_t qh = (uint64_t)(((unsigned __int128)s * muj) >> 64);
            uint64_t r = s - qh * pj;
            while (r >= pj) r -= pj;
            oj[k] = r;
        }
    }
    return 0;
}

/* The converter's scale step: x_hat_i = x_i * q_i_hat^-1 mod q_i, one
 * scalar Shoup multiply per row.  Same 32-bit wrap + canonical fold the
 * numpy chain performs, so the output bits match exactly. */

EXPORT int crt_scale(const uint64_t *x, const uint64_t *w,
                     const uint64_t *wsh, const uint64_t *q, int64_t L,
                     int64_t n, uint64_t *out) {
    for (int64_t i = 0; i < L; ++i) {
        uint64_t wi = w[i], wshi = wsh[i], qi = q[i];
        const uint64_t *xi = x + i * n;
        uint64_t *oi = out + i * n;
        for (int64_t k = 0; k < n; ++k) {
            uint64_t a = xi[k];
            uint64_t hi = (a * wshi) >> 32;
            uint64_t r = (a * wi - hi * qi) & 0xffffffffu;
            oi[k] = r >= qi ? r - qi : r;
        }
    }
    return 0;
}

/* -- lazy product-accumulate and fold (§4.2) --------------------------
 * acc[l, k] += reduce(a[l, perm ? perm[k] : k] * b[l, k]) with one
 * Table-3 reducer's term, formed with exactly the numpy reducer's
 * 64-bit wrapping steps: [0, 2q) for Barrett / Montgomery / Shoup (no
 * final fold), (-q, q) for SMR.  The accumulator state therefore
 * matches the numpy tier bit for bit, and the Python bound tracker's
 * per-term charge describes this kernel as exactly as the numpy one.
 * The SMR accumulator is int64; it is added as uint64 so overflow wraps
 * like numpy instead of being undefined.  `perm` (NULL, or n indices in
 * [0, n) that the caller has checked) is the hoisted key switch's
 * NTT-domain slot gather, fused into the operand load.  `c` is the
 * reducer's per-limb constant: Barrett's mu, Montgomery's -q^-1 mod
 * 2^32, SMR's signed m (as its 64-bit pattern); Shoup takes the
 * per-element companions `bsh` instead. */

static inline uint64_t term_barrett(uint64_t a, uint64_t b, uint64_t bsh,
                                    uint64_t q, uint64_t mu) {
    (void)bsh;
    return barrett_mul(a, b, q, 2 * q, mu >> 32, mu & 0xffffffffu);
}

static inline uint64_t term_montgomery(uint64_t a, uint64_t b, uint64_t bsh,
                                       uint64_t q, uint64_t qinv_neg) {
    (void)bsh;
    uint64_t x = a * b;
    uint64_t m = ((x & 0xffffffffu) * qinv_neg) & 0xffffffffu;
    return (x + m * q) >> 32;
}

static inline uint64_t term_shoup(uint64_t a, uint64_t b, uint64_t bsh,
                                  uint64_t q, uint64_t unused) {
    (void)unused;
    uint64_t hi = ((a & 0xffffffffu) * (bsh & 0xffffffffu)) >> 32;
    return (a * b - hi * q) & 0xffffffffu;
}

static inline uint64_t term_smr(uint64_t a, uint64_t b, uint64_t bsh,
                                uint64_t q, uint64_t m) {
    (void)bsh;
    int64_t x = (int64_t)(a * b);
    int32_t z = (int32_t)((uint32_t)x * (uint32_t)m); /* signed mullo32 */
    int64_t hi = ((int64_t)z * (int64_t)q) >> 32;     /* signed mulhi32 */
    return (uint64_t)((x >> 32) - hi);
}

#define LAZY_MAC(NAME, TERM)                                                 \
    EXPORT void NAME(uint64_t *acc, const uint64_t *a, const uint64_t *b,    \
                     const uint64_t *bsh, const int64_t *perm,               \
                     const uint64_t *q, const uint64_t *c, int64_t L,        \
                     int64_t n) {                                            \
        for (int64_t l = 0; l < L; ++l) {                                    \
            uint64_t ql = q[l], cl = c ? c[l] : 0;                           \
            uint64_t *accl = acc + l * n;                                    \
            const uint64_t *al = a + l * n, *bl = b + l * n;                 \
            const uint64_t *shl = bsh ? bsh + l * n : bl;                    \
            if (perm)                                                        \
                for (int64_t k = 0; k < n; ++k)                              \
                    accl[k] += TERM(al[perm[k]], bl[k], shl[k], ql, cl);     \
            else                                                             \
                for (int64_t k = 0; k < n; ++k)                              \
                    accl[k] += TERM(al[k], bl[k], shl[k], ql, cl);           \
        }                                                                    \
    }

LAZY_MAC(lazy_mac_barrett, term_barrett)
LAZY_MAC(lazy_mac_montgomery, term_montgomery)
LAZY_MAC(lazy_mac_shoup, term_shoup)
LAZY_MAC(lazy_mac_smr, term_smr)

/* s mod q through mu = floor(2^64 / q): the estimate floor(s*mu / 2^64)
 * undershoots floor(s / q) by at most one (s < 2^64, 2^64 mod q < q), so
 * the remainder lands in [0, 2q) and one conditional subtract finishes
 * the exact canonical residue. */
static inline uint64_t fold_word(uint64_t s, uint64_t q, uint64_t mu) {
    uint64_t qh = (uint64_t)(((unsigned __int128)s * mu) >> 64);
    uint64_t r = s - qh * q;
    return r >= q ? r - q : r;
}

EXPORT void lazy_fold_unsigned(const uint64_t *acc, const uint64_t *q,
                               const uint64_t *mu, int64_t L, int64_t n,
                               uint64_t *out) {
    for (int64_t l = 0; l < L; ++l) {
        uint64_t ql = q[l], mul = mu[l];
        const uint64_t *accl = acc + l * n;
        uint64_t *ol = out + l * n;
        for (int64_t k = 0; k < n; ++k) ol[k] = fold_word(accl[k], ql, mul);
    }
}

/* Floor-mod of the signed (SMR) accumulator, like numpy's int64 `%`:
 * fold |v|, then mirror a nonzero remainder of a negative v. */
EXPORT void lazy_fold_signed(const int64_t *acc, const uint64_t *q,
                             const uint64_t *mu, int64_t L, int64_t n,
                             uint64_t *out) {
    for (int64_t l = 0; l < L; ++l) {
        uint64_t ql = q[l], mul = mu[l];
        const int64_t *accl = acc + l * n;
        uint64_t *ol = out + l * n;
        for (int64_t k = 0; k < n; ++k) {
            int64_t v = accl[k];
            uint64_t mag = v < 0 ? -(uint64_t)v : (uint64_t)v;
            uint64_t r = fold_word(mag, ql, mul);
            ol[k] = (v < 0 && r) ? ql - r : r;
        }
    }
}

/* -- ModDown combine ----------------------------------------------------
 * out = (x - conv) * P^-1 mod q_l: the canonical difference, then one
 * Shoup multiply by the cached P^-1 with its companion — the numpy
 * chain's twelve passes as one loop, same uint64 wrapping steps. */

EXPORT void moddown_combine(const uint64_t *x, const uint64_t *conv,
                            const uint64_t *w, const uint64_t *wsh,
                            const uint64_t *q, int64_t L, int64_t n,
                            uint64_t *out) {
    for (int64_t l = 0; l < L; ++l) {
        uint64_t ql = q[l], wl = w[l], wshl = wsh[l];
        const uint64_t *xl = x + l * n, *cl = conv + l * n;
        uint64_t *ol = out + l * n;
        for (int64_t k = 0; k < n; ++k) {
            uint64_t s = ql - cl[k] + xl[k]; /* in (0, 2q) */
            uint64_t t = s - ql;
            s = s < t ? s : t; /* canonical difference */
            uint64_t hi = (s * wshl) >> 32;
            uint64_t r = (s * wl - hi * ql) & 0xffffffffu; /* [0, 2q) */
            t = r - ql;
            ol[k] = r < t ? r : t;
        }
    }
}
