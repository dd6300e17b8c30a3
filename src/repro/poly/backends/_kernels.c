/* Compiled backend tier: the four Table-3 butterfly families (Barrett /
 * Montgomery / Shoup / SMR) as whole transforms, the lazy
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
 * Harvey 2q-lazy [0, 2q) state for Barrett, every intermediate the same
 * integer) so that checked mode asserts the very same certified
 * per-stage bounds and reports the very same values.  The lazy
 * product-accumulate and the ModDown combine go further: they replay
 * the numpy reducers' 64-bit wrapping arithmetic step for step, so even
 * the unfolded accumulator state matches the numpy tier bit for bit.
 *
 * Checked mode: with `bound` non-NULL, each (limb, stage) pass scans
 * the live row against bound[limb] in one branch-free OR pass, walking
 * the row again only when it holds a violation.  The caller passes the
 * engine's live certified bound column, so tightened bounds (tests) and
 * the Level-1 certificates apply to this tier exactly as to numpy.  The
 * first violation stops the transform and reports {value, stage m (0 =
 * the n^-1 scale), limb, coefficient} through `err`, and the function
 * returns 1.  The Python wrapper raises SanitizerError from that
 * tuple.  The accumulator, converter and combine kernels carry no
 * checks: a checked accumulator, converter or combine runs the
 * instrumented numpy kernels instead.
 *
 * Layout: data is one contiguous (L, n) row-major matrix of 64-bit words
 * and per-limb constants are length-L vectors.  A transform is one call:
 * it range-checks each input word against its limb's q while narrowing
 * the matrix into a caller-owned uint32 state, runs every stage of one
 * limb before the next limb starts (at n = 4096 a row is 16 KiB, so a
 * limb's working set stays in L1), and widens the result into `out`,
 * which may alias the input.  Every reducer requires q < 2^31, so
 * twiddles, Shoup companions and n^-1 are 32-bit words too, and each
 * product is a 32x32 -> 64-bit lane multiply.  Stages with t >= 16
 * vectorize along each group's t butterflies; the four narrow stages
 * (t = 8, 4, 2, 1) are unrolled at compile-time t so the compiler
 * vectorizes across groups instead.  The library is built for the host
 * ISA (-march=native) when the compiler accepts it.
 */

#include <stdint.h>

#define EXPORT __attribute__((visibility("default")))

/* -- checked-mode row scan ----------------------------------------- */

/* Saturate a 64-bit bound into the uint32 state domain: any bound at or
 * above 2^32 - 1 can never trip on uint32 state, which matches numpy's
 * semantics of comparing the full-width value. */
static inline uint32_t b32(uint64_t b) {
    return b > 0xffffffffu ? 0xffffffffu : (uint32_t)b;
}

/* One branch-free OR pass over the row (it vectorizes); only a row that
 * holds an offender is walked again to report the first one. */
static int scan32(const uint32_t *row, int64_t n, uint32_t bound,
                  int64_t stage, int64_t limb, uint64_t *err) {
    uint32_t bad = 0;
    for (int64_t k = 0; k < n; ++k) bad |= row[k] > bound;
    if (!bad) return 0;
    int64_t k = 0;
    while (row[k] <= bound) ++k;
    err[0] = row[k];
    err[1] = (uint64_t)stage;
    err[2] = (uint64_t)limb;
    err[3] = (uint64_t)k;
    return 1;
}

/* -- transform entry and exit ---------------------------------------- */

/* Narrow the (L, n) uint64 input into the uint32 state, checking every
 * word against its limb's q; nonzero when some word is out of range. */
static int narrow(const uint64_t *restrict in, uint32_t *restrict state,
                  const uint64_t *q, int64_t L, int64_t n) {
    for (int64_t l = 0; l < L; ++l) {
        const uint64_t ql = q[l];
        const uint64_t *src = in + l * n;
        uint32_t *dst = state + l * n;
        uint32_t bad = 0;
        for (int64_t k = 0; k < n; ++k) {
            bad |= src[k] >= ql;
            dst[k] = (uint32_t)src[k];
        }
        if (bad) return 1;
    }
    return 0;
}

/* Widen the state into `out`, folding Barrett's [0, 2q) state to
 * canonical with min(s, s - q) (a no-op on canonical state). */
static void widen(const uint32_t *restrict state, uint64_t *restrict out,
                  const uint64_t *q, int64_t L, int64_t n) {
    for (int64_t l = 0; l < L; ++l) {
        const uint32_t ql = (uint32_t)q[l];
        const uint32_t *src = state + l * n;
        uint64_t *dst = out + l * n;
        for (int64_t k = 0; k < n; ++k) {
            uint32_t s = src[k], t = s - ql;
            dst[k] = s < t ? s : t;
        }
    }
}

/* -- twiddle products, one per family ---------------------------------
 * Per-limb constants: q, 2q, and the reducer constant `c` as its 32-bit
 * halves (Montgomery's -q^-1 mod 2^32 and SMR's m in c_lo; Barrett's
 * mu = floor(2^64 / q) in c_hi:c_lo).  Each product takes the twiddle w
 * and its Shoup companion ws (ignored by the other families). */

typedef struct {
    uint32_t q, q2, c_lo, c_hi;
} limb_k;

static inline limb_k limb_consts(uint64_t q, uint64_t c) {
    limb_k k = {(uint32_t)q, (uint32_t)(2 * q), (uint32_t)c,
                (uint32_t)(c >> 32)};
    return k;
}

/* Shoup: w' = floor(w * 2^32 / q); one high product, state canonical. */
static inline uint32_t mul_shoup(uint32_t v, uint32_t w, uint32_t ws,
                                 limb_k k) {
    uint32_t hi = (uint32_t)(((uint64_t)v * ws) >> 32);
    uint32_t r = v * w - hi * k.q; /* (v*w - hi*q) mod 2^32, in [0, 2q) */
    uint32_t t = r - k.q;
    return r < t ? r : t;
}

/* Montgomery: w in Montgomery form (w * 2^32 mod q); the reduce cancels
 * the 2^-32, keeping coefficients plain. */
static inline uint32_t mul_mont(uint32_t v, uint32_t w, uint32_t ws,
                                limb_k k) {
    (void)ws;
    uint64_t p = (uint64_t)v * w;                             /* < q^2 */
    uint32_t m = (uint32_t)p * k.c_lo;                        /* mullo32 */
    uint32_t r = (uint32_t)((p + (uint64_t)m * k.q) >> 32);  /* < 2q */
    uint32_t t = r - k.q;
    return r < t ? r : t;
}

/* SMR (Alg. 2): w in signed Montgomery form, (-q, q) as int32 bits;
 * each output is canonicalized into [0, q), exactly like the numpy
 * kernel. */
static inline uint32_t mul_smr(uint32_t v, uint32_t w, uint32_t ws,
                               limb_k k) {
    (void)ws;
    int64_t p = (int64_t)(int32_t)v * (int32_t)w; /* |p| < q * 2^31 */
    int32_t z = (int32_t)((uint32_t)p * k.c_lo);  /* signed mullo32 */
    int64_t hi = ((int64_t)z * (int32_t)k.q) >> 32;
    uint32_t r = (uint32_t)((p >> 32) - hi); /* (-q, q) as uint32 bits */
    uint32_t t = r + k.q;
    return r < t ? r : t;
}

/* Barrett: the numpy kernel's mu-chain over 32-bit halves (same dropped
 * carries, so even the lazy intermediates match).  v < 2q and w < q, so
 * every partial product is 32x32 -> 64 and q_hat < 2q fits 32 bits;
 * the result is folded once into [0, 2q). */
static inline uint32_t mul_barrett(uint32_t v, uint32_t w, uint32_t ws,
                                   limb_k k) {
    (void)ws;
    uint64_t x = (uint64_t)v * w; /* < 2q^2 < 2^63 */
    uint32_t x_hi = (uint32_t)(x >> 32), x_lo = (uint32_t)x;
    uint64_t mid = (uint64_t)x_lo * k.c_hi +
                   (((uint64_t)x_lo * k.c_lo) >> 32) +
                   (uint64_t)x_hi * k.c_lo;
    uint32_t qhat = (uint32_t)((uint64_t)x_hi * k.c_hi + (mid >> 32));
    uint64_t r = x - (uint64_t)qhat * k.q; /* in [0, 3q) */
    return (uint32_t)(r < k.q2 ? r : r - k.q2);
}

/* -- butterfly combines -------------------------------------------------
 * Canonical state: a + b < 2q < 2^32 never wraps, so each fold is one
 * min(s, s - q).  Barrett's [0, 2q) state: 2q may exceed 2^31, so the
 * sum could wrap; compare before adding instead (same values). */

static inline uint32_t add_q(uint32_t a, uint32_t b, limb_k k) {
    uint32_t s = a + b, t = s - k.q;
    return s < t ? s : t;
}

static inline uint32_t sub_q(uint32_t a, uint32_t b, limb_k k) {
    uint32_t d = a + k.q - b, t = d - k.q;
    return d < t ? d : t;
}

static inline uint32_t add_2q(uint32_t a, uint32_t b, limb_k k) {
    uint32_t t = k.q2 - b, s = a + b, d = a - t;
    return a >= t ? d : s;
}

static inline uint32_t sub_2q(uint32_t a, uint32_t b, limb_k k) {
    uint32_t d = a - b, s = d + k.q2;
    return a >= b ? d : s;
}

/* -- stages and transforms ---------------------------------------------
 * One stage over the G groups of a row, butterflies T apart, twiddle
 * G + g for group g: Cooley-Tukey forward (u, v) -> (u + wv, u - wv),
 * Gentleman-Sande inverse (u, v) -> (u + v, (u - v)w).  Both read
 * `row`, `wl`, `sl` (the Shoup companions, else `wl` again) and `K`
 * from the enclosing transform. */

#define CT_STAGE(T, G, MUL, ADD, SUB)                                        \
    for (int64_t g = 0; g < (G); ++g) {                                      \
        uint32_t *u = row + 2 * (T) * g, *v = u + (T);                       \
        const uint32_t w_ = wl[(G) + g], s_ = sl[(G) + g];                   \
        for (int64_t k = 0; k < (T); ++k) {                                  \
            uint32_t r = MUL(v[k], w_, s_, K), a = u[k];                     \
            u[k] = ADD(a, r, K);                                             \
            v[k] = SUB(a, r, K);                                             \
        }                                                                    \
    }

#define GS_STAGE(T, G, MUL, ADD, SUB)                                        \
    for (int64_t g = 0; g < (G); ++g) {                                      \
        uint32_t *u = row + 2 * (T) * g, *v = u + (T);                       \
        const uint32_t w_ = wl[(G) + g], s_ = sl[(G) + g];                   \
        for (int64_t k = 0; k < (T); ++k) {                                  \
            uint32_t a = u[k], b = v[k];                                     \
            u[k] = ADD(a, b, K);                                             \
            v[k] = MUL(SUB(a, b, K), w_, s_, K);                             \
        }                                                                    \
    }

/* Dispatch one stage: compile-time t below 16, the runtime loop else. */
#define STAGE(KIND, t, G, MUL, ADD, SUB)                                     \
    switch (t) {                                                             \
    case 1: KIND(1, G, MUL, ADD, SUB) break;                                 \
    case 2: KIND(2, G, MUL, ADD, SUB) break;                                 \
    case 4: KIND(4, G, MUL, ADD, SUB) break;                                 \
    case 8: KIND(8, G, MUL, ADD, SUB) break;                                 \
    default: KIND(t, G, MUL, ADD, SUB)                                       \
    }

/* Per-limb prologue shared by both directions. */
#define LIMB_SETUP                                                           \
    const limb_k K = limb_consts(q[l], c ? c[l] : 0);                        \
    uint32_t *restrict row = state + l * n;                                  \
    const uint32_t *wl = w + l * n, *sl = ws ? ws + l * n : wl

/* Return codes: 0 done, 1 checked-mode violation (err filled), 2 an
 * input word out of range (nothing written to `out`). */
#define NTT_FWD(NAME, MUL, ADD, SUB)                                         \
    EXPORT int NAME(const uint64_t *in, uint64_t *out,                       \
                    uint32_t *restrict state, const uint32_t *restrict w,    \
                    const uint32_t *restrict ws, const uint64_t *q,          \
                    const uint64_t *c, int64_t L, int64_t n,                 \
                    const uint64_t *bound, uint64_t *err) {                  \
        if (narrow(in, state, q, L, n)) return 2;                            \
        for (int64_t l = 0; l < L; ++l) {                                    \
            LIMB_SETUP;                                                      \
            for (int64_t m = 1, t = n >> 1; m < n; m <<= 1, t >>= 1) {       \
                STAGE(CT_STAGE, t, m, MUL, ADD, SUB)                         \
                if (bound && scan32(row, n, b32(bound[l]), m, l, err))       \
                    return 1;                                                \
            }                                                                \
        }                                                                    \
        widen(state, out, q, L, n);                                          \
        return 0;                                                            \
    }

#define NTT_INV(NAME, MUL, ADD, SUB)                                         \
    EXPORT int NAME(const uint64_t *in, uint64_t *out,                       \
                    uint32_t *restrict state, const uint32_t *restrict w,    \
                    const uint32_t *restrict ws, const uint32_t *ninv,       \
                    const uint32_t *ninvs, const uint64_t *q,                \
                    const uint64_t *c, int64_t L, int64_t n,                 \
                    const uint64_t *bound, uint64_t *err) {                  \
        if (narrow(in, state, q, L, n)) return 2;                            \
        for (int64_t l = 0; l < L; ++l) {                                    \
            LIMB_SETUP;                                                      \
            for (int64_t m = n, t = 1; m > 1; m >>= 1, t <<= 1) {            \
                STAGE(GS_STAGE, t, m >> 1, MUL, ADD, SUB)                    \
                if (bound && scan32(row, n, b32(bound[l]), m, l, err))       \
                    return 1;                                                \
            }                                                                \
            const uint32_t nv = ninv[l], nvs = ninvs ? ninvs[l] : nv;        \
            for (int64_t k = 0; k < n; ++k) row[k] = MUL(row[k], nv, nvs, K); \
            if (bound && scan32(row, n, b32(bound[l]), 0, l, err)) return 1; \
        }                                                                    \
        widen(state, out, q, L, n);                                          \
        return 0;                                                            \
    }

NTT_FWD(ntt_fwd_shoup, mul_shoup, add_q, sub_q)
NTT_FWD(ntt_fwd_montgomery, mul_mont, add_q, sub_q)
NTT_FWD(ntt_fwd_smr, mul_smr, add_q, sub_q)
NTT_FWD(ntt_fwd_barrett, mul_barrett, add_2q, sub_2q)
NTT_INV(ntt_inv_shoup, mul_shoup, add_q, sub_q)
NTT_INV(ntt_inv_montgomery, mul_mont, add_q, sub_q)
NTT_INV(ntt_inv_smr, mul_smr, add_q, sub_q)
NTT_INV(ntt_inv_barrett, mul_barrett, add_2q, sub_2q)

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

EXPORT int crt_convert(const uint64_t *x_hat, const uint32_t *m,
                       const uint64_t *msh, const uint64_t *v,
                       const uint32_t *corr, const uint64_t *corrsh,
                       const uint64_t *p, const uint64_t *mu, int64_t L_in,
                       int64_t L_out, int64_t n, uint64_t *out) {
    for (int64_t j = 0; j < L_out; ++j) {
        uint64_t pj = p[j];
        uint64_t *oj = out + j * n;
        const uint32_t *mj = m + j * L_in;
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

EXPORT int crt_scale(const uint64_t *x, const uint32_t *w,
                     const uint64_t *wsh, const uint32_t *q, int64_t L,
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

/* Barrett over 64-bit words: mul_barrett's mu-chain without the 32-bit
 * narrowing, so any operands wrap exactly like numpy's. */
static inline uint64_t term_barrett(uint64_t a, uint64_t b, uint64_t bsh,
                                    uint64_t q, uint64_t mu) {
    (void)bsh;
    uint64_t x = a * b, x_hi = x >> 32, x_lo = x & 0xffffffffu;
    uint64_t mu_hi = mu >> 32, mu_lo = mu & 0xffffffffu;
    uint64_t mid = x_lo * mu_hi + ((x_lo * mu_lo) >> 32) + x_hi * mu_lo;
    uint64_t r = x - (x_hi * mu_hi + (mid >> 32)) * q;
    return r < 2 * q ? r : r - 2 * q;
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
                            const uint32_t *w, const uint64_t *wsh,
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
