/* szlike's quantised frame in one call per chunk: szl_encode writes the
 * payload and szl_decode the amplitudes szlike.py's numpy frame (its
 * oracle) writes, byte for byte; Python keeps the header, the deflate and
 * the raw escape. Built by native.py; no Python object is touched, so
 * ctypes releases the GIL. Exactness rules (each as the numpy frame does):
 * 1. The bit length of an integer-valued double replaces frexp: numpy
 *    sums frexp's exponent of every code and delta, which for an integer
 *    v is the bit length of |v| (0 for 0); bits_of() reads it from the
 *    exponent field (codes are within 2**52, deltas 2**53: exact).
 * 2. rint runs in the default rounding mode (half to even), as np.rint
 *    and Python's round() do: round_even() is that rint for |y| <= 2**52,
 *    one rounded addition of 2**52. -ffp-contract=off keeps `x - q * step`
 *    two roundings, as numpy's two ufuncs are; an FMA would round once.
 * 3. The decode's cumsum is done in uint64, because numpy's int64 cumsum
 *    wraps and C signed overflow is undefined: a damaged stream decodes
 *    to the oracle's (wrong) amplitudes, never to undefined behaviour.
 * 4. The 64-delta distinct probe counts 0.0 == -0.0 as Python's set
 *    does: the deltas are int64 here, where the two zeros are one value.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#if FLT_EVAL_METHOD != 0 || __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "not built: szlike runs its numpy frame (needs GNU C, little-endian)"
#endif

enum { SZL_UNIFORM, SZL_RAW, SZL_FIXED, SZL_ZLIB };

/* szlike.py's `auto` thresholds (_FIXED_*) and quantizer.MAX_SAFE_CODE
 * (round_even needs it <= 2**52): Python owns them, and native.py sets
 * them once when it loads the library, before any frame is encoded */
static int64_t min_delta_width, probe, min_distinct, max_slack;
static double max_safe_code;

void szl_policy(int64_t w, int64_t p, int64_t d, int64_t s, double safe)
{ min_delta_width = w, probe = p, min_distinct = d, max_slack = s,
  max_safe_code = safe; }

static int bits_of(double v) /* rule 1 */
{
    uint64_t b;
    memcpy(&b, &v, 8);
    int e = (int)(b >> 52 & 0x7ff) - 1022;
    return e > 0 ? e : 0;
}

static double round_even(double y) /* rule 2 */
{ return copysign((fabs(y) + 0x1p52) - 0x1p52, y); }

/* 2v ^ (2v >> 63), without shifting a negative value */
static uint64_t zigzag(int64_t v)
{ return ((uint64_t)v << 1) ^ (0 - ((uint64_t)v >> 63)); }

/* szlike._zigzag_width: the bits of the widest of symbols ORed in `any` */
static int width_of(uint64_t any) { return 64 - __builtin_clzll(any | 1); }

/* distinct values among v[0..count), count <= probe (rule 4) */
static int64_t distinct(const int64_t *v, int64_t count)
{
    const uint64_t slots = 2 * (uint64_t)count + 1;
    int64_t key[slots];
    unsigned char used[slots];
    int64_t found = 0;
    memset(used, 0, sizeof used);
    for (int64_t i = 0; i < count; i++) {
        uint64_t h = ((uint64_t)v[i] * 0x9E3779B97F4A7C15u >> 32) % slots;
        while (used[h] && key[h] != v[i])
            h = (h + 1) % slots;
        found += !used[h];
        used[h] = 1;
        key[h] = v[i];
    }
    return found;
}

/* bitstream.pack_fixed: `width` bits a symbol, MSB-first, zero-padded;
 * returns the bytes kept, may write 8 more. A width is at most 55, so a
 * symbol and the < 8 bits pending fit one word: stored whole, no branch */
static int64_t pack_fixed(const int64_t *v, int64_t count, int width,
                          unsigned char *out)
{
    unsigned char *at = out;
    uint64_t acc = 0, word; /* `bits` pending bits, MSB-aligned */
    int bits = 0, whole;
    for (int64_t i = 0; i < count; i++) {
        acc |= zigzag(v[i]) << (64 - width - bits);
        word = __builtin_bswap64(acc);
        memcpy(at, &word, 8);
        whole = (bits + width) >> 3;
        at += whole;
        acc = (acc << 4 * whole) << 4 * whole;
        bits = (bits + width) & 7;
    }
    if (bits)
        *at++ = (unsigned char)(acc >> 56);
    return at - out;
}

/* Encode n amplitudes (complex64 if `single`) on the step 2*step_bound:
 * SZL_UNIFORM, SZL_RAW (a quotient NaN, infinite or past the safe-code
 * limit, or a miss of eb), SZL_FIXED or SZL_ZLIB, whose payload `work`
 * (6n + 2 int64s) holds after its length, the 2n codes (real plane, then
 * imaginary) and their 2n deltas. `automatic`: szlike's `auto` choice. */
int szl_encode(const void *data, int64_t n, int single, double step_bound,
               double eb, int automatic, int64_t *work)
{
    const size_t size = single ? 8 : 16;
    int64_t m = 2 * n, *codes = work + 1, *deltas = codes + m, k;
    unsigned char *out = (unsigned char *)(deltas + m);
    for (k = 1; k < n; k++)
        if (memcmp((const char *)data + k * size, data, size))
            break;
    if (k >= n)
        return SZL_UNIFORM;
    /* quantizer.scaled_codes and the bound check in one pass, branch-free
     * on the data: an unsafe quotient's code is not computed */
    double step = 2.0 * step_bound, prev = 0;
    int64_t code_bits = 0, delta_bits = 0;
    uint64_t code_zz = 0, delta_zz = 0; /* every symbol, ORed */
    int unsafe = 0, miss = 0;
    k = 0;
    for (int p = 0; p < 2; p++)
        for (int64_t i = 0; i < n; i++, k++) {
            double x = single ? ((const float *)data)[2 * i + p]
                              : ((const double *)data)[2 * i + p];
            double y = x / step;
            int safe = fabs(y) <= max_safe_code;
            double q = safe ? round_even(y) : 0.0, dq = q - prev; /* exact */
            unsafe |= !safe;
            miss |= fabs(x - q * step) > eb;
            codes[k] = (int64_t)q;
            deltas[k] = (int64_t)dq;
            prev = q;
            code_zz |= zigzag(codes[k]);
            delta_zz |= zigzag(deltas[k]);
            code_bits += bits_of(q);
            delta_bits += bits_of(dq);
        }
    if (unsafe || miss)
        return SZL_RAW;

    int delta_width = width_of(delta_zz);
    if (automatic && delta_width > min_delta_width &&
            distinct(deltas, m < probe ? m : probe) >= min_distinct) {
        /* keep the predictor only where it narrows the stream */
        int width = width_of(code_zz), predicted = delta_width < width;
        width = predicted ? delta_width : width;
        if (m * (width - 1 - max_slack)
                <= (code_bits < delta_bits ? code_bits : delta_bits)) {
            out[0] = (unsigned char)width;
            out[1] = (unsigned char)predicted;
            work[0] = 2 + pack_fixed(predicted ? deltas : codes, m, width,
                                     out + 2);
            return SZL_FIXED;
        }
    }
    /* szlike._minimal_uint: the fewest of 1, 2, 4 and 8 bytes a symbol */
    int w = delta_zz >> 32 ? 8 : delta_zz >> 16 ? 4 : delta_zz >> 8 ? 2 : 1;
    for (k = 0; k < m; k++) {
        uint64_t z = zigzag(deltas[k]);
        memcpy(out + 1 + w * k, &z, (size_t)w);
    }
    out[0] = (unsigned char)w;
    work[0] = 1 + m * w;
    return SZL_ZLIB;
}

/* field k of a fixed-stage payload: `width` bits of the 9 bytes from its
 * first on (Python pads the payload with 8 zero bytes) */
static uint64_t field(const unsigned char *src, int64_t k, int width)
{
    uint64_t bit = (uint64_t)k * (uint64_t)width, v;
    int skip = (int)(bit & 7);
    memcpy(&v, src + (bit >> 3), 8);
    v = __builtin_bswap64(v) << skip | src[(bit >> 3) + 8] >> (8 - skip);
    return v >> (64 - width);
}

/* Decode the 2n symbols at src + at (`width`-bit fixed-stage fields when
 * `packed`, else inflated `width`-byte symbols; Python has checked both
 * and padded them with 8 zero bytes)
 * into the n amplitudes of `out` (complex64 when `single`): unzigzag, sum
 * when `predicted` (rule 3), scale as quantizer.dequantize, (2v) * b. */
void szl_decode(const unsigned char *src, int64_t at, int64_t n, int packed,
                int width, int predicted, double step_bound, void *out,
                int single)
{
    int64_t k = 0;
    uint64_t sum = 0, keep = 0 - (uint64_t)(predicted != 0), z;
    src += at;
    for (int p = 0; p < 2; p++)
        for (int64_t i = 0; i < n; i++, k++) {
            z = packed ? field(src, k, width) : 0;
            if (!packed)
                memcpy(&z, src + width * k, (size_t)width);
            sum = (sum & keep) + (z ^ (0 - (z & 1))); /* 2v */
            double x = (double)(int64_t)sum * step_bound;
            if (single)
                ((float *)out)[2 * i + p] = (float)x;
            else
                ((double *)out)[2 * i + p] = x;
        }
}
