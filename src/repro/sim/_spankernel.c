/* Span kernel for the "array" engine's RADS and CFDS cores and the
 * switch's fabric stage.
 *
 * This file is compiled on demand by repro.sim.kernel (cc -O3 -march=native
 * -shared, or plain -O3) and loaded through ctypes; it is NOT a CPython
 * extension module and includes no Python headers, so it builds anywhere a
 * C99 compiler exists.  Beside rads_free_result, which releases results,
 * and kernel_interface, the description python builds its side from (see
 * "Kernel interface, described once"), it has three entry points:
 *  - rads_run_span and cfds_run_span are the array engine's only slot
 *    loops, one per buffer scheme; the object model (engine="reference")
 *    is their oracle.  Both run the stock head MMAs (ECQF, with or without
 *    its most-deficit fallback, and MDQF), the threshold tail MMA and every
 *    stock arbiter (none, random, longest queue, oldest cell, round robin,
 *    strided, trace, and intermittent over any of these), on an explicit
 *    arrival plan, a Bernoulli plan they draw themselves, or none, for
 *    spans of any length, traced or not; num_queues <= 65536, so a queue
 *    id fits the 16-bit field of CRIT_KEY.  They share one SRAM/MMA half
 *    (the machine struct and its mach_* helpers: arbiter, plan, arrival
 *    with cut-through, tail MMA pick, lookahead, head MMA, service), and
 *    each keeps only its DRAM side inline: RADS its lossy DRAM writes and
 *    pending blocks, CFDS queue renaming, the latency register, the
 *    Requests Register and the DRAM Scheduler Subsystem;
 *  - fabric_run_window executes one window of
 *    repro.switch.model.FabricStream's python loop (VOQ arrivals and the
 *    islip, random or priority request/grant/accept match, num_ports <=
 *    MAX_PORTS), on request bitsets of any width, from explicit ingress
 *    plans or Bernoulli plans it draws per ingress with the span entries'
 *    draw (bern_draw; guided in a window of at least num_ports slots),
 *    and returns int32 egress rows.  Its match is one body (fabric_match)
 *    specialised by word count: at 64 ports or fewer every request set,
 *    grant mask and the granted set is one word, each pointer pick one
 *    ctz; past that the same body runs on multiword bitsets.
 * What a call pays per cell stays inline: a push onto a growable array
 * (iv_push) and a delay into a histogram (hist_add) are one compare and
 * one store, and their growth (iv_reserve, hist_grow) is out of line and
 * cold, the error codes unchanged.
 * Everything is integer arithmetic except the two places CPython uses
 * doubles -- random() and choices() -- which are reproduced with the
 * identical IEEE-754 expressions (this translation unit must never be
 * compiled with -ffast-math).
 *
 * Buffer ownership: python hands in only fixed-shape arrays (per-queue
 * scalars, the lookahead ring, RNG keys, the arrival plan, a trace
 * arbiter's pattern) plus one read-only image of the variable-length
 * state.  Every buffer that grows during the span -- per-queue FIFO and
 * head SRAM contents, the critical heap, pending blocks, delays, misses,
 * drained slots, trace rows -- is the kernel's own, as is what a span
 * derives at open (the random arbiter's bitset of backlogged queues, the
 * Bernoulli draw's guide).  The span's outcome comes back as one
 * exact-size result that python reads and then releases with
 * rads_free_result().  Its head is the new image, which python keeps
 * unread and hands back as the next span's.  No capacity is negotiated
 * with the caller, so there is nothing to overflow.
 *
 * Exactness contract:
 *  - the Mersenne Twister below is the reference mt19937ar generator that
 *    CPython's random.Random wraps, run in blocks: a refill twists a spent
 *    key and tempers the next MT_CHUNK words ahead into a buffer, which
 *    draws hand out one word at a time in python's order.  The key is only
 *    ever twisted, never tempered in place, so the kernel starts from the
 *    key/pos handed in and hands back the key/pos it stopped at, and the
 *    python side ends bit-identical to the reference engine;
 *  - a queue's head SRAM is its cells in ascending seqno order (seqnos
 *    are unique), so service reads the minimum the python heap would pop
 *    at the cursor; the image lists them ascending, which is also a valid
 *    heap, and an image whose segment is a heap loads ascending too;
 *  - the critical heap only needs the heap invariant (keys are unique),
 *    so the C sift need not mirror heapq's internal move order -- every
 *    pop yields the same minimum the python heap would;
 *  - choices()' search may start within a guide bucket (draw_guide) only
 *    where that provably finds what python's whole-range bisect finds;
 *  - every raise site of the reference engine stops the span with an
 *    abort record (an ERR_* code, the slot and the integers the exception
 *    carries), nothing written back, and python raises the reference's
 *    exception from it; non-strict misses and lossy DRAM drops are native;
 *  - the fabric entry follows the same rules: python keeps the VOQ image it
 *    returns unread and hands it back as the next window's, and a window
 *    that stops (a plan entry naming no egress, an empty VOQ matched, a
 *    flush slot without a match, a bad input) reports its code, slot and,
 *    for a plan entry, the ingress (fcfg.err_*), nothing written back.
 */

#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Mersenne Twister (mt19937ar), resumed from CPython's getstate().    */
/* ------------------------------------------------------------------ */

#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908b0dfU
#define MT_UPPER 0x80000000U
#define MT_LOWER 0x7fffffffU
#define MT_CHUNK 32     /* words tempered per refill */

/* The generator in blocks: key and pos are exactly python's state (the
 * next word is key[pos] tempered, and pos = MT_N means the key is spent),
 * and tw[] buffers key[base .. end) tempered, with base <= pos <= end.  A
 * refill twists a spent key in one pass and tempers the next chunk in
 * another, both branch-free loops that vectorise; the words still come out
 * one at a time in python's order, so loading and storing a generator is
 * a copy of its key and pos, whatever it draws. */
typedef struct {
    uint32_t key[MT_N];
    int pos, base, end;
    uint32_t tw[MT_CHUNK];
} mt_state;

static void mt_twist(uint32_t *m)
{
    uint32_t y;
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (m[kk] & MT_UPPER) | (m[kk + 1] & MT_LOWER);
        m[kk] = m[kk + MT_M] ^ (y >> 1) ^ (-(y & 1) & MT_MATRIX_A);
    }
    for (; kk < MT_N - 1; kk++) {
        y = (m[kk] & MT_UPPER) | (m[kk + 1] & MT_LOWER);
        m[kk] = m[kk + (MT_M - MT_N)] ^ (y >> 1) ^ (-(y & 1) & MT_MATRIX_A);
    }
    y = (m[MT_N - 1] & MT_UPPER) | (m[0] & MT_LOWER);
    m[MT_N - 1] = m[MT_M - 1] ^ (y >> 1) ^ (-(y & 1) & MT_MATRIX_A);
}

/* Buffer the words from pos on, twisting the key first when it is spent. */
static void mt_refill(mt_state *mt)
{
    const uint32_t *k;
    int i, n;
    if (mt->pos >= MT_N) {
        mt_twist(mt->key);
        mt->pos = 0;
    }
    k = mt->key + mt->pos;
    n = MT_N - mt->pos < MT_CHUNK ? MT_N - mt->pos : MT_CHUNK;
    for (i = 0; i < n; i++) {
        uint32_t y = k[i];
        y ^= y >> 11;
        y ^= (y << 7) & 0x9d2c5680U;
        y ^= (y << 15) & 0xefc60000U;
        mt->tw[i] = y ^ (y >> 18);
    }
    mt->base = mt->pos;
    mt->end = mt->pos + n;
}

static inline uint32_t mt_next(mt_state *mt)
{
    if (mt->pos == mt->end)
        mt_refill(mt);
    return mt->tw[mt->pos++ - mt->base];
}

/* random(): two words -> 53-bit integer (random_res53 numerator). */
static int64_t mt_comb53(mt_state *mt)
{
    uint32_t a = mt_next(mt) >> 5;
    uint32_t b = mt_next(mt) >> 6;
    return ((int64_t)a << 26) | (int64_t)b;
}

/* _randbelow(m) for 1 <= m <= 65536: getrandbits(bit_length(m)) per try,
 * i.e. the top bit_length(m) bits of one 32-bit word; shift is
 * 32 - bit_length(m). */
static int mt_randbelow(mt_state *mt, int m, int shift)
{
    uint32_t r = mt_next(mt) >> shift;
    while ((int)r >= m)
        r = mt_next(mt) >> shift;
    return (int)r;
}

/* ------------------------------------------------------------------ */
/* Growable int64 array: read by cursor, or a heap (head stays 0)      */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t *buf;
    int64_t head;   /* first live element */
    int64_t len;    /* one past last live element */
    int64_t cap;
} ivec;

#define IV_COUNT(v) ((v)->len - (v)->head)

/* The per-cell helpers (iv_push, hist_add) inline to one compare and one
 * store; their growth paths (iv_reserve, hist_grow) stay out of line, cold,
 * so the compiler neither inlines them into every call site nor lays them
 * out on the hot path.  FORCE_INLINE also marks the bodies a caller
 * specialises with a literal argument (fabric_match and its bitset
 * helpers); without GNU attributes both are plain. */
#if defined(__GNUC__)
#define COLD __attribute__((cold, noinline))
#define FORCE_INLINE inline __attribute__((always_inline))
#else
#define COLD
#define FORCE_INLINE inline
#endif

/* Room for n more elements: reclaim the consumed prefix when it is at
 * least half the storage (amortised O(1)), else double. */
static COLD int iv_reserve(ivec *v, int64_t n)
{
    int64_t ncap;
    int64_t *nb;
    if (v->len + n <= v->cap)
        return 1;
    if (v->head > 0 && v->head * 2 >= v->len) {
        memmove(v->buf, v->buf + v->head,
                (size_t)IV_COUNT(v) * sizeof(int64_t));
        v->len -= v->head;
        v->head = 0;
        if (v->len + n <= v->cap)
            return 1;
    }
    ncap = v->cap > 4 ? v->cap * 2 : 8;
    while (ncap < v->len + n)
        ncap *= 2;
    nb = (int64_t *)realloc(v->buf, (size_t)ncap * sizeof(int64_t));
    if (!nb)
        return 0;
    v->buf = nb;
    v->cap = ncap;
    return 1;
}

static FORCE_INLINE int iv_push(ivec *v, int64_t x)
{
    if (v->len == v->cap && !iv_reserve(v, 1))
        return 0;
    v->buf[v->len++] = x;
    return 1;
}

static inline int iv_append(ivec *v, const int64_t *src, int64_t n)
{
    if (n <= 0)
        return 1;
    if (v->len + n > v->cap && !iv_reserve(v, n))
        return 0;
    memcpy(v->buf + v->len, src, (size_t)n * sizeof(int64_t));
    v->len += n;
    return 1;
}

/* x into an ascending v: appended, then moved back past any larger
 * element. */
static int iv_insert(ivec *v, int64_t x)
{
    int64_t at;
    if (!iv_push(v, x))
        return 0;
    for (at = v->len - 1; at > v->head && v->buf[at - 1] > x; at--)
        v->buf[at] = v->buf[at - 1];
    v->buf[at] = x;
    return 1;
}

/* ------------------------------------------------------------------ */
/* Min-heaps (unique keys -> any valid heap pops identically)          */
/* ------------------------------------------------------------------ */

static void heap_up(int64_t *h, int64_t i)
{
    int64_t x = h[i];
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (h[p] <= x)
            break;
        h[i] = h[p];
        i = p;
    }
    h[i] = x;
}

static void heap_down(int64_t *h, int64_t n, int64_t i)
{
    int64_t x = h[i];
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && h[c + 1] < h[c])
            c++;
        if (h[c] >= x)
            break;
        h[i] = h[c];
        i = c;
    }
    h[i] = x;
}

static int heap_push(ivec *h, int64_t key)
{
    if (!iv_push(h, key))
        return 0;
    heap_up(h->buf, h->len - 1);
    return 1;
}

static void heap_pop(ivec *h)
{
    h->buf[0] = h->buf[--h->len];
    if (h->len)
        heap_down(h->buf, h->len, 0);
}

/* ------------------------------------------------------------------ */
/* Bitsets: random arbiters pick the k-th set bit                      */
/* ------------------------------------------------------------------ */

static int ctz64(uint64_t x)    /* x != 0 */
{
#if defined(__GNUC__)
    return __builtin_ctzll(x);
#else
    int k = 0;
    while (!(x & 1)) {
        x >>= 1;
        k++;
    }
    return k;
#endif
}

static int popcount64(uint64_t x)
{
#if defined(__GNUC__)
    return __builtin_popcountll(x);
#else
    int k = 0;
    while (x) {
        x &= x - 1;
        k++;
    }
    return k;
#endif
}

/* The k-th lowest set bit of x (0 <= k < popcount(x)).  Where BMI2's
 * pdep is fast it deposits bit k of a one-hot word onto x's set bits;
 * Zen 1 and Zen 2 microcode pdep, so there, and wherever the build does
 * not target BMI2, the broadword select (Vigna, "Broadword implementation
 * of rank/select queries") gives the same bit: byte-wise prefix popcounts
 * locate the byte, then the byte's bits spread one per byte locate the
 * bit. */
#if defined(__BMI2__) && !defined(__znver1__) && !defined(__znver2__)
#include <immintrin.h>

static int select64(uint64_t x, int k)
{
    return ctz64(_pdep_u64(UINT64_C(1) << k, x));
}
#else
#define ONES8 UINT64_C(0x0101010101010101)
#define MSBS8 UINT64_C(0x8080808080808080)

/* Per byte, 1 where x's byte <= y's, else 0 (bytes below 0x80). */
static inline uint64_t leq8(uint64_t x, uint64_t y)
{
    return ((((y | MSBS8) - (x & ~MSBS8)) ^ x ^ y) & MSBS8) >> 7;
}

static int select64(uint64_t x, int k)
{
    uint64_t s = x - ((x & UINT64_C(0xaaaaaaaaaaaaaaaa)) >> 1), b;
    int place;
    s = (s & UINT64_C(0x3333333333333333))
        + ((s >> 2) & UINT64_C(0x3333333333333333));
    s = ((s + (s >> 4)) & UINT64_C(0x0f0f0f0f0f0f0f0f)) * ONES8;
    place = (int)((leq8(s, (uint64_t)k * ONES8) * ONES8 >> 53)
                  & ~UINT64_C(7));
    k -= (int)(((s << 8) >> place) & 0xff);
    b = ((x >> place) & 0xff) * ONES8 & UINT64_C(0x8040201008040201);
    b = (((b | ((b | MSBS8) - ONES8)) & MSBS8) >> 7) * ONES8;
    return place + (int)(leq8(b, (uint64_t)k * ONES8) * ONES8 >> 56);
}
#endif

/* Lowest set bit at or after `from` in an nw-word bitset, or -1. */
static inline int bits_from(const uint64_t *w, int nw, int from)
{
    int k = from >> 6;
    uint64_t x;
    if (k >= nw)
        return -1;
    x = w[k] & (~UINT64_C(0) << (from & 63));
    for (;;) {
        if (x)
            return (k << 6) + ctz64(x);
        if (++k >= nw)
            return -1;
        x = w[k];
    }
}

/* The k-th lowest set bit (k = 0 is the lowest), or -1. */
static FORCE_INLINE int bits_nth(const uint64_t *w, int nw, int k)
{
    int j;
    for (j = 0; j < nw; j++) {
        int c = popcount64(w[j]);
        if (k < c)
            return (j << 6) + select64(w[j], k);
        k -= c;
    }
    return -1;
}

/* The lowest set bit at or after `from`, else the lowest (a round-robin
 * pointer's pick), or -1.  On one word it is one ctz: of the bits at or
 * above `from` when there are any, else of them all. */
static FORCE_INLINE int bits_wrap(const uint64_t *w, int nw, int from)
{
    int i;
    if (nw == 1) {
        uint64_t x = w[0], hi = x & (~UINT64_C(0) << from);
        return x ? ctz64(hi ? hi : x) : -1;
    }
    i = bits_from(w, nw, from);
    return i >= 0 ? i : bits_from(w, nw, 0);
}

/* The number of set bits in an nw-word bitset. */
static FORCE_INLINE int bits_count(const uint64_t *w, int nw)
{
    int j, c = 0;
    for (j = 0; j < nw; j++)
        c += popcount64(w[j]);
    return c;
}

#define BIT_SET(w, b) ((w)[(b) >> 6] |= UINT64_C(1) << ((b) & 63))
#define BIT_CLEAR(w, b) ((w)[(b) >> 6] &= ~(UINT64_C(1) << ((b) & 63)))

/* crit heap entries: (entered << 16) | queue keeps tuple ordering for
 * entered < 2^46 and queue < 2^16 — entered is a slot number, bounded by
 * the horizon, and ties break on the queue index exactly like the python
 * (entered, queue) tuples. */
#define CRIT_KEY(entered, q) (((int64_t)(entered) << 16) | (int64_t)(q))
#define CRIT_ENTERED(k) ((k) >> 16)
#define CRIT_QUEUE(k) ((int)((k) & 0xffff))

/* Largest num_queues the kernel accepts: every queue id fits CRIT_KEY. */
#define MAX_QUEUES 65536

/* "No critical entry" cache marker (python uses float inf). */
#define CRIT_INF INT64_MAX

/* "No pending landing" sentinel (compares greater than any slot). */
#define NEVER (INT64_C(1) << 62)

/* ------------------------------------------------------------------ */
/* Kernel interface, described once                                    */
/* ------------------------------------------------------------------ */

/* Each code table and struct python shares is one list, in C's order:
 * X(name) per code, numbered from 0 (NAME_COUNT is one past the last),
 * and X(C type, name, role) per field.  It expands into its declaration
 * and into kernel_interface()'s description (the end of this file), from
 * which repro.sim.kernel builds its side at load, checking every offset
 * and size: a new field is one line in its list, plus its uses.  Roles:
 *   in     set per call by the marshal
 *   conf   read from the core's attribute of that name (None = -1)
 *   core   the core's attribute of that name, read and, after a span that
 *          succeeds, written back (a pointer: a copy of its array('q'))
 *   inout  in/out state that is not a core attribute
 *   out    results and the abort record
 *   base   the shared struct an entry's own extends (k) */
#define CODE_ENUM(name) name,
#define DECLARE(type, name, role) type name;

/* Error codes.  A span entry that stops early reports the slot and up to
 * three integers with its code (kcfg.err_*), and python raises the
 * reference engine's exception from them. */
#define ERR_CODES(X) \
    X(ERR_OK) X(ERR_OOM) \
    X(ERR_ARG)          /* bad shape or state */ \
    X(ERR_PLAN)         /* an arrival naming no queue (fabric: no egress) */ \
    X(ERR_STATE)        /* fabric: an empty VOQ matched, or a flush slot \
                           matched none */ \
    X(ERR_OVERFLOW)     /* err: structure (OV_*), capacity, occupancy */ \
    X(ERR_MISS)         /* a strict head miss; err: queue */ \
    X(ERR_CONFLICT)     /* a strict bank conflict; err: bank, busy until */ \
    X(ERR_BUS)          /* an address-bus violation; err: the last issue \
                           slot, the bus slots */ \
    X(ERR_ARBITER)      /* a trace arbiter entry naming no queue */
enum { ERR_CODES(CODE_ENUM) ERR_COUNT };

/* The structures an ERR_OVERFLOW names. */
#define OV_CODES(X) X(OV_SRAM) X(OV_TAIL) X(OV_DRAM) X(OV_RR)
enum { OV_CODES(CODE_ENUM) OV_COUNT };

/* The arbiters a span runs (kcfg.arb_mode; a drain window runs none),
 * each over exactly num_queues; an IntermittentArbiter runs its inner
 * arbiter's mode behind the on/off gate (kcfg.gate_*). */
#define ARB_CODES(X) \
    X(ARB_NONE) \
    X(ARB_RANDOM)       /* RandomArbiter */ \
    X(ARB_LONGEST)      /* LongestQueueArbiter */ \
    X(ARB_OLDEST)       /* OldestCellArbiter; arb_s0 = _rotation */ \
    X(ARB_ROUND_ROBIN)  /* RoundRobinAdversary; arb_s0 = _next */ \
    X(ARB_STRIDED)      /* StridedAdversary; arb_s0 = _current, \
                           arb_s1 = _issued_in_burst */ \
    X(ARB_TRACE)        /* TraceArbiter; kptrs.arb_pattern */
enum { ARB_CODES(CODE_ENUM) ARB_COUNT };

/* The head MMA (kcfg.head_mma): ECQF without or with its most-deficit
 * fallback, or MDQF. */
#define HEAD_CODES(X) X(HEAD_ECQF) X(HEAD_ECQF_FALLBACK) X(HEAD_MDQF)
enum { HEAD_CODES(CODE_ENUM) HEAD_COUNT };

/* Where a main window's arrivals come from (kcfg.plan_mode): kptrs.plan,
 * drawn here (BernoulliArrivals' batch draw), or none. */
#define PLAN_CODES(X) X(PLAN_EXPLICIT) X(PLAN_BERNOULLI) X(PLAN_NONE)
enum { PLAN_CODES(CODE_ENUM) PLAN_COUNT };

/* kcfg's fields the machine holds under the same name and type: its
 * configuration, which mach_open copies in, the scalars both entries carry
 * from span to span, in and back (mach_close), and the counts, out. */
#define MACH_CONFIG(X) \
    X(int64_t, tail_cap, conf) X(int64_t, dram_cap, conf) /* -1: no cap */ \
    X(int64_t, sram_cap, conf) X(int64_t, start_slot, in) \
    X(int64_t, arb_tint, in)        /* ceil(arbiter.load * 2**53) */ \
    X(int64_t, bern_tint, in)       /* ceil(arrivals.load * 2**53) */ \
    X(int64_t, arb_stride, in)      /* ARB_STRIDED: stride % num_queues */ \
    X(int64_t, arb_burst, in)       /* ARB_STRIDED: burst */ \
    X(int64_t, gate_on, in)         /* IntermittentArbiter: on_slots */ \
    X(int64_t, gate_period, in)     /* on + off slots; 0 = no gate */ \
    X(double, bern_total, in)       /* cum_weights[-1] + 0.0 */
#define MACH_STATE(X) \
    X(int64_t, arb_s0, inout) X(int64_t, arb_s1, inout) /* ARB_* state */ \
    X(int64_t, tail_total, core) X(int64_t, dram_total, core) \
    X(int64_t, sram_total, core) X(int64_t, negatives, core) \
    X(int64_t, cells_in, core) X(int64_t, cells_out, core) \
    X(int64_t, dram_reads, core) X(int64_t, dram_writes, core) \
    X(int64_t, dropped, core) X(int64_t, max_tail, core) \
    X(int64_t, max_head, core)
#define MACH_COUNTS(X) \
    X(int64_t, n_delays, out) X(int64_t, n_tail_miss, out) \
    X(int64_t, arrivals_seen, out) X(int64_t, grants, out)

#define KCFG_FIELDS(X) \
    X(int64_t, num_queues, conf) X(int64_t, granularity, conf) \
    X(int64_t, strict, conf) X(int64_t, la_len, conf) \
    X(int64_t, num_slots, in) X(int64_t, is_main, in) \
    X(int64_t, arb_mode, in) X(int64_t, plan_mode, in) /* ARB_*, PLAN_* */ \
    X(int64_t, head_mma, in)        /* HEAD_* */ \
    X(int64_t, traced, in)          /* 1: return each main slot's row */ \
    MACH_CONFIG(X) \
    X(int64_t, state_len, inout)    /* image elements */ \
    MACH_STATE(X) \
    X(int64_t, la_pos, core) X(int64_t, crit_len, core) \
    X(int64_t, pending_len, core)   /* RADS: blocks in flight; CFDS: 0 */ \
    MACH_COUNTS(X) \
    X(int64_t, n_delay_pairs, out) X(int64_t, n_head_miss, out) \
    X(int64_t, n_drained, out) X(int64_t, result_len, out) \
    X(int64_t, err_slot, out)       /* the abort record */ \
    X(int64_t, err_a, out) X(int64_t, err_b, out) X(int64_t, err_c, out)
typedef struct { KCFG_FIELDS(DECLARE) } kcfg;

/* The variable-length state image (kptrs.state, read-only) and the head
 * of the result share one layout, queue by queue within each part:
 *
 *   sram_cnt[nq] arr_cnt[nq]
 *   tail cells (tail_occ[q] each)   dram cells (dram_occ[q] each)
 *   sram heaps (sram_cnt[q] each)   request entry slots (req_count[q] each)
 *   arrival slots (arr_cnt[q] each) crit heap keys (crit_len)
 *
 * Each entry's own state follows (above rads_run_span and cptrs).  The
 * result then appends the outcome: the main window's delays folded into
 * n_delay_pairs (delay, count) pairs in ascending delay order,
 * n_head_miss (queue, slot) pairs, n_drained arrival slots and, for a
 * traced main window, each slot's (arrival, request), -1 = none.  The
 * core's arrays, which mach_open hands the machine, are int64[num_queues]
 * but la_ring (la_len, -1 = empty). */
#define MACH_ARRAYS(X) \
    X(int64_t *, backlog, core) X(int64_t *, next_seqno, core) \
    X(int64_t *, delivered, core) X(int64_t *, counters, core) \
    X(int64_t *, req_count, core) X(int64_t *, tail_occ, core) \
    X(int64_t *, dram_occ, core) X(int64_t *, crit_cache, core) \
    X(int64_t *, la_ring, core)
#define KPTRS_FIELDS(X) \
    X(uint32_t *, arb_key, in)      /* in/out (ARB_RANDOM): 624 words */ \
    X(int64_t *, arb_meta, in)      /* in/out: [pos] */ \
    X(uint32_t *, bern_key, in)     /* in/out (PLAN_BERNOULLI) */ \
    X(int64_t *, bern_meta, in) \
    X(const double *, cum_weights, in)  /* len num_queues (PLAN_BERNOULLI) */ \
    X(const int32_t *, plan, in)    /* len num_slots (PLAN_EXPLICIT), \
                                       -1 = none */ \
    X(const int32_t *, arb_pattern, in) /* len num_slots (ARB_TRACE): -1 = \
                                           none, below -1 = no queue */ \
    MACH_ARRAYS(X) \
    X(const int64_t *, state, in)   /* the state image, state_len */ \
    X(int64_t *, result, out)       /* kernel-owned, result_len */
typedef struct { KPTRS_FIELDS(DECLARE) } kptrs;

/* Resume a generator from its 624-word key and meta = [pos], nothing
 * buffered and nothing tempered: ERR_ARG unless 0 <= pos <= MT_N (the
 * first refill reads key[pos]). */
static int64_t mt_load(mt_state *mt, const uint32_t *key, const int64_t *meta)
{
    if (!key || !meta || meta[0] < 0 || meta[0] > MT_N)
        return ERR_ARG;
    memcpy(mt->key, key, sizeof(mt->key));
    mt->pos = mt->base = mt->end = (int)meta[0];
    return ERR_OK;
}

/* The generator's key and [pos], for python's setstate(). */
static void mt_store(const mt_state *mt, uint32_t *key, int64_t *meta)
{
    memcpy(key, mt->key, sizeof(mt->key));
    meta[0] = mt->pos;
}

typedef struct {
    ivec tail, dram, req, arr;      /* FIFOs by cursor */
    ivec sram;                      /* ascending seqnos, read by cursor */
} qstate;

/* Delay histogram of the main window, indexed by delay: cap bins, the
 * first 1024 allocated at the first delay, doubled past it. */
typedef struct {
    int64_t *count;
    int64_t cap;
} hist;

/* Grow h past delay and count it; ERR_ARG for a negative delay. */
static COLD int64_t hist_grow(hist *h, int64_t delay)
{
    int64_t ncap = h->cap > 0 ? h->cap * 2 : 1024;
    int64_t *nb;
    if (delay < 0)
        return ERR_ARG;
    while (ncap <= delay)
        ncap *= 2;
    nb = (int64_t *)realloc(h->count, (size_t)ncap * sizeof(int64_t));
    if (!nb)
        return ERR_OOM;
    memset(nb + h->cap, 0, (size_t)(ncap - h->cap) * sizeof(int64_t));
    h->count = nb;
    h->cap = ncap;
    h->count[delay]++;
    return ERR_OK;
}

/* Count one delay: a negative delay compares unsigned past every bin, so
 * it too takes the slow path, which rejects it. */
static FORCE_INLINE int64_t hist_add(hist *h, int64_t delay)
{
    if ((uint64_t)delay >= (uint64_t)h->cap)
        return hist_grow(h, delay);
    h->count[delay]++;
    return ERR_OK;
}

/* Sequential reader over the state image: every take is bounds-checked,
 * so counts that disagree with the image abort with ERR_ARG. */
typedef struct {
    const int64_t *at;
    int64_t left;
} reader;

static const int64_t *take(reader *r, int64_t n)
{
    const int64_t *at = r->at;
    if (n < 0 || n > r->left)
        return NULL;
    r->at += n;
    r->left -= n;
    return at;
}

/* Fill v with the next n image elements (ERR_ARG / ERR_OOM on failure). */
static int64_t iv_load(ivec *v, reader *r, int64_t n)
{
    const int64_t *src = take(r, n);
    if (!src)
        return ERR_ARG;
    return iv_append(v, src, n) ? ERR_OK : ERR_OOM;
}

static int64_t *put(int64_t *w, const ivec *v)
{
    int64_t n = IV_COUNT(v);
    if (n)
        memcpy(w, v->buf + v->head, (size_t)n * sizeof(int64_t));
    return w + n;
}

/* Nonzero bins of h: the (delay, count) pairs put_hist writes. */
static int64_t hist_pairs(const hist *h)
{
    int64_t d, n = 0;
    for (d = 0; d < h->cap; d++)
        if (h->count[d])
            n++;
    return n;
}

/* h's (delay, count) pairs, in ascending delay order. */
static int64_t *put_hist(int64_t *w, const hist *h)
{
    int64_t d;
    for (d = 0; d < h->cap; d++)
        if (h->count[d]) {
            *w++ = d;
            *w++ = h->count[d];
        }
    return w;
}

/* 32 - bit_length(m) for m = 0..n, the mt_randbelow shift (NULL on OOM):
 * the bit length grows by one exactly when m reaches the next power of
 * two. */
static int *randbelow_shifts(int n)
{
    int *shift = (int *)malloc((size_t)(n + 1) * sizeof(int));
    int m, bits = 0;
    if (!shift)
        return NULL;
    shift[0] = 32;
    for (m = 1; m <= n; m++) {
        if (m >> bits)
            bits++;
        shift[m] = 32 - bits;
    }
    return shift;
}

/* bisect_right(a, x, lo, hi): the first index in [lo, hi) whose element
 * exceeds x, else hi, by python's own probe sequence. */
static inline int upper_bound_d(const double *a, int lo, int hi, double x)
{
    while (lo < hi) {
        int mid = (lo + hi) >> 1;
        if (x < a[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* Where choices() searches: the random() numerator comb (53 bits) scaled
 * to the weight total, as python computes it. */
#define DRAW_X(comb, total) \
    ((double)(comb) * (1.0 / 9007199254740992.0) * (total))

/* The guide of a draw over n cumulative weights: 2^bits buckets of the
 * 53-bit numerator (2^bits the smallest power of two >= n), guide[j] the
 * search's result at comb = j << (53 - bits), guide[2^bits] = n - 1.  The
 * result at any comb of bucket j lies in [guide[j], guide[j + 1]]: comb
 * -> x rounds monotonically when the total is finite and not negative,
 * and the search's result is monotone in x when the weights are finite
 * and non-decreasing.  Otherwise (a weight made negative after the
 * process was built) no guide holds and every draw searches the whole
 * range, on python's probe sequence. */
static int guide_bits(int n)
{
    int k = 0;
    while ((1 << k) < n)
        k++;
    return k;
}

static int guide_holds(const double *cum, int n, double total)
{
    int i;
    if (!(total >= 0.0 && total - total == 0.0))
        return 0;
    for (i = 0; i < n; i++)
        if (!(cum[i] - cum[i] == 0.0 && (i == 0 || cum[i - 1] <= cum[i])))
            return 0;
    return 1;
}

/* Fill guide[0 .. 2^bits] (guide_holds) in one merge walk. */
static void guide_fill(int *guide, const double *cum, int n, double total,
                       int bits)
{
    int i, j;
    for (i = j = 0; j < 1 << bits; j++) {
        double x = DRAW_X((int64_t)j << (53 - bits), total);
        while (i < n - 1 && !(x < cum[i]))
            i++;
        guide[j] = i;
    }
    guide[1 << bits] = n - 1;
}

/* A span's guide: NULL (and *err untouched) when none holds, *err =
 * ERR_OOM when it cannot be allocated. */
static int *draw_guide(const double *cum, int n, double total, int *bits,
                       int64_t *err)
{
    int *guide;
    if (!guide_holds(cum, n, total))
        return NULL;
    *bits = guide_bits(n);
    guide = (int *)malloc((((size_t)1 << *bits) + 1) * sizeof(int));
    if (!guide)
        *err = ERR_OOM;
    else
        guide_fill(guide, cum, n, total, *bits);
    return guide;
}

/* One slot of BernoulliArrivals' batch draw over n destinations: the
 * load gate random() < load (tint = ceil(load * 2**53)), then choices()
 * over the cumulative weights, within the comb's bucket when a guide is
 * given (draw_guide); -1 = no arrival.  The span entries draw a queue
 * with it, the fabric entry each ingress's egress. */
static inline int bern_draw(mt_state *mt, int64_t tint, const double *cum,
                            int n, double total, const int *guide, int bits)
{
    int64_t comb;
    if (mt_comb53(mt) >= tint)
        return -1;
    comb = mt_comb53(mt);
    if (guide) {
        guide += comb >> (53 - bits);
        return upper_bound_d(cum, guide[0], guide[1], DRAW_X(comb, total));
    }
    return upper_bound_d(cum, 0, n - 1, DRAW_X(comb, total));
}

void rads_free_result(int64_t *result)
{
    free(result);
}

/* ------------------------------------------------------------------ */
/* The SRAM/MMA half both span entries share                           */
/* ------------------------------------------------------------------ */

/* One span's machine: what RADS and CFDS have in common -- arrival with
 * cut-through, the threshold tail MMA, the lookahead, the head MMA,
 * in-order service, the arbiter and the arrival plan.  Each entry's slot
 * loop calls the helpers below and keeps only its own DRAM side inline. */
typedef struct {
    /* configuration */
    int nq, g, strict, la_len, is_main, arb_mode, plan_mode, head_mma;
    int traced;
    MACH_CONFIG(DECLARE)
    const int32_t *plan, *pattern;
    const double *cum_weights;
    /* the caller's fixed-shape arrays, updated in place */
    MACH_ARRAYS(DECLARE)
    /* kernel-owned state */
    qstate *qs;
    ivec crit, misses, drained, events;
    hist delays;
    int *rb_shift;                  /* 32 - bit_length(m), m = 0..nq */
    uint64_t *elig;                 /* ARB_RANDOM: backlogged queues */
    int *guide;                     /* PLAN_BERNOULLI: draw_guide's, or
                                       NULL */
    mt_state arb, bern;
    /* machine scalars */
    MACH_STATE(DECLARE)
    MACH_COUNTS(DECLARE)
    int64_t slot, err[3];           /* the current slot; an abort's record */
    int la_pos, elig_nw, elig_len, guide_bits, big_cnt, pc;
} machine;

/* Stop the span with `code` and up to three integers for python's
 * exception (the slot is m->slot). */
static int64_t mach_fail(machine *m, int64_t code, int64_t a, int64_t b,
                         int64_t c)
{
    m->err[0] = a;
    m->err[1] = b;
    m->err[2] = c;
    return code;
}

/* The abort record of a span that stopped with `err`. */
static void mach_record(const machine *m, kcfg *c)
{
    c->err_slot = m->slot;
    c->err_a = m->err[0];
    c->err_b = m->err[1];
    c->err_c = m->err[2];
}

/* The copies between kcfg or kptrs and the machine's fields of the same
 * name (MACH_* lists). */
#define FROM_CFG(type, name, role) m->name = c->name;
#define FROM_PTRS(type, name, role) m->name = p->name;
#define TO_CFG(type, name, role) c->name = m->name;

/* Set m (zeroed by the caller; mach_free releases it whatever this
 * returns) up from c and p: check the shared inputs and every id that
 * indexes per-queue state, resume the arbiter's and the Bernoulli plan's
 * generators, derive the random arbiter's set of backlogged queues from
 * the backlog and the Bernoulli plan's guide from its weights, and load
 * the image head (layout above kptrs) — per-queue tail, DRAM, SRAM,
 * request and arrival contents, then the critical heap, whose keys must
 * name queues — leaving r at the entry's own part.  Each head SRAM is
 * loaded cell by cell into ascending order, so an image of the kernel
 * that kept each as a heap loads too. */
static int64_t mach_open(machine *m, const kcfg *c, const kptrs *p,
                         reader *r)
{
    const int64_t *sram_cnt, *arr_cnt;
    int64_t err = ERR_OK;
    int i, nq;
    m->nq = nq = (int)c->num_queues;
    m->g = (int)c->granularity;
    m->la_len = (int)c->la_len;
    m->slot = c->start_slot;
    if (nq < 1 || nq > MAX_QUEUES || m->g < 1 || m->la_len < 1
            || c->la_pos < 0 || c->la_pos >= m->la_len
            || c->arb_mode < 0 || c->arb_mode >= ARB_COUNT
            || c->plan_mode < 0 || c->plan_mode >= PLAN_COUNT
            || c->head_mma < 0 || c->head_mma >= HEAD_COUNT
            || c->gate_period < 0
            || (c->gate_period && c->gate_on < 1)
            || c->num_slots < 0 || c->start_slot < 0)
        return ERR_ARG;
    m->strict = (int)c->strict;
    m->is_main = (int)c->is_main;
    m->arb_mode = m->is_main ? (int)c->arb_mode : ARB_NONE;
    m->plan_mode = m->is_main ? (int)c->plan_mode : PLAN_NONE;
    m->head_mma = (int)c->head_mma;
    m->traced = m->is_main && c->traced;
    MACH_CONFIG(FROM_CFG)
    MACH_STATE(FROM_CFG)
    MACH_ARRAYS(FROM_PTRS)
    m->plan = p->plan;
    m->pattern = p->arb_pattern;
    m->cum_weights = p->cum_weights;
    m->la_pos = (int)c->la_pos;
    if ((m->plan_mode == PLAN_EXPLICIT && !m->plan)
            || (m->plan_mode == PLAN_BERNOULLI && !m->cum_weights)
            || (m->arb_mode == ARB_TRACE && !m->pattern)
            || ((m->arb_mode == ARB_OLDEST || m->arb_mode == ARB_ROUND_ROBIN
                 || m->arb_mode == ARB_STRIDED)
                && (m->arb_s0 < 0 || m->arb_s0 >= nq))
            || (m->arb_mode == ARB_STRIDED
                && (m->arb_s1 < 0 || m->arb_stride < 0
                    || m->arb_stride >= nq || m->arb_burst < 1)))
        return ERR_ARG;
    for (i = 0; i < m->la_len; i++)
        if (m->la_ring[i] < -1 || m->la_ring[i] >= nq)
            err = ERR_ARG;
    if (err == ERR_OK && m->arb_mode == ARB_RANDOM)
        err = mt_load(&m->arb, p->arb_key, p->arb_meta);
    if (err == ERR_OK && m->plan_mode == PLAN_BERNOULLI) {
        err = mt_load(&m->bern, p->bern_key, p->bern_meta);
        if (err == ERR_OK)
            m->guide = draw_guide(m->cum_weights, nq, m->bern_total,
                                  &m->guide_bits, &err);
    }
    if (err != ERR_OK)
        return err;
    m->rb_shift = randbelow_shifts(nq);
    m->qs = (qstate *)calloc((size_t)nq, sizeof(qstate));
    if (!m->rb_shift || !m->qs)
        return ERR_OOM;
    if (m->arb_mode == ARB_RANDOM) {
        m->elig_nw = (nq + 63) / 64;
        m->elig = (uint64_t *)calloc((size_t)m->elig_nw, sizeof(uint64_t));
        if (!m->elig)
            return ERR_OOM;
        for (i = 0; i < nq; i++)
            if (m->backlog[i] > 0) {
                BIT_SET(m->elig, i);
                m->elig_len++;
            }
    }
    for (i = 0; i < nq; i++)
        if (m->tail_occ[i] >= m->g)
            m->big_cnt++;
    m->pc = (m->g - (int)(m->start_slot % m->g)) % m->g;

    sram_cnt = take(r, nq);
    arr_cnt = take(r, nq);
    if (!sram_cnt || !arr_cnt)
        return ERR_ARG;
    for (i = 0; i < nq && err == ERR_OK; i++)
        err = iv_load(&m->qs[i].tail, r, m->tail_occ[i]);
    for (i = 0; i < nq && err == ERR_OK; i++)
        err = iv_load(&m->qs[i].dram, r, m->dram_occ[i]);
    for (i = 0; i < nq && err == ERR_OK; i++) {
        const int64_t *cells = take(r, sram_cnt[i]);
        int64_t j;
        err = cells ? ERR_OK : ERR_ARG;
        for (j = 0; j < sram_cnt[i] && err == ERR_OK; j++)
            if (!iv_insert(&m->qs[i].sram, cells[j]))
                err = ERR_OOM;
    }
    for (i = 0; i < nq && err == ERR_OK; i++)
        err = iv_load(&m->qs[i].req, r, m->req_count[i]);
    for (i = 0; i < nq && err == ERR_OK; i++)
        err = iv_load(&m->qs[i].arr, r, arr_cnt[i]);
    if (err == ERR_OK)
        err = iv_load(&m->crit, r, c->crit_len);
    for (i = 0; i < m->crit.len && err == ERR_OK; i++)
        if (m->crit.buf[i] < 0 || CRIT_QUEUE(m->crit.buf[i]) >= nq)
            err = ERR_ARG;
    return err;
}

/* The span's one exact-size result (layout above kptrs): the image head,
 * `own` elements the entry writes at the returned address, then the main
 * window's delay pairs, the head misses and the drained slots; NULL on
 * OOM.  Writes the new image's length (head and own), the shared scalars
 * and generator states back. */
static int64_t *mach_close(machine *m, kcfg *c, kptrs *p, int64_t own)
{
    const int nq = m->nq;
    int64_t n_pairs = hist_pairs(&m->delays), *w, *at;
    int64_t size = 2 * (int64_t)nq + m->crit.len + own + 2 * n_pairs
                   + IV_COUNT(&m->misses) + IV_COUNT(&m->drained)
                   + IV_COUNT(&m->events);
    int i;
    for (i = 0; i < nq; i++)
        size += IV_COUNT(&m->qs[i].tail) + IV_COUNT(&m->qs[i].dram)
                + IV_COUNT(&m->qs[i].sram) + IV_COUNT(&m->qs[i].req)
                + IV_COUNT(&m->qs[i].arr);
    w = p->result = (int64_t *)malloc((size_t)size * sizeof(int64_t));
    if (!w)
        return NULL;
    c->result_len = size;
    for (i = 0; i < nq; i++)
        *w++ = IV_COUNT(&m->qs[i].sram);
    for (i = 0; i < nq; i++)
        *w++ = IV_COUNT(&m->qs[i].arr);
    for (i = 0; i < nq; i++)
        w = put(w, &m->qs[i].tail);
    for (i = 0; i < nq; i++)
        w = put(w, &m->qs[i].dram);
    for (i = 0; i < nq; i++)
        w = put(w, &m->qs[i].sram);
    for (i = 0; i < nq; i++)
        w = put(w, &m->qs[i].req);
    for (i = 0; i < nq; i++)
        w = put(w, &m->qs[i].arr);
    at = put(w, &m->crit);
    c->state_len = at + own - p->result;
    put(put(put(put_hist(at + own, &m->delays), &m->misses), &m->drained),
        &m->events);

    MACH_STATE(TO_CFG)
    MACH_COUNTS(TO_CFG)
    c->la_pos = m->la_pos;
    c->crit_len = m->crit.len;
    c->n_delay_pairs = n_pairs;
    c->n_head_miss = IV_COUNT(&m->misses) / 2;
    c->n_drained = IV_COUNT(&m->drained);
    /* python setstate()s these verbatim */
    if (m->arb_mode == ARB_RANDOM)
        mt_store(&m->arb, p->arb_key, p->arb_meta);
    if (m->plan_mode == PLAN_BERNOULLI)
        mt_store(&m->bern, p->bern_key, p->bern_meta);
    return at;
}

static void mach_free(machine *m)
{
    int i;
    for (i = 0; m->qs && i < m->nq; i++) {
        free(m->qs[i].tail.buf);
        free(m->qs[i].dram.buf);
        free(m->qs[i].sram.buf);
        free(m->qs[i].req.buf);
        free(m->qs[i].arr.buf);
    }
    free(m->qs);
    free(m->crit.buf);
    free(m->misses.buf);
    free(m->drained.buf);
    free(m->events.buf);
    free(m->delays.count);
    free(m->rb_shift);
    free(m->elig);
    free(m->guide);
}

/* 1 when the slot starts a period (a multiple of g), else 0. */
static inline int mach_period(machine *m)
{
    if (--m->pc >= 0)
        return 0;
    m->pc = m->g - 1;
    return 1;
}

/* The first queue with backlog from `from` on, wrapping; -1 = none. */
static inline int mach_scan(const machine *m, int64_t from)
{
    int i, q = (int)from;
    for (i = 0; i < m->nq; i++, q = q + 1 == m->nq ? 0 : q + 1)
        if (m->backlog[q] > 0)
            return q;
    return -1;
}

/* The arbiter's request at `slot` (repro.traffic.arbiters, each over
 * num_queues), -1 = none, -2 = a trace entry naming no queue.  An
 * intermittent gate idles the off phase of every on + off slots without
 * calling the inner arbiter. */
static inline int mach_arbitrate(machine *m, int64_t slot)
{
    int request = -1, i;
    if (m->gate_period && slot % m->gate_period >= m->gate_on)
        return -1;
    switch (m->arb_mode) {
    case ARB_RANDOM:
        /* the gate draw, then choice() over the backlogged queues in
         * ascending order: the k-th set bit */
        if (mt_comb53(&m->arb) < m->arb_tint && m->elig_len)
            request = bits_nth(m->elig, m->elig_nw,
                               mt_randbelow(&m->arb, m->elig_len,
                                            m->rb_shift[m->elig_len]));
        break;
    case ARB_LONGEST: {
        /* the largest backlog, lowest index on ties */
        int64_t best = 0;
        for (i = 0; i < m->nq; i++)
            if (m->backlog[i] > best) {
                best = m->backlog[i];
                request = i;
            }
        break;
    }
    case ARB_OLDEST:
        /* scan from the rotation, which advances by one per request */
        request = mach_scan(m, m->arb_s0);
        if (request >= 0)
            m->arb_s0 = m->arb_s0 + 1 == m->nq ? 0 : m->arb_s0 + 1;
        break;
    case ARB_ROUND_ROBIN:
        /* scan from the next queue; the one after the request is next */
        request = mach_scan(m, m->arb_s0);
        if (request >= 0)
            m->arb_s0 = request + 1 == m->nq ? 0 : request + 1;
        break;
    case ARB_STRIDED:
        /* the rest of the burst, then the stride walk's next backlogged
         * queue */
        if (m->arb_s1 < m->arb_burst && m->backlog[m->arb_s0] > 0) {
            m->arb_s1++;
            return (int)m->arb_s0;
        }
        for (i = 0; i < m->nq; i++) {
            m->arb_s0 = (m->arb_s0 + m->arb_stride) % m->nq;
            if (m->backlog[m->arb_s0] > 0) {
                m->arb_s1 = 1;
                return (int)m->arb_s0;
            }
        }
        m->arb_s1 = 0;
        break;
    case ARB_TRACE:
        /* the pattern's entry, none while its queue has no backlog */
        request = m->pattern[slot - m->start_slot];
        if (request < -1 || request >= m->nq)
            return -2;
        if (request >= 0 && m->backlog[request] <= 0)
            request = -1;
        break;
    }
    return request;
}

/* The slot's arrival queue, -1 = none, -2 = a plan entry naming no queue:
 * the explicit plan's entry, or BernoulliArrivals' gate draw and then
 * choices() over the cumulative weights. */
static inline int mach_arrival(machine *m, int64_t slot)
{
    int a = -1;
    if (m->plan_mode == PLAN_EXPLICIT) {
        a = m->plan[slot - m->start_slot];
        if (a < -1 || a >= m->nq)
            return -2;
    } else if (m->plan_mode == PLAN_BERNOULLI) {
        a = bern_draw(&m->bern, m->bern_tint, m->cum_weights, m->nq,
                      m->bern_total, m->guide, m->guide_bits);
    }
    return a;
}

/* Cells into q's head SRAM (an SRAM overflow raises always), each
 * appended and moved back past any larger seqno, so the SRAM stays
 * ascending: a cut-through cell can overtake a block in flight, and CFDS
 * blocks can land out of order. */
static inline int64_t mach_land(machine *m, int q, const int64_t *cells,
                                int64_t n)
{
    int64_t j;
    for (j = 0; j < n; j++) {
        m->sram_total++;
        if (m->sram_cap >= 0 && m->sram_total > m->sram_cap)
            return mach_fail(m, ERR_OVERFLOW, OV_SRAM, m->sram_cap,
                             m->sram_total);
        if (!iv_insert(&m->qs[q].sram, cells[j]))
            return ERR_OOM;
    }
    return ERR_OK;
}

/* The head MMA's credit for n cells fetched or cut through to q's head:
 * the counter rises, and q's critical entry moves to its (counter+1)-th
 * pending request, or to none (MDQF keeps no critical heap). */
static inline int64_t mach_credit(machine *m, int q, int64_t n)
{
    int64_t count = m->counters[q] + n;
    m->counters[q] = count;
    if (count >= 0 && count - n < 0)
        m->negatives--;
    if (count >= 0 && count < m->req_count[q]) {
        int64_t entered = m->qs[q].req.buf[m->qs[q].req.head + count];
        m->crit_cache[q] = entered;
        if (m->head_mma != HEAD_MDQF
                && !heap_push(&m->crit, CRIT_KEY(entered, q)))
            return ERR_OOM;
    } else {
        m->crit_cache[q] = CRIT_INF;
    }
    return ERR_OK;
}

/* Arrival on queue a: cut through to the head SRAM while a's whole
 * backlog is on-chip, else enqueue on the tail (a tail miss when the tail
 * SRAM is full). */
static inline int64_t mach_arrive(machine *m, int a, int64_t slot)
{
    qstate *qa = &m->qs[a];
    int64_t seqno = m->next_seqno[a]++, err;
    m->arrivals_seen++;
    if (!iv_push(&qa->arr, slot))
        return ERR_OOM;
    if (m->dram_occ[a] == 0 && m->tail_occ[a] == 0
            && IV_COUNT(&qa->sram) < m->g) {
        err = mach_land(m, a, &seqno, 1);
        return err != ERR_OK ? err : mach_credit(m, a, 1);
    }
    if (m->tail_total >= m->tail_cap) {
        m->n_tail_miss++;
        return m->strict ? mach_fail(m, ERR_OVERFLOW, OV_TAIL, m->tail_cap,
                                     m->tail_total + 1) : ERR_OK;
    }
    if (!iv_push(&qa->tail, seqno))
        return ERR_OOM;
    if (++m->tail_occ[a] == m->g)
        m->big_cnt++;
    m->tail_total++;
    m->cells_in++;
    return ERR_OK;
}

/* The threshold tail MMA's pick: the fullest queue holding at least a
 * block, lowest index on ties; -1 when none does. */
static inline int mach_tail_pick(const machine *m)
{
    int64_t best = m->g - 1;
    int i, sel = -1;
    if (!m->big_cnt)
        return -1;
    for (i = 0; i < m->nq; i++)
        if (m->tail_occ[i] > best) {
            best = m->tail_occ[i];
            sel = i;
        }
    return sel;
}

/* Up to n cells off the head of q's tail FIFO (eviction, cut-through
 * fetch, tail bypass): *got of them, at the returned address, which stays
 * valid until the FIFO's next push. */
static inline const int64_t *mach_tail_take(machine *m, int q, int64_t n,
                                            int64_t *got)
{
    ivec *t = &m->qs[q].tail;
    int64_t occ = m->tail_occ[q];
    const int64_t *cells;
    *got = n = n < IV_COUNT(t) ? n : IV_COUNT(t);
    if (!n)
        return NULL;
    cells = t->buf + t->head;
    t->head += n;
    m->tail_occ[q] = occ - n;
    m->tail_total -= n;
    if (occ >= m->g && occ - n < m->g)
        m->big_cnt--;
    return cells;
}

/* Up to n cells off the head of q's DRAM FIFO, as mach_tail_take. */
static inline const int64_t *mach_dram_take(machine *m, int q, int64_t n,
                                            int64_t *got)
{
    ivec *d = &m->qs[q].dram;
    const int64_t *cells;
    *got = n = n < IV_COUNT(d) ? n : IV_COUNT(d);
    if (!n)
        return NULL;
    cells = d->buf + d->head;
    d->head += n;
    m->dram_occ[q] -= n;
    m->dram_total -= n;
    return cells;
}

/* n evicted cells onto q's DRAM FIFO (a bounded DRAM's overflow raises at
 * the first cell past its capacity). */
static inline int64_t mach_dram_put(machine *m, int q, const int64_t *cells,
                                    int64_t n)
{
    if (m->dram_cap >= 0 && m->dram_total + n > m->dram_cap)
        return mach_fail(m, ERR_OVERFLOW, OV_DRAM, m->dram_cap,
                         (m->dram_total > m->dram_cap ? m->dram_total
                          : m->dram_cap) + 1);
    if (!iv_append(&m->qs[q].dram, cells, n))
        return ERR_OOM;
    m->dram_total += n;
    m->dram_occ[q] += n;
    return ERR_OK;
}

/* The request enters the lookahead; the one it pushes out is returned
 * (-1 = none). */
static inline int mach_shift(machine *m, int request)
{
    int leaving = (int)m->la_ring[m->la_pos];
    m->la_ring[m->la_pos] = request;
    if (++m->la_pos == m->la_len)
        m->la_pos = 0;
    return leaving;
}

/* The pending-request view for a request entering the pipeline and one
 * leaving it to be served (-1 = none): the counter and the pipeline head
 * advance together, so the critical entry moves only when a request
 * becomes it or the counter goes negative. */
static inline int64_t mach_pipeline(machine *m, int request, int leaving,
                                    int64_t slot)
{
    if (request >= 0) {
        int64_t count = m->req_count[request]++;
        if (!iv_push(&m->qs[request].req, slot))
            return ERR_OOM;
        if (m->counters[request] == count) {
            m->crit_cache[request] = slot;
            if (m->head_mma != HEAD_MDQF
                    && !heap_push(&m->crit, CRIT_KEY(slot, request)))
                return ERR_OOM;
        }
    }
    if (leaving >= 0) {
        if (--m->counters[leaving] == -1) {
            m->negatives++;
            m->crit_cache[leaving] = CRIT_INF;
        }
        m->qs[leaving].req.head++;  /* python compaction is layout-only */
        m->req_count[leaving]--;
    }
    return ERR_OK;
}

/* The head MMA's pick, -1 = none.  ECQF (repro.mma.ecqf): a negative
 * counter (lowest, then lowest index), else the earliest critical entry
 * (the queue whose (counter+1)-th pending request entered first, the top
 * of the lazy critical heap), else the most-deficit fallback.  MDQF
 * (repro.mma.mdqf): the largest pending - counter over all queues, lowest
 * index on ties, none only when that is <= 0 and nothing is pending. */
static inline int mach_select(machine *m)
{
    int i, sel = -1;
    if (m->head_mma == HEAD_MDQF) {
        int64_t best = m->req_count[0] - m->counters[0];
        int64_t demand = 0;
        sel = 0;
        for (i = 0; i < m->nq; i++) {
            int64_t deficit = m->req_count[i] - m->counters[i];
            demand |= m->req_count[i];
            if (deficit > best) {
                best = deficit;
                sel = i;
            }
        }
        return best <= 0 && !demand ? -1 : sel;
    }
    if (m->negatives) {
        int64_t best = 0;
        for (i = 0; i < m->nq; i++)
            if (m->counters[i] < 0 && (sel < 0 || m->counters[i] < best)) {
                best = m->counters[i];
                sel = i;
            }
        return sel;
    }
    while (m->crit.len) {
        int64_t top = m->crit.buf[0];
        if (m->crit_cache[CRIT_QUEUE(top)] == CRIT_ENTERED(top))
            return CRIT_QUEUE(top);
        heap_pop(&m->crit);
    }
    if (m->head_mma == HEAD_ECQF_FALLBACK) {
        int64_t best = 0;
        for (i = 0; i < m->nq; i++)
            if (m->req_count[i]) {
                int64_t deficit = m->req_count[i] - m->counters[i];
                if (sel < 0 || deficit > best) {
                    best = deficit;
                    sel = i;
                }
            }
        if (sel >= 0 && best <= 0)
            sel = -1;
    }
    return sel;
}

/* Serve q's next in-order cell: from the head SRAM, else straight from
 * the tail (the cell never left it), else a head miss. */
static inline int64_t mach_serve(machine *m, int q, int64_t slot)
{
    qstate *ql = &m->qs[q];
    int64_t expected = m->delivered[q], arrival_slot, got;
    if (IV_COUNT(&ql->sram) && ql->sram.buf[ql->sram.head] == expected) {
        ql->sram.head++;
        m->sram_total--;
    } else if (m->tail_occ[q] && ql->tail.buf[ql->tail.head] == expected) {
        mach_tail_take(m, q, 1, &got);
    } else {
        if (!iv_push(&m->misses, q) || !iv_push(&m->misses, slot))
            return ERR_OOM;
        return m->strict ? mach_fail(m, ERR_MISS, q, 0, 0) : ERR_OK;
    }
    if (!IV_COUNT(&ql->arr))
        return ERR_ARG;     /* a cell without an arrival slot */
    m->delivered[q] = expected + 1;
    m->cells_out++;
    arrival_slot = ql->arr.buf[ql->arr.head++];
    if (m->is_main) {
        m->n_delays++;
        return hist_add(&m->delays, slot + 1 - arrival_slot);
    }
    return iv_push(&m->drained, arrival_slot) ? ERR_OK : ERR_OOM;
}

/* End of slot: the head SRAM's peak, then in a main window the backlog
 * and the set of backlogged queues RandomArbiter draws from. */
static inline void mach_end_slot(machine *m, int a, int request)
{
    if (m->sram_total > m->max_head)
        m->max_head = m->sram_total;
    if (!m->is_main)
        return;
    if (a >= 0 && ++m->backlog[a] == 1 && m->elig) {
        BIT_SET(m->elig, a);
        m->elig_len++;
    }
    if (request >= 0) {
        m->grants++;
        if (--m->backlog[request] == 0 && m->elig) {
            BIT_CLEAR(m->elig, request);
            m->elig_len--;
        }
    }
}

/* The slot's request and arrival (-1 = none), recorded in a traced span,
 * and the arrival taken in; a trace entry or an arrival naming no queue
 * stops the span. */
static inline int64_t mach_intake(machine *m, int64_t slot, int *request,
                                  int *a)
{
    m->slot = slot;
    *request = mach_arbitrate(m, slot);
    *a = -1;
    if (*request < -1)
        return ERR_ARBITER;
    *a = mach_arrival(m, slot);
    if (*a < -1)
        return ERR_PLAN;
    if (m->traced && (!iv_push(&m->events, *a)
                      || !iv_push(&m->events, *request)))
        return ERR_OOM;
    return *a >= 0 ? mach_arrive(m, *a, slot) : ERR_OK;
}

/* ------------------------------------------------------------------ */
/* RADS span                                                           */
/* ------------------------------------------------------------------ */

/* The RADS DRAM side: blocks evicted into DRAM, dropping what a bounded
 * lossy DRAM has no room for, and fetched blocks pending until they land
 * g slots later.  The RADS image is kptrs.state's head (mach_open)
 * followed by the pending blocks (pending_len x: finish slot, queue, cell
 * count, cells); the result has the same layout, then the outcome. */
int64_t rads_run_span(kcfg *c, kptrs *p)
{
    machine m;
    reader r;
    ivec pend = {0};
    int64_t err, i, slot, pend_len = c->pending_len, next_land;
    memset(&m, 0, sizeof(m));
    p->result = NULL;
    if (pend_len < 0)
        return ERR_ARG;
    r.at = p->state;
    r.left = c->state_len;
    err = mach_open(&m, c, p, &r);
    for (i = 0; i < pend_len && err == ERR_OK; i++) {
        const int64_t *entry = take(&r, 3);
        if (!entry || entry[1] < 0 || entry[1] >= m.nq)
            err = ERR_ARG;
        else if (!iv_append(&pend, entry, 3))
            err = ERR_OOM;
        else
            err = iv_load(&pend, &r, entry[2]);
    }
    if (err != ERR_OK)
        goto cleanup;
    next_land = pend_len ? pend.buf[pend.head] : NEVER;

    for (slot = m.start_slot; slot < m.start_slot + c->num_slots; slot++) {
        int pol = mach_period(&m);
        int request, a, leaving, sel;
        if ((err = mach_intake(&m, slot, &request, &a)) != ERR_OK)
            goto done;

        /* -- tail MMA: evict a block; a bounded lossy DRAM keeps what
         *    fits and drops the rest -- */
        if (pol && (sel = mach_tail_pick(&m)) >= 0) {
            int64_t evicted, stored;
            /* blk stays valid: the tail FIFO is not pushed until the next
             * arrival. */
            const int64_t *blk = mach_tail_take(&m, sel, m.g, &evicted);
            stored = evicted;
            if (m.dram_cap >= 0 && !m.strict
                    && m.dram_cap - m.dram_total < stored) {
                int64_t keep = m.dram_cap - m.dram_total;
                keep = keep > 0 ? keep : 0;
                m.dropped += stored - keep;
                stored = keep;
            }
            if (stored && (err = mach_dram_put(&m, sel, blk, stored))
                          != ERR_OK)
                goto done;
            m.dram_writes++;
        }
        if (m.tail_total > m.max_tail)
            m.max_tail = m.tail_total;

        /* -- head: lookahead shift, ECQF bookkeeping, landings -- */
        leaving = mach_shift(&m, request);
        if ((err = mach_pipeline(&m, request, leaving, slot)) != ERR_OK)
            goto done;
        if (next_land <= slot) {
            while (pend_len && pend.buf[pend.head] <= slot) {
                int64_t cnt = pend.buf[pend.head + 2];
                err = mach_land(&m, (int)pend.buf[pend.head + 1],
                                pend.buf + pend.head + 3, cnt);
                if (err != ERR_OK)
                    goto done;
                pend.head += 3 + cnt;
                pend_len--;
            }
            next_land = pend_len ? pend.buf[pend.head] : NEVER;
        }

        /* -- head MMA select, then the fetch: DRAM cells first, then the
         *    cut-through rest from the tail, landing g slots from now -- */
        if (pol && (sel = mach_select(&m)) >= 0) {
            int64_t got = 0, extra = 0;
            const int64_t *cells = NULL, *rest = NULL;
            if (m.dram_occ[sel])
                cells = mach_dram_take(&m, sel, m.g, &got);
            if (got < m.g)
                rest = mach_tail_take(&m, sel, m.g - got, &extra);
            if (got + extra) {
                if (!pend_len)
                    next_land = slot + m.g;
                if (!iv_push(&pend, slot + m.g) || !iv_push(&pend, sel)
                        || !iv_push(&pend, got + extra)
                        || !iv_append(&pend, cells, got)
                        || !iv_append(&pend, rest, extra)) {
                    err = ERR_OOM;
                    goto done;
                }
                pend_len++;
                m.dram_reads++;
                if ((err = mach_credit(&m, sel, got + extra)) != ERR_OK)
                    goto done;
            }
        }

        if (leaving >= 0 && (err = mach_serve(&m, leaving, slot)) != ERR_OK)
            goto done;
        mach_end_slot(&m, a, request);
    }

done:
    if (err == ERR_OK) {
        int64_t *w = mach_close(&m, c, p, IV_COUNT(&pend));
        if (w) {
            put(w, &pend);
            c->pending_len = pend_len;
        } else {
            err = ERR_OOM;
        }
    }

cleanup:
    if (err != ERR_OK)
        mach_record(&m, c);
    mach_free(&m);
    free(pend.buf);
    return err;
}

/* ------------------------------------------------------------------ */
/* CFDS span                                                           */
/* ------------------------------------------------------------------ */

/* "No issue yet" marker of last_issue (python None). */
#define NO_SLOT INT64_MIN

#define CCFG_FIELDS(X) \
    X(kcfg, k, base)                /* pending_len 0 */ \
    X(int64_t, lat_len, conf) X(int64_t, rr_cap, conf) /* -1: unbounded */ \
    X(int64_t, issues, conf) X(int64_t, ras, conf) \
    X(int64_t, bus_slots, conf) X(int64_t, dram_strict, conf) \
    X(int64_t, num_banks, conf) X(int64_t, num_groups, conf) \
    X(int64_t, banks_per_group, conf) X(int64_t, num_physical, conf) \
    X(int64_t, renaming, conf)      /* 1: renaming registers, free names */ \
    X(int64_t, group_cap, conf)     /* -1 = unbounded */ \
    X(int64_t, orr_len, conf) \
    X(int64_t, lat_pos, core) X(int64_t, orr_pos, core) \
    X(int64_t, rr_peak, core) X(int64_t, conflicts, core) \
    X(int64_t, last_issue, core)    /* NO_SLOT = none */ \
    X(int64_t, flight_next, core)   /* CRIT_INF = none in flight */ \
    X(int64_t, max_delay, core)
typedef struct { CCFG_FIELDS(DECLARE) } ccfg;

/* The CFDS state image is kptrs.state's head (mach_open) followed by
 *
 *   Requests Register: count, then per entry bank, issue slot, landing
 *     queue, cell count (-1 = a write) and the cells
 *   transfers in flight, in issue order: count, then per transfer its
 *     finish slot and the entry as above
 *   ORR ring (orr_len slots): bank count, banks
 *   renaming registers (renaming only): per logical queue the entry count,
 *     then (physical, cells) pairs oldest first
 *   free names (renaming only): per group the count, then the stack
 *   block locations: per logical queue the count, then (physical, index)
 *     pairs oldest first
 *
 * The result has the same layout, then the outcome. */
#define CPTRS_FIELDS(X) \
    X(kptrs, k, base) \
    X(int64_t *, lat_ring, core)    /* len lat_len, -1 = empty */ \
    X(int64_t *, locks, core) X(int64_t *, busy_until, core) /* num_banks */ \
    X(int64_t *, group_occ, core)   /* num_groups */ \
    X(int64_t *, in_use, core) X(int64_t *, write_count, core) /* physical */
typedef struct { CPTRS_FIELDS(DECLARE) } cptrs;

/* Requests Register entries live in one record pool: finish slot, bank,
 * issue slot, landing queue, cell count (-1 = a write), then up to g
 * cells.  An entry sits in the Requests Register or in flight, by id. */
#define R_FINISH 0
#define R_BANK 1
#define R_ISSUED 2
#define R_QUEUE 3
#define R_COUNT 4
#define R_CELLS 5

typedef struct {
    ivec recs;              /* stride R_CELLS + g */
    ivec spare;             /* ids of released records */
    int64_t stride;
} rpool;

/* A record id for a new entry, or -1 on OOM. */
static int64_t rec_new(rpool *pool)
{
    int64_t id;
    if (pool->spare.len)
        return pool->spare.buf[--pool->spare.len];
    if (!iv_reserve(&pool->recs, pool->stride))
        return -1;
    id = pool->recs.len / pool->stride;
    pool->recs.len += pool->stride;
    return id;
}

#define REC(pool, id) ((pool)->recs.buf + (id) * (pool)->stride)

/* Read one entry (bank, issue slot, landing queue, count, cells) from the
 * image into a new record; ERR_ARG unless it names a bank and a queue and
 * holds at most g cells. */
static int64_t rec_load(rpool *pool, reader *r, int64_t finish, int nq,
                        int64_t num_banks, int g, int64_t *id_out)
{
    const int64_t *head = take(r, 4), *cells;
    int64_t id, n, *rec;
    if (!head || head[0] < 0 || head[0] >= num_banks || head[2] < -1
            || head[2] >= nq || head[3] < -1 || head[3] > g
            || (head[3] < 0) != (head[2] < 0))
        return ERR_ARG;
    n = head[3] > 0 ? head[3] : 0;
    cells = take(r, n);
    if (!cells)
        return ERR_ARG;
    id = rec_new(pool);
    if (id < 0)
        return ERR_OOM;
    rec = REC(pool, id);
    rec[R_FINISH] = finish;
    memcpy(rec + R_BANK, head, 4 * sizeof(int64_t));
    if (n)
        memcpy(rec + R_CELLS, cells, (size_t)n * sizeof(int64_t));
    *id_out = id;
    return ERR_OK;
}

static int64_t *rec_put(int64_t *w, rpool *pool, int64_t id, int finish)
{
    const int64_t *rec = REC(pool, id);
    int64_t n = rec[R_COUNT] > 0 ? rec[R_COUNT] : 0;
    if (finish)
        *w++ = rec[R_FINISH];
    memcpy(w, rec + R_BANK, (size_t)(4 + n) * sizeof(int64_t));
    return w + 4 + n;
}

/* A new Requests Register entry: a read of n cells landing on `queue`,
 * or a write (queue -1, n -1, no cells); a full register raises. */
static int64_t rr_push(machine *m, rpool *pool, ivec *rr, const ccfg *cc,
                       int64_t *rr_peak, int64_t bank, int64_t slot,
                       int64_t queue, const int64_t *cells, int64_t n)
{
    int64_t id, *rec;
    if (cc->rr_cap >= 0 && rr->len >= cc->rr_cap)
        return mach_fail(m, ERR_OVERFLOW, OV_RR, cc->rr_cap, rr->len + 1);
    id = rec_new(pool);
    if (id < 0 || !iv_push(rr, id))
        return ERR_OOM;
    rec = REC(pool, id);
    rec[R_BANK] = bank;
    rec[R_ISSUED] = slot;
    rec[R_QUEUE] = queue;
    rec[R_COUNT] = n;
    if (n > 0)
        memcpy(rec + R_CELLS, cells, (size_t)n * sizeof(int64_t));
    if (rr->len > *rr_peak)
        *rr_peak = rr->len;
    return ERR_OK;
}

/* Load a count and that many (name, n) pairs into v: a name below hi,
 * n not negative. */
static int64_t pairs_load(ivec *v, reader *r, int64_t hi)
{
    const int64_t *cnt = take(r, 1);
    int64_t j, err;
    if (!cnt || *cnt < 0 || *cnt > r->left / 2)
        return ERR_ARG;
    err = iv_load(v, r, 2 * *cnt);
    for (j = v->head; j < v->len && err == ERR_OK; j += 2)
        if (v->buf[j] < 0 || v->buf[j] >= hi || v->buf[j + 1] < 0)
            err = ERR_ARG;
    return err;
}

/* The free physical name RenamingTable._allocate_physical picks: from
 * the group with the fewest cells among those with a free name and room
 * for `cells`, ties to the lowest group; -1 when there is none. */
static int64_t allocate_name(ivec *free_names, int64_t num_groups,
                             const int64_t *group_occ, int64_t group_cap,
                             int64_t cells)
{
    int64_t grp, best = -1, best_occ = 0;
    for (grp = 0; grp < num_groups; grp++)
        if (free_names[grp].len) {
            int64_t occ = group_occ[grp];
            if ((group_cap < 0 || group_cap - occ >= cells)
                    && (best < 0 || occ < best_occ)) {
                best = grp;
                best_occ = occ;
            }
        }
    if (best < 0)
        return -1;
    return free_names[best].buf[--free_names[best].len];
}

/* The CFDS DRAM side: eviction through renaming (or static group
 * placement) into DRAM and the Requests Register, the latency register
 * between the lookahead and service, the fetch into the Requests Register
 * (or, with nothing in DRAM, cut-through from the tail straight into the
 * head SRAM), and the DRAM Scheduler Subsystem's tick. */
int64_t cfds_run_span(ccfg *cc, cptrs *cp)
{
    kcfg *c = &cc->k;
    kptrs *p = &cp->k;
    const int lat_len = (int)cc->lat_len;
    const int64_t issues = cc->issues, ras = cc->ras;
    const int64_t num_banks = cc->num_banks;
    const int64_t ngroups = cc->num_groups, bpg = cc->banks_per_group;
    const int64_t nphys = cc->num_physical;
    const int renaming = (int)cc->renaming;
    const int64_t group_cap = cc->group_cap;
    const int64_t orr_len = cc->orr_len;
    int64_t *locks = cp->locks, *busy_until = cp->busy_until;
    int64_t *group_occ = cp->group_occ;
    int64_t *in_use = cp->in_use, *write_count = cp->write_count;
    int64_t err = ERR_OK;
    int64_t i, j;
    machine m;
    reader r;
    ivec rr = {0}, flight = {0}, landed = {0};
    ivec *names = NULL, *free_names = NULL, *locs = NULL;
    int64_t *orr_cnt = NULL, *orr_banks = NULL, *issued = NULL;
    rpool pool;
    memset(&m, 0, sizeof(m));
    memset(&pool, 0, sizeof(pool));
    p->result = NULL;
    if (lat_len < 0 || (lat_len && (cc->lat_pos < 0 || cc->lat_pos >= lat_len))
            || c->pending_len != 0
            || issues < 1 || num_banks < 1 || ngroups < 1 || bpg < 1
            || ngroups * bpg > num_banks || nphys < c->num_queues
            || orr_len < 0
            || (orr_len && (cc->orr_pos < 0 || cc->orr_pos >= orr_len)))
        return ERR_ARG;
    r.at = p->state;
    r.left = c->state_len;
    err = mach_open(&m, c, p, &r);
    if (err != ERR_OK)
        goto cleanup;
    pool.stride = R_CELLS + m.g;
    locs = (ivec *)calloc((size_t)m.nq, sizeof(ivec));
    issued = (int64_t *)malloc((size_t)issues * sizeof(int64_t));
    orr_cnt = (int64_t *)calloc((size_t)(orr_len + 1), sizeof(int64_t));
    orr_banks = (int64_t *)malloc((size_t)(orr_len * issues + 1)
                                  * sizeof(int64_t));
    if (renaming) {
        names = (ivec *)calloc((size_t)m.nq, sizeof(ivec));
        free_names = (ivec *)calloc((size_t)ngroups, sizeof(ivec));
    }
    if (!locs || !issued || !orr_cnt || !orr_banks
            || (renaming && (!names || !free_names))) {
        err = ERR_OOM;
        goto cleanup;
    }

    /* Every id that indexes per-queue or per-name state must name one. */
    for (i = 0; i < lat_len; i++)
        if (cp->lat_ring[i] < -1 || cp->lat_ring[i] >= m.nq)
            err = ERR_ARG;
    for (i = 0; i < nphys; i++)
        if (write_count[i] < 0)
            err = ERR_ARG;
    if (err != ERR_OK)
        goto cleanup;

    /* ---- the CFDS part of the image ---- */
    {
        const int64_t *cnt = take(&r, 1);
        int64_t id;
        if (!cnt || *cnt < 0 || *cnt > r.left / 4) {
            err = ERR_ARG;
            goto cleanup;
        }
        for (j = *cnt; j > 0 && err == ERR_OK; j--) {
            err = rec_load(&pool, &r, 0, m.nq, num_banks, m.g, &id);
            if (err == ERR_OK && !iv_push(&rr, id))
                err = ERR_OOM;
        }
        cnt = err == ERR_OK ? take(&r, 1) : NULL;
        if (!cnt || *cnt < 0 || *cnt > r.left / 5) {
            err = err != ERR_OK ? err : ERR_ARG;
            goto cleanup;
        }
        for (j = *cnt; j > 0 && err == ERR_OK; j--) {
            const int64_t *finish = take(&r, 1);
            if (!finish) {
                err = ERR_ARG;
                break;
            }
            err = rec_load(&pool, &r, *finish, m.nq, num_banks, m.g, &id);
            if (err == ERR_OK && !iv_push(&flight, id))
                err = ERR_OOM;
        }
        for (j = 0; j < orr_len && err == ERR_OK; j++) {
            const int64_t *banks;
            cnt = take(&r, 1);
            if (!cnt || *cnt < 0 || *cnt > issues
                    || !(banks = take(&r, *cnt))) {
                err = ERR_ARG;
                break;
            }
            orr_cnt[j] = *cnt;
            for (i = 0; i < *cnt; i++) {
                if (banks[i] < 0 || banks[i] >= num_banks)
                    err = ERR_ARG;
                orr_banks[j * issues + i] = banks[i];
            }
        }
        for (j = 0; renaming && j < m.nq && err == ERR_OK; j++)
            err = pairs_load(&names[j], &r, nphys);
        for (j = 0; renaming && j < ngroups && err == ERR_OK; j++) {
            cnt = take(&r, 1);
            if (!cnt || *cnt < 0) {
                err = ERR_ARG;
                break;
            }
            err = iv_load(&free_names[j], &r, *cnt);
            for (i = 0; i < free_names[j].len && err == ERR_OK; i++)
                if (free_names[j].buf[i] < 0 || free_names[j].buf[i] >= nphys)
                    err = ERR_ARG;
        }
        for (j = 0; j < m.nq && err == ERR_OK; j++)
            err = pairs_load(&locs[j], &r, nphys);
        if (err == ERR_OK && r.left != 0)
            err = ERR_ARG;
        if (err != ERR_OK)
            goto cleanup;
    }

    {
    int lat_pos = (int)cc->lat_pos;
    int64_t orr_pos = cc->orr_pos;
    int64_t rr_peak = cc->rr_peak, conflicts = cc->conflicts;
    int64_t last_issue = cc->last_issue, flight_next = cc->flight_next;
    int64_t max_delay = cc->max_delay;
    int64_t slot;

    for (slot = m.start_slot; slot < m.start_slot + c->num_slots; slot++) {
        int period = mach_period(&m);
        int request, a, leaving, due, sel;
        if ((err = mach_intake(&m, slot, &request, &a)) != ERR_OK)
            goto done;

        /* -- tail MMA: evict a block through renaming (or static group
         *    placement) into DRAM and the Requests Register -- */
        if (period && (sel = mach_tail_pick(&m)) >= 0) {
            int64_t evicted, physical = -1, index;
            /* blk stays valid: the tail FIFO is not pushed until the next
             * arrival. */
            const int64_t *blk = mach_tail_take(&m, sel, m.g, &evicted);
            if (renaming) {
                ivec *nm = &names[sel];
                int64_t at = -1;
                if (IV_COUNT(nm)) {
                    at = nm->len - 2;
                    physical = nm->buf[at];
                    if (group_cap >= 0
                            && group_occ[physical % ngroups] + evicted
                               > group_cap)
                        physical = -1;
                }
                if (physical < 0) {
                    physical = allocate_name(free_names, ngroups, group_occ,
                                             group_cap, evicted);
                    if (physical >= 0) {
                        in_use[physical] = 1;
                        if (!iv_push(nm, physical) || !iv_push(nm, 0)) {
                            err = ERR_OOM;
                            goto done;
                        }
                        at = nm->len - 2;
                    }
                }
                if (physical >= 0) {
                    nm->buf[at + 1] += evicted;
                    group_occ[physical % ngroups] += evicted;
                }
            } else if (group_cap < 0
                       || group_occ[sel % ngroups] + evicted <= group_cap) {
                physical = sel;
                group_occ[sel % ngroups] += evicted;
            }
            if (physical < 0) {
                m.dropped += evicted;
            } else {
                index = write_count[physical]++;
                err = mach_dram_put(&m, sel, blk, evicted);
                if (err == ERR_OK && (!iv_push(&locs[sel], physical)
                                      || !iv_push(&locs[sel], index)))
                    err = ERR_OOM;
                if (err == ERR_OK)
                    err = rr_push(&m, &pool, &rr, cc, &rr_peak,
                                  (physical % ngroups) * bpg + index % bpg,
                                  slot, -1, NULL, -1);
                if (err != ERR_OK)
                    goto done;
                m.dram_writes++;
            }
        }
        if (m.tail_total > m.max_tail)
            m.max_tail = m.tail_total;

        /* -- head: lookahead -> latency register -> ECQF bookkeeping -- */
        leaving = mach_shift(&m, request);
        if (lat_len) {
            due = (int)cp->lat_ring[lat_pos];
            cp->lat_ring[lat_pos] = leaving;
            if (++lat_pos == lat_len)
                lat_pos = 0;
        } else {
            due = leaving;
        }
        if ((err = mach_pipeline(&m, request, due, slot)) != ERR_OK)
            goto done;

        /* -- head MMA select, then fetch: DRAM pop, location pop, renaming
         *    debit, credit, Requests Register push (or cut-through from
         *    the tail straight into the head SRAM) -- */
        if (period && (sel = mach_select(&m)) >= 0) {
            const int64_t *seqs;
            int64_t got, bank = -1;
            if (m.dram_occ[sel] > 0) {
                ivec *loc = &locs[sel];
                int64_t physical, index;
                seqs = mach_dram_take(&m, sel, m.g, &got);
                if (!IV_COUNT(loc)) {
                    err = ERR_ARG;  /* a DRAM block without a location */
                    goto done;
                }
                physical = loc->buf[loc->head];
                index = loc->buf[loc->head + 1];
                loc->head += 2;
                if (renaming) {
                    ivec *nm = &names[sel];
                    int64_t remaining = got;
                    while (remaining) {
                        int64_t name, count, taken;
                        if (!IV_COUNT(nm)) {
                            err = ERR_ARG;  /* cells without a name */
                            goto done;
                        }
                        name = nm->buf[nm->head];
                        count = nm->buf[nm->head + 1];
                        taken = count < remaining ? count : remaining;
                        group_occ[name % ngroups] -= taken;
                        remaining -= taken;
                        if (count != taken) {
                            nm->buf[nm->head + 1] = count - taken;
                            continue;
                        }
                        nm->head += 2;
                        if (in_use[name]) {
                            in_use[name] = 0;
                            if (!iv_push(&free_names[name % ngroups],
                                         name)) {
                                err = ERR_OOM;
                                goto done;
                            }
                        }
                    }
                } else {
                    group_occ[physical % ngroups] -= got;
                }
                bank = (physical % ngroups) * bpg + index % bpg;
            } else {
                seqs = mach_tail_take(&m, sel, m.g, &got);
            }
            if (got) {
                err = mach_credit(&m, sel, got);
                if (err == ERR_OK)
                    /* seqs stays valid: neither FIFO is pushed here */
                    err = bank < 0 ? mach_land(&m, sel, seqs, got)
                          : rr_push(&m, &pool, &rr, cc, &rr_peak, bank,
                                    slot, sel, seqs, got);
                if (err != ERR_OK)
                    goto done;
                if (bank >= 0)
                    m.dram_reads++;
            }
        }

        /* -- DSS tick: collect the completed transfers, issue on a period
         *    boundary, then land the completed reads -- */
        landed.len = 0;
        if (flight_next <= slot) {
            int64_t kept = 0;
            flight_next = CRIT_INF;
            for (j = 0; j < flight.len; j++) {
                int64_t id = flight.buf[j];
                const int64_t *rec = REC(&pool, id);
                int64_t finish = rec[R_FINISH];
                if (finish <= slot) {
                    if (finish - rec[R_ISSUED] > max_delay)
                        max_delay = finish - rec[R_ISSUED];
                    if (!iv_push(rec[R_COUNT] >= 0 ? &landed : &pool.spare,
                                 id)) {
                        err = ERR_OOM;
                        goto done;
                    }
                } else {
                    flight.buf[kept++] = id;
                    if (finish < flight_next)
                        flight_next = finish;
                }
            }
            flight.len = kept;
        }
        if (period) {
            /* The DSA: up to `issues` oldest entries whose bank is neither
             * locked by the ORR nor issued this period. */
            int64_t n_issued = 0, pos = 0;
            while (pos < rr.len) {
                int64_t id = rr.buf[pos], *rec = REC(&pool, id);
                int64_t bank = rec[R_BANK], busy, finish;
                int taken = locks[bank] != 0;
                for (j = 0; j < n_issued && !taken; j++)
                    taken = issued[j] == bank;
                if (taken) {
                    pos++;
                    continue;
                }
                memmove(rr.buf + pos, rr.buf + pos + 1,
                        (size_t)(rr.len - pos - 1) * sizeof(int64_t));
                rr.len--;
                if (last_issue != NO_SLOT && slot - last_issue < cc->bus_slots
                        && slot != last_issue) {
                    err = mach_fail(&m, ERR_BUS, last_issue, cc->bus_slots,
                                    0);
                    goto done;
                }
                busy = busy_until[bank];
                if (slot < busy) {
                    conflicts++;
                    if (cc->dram_strict) {
                        err = mach_fail(&m, ERR_CONFLICT, bank, busy, 0);
                        goto done;
                    }
                    finish = busy + ras;
                } else {
                    finish = slot + ras;
                }
                busy_until[bank] = finish;
                last_issue = slot;
                rec[R_FINISH] = finish;
                if (!iv_push(&flight, id)) {
                    err = ERR_OOM;
                    goto done;
                }
                if (finish < flight_next)
                    flight_next = finish;
                issued[n_issued++] = bank;
                if (n_issued == issues)
                    break;
            }
            if (orr_len) {
                int64_t *ring = orr_banks + orr_pos * issues;
                for (j = 0; j < orr_cnt[orr_pos]; j++)
                    locks[ring[j]]--;
                orr_cnt[orr_pos] = n_issued;
                for (j = 0; j < n_issued; j++) {
                    ring[j] = issued[j];
                    locks[issued[j]]++;
                }
                if (++orr_pos == orr_len)
                    orr_pos = 0;
            }
        }
        for (j = 0; j < landed.len; j++) {
            int64_t id = landed.buf[j];
            const int64_t *rec = REC(&pool, id);
            err = mach_land(&m, (int)rec[R_QUEUE], rec + R_CELLS,
                            rec[R_COUNT]);
            if (err == ERR_OK && !iv_push(&pool.spare, id))
                err = ERR_OOM;
            if (err != ERR_OK)
                goto done;
        }

        if (due >= 0 && (err = mach_serve(&m, due, slot)) != ERR_OK)
            goto done;
        mach_end_slot(&m, a, request);
    }

done:
    if (err == ERR_OK) {
        /* ---- the one exact-size result (layout above cptrs) ---- */
        int64_t own = 2 + 4 * rr.len + 5 * flight.len + orr_len, *w;
        for (j = 0; j < rr.len; j++) {
            int64_t n = REC(&pool, rr.buf[j])[R_COUNT];
            own += n > 0 ? n : 0;
        }
        for (j = 0; j < flight.len; j++) {
            int64_t n = REC(&pool, flight.buf[j])[R_COUNT];
            own += n > 0 ? n : 0;
        }
        for (j = 0; j < orr_len; j++)
            own += orr_cnt[j];
        for (j = 0; renaming && j < m.nq; j++)
            own += 1 + IV_COUNT(&names[j]);
        for (j = 0; renaming && j < ngroups; j++)
            own += 1 + free_names[j].len;
        for (j = 0; j < m.nq; j++)
            own += 1 + IV_COUNT(&locs[j]);
        w = mach_close(&m, c, p, own);
        if (!w) {
            err = ERR_OOM;
            goto cleanup;
        }
        *w++ = rr.len;
        for (j = 0; j < rr.len; j++)
            w = rec_put(w, &pool, rr.buf[j], 0);
        *w++ = flight.len;
        for (j = 0; j < flight.len; j++)
            w = rec_put(w, &pool, flight.buf[j], 1);
        for (j = 0; j < orr_len; j++) {
            *w++ = orr_cnt[j];
            memcpy(w, orr_banks + j * issues,
                   (size_t)orr_cnt[j] * sizeof(int64_t));
            w += orr_cnt[j];
        }
        for (j = 0; renaming && j < m.nq; j++) {
            *w++ = IV_COUNT(&names[j]) / 2;
            w = put(w, &names[j]);
        }
        for (j = 0; renaming && j < ngroups; j++) {
            *w++ = free_names[j].len;
            w = put(w, &free_names[j]);
        }
        for (j = 0; j < m.nq; j++) {
            *w++ = IV_COUNT(&locs[j]) / 2;
            w = put(w, &locs[j]);
        }
        cc->lat_pos = lat_pos;
        cc->orr_pos = orr_pos;
        cc->rr_peak = rr_peak;
        cc->conflicts = conflicts;
        cc->last_issue = last_issue;
        cc->flight_next = flight_next;
        cc->max_delay = max_delay;
    }
    }

cleanup:
    if (err != ERR_OK)
        mach_record(&m, c);
    for (i = 0; locs && i < m.nq; i++)
        free(locs[i].buf);
    for (i = 0; names && i < m.nq; i++)
        free(names[i].buf);
    for (i = 0; free_names && i < ngroups; i++)
        free(free_names[i].buf);
    free(locs);
    free(names);
    free(free_names);
    free(rr.buf);
    free(flight.buf);
    free(landed.buf);
    free(pool.recs.buf);
    free(pool.spare.buf);
    free(orr_cnt);
    free(orr_banks);
    free(issued);
    mach_free(&m);
    return err;
}

/* ------------------------------------------------------------------ */
/* Crossbar fabric window (repro.switch.model.FabricStream)            */
/* ------------------------------------------------------------------ */

/* Largest port count the fabric entry accepts: its VOQ table holds
 * num_ports^2 FIFO descriptors (32 MiB at the cap). */
#define MAX_PORTS 1024

/* The stock FABRIC_TYPES policies, single-iteration request/grant/accept;
 * python names each by its code's name without POLICY_, lower-cased. */
#define POLICY_CODES(X) X(POLICY_ISLIP) X(POLICY_RANDOM) X(POLICY_PRIORITY)
enum { POLICY_CODES(CODE_ENUM) POLICY_COUNT };

#define FCFG_FIELDS(X) \
    X(int64_t, num_ports, in) X(int64_t, policy, in) /* POLICY_* */ \
    X(int64_t, num_slots, in) X(int64_t, start_slot, in) \
    X(int64_t, flush, in)           /* 1: until the VOQs drain, at most \
                                       num_slots; 0: num_slots arrivals */ \
    X(int64_t, plan_mode, in)       /* arrivals: PLAN_EXPLICIT (fptrs.plan) \
                                       or PLAN_BERNOULLI (per ingress) */ \
    X(int64_t, state_len, in)       /* elements in fptrs.state */ \
    X(int64_t, peak, inout)         /* peak ingress backlog so far */ \
    X(int64_t, slots_run, out) X(int64_t, offered, out) \
    X(int64_t, transferred, out) X(int64_t, n_wait_pairs, out) \
    X(int64_t, result_len, out) \
    X(int64_t, err_slot, out)       /* the abort record: the slot (the \
                                       first, if none ran) and, for \
                                       ERR_PLAN, the ingress */ \
    X(int64_t, err_ingress, out)
typedef struct { FCFG_FIELDS(DECLARE) } fcfg;

/* The VOQ image (fptrs.state, read-only) and the tail of the result share
 * one layout: for every non-empty VOQ in ascending ingress * num_ports +
 * egress order, that index, the cell count and the cells' arrival slots.
 * The result is
 *
 *   trace rows (num_ports x slots_run int32, egress-major: the ingress
 *   whose cell entered the egress in that slot, -1 = none), padded to a
 *   whole int64 word
 *   per-egress cells moved in the window (num_ports)
 *   per-ingress backlog after the window (num_ports)
 *   n_wait_pairs (wait, count) pairs in ascending wait order
 *   the VOQ image after the window.
 *
 * PLAN_BERNOULLI windows take, per ingress, its generator (bern_key's 624
 * words and bern_meta's [pos], in/out), load gate, weight total and
 * num_ports cumulative weights. */
#define FPTRS_FIELDS(X) \
    X(uint32_t *, rng_key, in)      /* in/out: 624 words (random) */ \
    X(int64_t *, rng_meta, in)      /* in/out: [pos] (random) */ \
    X(int64_t *, grant, in) X(int64_t *, accept, in) /* in/out (islip) */ \
    X(const int32_t *, plan, in)    /* PLAN_EXPLICIT: ports x num_slots, \
                                       ingress-major, -1 = no arrival */ \
    X(uint32_t *, bern_key, in) X(int64_t *, bern_meta, in) \
    X(const int64_t *, bern_tint, in) X(const double *, bern_total, in) \
    X(const double *, cum_weights, in) \
    X(const int64_t *, state, in)   /* the VOQ image, state_len */ \
    X(int64_t *, result, out)       /* kernel-owned, result_len */
typedef struct { FPTRS_FIELDS(DECLARE) } fptrs;

typedef struct {
    int n, nw, policy;
    ivec *voq;              /* n x n FIFOs of arrival slots */
    uint64_t *req;          /* per egress: ingresses with a non-empty VOQ */
    int *req_cnt;           /* per egress: popcount of req */
    uint64_t *gmask;        /* per ingress: egresses granting it this slot */
    int *rb_shift;          /* 32 - bit_length(m), m = 0..n (random) */
    int64_t *backlog, *per_egress, *grant, *accept;
    int32_t *trace;
    int64_t stride, start;
    int64_t backlog_total, transferred;
    mt_state rng;
    mt_state *src;          /* per ingress (PLAN_BERNOULLI) */
    const int **guide;      /* per ingress: its draw's guide, or NULL */
    int *guides;            /* the guides, 2^guide_bits + 1 ints each */
    int guide_bits;
    hist waits;
} fabric;

/* The word of an nw-word bitset that holds bit b (b < 64 when nw = 1). */
#define BIT_WORD(w, nw, b) ((w)[(nw) == 1 ? 0 : (b) >> 6])
#define BIT(b) (UINT64_C(1) << ((b) & 63))

/* One request/grant/accept match of `slot` on nw-word bitsets, applied as
 * FabricStream._transfer_slot does; *matched counts the pairs.  The body
 * is written once for every width: fabric_slot calls it with a literal
 * nw = 1 at 64 ports or fewer, where every request set, grant mask and the
 * granted set fold to one word (the granted set held in a register, each
 * pointer pick one ctz), and with f->nw past that. */
static FORCE_INLINE int64_t fabric_match(fabric *f, int64_t slot, int nw,
                                         int *matched)
{
    const int n = f->n, policy = f->policy;
    uint64_t granted[MAX_PORTS / 64];
    int e, i, j, k;
    *matched = 0;
    for (j = 0; j < nw; j++)
        granted[j] = 0;
    /* grants: every requested egress picks one requester */
    for (e = 0; e < n; e++) {
        const uint64_t *rq = f->req + (int64_t)e * nw;
        const int cnt = f->req_cnt[e];
        if (!cnt)
            continue;
        if (policy == POLICY_ISLIP)
            i = bits_wrap(rq, nw, (int)f->grant[e]);
        else if (policy == POLICY_RANDOM)
            i = bits_nth(rq, nw, mt_randbelow(&f->rng, cnt,
                                              f->rb_shift[cnt]));
        else
            i = bits_wrap(rq, nw, 0);
        if (i < 0)
            return ERR_STATE;
        BIT_WORD(f->gmask + (int64_t)i * nw, nw, e) |= BIT(e);
        BIT_WORD(granted, nw, i) |= BIT(i);
    }
    /* accepts, ascending ingress: each granted ingress picks one egress */
    for (j = 0; j < nw; j++) {
        while (granted[j]) {
            uint64_t *gm;
            ivec *v;
            int64_t arrival, err;
            i = (j << 6) + ctz64(granted[j]);
            granted[j] &= granted[j] - 1;
            gm = f->gmask + (int64_t)i * nw;
            if (policy == POLICY_ISLIP) {
                e = bits_wrap(gm, nw, (int)f->accept[i]);
            } else if (policy == POLICY_RANDOM) {
                const int cnt = bits_count(gm, nw);
                e = bits_nth(gm, nw, mt_randbelow(&f->rng, cnt,
                                                  f->rb_shift[cnt]));
            } else {
                e = bits_wrap(gm, nw, 0);
            }
            for (k = 0; k < nw; k++)
                gm[k] = 0;
            if (e < 0)
                return ERR_STATE;
            v = &f->voq[(int64_t)i * n + e];
            if (!IV_COUNT(v))
                return ERR_STATE;
            arrival = v->buf[v->head++];
            if (!IV_COUNT(v)) {
                v->head = v->len = 0;
                BIT_WORD(f->req + (int64_t)e * nw, nw, i) &= ~BIT(i);
                f->req_cnt[e]--;
            }
            if (policy == POLICY_ISLIP) {
                f->grant[e] = i + 1 == n ? 0 : i + 1;
                f->accept[i] = e + 1 == n ? 0 : e + 1;
            }
            f->backlog[i]--;
            f->backlog_total--;
            if ((err = hist_add(&f->waits, slot - arrival)) != ERR_OK)
                return err;
            f->trace[(int64_t)e * f->stride + (slot - f->start)] = i;
            f->per_egress[e]++;
            f->transferred++;
            ++*matched;
        }
    }
    return ERR_OK;
}

static int64_t fabric_slot(fabric *f, int64_t slot, int *matched)
{
    return f->nw == 1 ? fabric_match(f, slot, 1, matched)
                      : fabric_match(f, slot, f->nw, matched);
}

int64_t fabric_run_window(fcfg *c, fptrs *p)
{
    const int n = (int)c->num_ports;
    const int64_t num_slots = c->num_slots;
    int64_t err = ERR_OK, offered = 0, peak = c->peak, run = 0;
    int64_t total, n_pairs, image_len = 0, idx, words;
    int64_t *w, *out = NULL;
    const int drawn = !c->flush && c->plan_mode == PLAN_BERNOULLI;
    fabric f;
    int i, matched;

    p->result = NULL;
    c->err_slot = c->start_slot;
    c->err_ingress = -1;
    memset(&f, 0, sizeof(f));
    if (n < 1 || n > MAX_PORTS || c->policy < 0
            || c->policy >= POLICY_COUNT || num_slots < 1
            || c->start_slot < 0
            || (!c->flush && c->plan_mode != PLAN_EXPLICIT && !drawn)
            || (!c->flush && !drawn && !p->plan)
            || (drawn && (!p->bern_key || !p->bern_meta || !p->bern_tint
                          || !p->bern_total || !p->cum_weights)))
        return ERR_ARG;
    f.n = n;
    f.nw = (n + 63) / 64;
    f.policy = (int)c->policy;
    f.start = c->start_slot;
    f.voq = (ivec *)calloc((size_t)n * (size_t)n, sizeof(ivec));
    f.req = (uint64_t *)calloc((size_t)n * (size_t)f.nw, sizeof(uint64_t));
    f.gmask = (uint64_t *)calloc((size_t)n * (size_t)f.nw, sizeof(uint64_t));
    f.req_cnt = (int *)calloc((size_t)n, sizeof(int));
    f.rb_shift = randbelow_shifts(n);
    f.backlog = (int64_t *)calloc((size_t)n, sizeof(int64_t));
    f.per_egress = (int64_t *)calloc((size_t)n, sizeof(int64_t));
    if (!f.voq || !f.req || !f.gmask || !f.req_cnt || !f.rb_shift
            || !f.backlog || !f.per_egress) {
        err = ERR_OOM;
        goto cleanup;
    }
    if (f.policy == POLICY_ISLIP) {
        if (!p->grant || !p->accept) {
            err = ERR_ARG;
            goto cleanup;
        }
        f.grant = p->grant;
        f.accept = p->accept;
        for (i = 0; i < n; i++)
            if (f.grant[i] < 0 || f.grant[i] >= n
                    || f.accept[i] < 0 || f.accept[i] >= n)
                err = ERR_ARG;
        if (err != ERR_OK)
            goto cleanup;
    } else if (f.policy == POLICY_RANDOM
               && (err = mt_load(&f.rng, p->rng_key, p->rng_meta))
                  != ERR_OK) {
        goto cleanup;
    }
    if (drawn) {
        f.src = (mt_state *)malloc((size_t)n * sizeof(mt_state));
        if (!f.src) {
            err = ERR_OOM;
            goto cleanup;
        }
        for (i = 0; i < n; i++)
            if ((err = mt_load(&f.src[i], p->bern_key + (int64_t)i * MT_N,
                               p->bern_meta + i)) != ERR_OK)
                goto cleanup;
    }
    /* An ingress's guide costs O(num_ports) to build, and the window draws
     * num_slots times for it, so only a window of at least num_ports slots
     * builds them: each window then costs what its cells cost. */
    if (drawn && num_slots >= n) {
        int64_t stride;
        f.guide_bits = guide_bits(n);
        stride = ((int64_t)1 << f.guide_bits) + 1;
        f.guide = (const int **)calloc((size_t)n, sizeof(int *));
        f.guides = (int *)malloc((size_t)(n * stride) * sizeof(int));
        if (!f.guide || !f.guides) {
            err = ERR_OOM;
            goto cleanup;
        }
        for (i = 0; i < n; i++) {
            const double *cum = p->cum_weights + (int64_t)i * n;
            if (guide_holds(cum, n, p->bern_total[i])) {
                guide_fill(f.guides + i * stride, cum, n, p->bern_total[i],
                           f.guide_bits);
                f.guide[i] = f.guides + i * stride;
            }
        }
    }

    /* ---- VOQs from the image ---- */
    {
        reader r = {p->state, c->state_len};
        int64_t last = -1;
        while (r.left > 0) {
            const int64_t *head = take(&r, 2);
            int64_t cnt;
            if (!head || head[0] <= last || head[0] >= (int64_t)n * n
                    || head[1] < 1) {
                err = ERR_ARG;
                goto cleanup;
            }
            idx = last = head[0];
            cnt = head[1];
            err = iv_load(&f.voq[idx], &r, cnt);
            if (err != ERR_OK)
                goto cleanup;
            i = (int)(idx / n);
            BIT_SET(f.req + (idx % n) * f.nw, i);
            f.req_cnt[idx % n]++;
            f.backlog[i] += cnt;
            f.backlog_total += cnt;
        }
    }

    /* ---- trace rows: a flush slot moves at least one cell, so a flush
     * window runs at most backlog_total slots ---- */
    f.stride = num_slots;
    if (c->flush && f.backlog_total < f.stride)
        f.stride = f.backlog_total;
    if (f.stride < 1) {
        err = ERR_ARG;
        goto cleanup;
    }
    words = ((int64_t)n * f.stride + 1) / 2;
    out = (int64_t *)malloc((size_t)words * sizeof(int64_t));
    if (!out) {
        err = ERR_OOM;
        goto cleanup;
    }
    f.trace = (int32_t *)out;
    for (idx = 0; idx < (int64_t)n * f.stride; idx++)
        f.trace[idx] = -1;

    if (!c->flush) {
        for (run = 0; run < num_slots; run++) {
            int64_t slot = f.start + run;
            c->err_slot = slot;
            for (i = 0; i < n; i++) {
                int a = drawn ? bern_draw(&f.src[i], p->bern_tint[i],
                                          p->cum_weights + (int64_t)i * n,
                                          n, p->bern_total[i],
                                          f.guide ? f.guide[i] : NULL,
                                          f.guide_bits)
                              : p->plan[(int64_t)i * num_slots + run];
                ivec *v;
                if (a == -1)
                    continue;
                if (a < 0 || a >= n) {
                    c->err_ingress = i;
                    err = ERR_PLAN;
                    goto cleanup;
                }
                v = &f.voq[(int64_t)i * n + a];
                if (!IV_COUNT(v)) {
                    BIT_SET(f.req + (int64_t)a * f.nw, i);
                    f.req_cnt[a]++;
                }
                if (!iv_push(v, slot)) {
                    err = ERR_OOM;
                    goto cleanup;
                }
                f.backlog_total++;
                offered++;
                if (++f.backlog[i] > peak)
                    peak = f.backlog[i];
            }
            err = fabric_slot(&f, slot, &matched);
            if (err != ERR_OK)
                goto cleanup;
        }
    } else {
        for (run = 0; run < f.stride && f.backlog_total > 0; run++) {
            c->err_slot = f.start + run;
            err = fabric_slot(&f, f.start + run, &matched);
            if (err == ERR_OK && !matched)
                err = ERR_STATE;
            if (err != ERR_OK)
                goto cleanup;
        }
    }

    /* ---- the one exact-size result ---- */
    if (run < f.stride)
        for (i = 1; i < n; i++)
            memmove(f.trace + (int64_t)i * run,
                    f.trace + (int64_t)i * f.stride,
                    (size_t)run * sizeof(int32_t));
    n_pairs = hist_pairs(&f.waits);
    for (idx = 0; idx < (int64_t)n * n; idx++)
        if (IV_COUNT(&f.voq[idx]))
            image_len += 2 + IV_COUNT(&f.voq[idx]);
    words = ((int64_t)n * run + 1) / 2;
    total = words + 2 * (int64_t)n + 2 * n_pairs + image_len;
    w = (int64_t *)realloc(out, (size_t)total * sizeof(int64_t));
    if (!w) {
        err = ERR_OOM;
        goto cleanup;
    }
    out = w;
    w += words;
    memcpy(w, f.per_egress, (size_t)n * sizeof(int64_t));
    w += n;
    memcpy(w, f.backlog, (size_t)n * sizeof(int64_t));
    w += n;
    w = put_hist(w, &f.waits);
    for (idx = 0; idx < (int64_t)n * n; idx++)
        if (IV_COUNT(&f.voq[idx])) {
            *w++ = idx;
            *w++ = IV_COUNT(&f.voq[idx]);
            w = put(w, &f.voq[idx]);
        }
    p->result = out;
    out = NULL;
    c->result_len = total;
    c->slots_run = run;
    c->offered = offered;
    c->transferred = f.transferred;
    c->peak = peak;
    c->n_wait_pairs = n_pairs;
    if (f.policy == POLICY_RANDOM) {
        mt_store(&f.rng, p->rng_key, p->rng_meta);
    }
    if (drawn)
        for (i = 0; i < n; i++)
            mt_store(&f.src[i], p->bern_key + (int64_t)i * MT_N,
                     p->bern_meta + i);

cleanup:
    if (f.voq)
        for (idx = 0; idx < (int64_t)n * n; idx++)
            free(f.voq[idx].buf);
    free(f.voq);
    free(f.req);
    free(f.gmask);
    free(f.req_cnt);
    free(f.rb_shift);
    free(f.backlog);
    free(f.per_egress);
    free(f.src);
    free(f.guide);
    free(f.guides);
    free(f.waits.count);
    free(out);
    return err;
}

/* ------------------------------------------------------------------ */
/* The interface's description                                         */
/* ------------------------------------------------------------------ */

/* The description: a row per struct field, struct (after its fields),
 * code and limit, each four tab-terminated words ("", name, type, role;
 * the struct, "", "", ""; "const", name, "", "") and two numbers (offset
 * and size; 0 and size; value and 0), in the order DESCRIBE lists. */
#define DESCRIBE(K, KP, CC, CP, FC, FP, S, C) \
    KCFG_FIELDS(K) S(kcfg) KPTRS_FIELDS(KP) S(kptrs) \
    CCFG_FIELDS(CC) S(ccfg) CPTRS_FIELDS(CP) S(cptrs) \
    FCFG_FIELDS(FC) S(fcfg) FPTRS_FIELDS(FP) S(fptrs) \
    ERR_CODES(C) OV_CODES(C) ARB_CODES(C) HEAD_CODES(C) PLAN_CODES(C) \
    POLICY_CODES(C) C(MAX_QUEUES) C(MAX_PORTS) C(CRIT_INF) C(NO_SLOT)
#define FIELD_TEXT(type, name, role) "\t" #name "\t" #type "\t" #role "\t"
#define STRUCT_TEXT(s) #s "\t\t\t\t"
#define CONST_TEXT(name) "const\t" #name "\t\t\t"
#define NUMBERS(s, name) \
    (int64_t)offsetof(s, name), (int64_t)sizeof(((s *)NULL)->name),
#define KCFG_NUMBERS(type, name, role) NUMBERS(kcfg, name)
#define KPTRS_NUMBERS(type, name, role) NUMBERS(kptrs, name)
#define CCFG_NUMBERS(type, name, role) NUMBERS(ccfg, name)
#define CPTRS_NUMBERS(type, name, role) NUMBERS(cptrs, name)
#define FCFG_NUMBERS(type, name, role) NUMBERS(fcfg, name)
#define FPTRS_NUMBERS(type, name, role) NUMBERS(fptrs, name)
#define STRUCT_NUMBERS(s) 0, (int64_t)sizeof(s),
#define CONST_NUMBERS(name) (int64_t)(name), 0,

static const char interface_text[] = DESCRIBE(
    FIELD_TEXT, FIELD_TEXT, FIELD_TEXT, FIELD_TEXT, FIELD_TEXT, FIELD_TEXT,
    STRUCT_TEXT, CONST_TEXT);
static const int64_t interface_numbers[] = {DESCRIBE(
    KCFG_NUMBERS, KPTRS_NUMBERS, CCFG_NUMBERS, CPTRS_NUMBERS, FCFG_NUMBERS,
    FPTRS_NUMBERS, STRUCT_NUMBERS, CONST_NUMBERS)};

/* The description, read-only: its text, and *count numbers. */
const char *kernel_interface(const int64_t **numbers, int64_t *count)
{
    *numbers = interface_numbers;
    *count = (int64_t)(sizeof(interface_numbers) / sizeof(int64_t));
    return interface_text;
}
