/* Span kernel for the "array" engine's RADS and CFDS cores and the
 * switch's fabric stage.
 *
 * This file is compiled on demand by repro.sim.kernel (cc -O2 -shared) and
 * loaded through ctypes; it is NOT a CPython extension module and includes
 * no Python headers, so it builds anywhere a C99 compiler exists.  It has
 * three entry points:
 *  - rads_run_span executes exactly the slot loop of
 *    repro.sim.array_engine's RADS core (stock ECQF + threshold tail MMA +
 *    RandomArbiter, num_queues <= 65536 so a queue id fits the 16-bit
 *    field of CRIT_KEY);
 *  - cfds_run_span executes exactly the slot loop of its CFDS core (the
 *    same policies with the latency register, the DRAM Scheduler
 *    Subsystem and queue renaming; no arbiter, RandomArbiter or
 *    LongestQueueArbiter);
 *  - fabric_run_window executes one window of
 *    repro.switch.model.FabricStream's python loop (VOQ arrivals and the
 *    islip, random or priority request/grant/accept match, num_ports <=
 *    MAX_PORTS), on request bitsets of any width.
 * Everything is integer arithmetic except the two places CPython uses
 * doubles — random() and choices() — which are reproduced with the
 * identical IEEE-754 expressions (this translation unit must never be
 * compiled with -ffast-math).
 *
 * Buffer ownership: python hands in only fixed-shape arrays (per-queue
 * scalars, the eligible list, the lookahead ring, RNG keys, the arrival
 * plan) plus one read-only image of the variable-length state.  Every
 * buffer that grows during the span — per-queue FIFO contents, SRAM heaps,
 * the critical heap, pending blocks, delays, misses, drained slots — is
 * the kernel's own, and the span's outcome comes back as one exact-size
 * result that python reads and then releases with rads_free_result().  No
 * capacity is negotiated with the caller, so there is nothing to
 * overflow.
 *
 * Exactness contract:
 *  - the Mersenne Twister below is the reference mt19937ar generator that
 *    CPython's random.Random wraps; the kernel starts from the key/pos
 *    handed in and reports the words it consumed, so the python side ends
 *    bit-identical to a scalar run;
 *  - heaps only need the heap invariant (keys are unique), so the C sift
 *    need not mirror heapq's internal move order — every pop yields the
 *    same minimum the python heap would;
 *  - strict-mode overflow/miss aborts return an error code and the python
 *    core replays the span on its own scalar loop to raise with exact
 *    in-place state; non-strict misses and lossy DRAM drops are native;
 *  - the CFDS and fabric entries follow the same ownership rules; every
 *    raise site of the python CFDS loop, a fabric plan entry that names no
 *    egress, and any of their own checks abort, and the python loop
 *    replays the span or window.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Mersenne Twister (mt19937ar), resumed from CPython's getstate().    */
/* ------------------------------------------------------------------ */

#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908b0dfUL
#define MT_UPPER 0x80000000UL
#define MT_LOWER 0x7fffffffUL

typedef struct {
    uint32_t key[MT_N];
    int pos;
    int64_t consumed;
} mt_state;

static uint32_t mt_next(mt_state *mt)
{
    uint32_t y;
    if (mt->pos >= MT_N) {
        uint32_t *m = mt->key;
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (m[kk] & MT_UPPER) | (m[kk + 1] & MT_LOWER);
            m[kk] = m[kk + MT_M] ^ (y >> 1) ^ ((y & 1) ? MT_MATRIX_A : 0);
        }
        for (; kk < MT_N - 1; kk++) {
            y = (m[kk] & MT_UPPER) | (m[kk + 1] & MT_LOWER);
            m[kk] = m[kk + (MT_M - MT_N)] ^ (y >> 1)
                    ^ ((y & 1) ? MT_MATRIX_A : 0);
        }
        y = (m[MT_N - 1] & MT_UPPER) | (m[0] & MT_LOWER);
        m[MT_N - 1] = m[MT_M - 1] ^ (y >> 1) ^ ((y & 1) ? MT_MATRIX_A : 0);
        mt->pos = 0;
    }
    y = mt->key[mt->pos++];
    mt->consumed++;
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680UL;
    y ^= (y << 15) & 0xefc60000UL;
    y ^= (y >> 18);
    return y;
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
/* Growable int64 array: FIFO by cursor, or a heap (head stays 0)      */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t *buf;
    int64_t head;   /* first live element */
    int64_t len;    /* one past last live element */
    int64_t cap;
} ivec;

#define IV_COUNT(v) ((v)->len - (v)->head)

/* Room for n more elements: reclaim the consumed prefix when it is at
 * least half the storage (amortised O(1)), else double. */
static int iv_reserve(ivec *v, int64_t n)
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

static int iv_push(ivec *v, int64_t x)
{
    if (v->len == v->cap && !iv_reserve(v, 1))
        return 0;
    v->buf[v->len++] = x;
    return 1;
}

static int iv_append(ivec *v, const int64_t *src, int64_t n)
{
    if (n <= 0)
        return 1;
    if (!iv_reserve(v, n))
        return 0;
    memcpy(v->buf + v->len, src, (size_t)n * sizeof(int64_t));
    v->len += n;
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

/* Error codes (mirror the strict-mode raises; the python side replays). */
#define ERR_OK 0
#define ERR_OOM 1
#define ERR_STRICT 2
#define ERR_ARG 3   /* bad shape, or a plan entry names no queue */

/* ------------------------------------------------------------------ */
/* Kernel interface (mirrored by ctypes structs in repro.sim.kernel)   */
/* ------------------------------------------------------------------ */

typedef struct {
    /* configuration (in) */
    int64_t num_queues, granularity, strict, tail_cap;
    int64_t dram_cap, sram_cap;     /* -1 = unbounded (python None) */
    int64_t la_len, num_slots, start_slot, is_main;
    int64_t arb_tint;               /* ceil(arbiter.load * 2**53) */
    int64_t plan_mode;              /* 0 = plan, 1 = bernoulli, 2 = none */
    int64_t bern_tint;              /* ceil(arrivals.load * 2**53) */
    double bern_total;              /* cum_weights[-1] + 0.0 */
    int64_t ecqf_fallback;
    int64_t state_len;              /* elements in kptrs.state */
    /* machine scalars (in/out) */
    int64_t tail_total, dram_total, sram_total, la_pos, negatives;
    int64_t cells_in, cells_out, dram_reads, dram_writes, dropped;
    int64_t max_tail, max_head;
    int64_t crit_len, pending_len, eligible_len;
    /* results (out) */
    int64_t n_delays, n_delay_pairs, n_head_miss, n_tail_miss, n_drained;
    int64_t arrivals_seen, grants, result_len;
} kcfg;

/* The variable-length state image (kptrs.state, read-only) and the head
 * of the result share one layout, queue by queue within each part:
 *
 *   sram_cnt[nq] arr_cnt[nq]
 *   tail cells (tail_occ[q] each)   dram cells (dram_occ[q] each)
 *   sram heaps (sram_cnt[q] each)   request entry slots (req_count[q] each)
 *   arrival slots (arr_cnt[q] each) crit heap keys (crit_len)
 *   pending blocks (pending_len x: finish slot, queue, cell count, cells)
 *
 * The result then appends the main window's delays folded into
 * n_delay_pairs (delay, count) pairs in ascending delay order,
 * n_head_miss (queue, slot) pairs and n_drained arrival slots. */
typedef struct {
    uint32_t *arb_key;              /* in/out: 624 words */
    int64_t *arb_meta;              /* in/out: [pos, consumed] */
    uint32_t *bern_key;             /* in/out (plan_mode 1) */
    int64_t *bern_meta;
    const double *cum_weights;      /* len num_queues (plan_mode 1) */
    const int32_t *plan;            /* len num_slots (plan_mode 0), -1 = none */
    /* per-queue int64[num_queues], in/out */
    int64_t *backlog, *next_seqno, *delivered, *counters, *req_count;
    int64_t *tail_occ, *dram_occ, *crit_cache;
    int64_t *eligible;              /* sorted, len eligible_len, cap nq */
    int64_t *la_ring;               /* in/out, len la_len, -1 = empty */
    const int64_t *state;           /* in: the state image, state_len */
    int64_t *result;                /* out: kernel-owned, result_len */
} kptrs;

typedef struct {
    ivec tail, dram, req, arr;      /* FIFOs by cursor */
    ivec sram;                      /* heap */
} qstate;

/* Delay histogram of the main window, indexed by delay. */
typedef struct {
    int64_t *count;
    int64_t cap, max;
} hist;

static int64_t hist_add(hist *h, int64_t delay)
{
    if (delay < 0)
        return ERR_ARG;
    if (delay >= h->cap) {
        int64_t ncap = h->cap > 0 ? h->cap * 2 : 1024;
        int64_t *nb;
        while (ncap <= delay)
            ncap *= 2;
        nb = (int64_t *)realloc(h->count, (size_t)ncap * sizeof(int64_t));
        if (!nb)
            return ERR_OOM;
        memset(nb + h->cap, 0, (size_t)(ncap - h->cap) * sizeof(int64_t));
        h->count = nb;
        h->cap = ncap;
    }
    h->count[delay]++;
    if (delay > h->max)
        h->max = delay;
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

/* The image head both slot loops share (layout above kptrs): per-queue
 * tail, DRAM, SRAM, request and arrival contents, then the critical heap,
 * whose keys must name queues. */
static int64_t load_queues(reader *r, qstate *qs, ivec *crit, const kcfg *c,
                           const kptrs *p)
{
    const int nq = (int)c->num_queues;
    const int64_t *sram_cnt = take(r, nq), *arr_cnt = take(r, nq);
    int64_t err = ERR_OK;
    int i;
    if (!sram_cnt || !arr_cnt)
        return ERR_ARG;
    for (i = 0; i < nq && err == ERR_OK; i++)
        err = iv_load(&qs[i].tail, r, p->tail_occ[i]);
    for (i = 0; i < nq && err == ERR_OK; i++)
        err = iv_load(&qs[i].dram, r, p->dram_occ[i]);
    for (i = 0; i < nq && err == ERR_OK; i++)
        err = iv_load(&qs[i].sram, r, sram_cnt[i]);
    for (i = 0; i < nq && err == ERR_OK; i++)
        err = iv_load(&qs[i].req, r, p->req_count[i]);
    for (i = 0; i < nq && err == ERR_OK; i++)
        err = iv_load(&qs[i].arr, r, arr_cnt[i]);
    if (err == ERR_OK)
        err = iv_load(crit, r, c->crit_len);
    for (i = 0; i < crit->len && err == ERR_OK; i++)
        if (crit->buf[i] < 0 || CRIT_QUEUE(crit->buf[i]) >= nq)
            err = ERR_ARG;
    return err;
}

/* Elements load_queues' part of the result takes. */
static int64_t queues_size(const qstate *qs, int nq, const ivec *crit)
{
    int64_t size = 2 * (int64_t)nq + crit->len;
    int i;
    for (i = 0; i < nq; i++)
        size += IV_COUNT(&qs[i].tail) + IV_COUNT(&qs[i].dram)
                + IV_COUNT(&qs[i].sram) + IV_COUNT(&qs[i].req)
                + IV_COUNT(&qs[i].arr);
    return size;
}

static int64_t *put_queues(int64_t *w, const qstate *qs, int nq,
                           const ivec *crit)
{
    int i;
    for (i = 0; i < nq; i++)
        *w++ = IV_COUNT(&qs[i].sram);
    for (i = 0; i < nq; i++)
        *w++ = IV_COUNT(&qs[i].arr);
    for (i = 0; i < nq; i++)
        w = put(w, &qs[i].tail);
    for (i = 0; i < nq; i++)
        w = put(w, &qs[i].dram);
    for (i = 0; i < nq; i++)
        w = put(w, &qs[i].sram);
    for (i = 0; i < nq; i++)
        w = put(w, &qs[i].req);
    for (i = 0; i < nq; i++)
        w = put(w, &qs[i].arr);
    return put(w, crit);
}

static void free_queues(qstate *qs, int nq)
{
    int i;
    if (!qs)
        return;
    for (i = 0; i < nq; i++) {
        free(qs[i].tail.buf);
        free(qs[i].dram.buf);
        free(qs[i].sram.buf);
        free(qs[i].req.buf);
        free(qs[i].arr.buf);
    }
    free(qs);
}

/* (delay, count) pairs of the histogram, in ascending delay order. */
static int64_t hist_pairs(const hist *h)
{
    int64_t d, n = 0;
    for (d = 0; d <= h->max && h->count; d++)
        if (h->count[d])
            n++;
    return n;
}

/* The result's tail both slot loops share: delay pairs, head misses,
 * drained arrival slots. */
static void put_outcome(int64_t *w, const hist *delays, const ivec *misses,
                        const ivec *drained)
{
    int64_t d;
    for (d = 0; d <= delays->max && delays->count; d++)
        if (delays->count[d]) {
            *w++ = d;
            *w++ = delays->count[d];
        }
    w = put(w, misses);
    put(w, drained);
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

static int upper_bound_d(const double *a, int hi, double x)
{
    int lo = 0;
    while (lo < hi) {
        int mid = (lo + hi) >> 1;
        if (x < a[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

void rads_free_result(int64_t *result)
{
    free(result);
}

int64_t rads_run_span(kcfg *c, kptrs *p)
{
    const int nq = (int)c->num_queues;
    const int g = (int)c->granularity;
    const int strict = (int)c->strict;
    const int64_t tail_cap = c->tail_cap;
    const int64_t dram_cap = c->dram_cap;
    const int64_t sram_cap = c->sram_cap;
    const int la_len = (int)c->la_len;
    const int64_t num_slots = c->num_slots;
    const int is_main = (int)c->is_main;
    const int plan_mode = (int)c->plan_mode;
    int64_t err = ERR_OK;
    int i, q2;
    int *rb_shift = NULL;           /* 32 - bit_length(m), idx 0..nq */
    qstate *qs = NULL;
    ivec crit = {0}, pend = {0}, misses = {0}, drained = {0};
    hist delays = {0};
    mt_state arb, bern;
    p->result = NULL;
    if (nq < 1 || nq > MAX_QUEUES || g < 1 || la_len < 1
            || c->la_pos < 0 || c->la_pos >= la_len
            || c->eligible_len < 0 || c->eligible_len > nq
            || c->pending_len < 0)
        return ERR_ARG;
    rb_shift = randbelow_shifts(nq);
    qs = (qstate *)calloc((size_t)nq, sizeof(qstate));
    if (!rb_shift || !qs) {
        err = ERR_OOM;
        goto cleanup;
    }

    /* Every id that indexes per-queue state must name a queue. */
    for (i = 0; i < la_len; i++)
        if (p->la_ring[i] < -1 || p->la_ring[i] >= nq)
            err = ERR_ARG;
    for (i = 0; i < c->eligible_len; i++)
        if (p->eligible[i] < 0 || p->eligible[i] >= nq)
            err = ERR_ARG;
    if (err != ERR_OK)
        goto cleanup;

    memcpy(arb.key, p->arb_key, sizeof(arb.key));
    arb.pos = (int)p->arb_meta[0];
    arb.consumed = 0;
    if (plan_mode == 1) {
        memcpy(bern.key, p->bern_key, sizeof(bern.key));
        bern.pos = (int)p->bern_meta[0];
        bern.consumed = 0;
    }

    /* ---- working state from the image ---- */
    {
        reader r = {p->state, c->state_len};
        err = load_queues(&r, qs, &crit, c, p);
        for (i = 0; i < c->pending_len && err == ERR_OK; i++) {
            const int64_t *entry = take(&r, 3);
            if (!entry || entry[1] < 0 || entry[1] >= nq) {
                err = ERR_ARG;
                break;
            }
            if (!iv_append(&pend, entry, 3))
                err = ERR_OOM;
            else
                err = iv_load(&pend, &r, entry[2]);
        }
        if (err != ERR_OK)
            goto cleanup;
    }

    {
    /* ---- loop-local scalars ---- */
    int64_t tail_total = c->tail_total, dram_total = c->dram_total;
    int64_t sram_total = c->sram_total;
    int la_pos = (int)c->la_pos;
    int64_t negatives = c->negatives;
    int64_t cells_in = c->cells_in, cells_out = c->cells_out;
    int64_t dram_reads = c->dram_reads, dram_writes = c->dram_writes;
    int64_t dropped = c->dropped;
    int64_t max_tail = c->max_tail, max_head = c->max_head;
    int64_t pend_len = c->pending_len;
    int elig_len = (int)c->eligible_len;
    int64_t n_delays = 0, n_tail_miss = 0;
    int64_t arrivals_seen = 0, grants = 0;
    int big_cnt = 0;
    int64_t *elig = p->eligible;
    int64_t *crit_cache = p->crit_cache;
    int64_t *counters = p->counters;
    int64_t *req_count = p->req_count;
    int64_t *tail_occ = p->tail_occ;
    int64_t *dram_occ = p->dram_occ;
    int64_t slot, next_land;
    int pc;

    next_land = pend_len ? pend.buf[pend.head] : NEVER;

    for (i = 0; i < nq; i++)
        if (tail_occ[i] >= g)
            big_cnt++;
    pc = (g - (int)(c->start_slot % g)) % g;

    for (slot = c->start_slot; slot < c->start_slot + num_slots; slot++) {
        int pol = 0;
        int a = -1;         /* arrival queue, -1 = none */
        int request = -1;   /* granted queue, -1 = none */
        int leaving;
        if (--pc < 0) {
            pc = g - 1;
            pol = 1;
        }

        if (is_main) {
            /* -- arbiter: gate draw, then choice over eligible -- */
            if (mt_comb53(&arb) < c->arb_tint && elig_len) {
                request = (int)elig[mt_randbelow(&arb, elig_len,
                                                 rb_shift[elig_len])];
            }
            /* -- arrival plan -- */
            if (plan_mode == 0) {
                a = p->plan[slot - c->start_slot];
                if (a < -1 || a >= nq) {
                    err = ERR_ARG;
                    goto done;
                }
            } else if (plan_mode == 1) {
                if (mt_comb53(&bern) < c->bern_tint) {
                    double u = (double)mt_comb53(&bern)
                               * (1.0 / 9007199254740992.0);
                    a = upper_bound_d(p->cum_weights, nq - 1,
                                      u * c->bern_total);
                }
            }
        }

        /* -- arrival: cut through to head SRAM or enqueue for the tail -- */
        if (a >= 0) {
            qstate *qa = &qs[a];
            int64_t seqno = p->next_seqno[a]++;
            arrivals_seen++;
            if (!iv_push(&qa->arr, slot)) {
                err = ERR_OOM;
                goto done;
            }
            if (dram_occ[a] == 0 && tail_occ[a] == 0
                    && IV_COUNT(&qa->sram) < g) {
                sram_total++;
                if (sram_cap >= 0 && sram_total > sram_cap) {
                    err = ERR_STRICT;   /* SRAM overflow raises always */
                    goto done;
                }
                if (!heap_push(&qa->sram, seqno)) {
                    err = ERR_OOM;
                    goto done;
                }
                {
                    int64_t count = ++counters[a];
                    if (count == 0)
                        negatives--;
                    if (count >= 0 && count < req_count[a]) {
                        int64_t entered = qa->req.buf[qa->req.head + count];
                        crit_cache[a] = entered;
                        if (!heap_push(&crit, CRIT_KEY(entered, a))) {
                            err = ERR_OOM;
                            goto done;
                        }
                    } else {
                        crit_cache[a] = CRIT_INF;
                    }
                }
            } else if (tail_total >= tail_cap) {
                n_tail_miss++;
                if (strict) {
                    err = ERR_STRICT;
                    goto done;
                }
            } else {
                int64_t occ;
                if (!iv_push(&qa->tail, seqno)) {
                    err = ERR_OOM;
                    goto done;
                }
                occ = ++tail_occ[a];
                tail_total++;
                cells_in++;
                if (occ == g)
                    big_cnt++;
                if (!pol && tail_total > max_tail)
                    max_tail = tail_total;
            }
        }

        /* -- tail MMA (threshold scan, gated on the block count) -- */
        if (pol) {
            if (big_cnt) {
                int selection = -1;
                int64_t best_occ = g - 1;
                for (i = 0; i < nq; i++)
                    if (tail_occ[i] > best_occ) {
                        best_occ = tail_occ[i];
                        selection = i;
                    }
                if (selection >= 0) {
                    qstate *qt = &qs[selection];
                    int64_t avail = IV_COUNT(&qt->tail);
                    int evicted = avail < g ? (int)avail : g;
                    int64_t *blk = qt->tail.buf + qt->tail.head;
                    int64_t occ_b = tail_occ[selection];
                    int64_t occ_a = occ_b - evicted;
                    qt->tail.head += evicted;
                    tail_occ[selection] = occ_a;
                    tail_total -= evicted;
                    if (occ_b >= g && occ_a < g)
                        big_cnt--;
                    if (evicted) {
                        int stored = evicted;
                        if (dram_cap >= 0 && !strict) {
                            int64_t room = dram_cap - dram_total;
                            if (room < stored) {
                                int keep = room > 0 ? (int)room : 0;
                                dropped += stored - keep;
                                stored = keep;
                            }
                        }
                        if (stored) {
                            if (dram_cap >= 0
                                    && dram_total + stored > dram_cap) {
                                err = ERR_STRICT;
                                goto done;
                            }
                            /* blk stays valid: the tail buffer is not
                             * touched until the next push. */
                            if (!iv_append(&qt->dram, blk, stored)) {
                                err = ERR_OOM;
                                goto done;
                            }
                            dram_total += stored;
                            dram_occ[selection] += stored;
                        }
                        dram_writes++;
                    }
                }
            }
            if (tail_total > max_tail)
                max_tail = tail_total;
        }

        /* -- head: lookahead shift, ECQF bookkeeping -- */
        leaving = (int)p->la_ring[la_pos];
        p->la_ring[la_pos] = request;
        if (++la_pos == la_len)
            la_pos = 0;
        if (request >= 0) {
            qstate *qr = &qs[request];
            int64_t count;
            if (!iv_push(&qr->req, slot)) {
                err = ERR_OOM;
                goto done;
            }
            count = req_count[request]++;
            if (counters[request] == count) {
                crit_cache[request] = slot;
                if (!heap_push(&crit, CRIT_KEY(slot, request))) {
                    err = ERR_OOM;
                    goto done;
                }
            }
        }
        if (leaving >= 0) {
            int64_t count = --counters[leaving];
            if (count == -1) {
                negatives++;
                crit_cache[leaving] = CRIT_INF;
            }
            qs[leaving].req.head++;   /* python compaction is layout-only */
            req_count[leaving]--;
        }

        /* -- transfer landings -- */
        if (next_land <= slot) {
            while (pend_len && pend.buf[pend.head] <= slot) {
                int lq = (int)pend.buf[pend.head + 1];
                int64_t cnt = pend.buf[pend.head + 2];
                const int64_t *cells = pend.buf + pend.head + 3;
                qstate *ql = &qs[lq];
                for (q2 = 0; q2 < cnt; q2++) {
                    sram_total++;
                    if (sram_cap >= 0 && sram_total > sram_cap) {
                        err = ERR_STRICT;
                        goto done;
                    }
                    if (!heap_push(&ql->sram, cells[q2])) {
                        err = ERR_OOM;
                        goto done;
                    }
                }
                pend.head += 3 + cnt;
                pend_len--;
            }
            next_land = pend_len ? pend.buf[pend.head] : NEVER;
        }

        /* -- ECQF select + replenish -- */
        if (pol) {
            int selection = -1;
            if (negatives) {
                int64_t best_counter = 0;
                for (i = 0; i < nq; i++)
                    if (counters[i] < 0
                            && (selection < 0 || counters[i] < best_counter)) {
                        best_counter = counters[i];
                        selection = i;
                    }
            } else {
                while (crit.len) {
                    int64_t top = crit.buf[0];
                    int tq = CRIT_QUEUE(top);
                    if (crit_cache[tq] == CRIT_ENTERED(top)) {
                        selection = tq;
                        break;
                    }
                    heap_pop(&crit);
                }
                if (selection < 0 && c->ecqf_fallback) {
                    int64_t best_deficit = 0;
                    for (i = 0; i < nq; i++)
                        if (req_count[i]) {
                            int64_t deficit = req_count[i] - counters[i];
                            if (selection < 0 || deficit > best_deficit) {
                                best_deficit = deficit;
                                selection = i;
                            }
                        }
                    if (selection >= 0 && best_deficit <= 0)
                        selection = -1;
                }
            }
            if (selection >= 0) {
                qstate *qr = &qs[selection];
                int64_t got = 0, extra = 0, nseqs;
                if (dram_occ[selection]) {
                    int64_t avail = IV_COUNT(&qr->dram);
                    got = avail < g ? avail : g;
                }
                if (got < g) {
                    int64_t avail = IV_COUNT(&qr->tail);
                    extra = avail < g - got ? avail : g - got;
                }
                nseqs = got + extra;
                if (nseqs) {
                    /* The block lands g slots from now: DRAM cells first,
                     * then the cut-through rest from the tail. */
                    if (!pend_len)
                        next_land = slot + g;
                    if (!iv_push(&pend, slot + g)
                            || !iv_push(&pend, selection)
                            || !iv_push(&pend, nseqs)
                            || !iv_append(&pend, qr->dram.buf + qr->dram.head,
                                          got)
                            || !iv_append(&pend, qr->tail.buf + qr->tail.head,
                                          extra)) {
                        err = ERR_OOM;
                        goto done;
                    }
                    pend_len++;
                    dram_reads++;
                }
                if (got) {
                    qr->dram.head += got;
                    dram_occ[selection] -= got;
                    dram_total -= got;
                }
                if (extra) {
                    int64_t occ_b = tail_occ[selection];
                    int64_t occ_a = occ_b - extra;
                    qr->tail.head += extra;
                    tail_occ[selection] = occ_a;
                    tail_total -= extra;
                    if (occ_b >= g && occ_a < g)
                        big_cnt--;
                }
                if (nseqs) {
                    int64_t count = counters[selection] + nseqs;
                    counters[selection] = count;
                    if (count >= 0 && count - nseqs < 0)
                        negatives--;
                    if (count >= 0 && count < req_count[selection]) {
                        int64_t entered = qr->req.buf[qr->req.head + count];
                        crit_cache[selection] = entered;
                        if (!heap_push(&crit, CRIT_KEY(entered, selection))) {
                            err = ERR_OOM;
                            goto done;
                        }
                    } else {
                        crit_cache[selection] = CRIT_INF;
                    }
                }
            }
        }

        /* -- serve -- */
        if (leaving >= 0) {
            qstate *ql = &qs[leaving];
            int64_t expected = p->delivered[leaving];
            int ok = 1;
            if (ql->sram.len && ql->sram.buf[0] == expected) {
                heap_pop(&ql->sram);
                sram_total--;
            } else if (tail_occ[leaving]
                       && ql->tail.buf[ql->tail.head] == expected) {
                /* tail bypass: the in-order cell never left the tail */
                int64_t occ;
                ql->tail.head++;
                occ = --tail_occ[leaving];
                tail_total--;
                if (occ == g - 1)
                    big_cnt--;
            } else {
                if (!iv_push(&misses, leaving) || !iv_push(&misses, slot)) {
                    err = ERR_OOM;
                    goto done;
                }
                if (strict) {
                    err = ERR_STRICT;
                    goto done;
                }
                ok = 0;
            }
            if (ok) {
                int64_t arrival_slot;
                if (!IV_COUNT(&ql->arr)) {
                    err = ERR_ARG;      /* a cell without an arrival slot */
                    goto done;
                }
                p->delivered[leaving] = expected + 1;
                cells_out++;
                arrival_slot = ql->arr.buf[ql->arr.head++];
                if (is_main) {
                    n_delays++;
                    err = hist_add(&delays, slot + 1 - arrival_slot);
                    if (err != ERR_OK)
                        goto done;
                } else if (!iv_push(&drained, arrival_slot)) {
                    err = ERR_OOM;
                    goto done;
                }
            }
        }
        if (sram_total > max_head)
            max_head = sram_total;

        /* -- end of slot: backlog + eligible -- */
        if (is_main) {
            if (a >= 0) {
                int64_t count = ++p->backlog[a];
                if (count == 1) {
                    int lo = 0, hi = elig_len;
                    while (lo < hi) {
                        int mid = (lo + hi) >> 1;
                        if (elig[mid] < a)
                            lo = mid + 1;
                        else
                            hi = mid;
                    }
                    memmove(elig + lo + 1, elig + lo,
                            (size_t)(elig_len - lo) * sizeof(int64_t));
                    elig[lo] = a;
                    elig_len++;
                }
            }
            if (request >= 0) {
                int64_t count;
                grants++;
                count = --p->backlog[request];
                if (count == 0) {
                    int lo = 0, hi = elig_len;
                    while (lo < hi) {
                        int mid = (lo + hi) >> 1;
                        if (elig[mid] < request)
                            lo = mid + 1;
                        else
                            hi = mid;
                    }
                    memmove(elig + lo, elig + lo + 1,
                            (size_t)(elig_len - lo - 1) * sizeof(int64_t));
                    elig_len--;
                }
            }
        }
    }

done:
    if (err == ERR_OK) {
        /* ---- the one exact-size result (layout above kptrs) ---- */
        int64_t n_pairs = hist_pairs(&delays);
        int64_t size = queues_size(qs, nq, &crit) + IV_COUNT(&pend)
                       + 2 * n_pairs + IV_COUNT(&misses) + IV_COUNT(&drained);
        int64_t *w = p->result = (int64_t *)malloc(
            (size_t)(size > 0 ? size : 1) * sizeof(int64_t));
        if (!w) {
            err = ERR_OOM;
            goto cleanup;
        }
        w = put_queues(w, qs, nq, &crit);
        w = put(w, &pend);
        put_outcome(w, &delays, &misses, &drained);
        c->result_len = size;

        /* ---- scalars back ---- */
        c->tail_total = tail_total;
        c->dram_total = dram_total;
        c->sram_total = sram_total;
        c->la_pos = la_pos;
        c->negatives = negatives;
        c->cells_in = cells_in;
        c->cells_out = cells_out;
        c->dram_reads = dram_reads;
        c->dram_writes = dram_writes;
        c->dropped = dropped;
        c->max_tail = max_tail;
        c->max_head = max_head;
        c->crit_len = crit.len;
        c->pending_len = pend_len;
        c->eligible_len = elig_len;
        c->n_delays = n_delays;
        c->n_delay_pairs = n_pairs;
        c->n_head_miss = IV_COUNT(&misses) / 2;
        c->n_tail_miss = n_tail_miss;
        c->n_drained = IV_COUNT(&drained);
        c->arrivals_seen = arrivals_seen;
        c->grants = grants;

        /* ---- final RNG states (python setstate()s these verbatim) ---- */
        memcpy(p->arb_key, arb.key, sizeof(arb.key));
        p->arb_meta[0] = arb.pos;
        p->arb_meta[1] = arb.consumed;
        if (plan_mode == 1) {
            memcpy(p->bern_key, bern.key, sizeof(bern.key));
            p->bern_meta[0] = bern.pos;
            p->bern_meta[1] = bern.consumed;
        }
    }
    }

cleanup:
    free_queues(qs, nq);
    free(crit.buf);
    free(pend.buf);
    free(misses.buf);
    free(drained.buf);
    free(delays.count);
    free(rb_shift);
    return err;
}

/* ------------------------------------------------------------------ */
/* CFDS span (repro.sim.array_engine._CFDSCore.run_span)               */
/* ------------------------------------------------------------------ */

/* The arbiters the CFDS entry runs (the RADS entry runs RandomArbiter). */
#define ARB_NONE 0
#define ARB_RANDOM 1
#define ARB_LONGEST 2

/* "No issue yet" marker of last_issue (python None). */
#define NO_SLOT INT64_MIN

typedef struct {
    kcfg k;                 /* plan_mode 0 or 2; pending_len 0 */
    /* configuration (in) */
    int64_t arb_mode;       /* ARB_* */
    int64_t lat_len;
    int64_t rr_cap;         /* -1 = unbounded */
    int64_t issues, ras, bus_slots, dram_strict;
    int64_t num_banks, num_groups, banks_per_group, num_physical;
    int64_t renaming;       /* 1: renaming registers and free names */
    int64_t group_cap;      /* -1 = unbounded */
    int64_t orr_len;
    /* machine scalars (in/out) */
    int64_t lat_pos, orr_pos, rr_peak, conflicts;
    int64_t last_issue;     /* NO_SLOT = none */
    int64_t flight_next;    /* CRIT_INF = none in flight */
    int64_t max_delay;
} ccfg;

/* The CFDS state image is kptrs.state's head (load_queues) followed by
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
 * The result has the same layout, then put_outcome's tail. */
typedef struct {
    kptrs k;
    int64_t *lat_ring;      /* in/out, len lat_len, -1 = empty */
    int64_t *locks, *busy_until;    /* in/out, num_banks */
    int64_t *group_occ;     /* in/out, num_groups */
    int64_t *in_use, *write_count;  /* in/out, num_physical */
} cptrs;

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

/* The free physical name _allocate_name picks: from the group with the
 * fewest cells among those with a free name and room for `cells`, ties to
 * the lowest group; -1 when there is none. */
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

int64_t cfds_run_span(ccfg *cc, cptrs *cp)
{
    kcfg *c = &cc->k;
    kptrs *p = &cp->k;
    const int nq = (int)c->num_queues;
    const int g = (int)c->granularity;
    const int strict = (int)c->strict;
    const int64_t tail_cap = c->tail_cap;
    const int64_t dram_cap = c->dram_cap;
    const int64_t sram_cap = c->sram_cap;
    const int la_len = (int)c->la_len;
    const int lat_len = (int)cc->lat_len;
    const int64_t num_slots = c->num_slots;
    const int is_main = (int)c->is_main;
    const int plan_mode = (int)c->plan_mode;
    const int arb_mode = is_main ? (int)cc->arb_mode : ARB_NONE;
    const int64_t rr_cap = cc->rr_cap;
    const int64_t issues = cc->issues, ras = cc->ras;
    const int64_t bus_slots = cc->bus_slots;
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
    int *rb_shift = NULL;
    qstate *qs = NULL;
    ivec crit = {0}, misses = {0}, drained = {0};
    ivec rr = {0}, flight = {0}, landed = {0};
    ivec *names = NULL, *free_names = NULL, *locs = NULL;
    int64_t *orr_cnt = NULL, *orr_banks = NULL, *issued = NULL;
    rpool pool;
    hist delays = {0};
    mt_state arb;
    memset(&pool, 0, sizeof(pool));
    p->result = NULL;
    if (nq < 1 || nq > MAX_QUEUES || g < 1 || la_len < 0 || lat_len < 0
            || (la_len && (c->la_pos < 0 || c->la_pos >= la_len))
            || (lat_len && (cc->lat_pos < 0 || cc->lat_pos >= lat_len))
            || c->eligible_len < 0 || c->eligible_len > nq
            || c->pending_len != 0 || (plan_mode != 0 && plan_mode != 2)
            || (plan_mode == 0 && is_main && !p->plan)
            || arb_mode < ARB_NONE || arb_mode > ARB_LONGEST
            || issues < 1 || num_banks < 1 || ngroups < 1 || bpg < 1
            || ngroups * bpg > num_banks || nphys < nq || orr_len < 0
            || (orr_len && (cc->orr_pos < 0 || cc->orr_pos >= orr_len)))
        return ERR_ARG;
    pool.stride = R_CELLS + g;
    rb_shift = randbelow_shifts(nq);
    qs = (qstate *)calloc((size_t)nq, sizeof(qstate));
    locs = (ivec *)calloc((size_t)nq, sizeof(ivec));
    issued = (int64_t *)malloc((size_t)issues * sizeof(int64_t));
    orr_cnt = (int64_t *)calloc((size_t)(orr_len + 1), sizeof(int64_t));
    orr_banks = (int64_t *)malloc((size_t)(orr_len * issues + 1)
                                  * sizeof(int64_t));
    if (renaming) {
        names = (ivec *)calloc((size_t)nq, sizeof(ivec));
        free_names = (ivec *)calloc((size_t)ngroups, sizeof(ivec));
    }
    if (!rb_shift || !qs || !locs || !issued || !orr_cnt || !orr_banks
            || (renaming && (!names || !free_names))) {
        err = ERR_OOM;
        goto cleanup;
    }

    /* Every id that indexes per-queue, per-bank or per-name state must
     * name one. */
    for (i = 0; i < la_len; i++)
        if (p->la_ring[i] < -1 || p->la_ring[i] >= nq)
            err = ERR_ARG;
    for (i = 0; i < lat_len; i++)
        if (cp->lat_ring[i] < -1 || cp->lat_ring[i] >= nq)
            err = ERR_ARG;
    for (i = 0; i < c->eligible_len; i++)
        if (p->eligible[i] < 0 || p->eligible[i] >= nq)
            err = ERR_ARG;
    for (i = 0; i < nphys; i++)
        if (write_count[i] < 0)
            err = ERR_ARG;
    if (err != ERR_OK)
        goto cleanup;

    if (arb_mode == ARB_RANDOM) {
        if (p->arb_meta[0] < 0 || p->arb_meta[0] > MT_N) {
            err = ERR_ARG;
            goto cleanup;
        }
        memcpy(arb.key, p->arb_key, sizeof(arb.key));
        arb.pos = (int)p->arb_meta[0];
        arb.consumed = 0;
    }

    /* ---- working state from the image ---- */
    {
        reader r = {p->state, c->state_len};
        const int64_t *cnt;
        int64_t id;
        err = load_queues(&r, qs, &crit, c, p);
        if (err != ERR_OK)
            goto cleanup;
        cnt = take(&r, 1);
        if (!cnt || *cnt < 0 || *cnt > r.left / 4) {
            err = ERR_ARG;
            goto cleanup;
        }
        for (j = *cnt; j > 0 && err == ERR_OK; j--) {
            err = rec_load(&pool, &r, 0, nq, num_banks, g, &id);
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
            err = rec_load(&pool, &r, *finish, nq, num_banks, g, &id);
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
        for (j = 0; renaming && j < nq && err == ERR_OK; j++)
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
        for (j = 0; j < nq && err == ERR_OK; j++)
            err = pairs_load(&locs[j], &r, nphys);
        if (err == ERR_OK && r.left != 0)
            err = ERR_ARG;
        if (err != ERR_OK)
            goto cleanup;
    }

    {
    /* ---- loop-local scalars ---- */
    int64_t tail_total = c->tail_total, dram_total = c->dram_total;
    int64_t sram_total = c->sram_total;
    int la_pos = (int)c->la_pos, lat_pos = (int)cc->lat_pos;
    int64_t orr_pos = cc->orr_pos;
    int64_t negatives = c->negatives;
    int64_t cells_in = c->cells_in, cells_out = c->cells_out;
    int64_t dram_reads = c->dram_reads, dram_writes = c->dram_writes;
    int64_t dropped = c->dropped;
    int64_t max_tail = c->max_tail, max_head = c->max_head;
    int64_t rr_peak = cc->rr_peak, conflicts = cc->conflicts;
    int64_t last_issue = cc->last_issue, flight_next = cc->flight_next;
    int64_t max_delay = cc->max_delay;
    int elig_len = (int)c->eligible_len;
    int64_t n_delays = 0, n_tail_miss = 0;
    int64_t arrivals_seen = 0, grants = 0;
    int big_cnt = 0;
    int64_t *elig = p->eligible;
    int64_t *crit_cache = p->crit_cache;
    int64_t *counters = p->counters;
    int64_t *req_count = p->req_count;
    int64_t *tail_occ = p->tail_occ;
    int64_t *dram_occ = p->dram_occ;
    int64_t *backlog = p->backlog;
    int64_t slot;
    int pc;

    for (i = 0; i < nq; i++)
        if (tail_occ[i] >= g)
            big_cnt++;
    pc = (g - (int)(c->start_slot % g)) % g;

    for (slot = c->start_slot; slot < c->start_slot + num_slots; slot++) {
        int period = 0;
        int a = -1;         /* arrival queue, -1 = none */
        int request = -1;   /* requested queue, -1 = none */
        int leaving, due;
        if (--pc < 0) {
            pc = g - 1;
            period = 1;
        }

        if (is_main) {
            /* -- arbiter, then the arrival plan -- */
            if (arb_mode == ARB_RANDOM) {
                if (mt_comb53(&arb) < c->arb_tint && elig_len)
                    request = (int)elig[mt_randbelow(&arb, elig_len,
                                                     rb_shift[elig_len])];
            } else if (arb_mode == ARB_LONGEST) {
                int64_t best = 0;
                for (i = 0; i < nq; i++)
                    if (backlog[i] > best) {
                        best = backlog[i];
                        request = (int)i;
                    }
            }
            if (plan_mode == 0) {
                a = p->plan[slot - c->start_slot];
                if (a < -1 || a >= nq) {
                    err = ERR_ARG;
                    goto done;
                }
            }
        }

        /* -- arrival with cut-through routing -- */
        if (a >= 0) {
            qstate *qa = &qs[a];
            int64_t seqno = p->next_seqno[a]++;
            arrivals_seen++;
            if (!iv_push(&qa->arr, slot)) {
                err = ERR_OOM;
                goto done;
            }
            if (dram_occ[a] == 0 && tail_occ[a] == 0
                    && IV_COUNT(&qa->sram) < g) {
                int64_t count;
                sram_total++;
                if (sram_cap >= 0 && sram_total > sram_cap) {
                    err = ERR_STRICT;   /* SRAM overflow raises always */
                    goto done;
                }
                if (!heap_push(&qa->sram, seqno)) {
                    err = ERR_OOM;
                    goto done;
                }
                count = ++counters[a];
                if (count == 0)
                    negatives--;
                if (count >= 0 && count < req_count[a]) {
                    int64_t entered = qa->req.buf[qa->req.head + count];
                    crit_cache[a] = entered;
                    if (!heap_push(&crit, CRIT_KEY(entered, a))) {
                        err = ERR_OOM;
                        goto done;
                    }
                } else {
                    crit_cache[a] = CRIT_INF;
                }
            } else if (tail_total >= tail_cap) {
                n_tail_miss++;
                if (strict) {
                    err = ERR_STRICT;
                    goto done;
                }
            } else {
                if (!iv_push(&qa->tail, seqno)) {
                    err = ERR_OOM;
                    goto done;
                }
                if (++tail_occ[a] == g)
                    big_cnt++;
                tail_total++;
                cells_in++;
            }
        }

        /* -- tail MMA: evict a block through renaming (or static group
         *    placement) into DRAM and the Requests Register -- */
        if (period && big_cnt) {
            int sel = -1;
            int64_t best_occ = g - 1;
            for (i = 0; i < nq; i++)
                if (tail_occ[i] > best_occ) {
                    best_occ = tail_occ[i];
                    sel = (int)i;
                }
            if (sel >= 0) {
                qstate *qt = &qs[sel];
                int64_t avail = IV_COUNT(&qt->tail);
                int64_t evicted = avail < g ? avail : g;
                /* blk stays valid: the tail buffer is not touched until
                 * the next push. */
                const int64_t *blk = qt->tail.buf + qt->tail.head;
                int64_t occ_b = tail_occ[sel], occ_a = occ_b - evicted;
                qt->tail.head += evicted;
                tail_occ[sel] = occ_a;
                tail_total -= evicted;
                if (occ_b >= g && occ_a < g)
                    big_cnt--;
                if (evicted) {
                    int64_t physical = -1, index, id, *rec;
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
                            physical = allocate_name(free_names, ngroups,
                                                     group_occ, group_cap,
                                                     evicted);
                            if (physical >= 0) {
                                in_use[physical] = 1;
                                if (!iv_push(nm, physical)
                                        || !iv_push(nm, 0)) {
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
                    } else {
                        int64_t grp = sel % ngroups;
                        if (group_cap < 0
                                || group_occ[grp] + evicted <= group_cap) {
                            physical = sel;
                            group_occ[grp] += evicted;
                        }
                    }
                    if (physical < 0) {
                        dropped += evicted;
                    } else {
                        index = write_count[physical]++;
                        if (dram_cap >= 0 && dram_total + evicted > dram_cap) {
                            err = ERR_STRICT;   /* DRAM overflow raises */
                            goto done;
                        }
                        if (!iv_append(&qt->dram, blk, evicted)
                                || !iv_push(&locs[sel], physical)
                                || !iv_push(&locs[sel], index)) {
                            err = ERR_OOM;
                            goto done;
                        }
                        dram_total += evicted;
                        dram_occ[sel] += evicted;
                        if (rr_cap >= 0 && rr.len >= rr_cap) {
                            err = ERR_STRICT;   /* RR overflow raises */
                            goto done;
                        }
                        id = rec_new(&pool);
                        if (id < 0 || !iv_push(&rr, id)) {
                            err = ERR_OOM;
                            goto done;
                        }
                        rec = REC(&pool, id);
                        rec[R_BANK] = (physical % ngroups) * bpg + index % bpg;
                        rec[R_ISSUED] = slot;
                        rec[R_QUEUE] = -1;
                        rec[R_COUNT] = -1;
                        if (rr.len > rr_peak)
                            rr_peak = rr.len;
                        dram_writes++;
                    }
                }
            }
        }
        if (tail_total > max_tail)
            max_tail = tail_total;

        /* -- head: lookahead -> latency register -> ECQF bookkeeping -- */
        if (la_len) {
            leaving = (int)p->la_ring[la_pos];
            p->la_ring[la_pos] = request;
            if (++la_pos == la_len)
                la_pos = 0;
        } else {
            leaving = request;
        }
        if (lat_len) {
            due = (int)cp->lat_ring[lat_pos];
            cp->lat_ring[lat_pos] = leaving;
            if (++lat_pos == lat_len)
                lat_pos = 0;
        } else {
            due = leaving;
        }
        if (request >= 0) {
            qstate *qr = &qs[request];
            int64_t count;
            if (!iv_push(&qr->req, slot)) {
                err = ERR_OOM;
                goto done;
            }
            count = req_count[request]++;
            if (counters[request] == count) {
                crit_cache[request] = slot;
                if (!heap_push(&crit, CRIT_KEY(slot, request))) {
                    err = ERR_OOM;
                    goto done;
                }
            }
        }
        if (due >= 0) {
            int64_t count = --counters[due];
            if (count == -1) {
                negatives++;
                crit_cache[due] = CRIT_INF;
            }
            qs[due].req.head++;   /* python compaction is layout-only */
            req_count[due]--;
        }

        /* -- ECQF select, then fetch: DRAM pop, location pop, renaming
         *    debit, ECQF credit, Requests Register push (or cut-through
         *    from the tail straight into the head SRAM) -- */
        if (period) {
            int sel = -1;
            if (negatives) {
                int64_t best_counter = 0;
                for (i = 0; i < nq; i++)
                    if (counters[i] < 0
                            && (sel < 0 || counters[i] < best_counter)) {
                        best_counter = counters[i];
                        sel = (int)i;
                    }
            } else {
                while (crit.len) {
                    int64_t top = crit.buf[0];
                    int tq = CRIT_QUEUE(top);
                    if (crit_cache[tq] == CRIT_ENTERED(top)) {
                        sel = tq;
                        break;
                    }
                    heap_pop(&crit);
                }
                if (sel < 0 && c->ecqf_fallback) {
                    int64_t best_deficit = 0;
                    for (i = 0; i < nq; i++)
                        if (req_count[i]) {
                            int64_t deficit = req_count[i] - counters[i];
                            if (sel < 0 || deficit > best_deficit) {
                                best_deficit = deficit;
                                sel = (int)i;
                            }
                        }
                    if (sel >= 0 && best_deficit <= 0)
                        sel = -1;
                }
            }
            if (sel >= 0) {
                qstate *qr = &qs[sel];
                const int64_t *seqs;
                int64_t got, bank = -1;
                if (dram_occ[sel] > 0) {
                    int64_t avail = IV_COUNT(&qr->dram), physical, index;
                    ivec *loc = &locs[sel];
                    got = avail < g ? avail : g;
                    seqs = qr->dram.buf + qr->dram.head;
                    qr->dram.head += got;
                    dram_occ[sel] -= got;
                    dram_total -= got;
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
                            if (count == taken) {
                                nm->head += 2;
                                if (in_use[name]) {
                                    in_use[name] = 0;
                                    if (!iv_push(&free_names[name % ngroups],
                                                 name)) {
                                        err = ERR_OOM;
                                        goto done;
                                    }
                                }
                            } else {
                                nm->buf[nm->head + 1] = count - taken;
                            }
                        }
                    } else {
                        group_occ[physical % ngroups] -= got;
                    }
                    bank = (physical % ngroups) * bpg + index % bpg;
                } else {
                    int64_t avail = IV_COUNT(&qr->tail);
                    int64_t occ_b = tail_occ[sel], occ_a;
                    got = avail < g ? avail : g;
                    seqs = qr->tail.buf + qr->tail.head;
                    qr->tail.head += got;
                    occ_a = occ_b - got;
                    tail_occ[sel] = occ_a;
                    tail_total -= got;
                    if (occ_b >= g && occ_a < g)
                        big_cnt--;
                }
                if (got) {
                    int64_t count = counters[sel] + got;
                    counters[sel] = count;
                    if (count >= 0 && count - got < 0)
                        negatives--;
                    if (count >= 0 && count < req_count[sel]) {
                        int64_t entered = qr->req.buf[qr->req.head + count];
                        crit_cache[sel] = entered;
                        if (!heap_push(&crit, CRIT_KEY(entered, sel))) {
                            err = ERR_OOM;
                            goto done;
                        }
                    } else {
                        crit_cache[sel] = CRIT_INF;
                    }
                    if (bank < 0) {
                        /* cut-through: in the head SRAM at once; seqs
                         * stays valid, the tail buffer is not pushed */
                        for (j = 0; j < got; j++) {
                            sram_total++;
                            if (sram_cap >= 0 && sram_total > sram_cap) {
                                err = ERR_STRICT;
                                goto done;
                            }
                            if (!heap_push(&qr->sram, seqs[j])) {
                                err = ERR_OOM;
                                goto done;
                            }
                        }
                    } else {
                        int64_t id, *rec;
                        if (rr_cap >= 0 && rr.len >= rr_cap) {
                            err = ERR_STRICT;
                            goto done;
                        }
                        id = rec_new(&pool);
                        if (id < 0 || !iv_push(&rr, id)) {
                            err = ERR_OOM;
                            goto done;
                        }
                        rec = REC(&pool, id);
                        rec[R_BANK] = bank;
                        rec[R_ISSUED] = slot;
                        rec[R_QUEUE] = sel;
                        rec[R_COUNT] = got;
                        memcpy(rec + R_CELLS, seqs,
                               (size_t)got * sizeof(int64_t));
                        if (rr.len > rr_peak)
                            rr_peak = rr.len;
                        dram_reads++;
                    }
                }
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
                    if (rec[R_COUNT] >= 0) {
                        if (!iv_push(&landed, id)) {
                            err = ERR_OOM;
                            goto done;
                        }
                    } else if (!iv_push(&pool.spare, id)) {
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
                if (last_issue != NO_SLOT && slot - last_issue < bus_slots
                        && slot != last_issue) {
                    err = ERR_STRICT;   /* the address-bus violation */
                    goto done;
                }
                busy = busy_until[bank];
                if (slot < busy) {
                    conflicts++;
                    if (cc->dram_strict) {
                        err = ERR_STRICT;
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
            int64_t id = landed.buf[j], k;
            const int64_t *rec = REC(&pool, id);
            qstate *ql = &qs[rec[R_QUEUE]];
            for (k = 0; k < rec[R_COUNT]; k++) {
                sram_total++;
                if (sram_cap >= 0 && sram_total > sram_cap) {
                    err = ERR_STRICT;
                    goto done;
                }
                if (!heap_push(&ql->sram, rec[R_CELLS + k])) {
                    err = ERR_OOM;
                    goto done;
                }
            }
            if (!iv_push(&pool.spare, id)) {
                err = ERR_OOM;
                goto done;
            }
        }

        /* -- serve -- */
        if (due >= 0) {
            qstate *ql = &qs[due];
            int64_t expected = p->delivered[due];
            int ok = 1;
            if (ql->sram.len && ql->sram.buf[0] == expected) {
                heap_pop(&ql->sram);
                sram_total--;
            } else if (tail_occ[due]
                       && ql->tail.buf[ql->tail.head] == expected) {
                /* tail bypass: the in-order cell never left the tail */
                ql->tail.head++;
                if (--tail_occ[due] == g - 1)
                    big_cnt--;
                tail_total--;
            } else {
                if (!iv_push(&misses, due) || !iv_push(&misses, slot)) {
                    err = ERR_OOM;
                    goto done;
                }
                if (strict) {
                    err = ERR_STRICT;
                    goto done;
                }
                ok = 0;
            }
            if (ok) {
                int64_t arrival_slot;
                if (!IV_COUNT(&ql->arr)) {
                    err = ERR_ARG;      /* a cell without an arrival slot */
                    goto done;
                }
                p->delivered[due] = expected + 1;
                cells_out++;
                arrival_slot = ql->arr.buf[ql->arr.head++];
                if (is_main) {
                    n_delays++;
                    err = hist_add(&delays, slot + 1 - arrival_slot);
                    if (err != ERR_OK)
                        goto done;
                } else if (!iv_push(&drained, arrival_slot)) {
                    err = ERR_OOM;
                    goto done;
                }
            }
        }
        if (sram_total > max_head)
            max_head = sram_total;

        /* -- end of slot: backlog, and eligible for RandomArbiter -- */
        if (is_main) {
            if (a >= 0 && ++backlog[a] == 1 && arb_mode == ARB_RANDOM) {
                int lo = 0, hi = elig_len;
                while (lo < hi) {
                    int mid = (lo + hi) >> 1;
                    if (elig[mid] < a)
                        lo = mid + 1;
                    else
                        hi = mid;
                }
                memmove(elig + lo + 1, elig + lo,
                        (size_t)(elig_len - lo) * sizeof(int64_t));
                elig[lo] = a;
                elig_len++;
            }
            if (request >= 0) {
                grants++;
                if (--backlog[request] == 0 && arb_mode == ARB_RANDOM) {
                    int lo = 0, hi = elig_len;
                    while (lo < hi) {
                        int mid = (lo + hi) >> 1;
                        if (elig[mid] < request)
                            lo = mid + 1;
                        else
                            hi = mid;
                    }
                    memmove(elig + lo, elig + lo + 1,
                            (size_t)(elig_len - lo - 1) * sizeof(int64_t));
                    elig_len--;
                }
            }
        }
    }

done:
    if (err == ERR_OK) {
        /* ---- the one exact-size result (layout above cptrs) ---- */
        int64_t n_pairs = hist_pairs(&delays);
        int64_t size = queues_size(qs, nq, &crit) + 2 + 4 * rr.len
                       + 5 * flight.len + orr_len + 2 * n_pairs
                       + IV_COUNT(&misses) + IV_COUNT(&drained);
        int64_t *w;
        for (j = 0; j < rr.len; j++) {
            int64_t n = REC(&pool, rr.buf[j])[R_COUNT];
            size += n > 0 ? n : 0;
        }
        for (j = 0; j < flight.len; j++) {
            int64_t n = REC(&pool, flight.buf[j])[R_COUNT];
            size += n > 0 ? n : 0;
        }
        for (j = 0; j < orr_len; j++)
            size += orr_cnt[j];
        for (j = 0; renaming && j < nq; j++)
            size += 1 + IV_COUNT(&names[j]);
        for (j = 0; renaming && j < ngroups; j++)
            size += 1 + free_names[j].len;
        for (j = 0; j < nq; j++)
            size += 1 + IV_COUNT(&locs[j]);
        w = p->result = (int64_t *)malloc((size_t)size * sizeof(int64_t));
        if (!w) {
            err = ERR_OOM;
            goto cleanup;
        }
        w = put_queues(w, qs, nq, &crit);
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
        for (j = 0; renaming && j < nq; j++) {
            *w++ = IV_COUNT(&names[j]) / 2;
            w = put(w, &names[j]);
        }
        for (j = 0; renaming && j < ngroups; j++) {
            *w++ = free_names[j].len;
            w = put(w, &free_names[j]);
        }
        for (j = 0; j < nq; j++) {
            *w++ = IV_COUNT(&locs[j]) / 2;
            w = put(w, &locs[j]);
        }
        put_outcome(w, &delays, &misses, &drained);
        c->result_len = size;

        /* ---- scalars back ---- */
        c->tail_total = tail_total;
        c->dram_total = dram_total;
        c->sram_total = sram_total;
        c->la_pos = la_pos;
        c->negatives = negatives;
        c->cells_in = cells_in;
        c->cells_out = cells_out;
        c->dram_reads = dram_reads;
        c->dram_writes = dram_writes;
        c->dropped = dropped;
        c->max_tail = max_tail;
        c->max_head = max_head;
        c->crit_len = crit.len;
        c->eligible_len = elig_len;
        c->n_delays = n_delays;
        c->n_delay_pairs = n_pairs;
        c->n_head_miss = IV_COUNT(&misses) / 2;
        c->n_tail_miss = n_tail_miss;
        c->n_drained = IV_COUNT(&drained);
        c->arrivals_seen = arrivals_seen;
        c->grants = grants;
        cc->lat_pos = lat_pos;
        cc->orr_pos = orr_pos;
        cc->rr_peak = rr_peak;
        cc->conflicts = conflicts;
        cc->last_issue = last_issue;
        cc->flight_next = flight_next;
        cc->max_delay = max_delay;
        if (arb_mode == ARB_RANDOM) {
            memcpy(p->arb_key, arb.key, sizeof(arb.key));
            p->arb_meta[0] = arb.pos;
            p->arb_meta[1] = arb.consumed;
        }
    }
    }

cleanup:
    free_queues(qs, nq);
    if (locs)
        for (i = 0; i < nq; i++)
            free(locs[i].buf);
    if (names)
        for (i = 0; i < nq; i++)
            free(names[i].buf);
    if (free_names)
        for (i = 0; i < ngroups; i++)
            free(free_names[i].buf);
    free(locs);
    free(names);
    free(free_names);
    free(crit.buf);
    free(misses.buf);
    free(drained.buf);
    free(rr.buf);
    free(flight.buf);
    free(landed.buf);
    free(pool.recs.buf);
    free(pool.spare.buf);
    free(orr_cnt);
    free(orr_banks);
    free(issued);
    free(delays.count);
    free(rb_shift);
    return err;
}

/* ------------------------------------------------------------------ */
/* Crossbar fabric window (repro.switch.model.FabricStream)            */
/* ------------------------------------------------------------------ */

/* Largest port count the fabric entry accepts: its VOQ table holds
 * num_ports^2 FIFO descriptors (32 MiB at the cap). */
#define MAX_PORTS 1024

/* The stock FABRIC_TYPES policies, single-iteration request/grant/accept. */
#define POLICY_ISLIP 0
#define POLICY_RANDOM 1
#define POLICY_PRIORITY 2

/* More error codes; python replays the window and raises (or not). */
#define ERR_PLAN 4   /* a plan entry names no egress port */
#define ERR_STATE 5  /* an empty VOQ matched, or a flush slot matched none */

typedef struct {
    /* configuration (in) */
    int64_t num_ports, policy, num_slots, start_slot;
    int64_t flush;          /* 0: arrival window of num_slots slots; 1: flush
                               until the VOQs drain, at most num_slots */
    int64_t state_len;      /* elements in fptrs.state */
    /* in/out */
    int64_t peak;           /* peak ingress backlog so far */
    /* out */
    int64_t slots_run, offered, transferred, n_wait_pairs, result_len;
} fcfg;

/* The VOQ image (fptrs.state, read-only) and the tail of the result share
 * one layout: for every non-empty VOQ in ascending ingress * num_ports +
 * egress order, that index, the cell count and the cells' arrival slots.
 * The result is
 *
 *   trace rows (num_ports x slots_run, egress-major: the ingress whose
 *   cell entered the egress in that slot, -1 = none)
 *   per-egress cells moved in the window (num_ports)
 *   per-ingress backlog after the window (num_ports)
 *   n_wait_pairs (wait, count) pairs in ascending wait order
 *   the VOQ image after the window. */
typedef struct {
    uint32_t *rng_key;      /* in/out: 624 words (random) */
    int64_t *rng_meta;      /* in/out: [pos, consumed] (random) */
    int64_t *grant, *accept;    /* in/out: num_ports pointers each (islip) */
    const int32_t *plan;    /* arrival windows: num_ports x num_slots,
                               ingress-major, -1 = no arrival */
    const int64_t *state;   /* in: the VOQ image, state_len */
    int64_t *result;        /* out: kernel-owned, result_len */
} fptrs;

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

/* Lowest set bit at or after `from` in an nw-word bitset, or -1. */
static int bits_from(const uint64_t *w, int nw, int from)
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
static int bits_nth(const uint64_t *w, int nw, int k)
{
    int j;
    for (j = 0; j < nw; j++) {
        uint64_t x = w[j];
        int c = popcount64(x);
        if (k < c) {
            while (k--)
                x &= x - 1;
            return (j << 6) + ctz64(x);
        }
        k -= c;
    }
    return -1;
}

#define BIT_SET(w, b) ((w)[(b) >> 6] |= UINT64_C(1) << ((b) & 63))
#define BIT_CLEAR(w, b) ((w)[(b) >> 6] &= ~(UINT64_C(1) << ((b) & 63)))

typedef struct {
    int n, nw, policy;
    ivec *voq;              /* n x n FIFOs of arrival slots */
    uint64_t *req;          /* per egress: ingresses with a non-empty VOQ */
    int *req_cnt;           /* per egress: popcount of req */
    uint64_t *gmask;        /* per ingress: egresses granting it this slot */
    int *gcnt;              /* per ingress: popcount of gmask */
    uint64_t *granted;      /* ingresses holding a grant this slot */
    int *rb_shift;          /* 32 - bit_length(m), m = 0..n (random) */
    int64_t *backlog, *per_egress, *grant, *accept;
    int64_t *trace, stride, start;
    int64_t backlog_total, transferred;
    mt_state rng;
    hist waits;
} fabric;

/* One request/grant/accept match of `slot`, applied as
 * FabricStream._transfer_slot does; *matched counts the pairs. */
static int64_t fabric_slot(fabric *f, int64_t slot, int *matched)
{
    const int n = f->n, nw = f->nw, policy = f->policy;
    int e, j;
    *matched = 0;
    /* grants: every requested egress picks one requester */
    for (e = 0; e < n; e++) {
        const uint64_t *rq = f->req + (int64_t)e * nw;
        int cnt = f->req_cnt[e], i;
        if (!cnt)
            continue;
        if (policy == POLICY_ISLIP) {
            i = bits_from(rq, nw, (int)f->grant[e]);
            if (i < 0)
                i = bits_from(rq, nw, 0);
        } else if (policy == POLICY_RANDOM) {
            i = bits_nth(rq, nw, mt_randbelow(&f->rng, cnt,
                                              f->rb_shift[cnt]));
        } else {
            i = bits_from(rq, nw, 0);
        }
        if (i < 0)
            return ERR_STATE;
        BIT_SET(f->gmask + (int64_t)i * nw, e);
        f->gcnt[i]++;
        BIT_SET(f->granted, i);
    }
    /* accepts, ascending ingress: each granted ingress picks one egress */
    for (j = 0; j < nw; j++) {
        while (f->granted[j]) {
            int i = (j << 6) + ctz64(f->granted[j]);
            uint64_t *gm = f->gmask + (int64_t)i * nw;
            ivec *v;
            int64_t arrival;
            f->granted[j] &= f->granted[j] - 1;
            if (policy == POLICY_ISLIP) {
                e = bits_from(gm, nw, (int)f->accept[i]);
                if (e < 0)
                    e = bits_from(gm, nw, 0);
            } else if (policy == POLICY_RANDOM) {
                e = bits_nth(gm, nw, mt_randbelow(&f->rng, f->gcnt[i],
                                                  f->rb_shift[f->gcnt[i]]));
            } else {
                e = bits_from(gm, nw, 0);
            }
            memset(gm, 0, (size_t)nw * sizeof(uint64_t));
            f->gcnt[i] = 0;
            if (e < 0)
                return ERR_STATE;
            v = &f->voq[(int64_t)i * n + e];
            if (!IV_COUNT(v))
                return ERR_STATE;
            arrival = v->buf[v->head++];
            if (!IV_COUNT(v)) {
                v->head = v->len = 0;
                BIT_CLEAR(f->req + (int64_t)e * nw, i);
                f->req_cnt[e]--;
            }
            if (policy == POLICY_ISLIP) {
                f->grant[e] = (i + 1) % n;
                f->accept[i] = (e + 1) % n;
            }
            f->backlog[i]--;
            f->backlog_total--;
            if (hist_add(&f->waits, slot - arrival) != ERR_OK)
                return slot < arrival ? ERR_ARG : ERR_OOM;
            f->trace[(int64_t)e * f->stride + (slot - f->start)] = i;
            f->per_egress[e]++;
            f->transferred++;
            ++*matched;
        }
    }
    return ERR_OK;
}

int64_t fabric_run_window(fcfg *c, fptrs *p)
{
    const int n = (int)c->num_ports;
    const int64_t num_slots = c->num_slots;
    int64_t err = ERR_OK, offered = 0, peak = c->peak, run = 0;
    int64_t total, n_pairs = 0, image_len = 0, d, idx;
    int64_t *w, *out = NULL;
    fabric f;
    int i, matched;

    p->result = NULL;
    memset(&f, 0, sizeof(f));
    if (n < 1 || n > MAX_PORTS || c->policy < POLICY_ISLIP
            || c->policy > POLICY_PRIORITY || num_slots < 1
            || c->start_slot < 0 || (!c->flush && !p->plan))
        return ERR_ARG;
    f.n = n;
    f.nw = (n + 63) / 64;
    f.policy = (int)c->policy;
    f.start = c->start_slot;
    f.voq = (ivec *)calloc((size_t)n * (size_t)n, sizeof(ivec));
    f.req = (uint64_t *)calloc((size_t)n * (size_t)f.nw, sizeof(uint64_t));
    f.gmask = (uint64_t *)calloc((size_t)n * (size_t)f.nw, sizeof(uint64_t));
    f.granted = (uint64_t *)calloc((size_t)f.nw, sizeof(uint64_t));
    f.req_cnt = (int *)calloc((size_t)n, sizeof(int));
    f.gcnt = (int *)calloc((size_t)n, sizeof(int));
    f.rb_shift = randbelow_shifts(n);
    f.backlog = (int64_t *)calloc((size_t)n, sizeof(int64_t));
    f.per_egress = (int64_t *)calloc((size_t)n, sizeof(int64_t));
    if (!f.voq || !f.req || !f.gmask || !f.granted || !f.req_cnt || !f.gcnt
            || !f.rb_shift || !f.backlog || !f.per_egress) {
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
    } else if (f.policy == POLICY_RANDOM) {
        if (!p->rng_key || !p->rng_meta || p->rng_meta[0] < 0
                || p->rng_meta[0] > MT_N) {
            err = ERR_ARG;
            goto cleanup;
        }
        memcpy(f.rng.key, p->rng_key, sizeof(f.rng.key));
        f.rng.pos = (int)p->rng_meta[0];
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
    out = (int64_t *)malloc((size_t)n * (size_t)f.stride * sizeof(int64_t));
    if (!out) {
        err = ERR_OOM;
        goto cleanup;
    }
    for (idx = 0; idx < (int64_t)n * f.stride; idx++)
        out[idx] = -1;
    f.trace = out;

    if (!c->flush) {
        for (run = 0; run < num_slots; run++) {
            int64_t slot = f.start + run;
            for (i = 0; i < n; i++) {
                int a = p->plan[(int64_t)i * num_slots + run];
                ivec *v;
                if (a == -1)
                    continue;
                if (a < 0 || a >= n) {
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
            memmove(out + (int64_t)i * run, out + (int64_t)i * f.stride,
                    (size_t)run * sizeof(int64_t));
    for (d = 0; d <= f.waits.max && f.waits.count; d++)
        if (f.waits.count[d])
            n_pairs++;
    for (idx = 0; idx < (int64_t)n * n; idx++)
        if (IV_COUNT(&f.voq[idx]))
            image_len += 2 + IV_COUNT(&f.voq[idx]);
    total = (int64_t)n * run + 2 * (int64_t)n + 2 * n_pairs + image_len;
    w = (int64_t *)realloc(out, (size_t)total * sizeof(int64_t));
    if (!w) {
        err = ERR_OOM;
        goto cleanup;
    }
    out = w;
    w += (int64_t)n * run;
    memcpy(w, f.per_egress, (size_t)n * sizeof(int64_t));
    w += n;
    memcpy(w, f.backlog, (size_t)n * sizeof(int64_t));
    w += n;
    for (d = 0; d <= f.waits.max && f.waits.count; d++)
        if (f.waits.count[d]) {
            *w++ = d;
            *w++ = f.waits.count[d];
        }
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
        memcpy(p->rng_key, f.rng.key, sizeof(f.rng.key));
        p->rng_meta[0] = f.rng.pos;
        p->rng_meta[1] = f.rng.consumed;
    }

cleanup:
    if (f.voq)
        for (idx = 0; idx < (int64_t)n * n; idx++)
            free(f.voq[idx].buf);
    free(f.voq);
    free(f.req);
    free(f.gmask);
    free(f.granted);
    free(f.req_cnt);
    free(f.gcnt);
    free(f.rb_shift);
    free(f.backlog);
    free(f.per_egress);
    free(f.waits.count);
    free(out);
    return err;
}
