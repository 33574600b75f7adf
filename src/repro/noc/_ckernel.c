/* Compiled cycle kernel over the structure-of-arrays layout.
 *
 * This file is compiled on demand by repro.noc.ckernel with the system C
 * compiler (cc -O2 -shared -fPIC -ffp-contract=off ... -lm) and loaded
 * through ctypes; keep it C99 + libm with an int64 FFI surface (the span
 * driver's RNG words and Pareto constants cross as uint32/double buffers).
 *
 * The kernel owns the whole dynamic simulation state of a run -- per-lane
 * scalars and bitmasks (repro.noc.ckernel), flit queues as fixed rings
 * of (packet handle, flit index, ready_at), per-node source queues,
 * arrival/credit calendars, activity-counter deltas, packet records and
 * latency records -- and advances it one clock cycle per ck_step() call,
 * or a whole span of cycles per ck_run() call with the open-loop traffic
 * source (injection coin flips, destination draws, packet birth, the
 * opening of the measurement window) inside the loop.  The phase order,
 * iteration orders, arbitration pointer updates and counter increments
 * replicate the event kernel (Network.step) exactly, and the source
 * replicates repro.traffic.runner._offer_load draw for draw on CPython's
 * own MT19937 stream: every divergence would show in the differential
 * suite's per-cycle digests.
 *
 * Packets and flits cross the FFI as integer handles/indices.  Handles
 * come from one allocator here, whether the packet was born in Python
 * (ck_handle_new + ck_set_packet) or in ck_run; the Python wrapper keeps
 * Packet objects for the former (held packets).  A packet writes what the
 * wrapper takes of it as it finishes: tallies, its latency record if it
 * is measured (the twin of NetworkStats.record_completions) and its row
 * of the held columns if Python holds it.  All arrays are exposed through
 * ck_arr()/ck_get() accessors so no struct layout is shared with ctypes,
 * and the state moves in and out of the arena only as the image of
 * ck_dump() / ck_load() (a checkpoint).
 *
 * The per-cycle walk does no 64-bit division on its hot paths; every index
 * that wraps is a sum below twice its modulus, wrapped by one conditional
 * subtract (wrap_once), because:
 *   - flit rings: qhead < D always, and a flit is only appended to a lane
 *     with qlen < depth <= D, so qhead + qlen < 2D and qhead + 1 < 2D;
 *   - calendars: bslot = cycle % cal_sz is taken once per cycle, and an
 *     event is only scheduled 0 <= delay < cal_sz cycles ahead (E_CALENDAR
 *     otherwise), so its bucket bslot + delay < 2 * cal_sz;
 *   - round-robin picks: every arbiter pointer is stored below its width n
 *     and the rotated request mask is nonzero within n bits, so
 *     next + ctz < 2n; the VC-allocation rotation starts below the active
 *     list's length and walks at most that many lanes.
 * What still divides runs once per cycle (bslot), once per router with
 * lanes waiting for a VC (the rotation start va_off % alen) or once per VC
 * granted (a lane's port and VC, lane / V and lane % V).
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef uint64_t u64;

/* the small helpers of the per-cycle walk and the span source are static
 * inline; their slow paths (growth, the MT19937 twist) and the cycle body
 * itself stay out of line */
#define OUT_OF_LINE static __attribute__((noinline))
/* code the walk calls but that must not move it: its own input section,
 * which the linker places after all of .text, so cycle_body, ck_step and
 * ck_run keep their place in the library whatever is added here (a walk
 * shifted by new code ahead of it has cost sweep_c about 4 %) */
#define AFTER_THE_WALK __attribute__((noinline, section(".text.after")))

/* x % n for 0 <= x < 2n (see the index invariants above) */
static inline i64 wrap_once(i64 x, i64 n) { return x < n ? x : x - n; }

/* ---- growable i64 buffer ------------------------------------------------ */
typedef struct {
    i64 *buf;
    i64 cap;
    i64 len;
} Vec;

OUT_OF_LINE int vec_grow(Vec *v, i64 n) {
    i64 nc = v->cap ? v->cap * 2 : 16;
    while (nc < v->len + n)
        nc *= 2;
    i64 *nb = (i64 *)realloc(v->buf, (size_t)nc * sizeof(i64));
    if (!nb)
        return -1;
    v->buf = nb;
    v->cap = nc;
    return 0;
}

/* Appends n >= 1 ints to v with one capacity check; returns where to write
 * them (NULL when out of memory). */
static inline i64 *vec_extend(Vec *v, i64 n) {
    if (v->len + n > v->cap && vec_grow(v, n))
        return NULL;
    i64 *at = v->buf + v->len;
    v->len += n;
    return at;
}

/* ---- growable ring of i64 (source queues) ------------------------------- */
typedef struct {
    i64 *buf;
    i64 cap;
    i64 head;
    i64 len;
} Ring;

OUT_OF_LINE int ring_grow(Ring *r) {
    i64 nc = r->cap ? r->cap * 2 : 16;
    i64 *nb = (i64 *)malloc((size_t)nc * sizeof(i64));
    if (!nb)
        return -1;
    for (i64 i = 0; i < r->len; i++)
        nb[i] = r->buf[(r->head + i) % r->cap];
    free(r->buf);
    r->buf = nb;
    r->cap = nc;
    r->head = 0;
    return 0;
}

/* head < cap and len < cap once there is room, so head + len < 2 * cap */
static inline int ring_push(Ring *r, i64 x) {
    if (r->len == r->cap && ring_grow(r))
        return -1;
    r->buf[wrap_once(r->head + r->len, r->cap)] = x;
    r->len++;
    return 0;
}

static i64 ring_pop(Ring *r) {
    i64 x = r->buf[r->head];
    r->head = wrap_once(r->head + 1, r->cap);
    r->len--;
    return x;
}

/* ---- array / scalar ids (mirror repro.noc.ckernel exactly) -------------- */
enum {
    A_NPORTS = 0, A_NVCS, A_DEPTH, A_EJ_PMASK, A_EJ_LANES, A_HAS_WIDE,
    A_ROUTE_TAB, A_OVC_CNT, A_CEIL, A_SLANES,
    A_LINK_R, A_LINK_P, A_LINK_DELAY, A_LINK_LANES, A_UP_R, A_UP_P,
    A_NODE_RID, A_NODE_PORT, A_NODE_LANES,
    A_ST_PID, A_ST_ROUTE, A_ST_OUTVC, A_NEED, A_CRED, A_OWNER,
    A_OCC, A_AM, A_CREDOK, A_IN_NEXT, A_OUT_NEXT, A_SEC_NEXT,
    A_NVA, A_OCCUPIED, A_VA_OFF,
    A_ACTW, A_SRCW,
    A_QS_PKT, A_QS_SEQ, A_QS_READY, A_QHEAD, A_QLEN,
    A_SRC_PKT, A_SRC_NEXT, A_SRC_VC,
    A_BW, A_BR, A_XB, A_RC, A_VA, A_ARB, A_CF, A_CS, A_MG, A_OC,
    A_LF, A_LB,
    A_PK_ID, A_PK_SRC, A_PK_DST, A_PK_NFLITS, A_PK_MINLANES, A_PK_HOPS,
    A_PK_INJ, A_PK_CREATED, A_PK_FLAGS, A_PK_LIVE,
    A_COLS,
    A_SS_ON, A_SS_REMAINING, A_DST_OFF, A_DST_TAB,
    A_TAKE,
};

enum {
    S_CYCLE = 0, S_ERR, S_ERR_A, S_ERR_B, S_ERR_C, S_PEND,
    S_PK_TOP, S_BORN, S_BODY_PENDING,
};

/* error codes returned by ck_step / ck_run (negative); every code needs a
 * row in repro.noc.ckernel._ERRORS (a test walks this enum) */
enum {
    E_BUF_OVERFLOW = -1,
    E_CREDIT_OVERFLOW = -2,
    E_WORMHOLE = -3,
    E_BAD_POP = -4,
    E_NEG_CREDIT = -5,
    E_NOMEM = -6,
    E_CALENDAR = -7,
    E_PARETO_ZERO = -8,
    E_IMAGE = -9, /* ck_load: the image is not one of this arena */
    E_BOUND = -10, /* a packet beat the per-hop pipeline bound */
};

/* pk_flags bits: the packet is in the latency sample; Python holds its
 * Packet object (it came through ck_set_packet from the wrapper) */
enum { PK_MEASURED = 1, PK_HELD = 2 };

/* the finished packets since the wrapper last took them (ck_arr(A_TAKE)):
 * how many, their flits, the measured ones (rows of the REC_* columns),
 * the held ones (rows of the HELD_* columns); then the columns' stride,
 * which the wrapper reads but never zeroes */
enum {
    TAKE_ROWS = 0, TAKE_FLITS, TAKE_RECORDS, TAKE_HELD, TAKE_STRIDE,
    TAKE_WIDTH,
};

/* the columns of what the wrapper takes (ck_arr(A_COLS), column k at
 * k * stride): a measured packet's latency record, the integer fields of
 * repro.noc.stats.LatencyRecord; a held packet's row, what its Packet
 * learns when it finishes and the index of its record among the ones
 * taken with it (-1: unmeasured) */
enum {
    REC_ID = 0, REC_SRC, REC_DST, REC_NFLITS, REC_HOPS, REC_TOTAL,
    REC_QUEUING, REC_TRANSFER, REC_BLOCKING,
    HELD_HANDLE, HELD_RECORD, HELD_HOPS, HELD_MINLANES, HELD_INJ,
    HELD_RECEIVED, TAKE_COLS,
};

/* ---- MT19937, word for word CPython's _randommodule.c ------------------- */
#define MT_N 624
#define MT_M 397
#define MT_WORDS (MT_N + 1) /* state words + the index, as getstate() */

/* kept out of line: the draw functions below inline mt_uint32 many times
 * over, and a copy of this loop in each would dominate the build time */
OUT_OF_LINE void mt_twist(uint32_t *mt) {
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    for (; kk < MT_N - 1; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
    mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
    mt[MT_N] = 0;
}

static inline uint32_t mt_uint32(uint32_t *mt) {
    if (mt[MT_N] >= MT_N)
        mt_twist(mt);
    uint32_t y = mt[mt[MT_N]++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.random(): 53 bits from two words */
static inline double mt_random(uint32_t *mt) {
    uint32_t a = mt_uint32(mt) >> 5, b = mt_uint32(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* random.Random._randbelow(n), 1 <= n < 2**31: getrandbits(k) rejection
 * loop, the draw behind randrange(n) and choice(seq) */
static i64 mt_randbelow(uint32_t *mt, i64 n) {
    int k = 64 - __builtin_clzll((u64)n);
    uint32_t r = mt_uint32(mt) >> (32 - k);
    while ((i64)r >= n)
        r = mt_uint32(mt) >> (32 - k);
    return (i64)r;
}

/* ParetoOnOffSource._draw_period(): max(1, int(round(xm / u ** (1/a)))),
 * with round() half-even exactly as float.__round__ computes it.  A draw
 * of u == 0.0 is the ZeroDivisionError Python raises. */
static i64 pareto_period(uint32_t *mt, double xm, double inv_alpha) {
    double p = pow(mt_random(mt), inv_alpha);
    if (p == 0.0)
        return E_PARETO_ZERO;
    double x = xm / p;
    double r = round(x);
    if (fabs(x - r) == 0.5)
        r = 2.0 * round(x / 2.0);
    return r < 1.0 ? 1 : (i64)r;
}

/* The RNG twin in isolation (load-time self-check and the tests): op 0
 * draws random(), op n > 0 draws _randbelow(n), op < 0 draws a Pareto
 * period (an error code comes back as its negative value). */
void ck_twin_draws(uint32_t *mt, const i64 *ops, i64 n, double xm,
                   double inv_alpha, double *out) {
    for (i64 i = 0; i < n; i++) {
        if (ops[i] == 0)
            out[i] = mt_random(mt);
        else if (ops[i] > 0)
            out[i] = (double)mt_randbelow(mt, ops[i]);
        else
            out[i] = (double)pareto_period(mt, xm, inv_alpha);
    }
}

typedef struct CK {
    i64 R, P, V, RP, L, nnodes, D;
    i64 po, cd, merging, cal_sz;
    i64 nw_r, nw_n; /* actmask / srcmask word counts */
    i64 cycle;
    i64 err, err_a, err_b, err_c;
    i64 pend; /* scheduled, undelivered calendar events */

    /* static tensors */
    i64 *nports, *nvcs, *depth, *ej_pmask, *ej_lanes, *has_wide;
    i64 *route_tab; /* R * nnodes */
    i64 *ovc_cnt, *ceil_, *slanes;
    i64 *link_r, *link_p, *link_delay, *link_lanes, *up_r, *up_p;
    i64 *node_rid, *node_port, *node_lanes;

    /* fixed-size dynamic state: st_pid .. lb are dyn_len contiguous ints
     * (the bulk of the arena image) */
    i64 *dyn, dyn_len;
    i64 *st_pid, *st_route, *st_outvc, *need, *cred, *owner;
    i64 *occ, *am, *credok, *in_next, *out_next, *sec_next;
    i64 *nva, *occupied, *va_off;
    u64 *actw, *srcw;

    /* insertion-ordered active-lane lists, one row per router */
    i64 *act_arr; /* R * (P*V) */
    i64 *act_len; /* R */
    i64 *act_pos; /* L, -1 when absent */

    /* flit queues: fixed rings of depth D per lane */
    i64 *qs_pkt, *qs_seq, *qs_ready; /* L * D */
    i64 *qhead, *qlen;               /* L */

    /* source queues */
    Ring *srcq;                 /* nnodes */
    i64 *src_pkt, *src_next, *src_vc; /* nnodes; -1 sentinels */

    /* calendars: cal_sz buckets, events flattened (5 / 4 ints each) */
    Vec *arr_b;  /* (rid, port, vc, pkt, seq) */
    Vec *cred_b; /* (rid, port, vc, release) */

    /* activity and link counters, always on; the wrapper adds them onto
     * the network's totals and zeroes them */
    i64 *a_bw, *a_br, *a_xb, *a_rc, *a_va, *a_arb, *a_cf, *a_cs, *a_mg,
        *a_oc;
    i64 *lf, *lb; /* RP */

    /* packet records (grown on demand) and the handle allocator: handles
     * below pk_top have been issued, hfree stacks the released ones */
    i64 pk_cap, pk_top, hfree_len;
    i64 *pk_id, *pk_src, *pk_dst, *pk_nflits, *pk_minlanes, *pk_hops,
        *pk_inj, *pk_created, *pk_flags, *pk_live, *hfree;

    /* finished packets: TAKE_COLS columns of take[TAKE_STRIDE] ints */
    i64 *cols;
    i64 hop; /* the record formula's per-hop cycles: po + link delay */

    /* span driver (ck_run): the traffic source Python lends for the spans
     * of a run */
    i64 born;          /* packets created by the last ck_run */
    i64 body_pending;  /* the last ck_run stopped between a cycle's
                        * injections and its body */
    uint32_t *rng;     /* MT_WORDS: the run's random.Random */
    uint32_t *node_rng; /* nnodes * MT_WORDS: per-node Pareto streams */
    double *src_f64;   /* [0] Bernoulli rate; then 5 per node: p_on,
                        * xm_on, 1/alpha_on, xm_off, 1/alpha_off */
    i64 *ss_on, *ss_remaining; /* nnodes: ON/OFF state machines */
    i64 *dst_off;      /* nnodes + 1: row bounds into dst_tab */
    i64 *dst_tab, dst_cap; /* candidate destinations per source node */

    /* per-cycle scratch */
    u64 *scratch_w;
    i64 *bid_vc, *obid, *elig, *bid_ports, *out_order;
    i64 *grants; /* 2*P rows of 6: ip, ivc, op, gov, pkt, seq */

    i64 take[TAKE_WIDTH];
#ifdef CK_TEST_LEAK_CREDIT
    i64 leaked; /* the test build has dropped its credit return */
#endif
} CK;

void ck_free(CK *ck);

CK *ck_new(i64 R, i64 P, i64 V, i64 nnodes, i64 po, i64 cd, i64 merging,
           i64 cal_sz, i64 maxdepth, i64 link_delay) {
    CK *ck = (CK *)calloc(1, sizeof(CK));
    if (!ck)
        return NULL;
    ck->R = R;
    ck->P = P;
    ck->V = V;
    ck->RP = R * P;
    ck->L = R * P * V;
    ck->nnodes = nnodes;
    ck->D = maxdepth;
    ck->po = po;
    ck->hop = po + link_delay;
    ck->cd = cd;
    ck->merging = merging;
    ck->cal_sz = cal_sz;
    ck->nw_r = (R + 63) / 64;
    ck->nw_n = (nnodes + 63) / 64;

    i64 L = ck->L, RP = ck->RP, LD = L * maxdepth;
    i64 *actw, *srcw, *scratch_w;
    /* Every fixed-size array is carved from one block, in this order:
     * A_NPORTS .. A_CREDOK (the shape tensors and the per-lane state of
     * a fresh network, which repro.noc.ckernel writes with one memmove
     * of its shape image), then the rest of the dynamic state up to
     * A_LB (with st_pid .. credok, the dyn_len ints of the arena image),
     * then the span source's fixed arrays and the per-cycle scratch. */
    i64 **carve[] = {
        &ck->nports, &ck->nvcs, &ck->depth, &ck->ej_pmask, &ck->ej_lanes,
        &ck->has_wide, &ck->route_tab, &ck->ovc_cnt, &ck->ceil_,
        &ck->slanes, &ck->link_r, &ck->link_p, &ck->link_delay,
        &ck->link_lanes, &ck->up_r, &ck->up_p, &ck->node_rid,
        &ck->node_port, &ck->node_lanes, &ck->st_pid, &ck->st_route,
        &ck->st_outvc, &ck->need, &ck->cred, &ck->owner, &ck->occ, &ck->am,
        &ck->credok, &ck->in_next, &ck->out_next, &ck->sec_next, &ck->nva,
        &ck->occupied, &ck->va_off, &actw, &srcw, &ck->act_arr,
        &ck->act_len, &ck->act_pos, &ck->qs_pkt, &ck->qs_seq, &ck->qs_ready,
        &ck->qhead, &ck->qlen, &ck->src_pkt, &ck->src_next, &ck->src_vc,
        &ck->a_bw, &ck->a_br, &ck->a_xb, &ck->a_rc, &ck->a_va, &ck->a_arb,
        &ck->a_cf, &ck->a_cs, &ck->a_mg, &ck->a_oc, &ck->lf, &ck->lb,
        &ck->ss_on, &ck->ss_remaining, &ck->dst_off, &scratch_w,
        &ck->bid_vc, &ck->obid, &ck->elig, &ck->bid_ports, &ck->out_order,
        &ck->grants,
    };
    const i64 sizes[] = {
        R, R, R, R, R, R, R * nnodes, RP, RP, RP, RP, RP, RP, RP, RP, RP,
        nnodes, nnodes, nnodes, L, L, L, L, L, L, RP, RP, RP,
        RP, RP, RP, R, R, R, ck->nw_r, ck->nw_n, L, R, L, LD, LD, LD, L, L,
        nnodes, nnodes, nnodes, R, R, R, R, R, R, R, R, R, R, RP, RP,
        nnodes, nnodes, nnodes + 1, ck->nw_r, P, P, P, P, P, 2 * P * 6,
    };
    i64 total = 0;
    for (size_t i = 0; i < sizeof sizes / sizeof sizes[0]; i++)
        total += sizes[i];
    i64 *blk = (i64 *)calloc((size_t)total, sizeof(i64));
    if (!blk) {
        free(ck);
        return NULL;
    }
    for (size_t i = 0; i < sizeof sizes / sizeof sizes[0]; i++) {
        *carve[i] = blk;
        blk += sizes[i];
    }
    ck->actw = (u64 *)actw;
    ck->srcw = (u64 *)srcw;
    ck->scratch_w = (u64 *)scratch_w;
    ck->dyn = ck->st_pid;
    ck->dyn_len = (ck->lb + RP) - ck->st_pid;
    for (i64 i = 0; i < L; i++)
        ck->act_pos[i] = -1;
    for (i64 i = 0; i < nnodes; i++) {
        ck->src_pkt[i] = -1;
        ck->src_vc[i] = -1;
    }

    ck->srcq = (Ring *)calloc((size_t)(nnodes > 0 ? nnodes : 1),
                              sizeof(Ring));
    ck->arr_b = (Vec *)calloc((size_t)cal_sz, sizeof(Vec));
    ck->cred_b = (Vec *)calloc((size_t)cal_sz, sizeof(Vec));
    ck->rng = (uint32_t *)calloc(MT_WORDS, sizeof(uint32_t));
    ck->src_f64 = (double *)calloc((size_t)(1 + 5 * nnodes), sizeof(double));
    if (!ck->srcq || !ck->arr_b || !ck->cred_b || !ck->rng || !ck->src_f64) {
        ck_free(ck);
        return NULL;
    }
    return ck;
}

void ck_free(CK *ck) {
    if (!ck)
        return;
    free(ck->nports); /* the block of every fixed-size array */
    if (ck->srcq) {
        for (i64 i = 0; i < ck->nnodes; i++)
            free(ck->srcq[i].buf);
        free(ck->srcq);
    }
    for (i64 i = 0; i < ck->cal_sz; i++) {
        if (ck->arr_b)
            free(ck->arr_b[i].buf);
        if (ck->cred_b)
            free(ck->cred_b[i].buf);
    }
    free(ck->arr_b);
    free(ck->cred_b);
    free(ck->pk_id); free(ck->pk_src); free(ck->pk_dst);
    free(ck->pk_nflits); free(ck->pk_minlanes); free(ck->pk_hops);
    free(ck->pk_inj); free(ck->pk_created); free(ck->pk_flags);
    free(ck->pk_live); free(ck->hfree);
    free(ck->cols);
    free(ck->rng); free(ck->node_rng); free(ck->src_f64);
    free(ck->dst_tab);
    free(ck);
}

/* ---- accessors ---------------------------------------------------------- */
i64 *ck_arr(CK *ck, i64 id) {
    switch (id) {
    case A_NPORTS: return ck->nports;
    case A_NVCS: return ck->nvcs;
    case A_DEPTH: return ck->depth;
    case A_EJ_PMASK: return ck->ej_pmask;
    case A_EJ_LANES: return ck->ej_lanes;
    case A_HAS_WIDE: return ck->has_wide;
    case A_ROUTE_TAB: return ck->route_tab;
    case A_OVC_CNT: return ck->ovc_cnt;
    case A_CEIL: return ck->ceil_;
    case A_SLANES: return ck->slanes;
    case A_LINK_R: return ck->link_r;
    case A_LINK_P: return ck->link_p;
    case A_LINK_DELAY: return ck->link_delay;
    case A_LINK_LANES: return ck->link_lanes;
    case A_UP_R: return ck->up_r;
    case A_UP_P: return ck->up_p;
    case A_NODE_RID: return ck->node_rid;
    case A_NODE_PORT: return ck->node_port;
    case A_NODE_LANES: return ck->node_lanes;
    case A_ST_PID: return ck->st_pid;
    case A_ST_ROUTE: return ck->st_route;
    case A_ST_OUTVC: return ck->st_outvc;
    case A_NEED: return ck->need;
    case A_CRED: return ck->cred;
    case A_OWNER: return ck->owner;
    case A_OCC: return ck->occ;
    case A_AM: return ck->am;
    case A_CREDOK: return ck->credok;
    case A_IN_NEXT: return ck->in_next;
    case A_OUT_NEXT: return ck->out_next;
    case A_SEC_NEXT: return ck->sec_next;
    case A_NVA: return ck->nva;
    case A_OCCUPIED: return ck->occupied;
    case A_VA_OFF: return ck->va_off;
    case A_ACTW: return (i64 *)ck->actw;
    case A_SRCW: return (i64 *)ck->srcw;
    case A_QS_PKT: return ck->qs_pkt;
    case A_QS_SEQ: return ck->qs_seq;
    case A_QS_READY: return ck->qs_ready;
    case A_QHEAD: return ck->qhead;
    case A_QLEN: return ck->qlen;
    case A_SRC_PKT: return ck->src_pkt;
    case A_SRC_NEXT: return ck->src_next;
    case A_SRC_VC: return ck->src_vc;
    case A_BW: return ck->a_bw;
    case A_BR: return ck->a_br;
    case A_XB: return ck->a_xb;
    case A_RC: return ck->a_rc;
    case A_VA: return ck->a_va;
    case A_ARB: return ck->a_arb;
    case A_CF: return ck->a_cf;
    case A_CS: return ck->a_cs;
    case A_MG: return ck->a_mg;
    case A_OC: return ck->a_oc;
    case A_LF: return ck->lf;
    case A_LB: return ck->lb;
    case A_PK_ID: return ck->pk_id;
    case A_PK_SRC: return ck->pk_src;
    case A_PK_DST: return ck->pk_dst;
    case A_PK_NFLITS: return ck->pk_nflits;
    case A_PK_MINLANES: return ck->pk_minlanes;
    case A_PK_HOPS: return ck->pk_hops;
    case A_PK_INJ: return ck->pk_inj;
    case A_PK_CREATED: return ck->pk_created;
    case A_PK_FLAGS: return ck->pk_flags;
    case A_PK_LIVE: return ck->pk_live;
    case A_COLS: return ck->cols;
    case A_SS_ON: return ck->ss_on;
    case A_SS_REMAINING: return ck->ss_remaining;
    case A_DST_OFF: return ck->dst_off;
    case A_DST_TAB: return ck->dst_tab;
    case A_TAKE: return ck->take;
    }
    return NULL;
}

/* span-driver buffers that are not int64: RNG words and Pareto constants */
uint32_t *ck_rng_words(CK *ck, i64 per_node) {
    return per_node ? ck->node_rng : ck->rng;
}

double *ck_source_f64(CK *ck) { return ck->src_f64; }

/* Make room for a span's source: the per-node RNG block (Pareto sources
 * only) and dst_total candidate destinations. */
i64 ck_span_reserve(CK *ck, i64 per_node_rng, i64 dst_total) {
    if (per_node_rng && !ck->node_rng) {
        ck->node_rng = (uint32_t *)calloc(
            (size_t)(ck->nnodes > 0 ? ck->nnodes : 1) * MT_WORDS,
            sizeof(uint32_t));
        if (!ck->node_rng)
            return E_NOMEM;
    }
    if (dst_total > ck->dst_cap) {
        i64 *nb = (i64 *)realloc(ck->dst_tab,
                                 (size_t)dst_total * sizeof(i64));
        if (!nb)
            return E_NOMEM;
        ck->dst_tab = nb;
        ck->dst_cap = dst_total;
    }
    return 0;
}

i64 ck_get(CK *ck, i64 id) {
    switch (id) {
    case S_CYCLE: return ck->cycle;
    case S_ERR: return ck->err;
    case S_ERR_A: return ck->err_a;
    case S_ERR_B: return ck->err_b;
    case S_ERR_C: return ck->err_c;
    case S_PEND: return ck->pend;
    case S_PK_TOP: return ck->pk_top;
    case S_BORN: return ck->born;
    case S_BODY_PENDING: return ck->body_pending;
    }
    return 0;
}

/* ---- packet records ----------------------------------------------------- */
static i64 *regrow(i64 *p, i64 old, i64 nc) {
    i64 *nb = (i64 *)realloc(p, (size_t)nc * sizeof(i64));
    if (nb)
        memset(nb + old, 0, (size_t)(nc - old) * sizeof(i64));
    return nb;
}

static i64 ensure_packets(CK *ck, i64 cap) {
    if (cap <= ck->pk_cap)
        return 0;
    i64 nc = ck->pk_cap ? ck->pk_cap : 64;
    while (nc < cap)
        nc *= 2;
    i64 old = ck->pk_cap;
    i64 *a;
    a = regrow(ck->pk_id, old, nc); if (!a) return -1; ck->pk_id = a;
    a = regrow(ck->pk_src, old, nc); if (!a) return -1; ck->pk_src = a;
    a = regrow(ck->pk_dst, old, nc); if (!a) return -1; ck->pk_dst = a;
    a = regrow(ck->pk_nflits, old, nc); if (!a) return -1; ck->pk_nflits = a;
    a = regrow(ck->pk_minlanes, old, nc); if (!a) return -1;
    ck->pk_minlanes = a;
    a = regrow(ck->pk_hops, old, nc); if (!a) return -1; ck->pk_hops = a;
    a = regrow(ck->pk_inj, old, nc); if (!a) return -1; ck->pk_inj = a;
    a = regrow(ck->pk_created, old, nc); if (!a) return -1;
    ck->pk_created = a;
    a = regrow(ck->pk_flags, old, nc); if (!a) return -1;
    ck->pk_flags = a;
    a = regrow(ck->pk_live, old, nc); if (!a) return -1; ck->pk_live = a;
    /* sized with the records so releasing a handle can never fail */
    a = regrow(ck->hfree, old, nc); if (!a) return -1; ck->hfree = a;
    ck->pk_cap = nc;
    return 0;
}

/* The one handle allocator, for packets born in Python and in ck_run:
 * most recently released handle first, else the next unused one. */
i64 ck_handle_new(CK *ck) {
    i64 h;
    if (ck->hfree_len) {
        h = ck->hfree[--ck->hfree_len];
    } else {
        if (ensure_packets(ck, ck->pk_top + 1))
            return E_NOMEM;
        h = ck->pk_top++;
    }
    ck->pk_live[h] = 1;
    return h;
}

void ck_set_packet(CK *ck, i64 h, i64 pid, i64 src, i64 dst, i64 nflits,
                   i64 injected, i64 minlanes, i64 hops, i64 created,
                   i64 flags) {
    ck->pk_id[h] = pid;
    ck->pk_src[h] = src;
    ck->pk_dst[h] = dst;
    ck->pk_nflits[h] = nflits;
    ck->pk_inj[h] = injected;
    ck->pk_minlanes[h] = minlanes;
    ck->pk_hops[h] = hops;
    ck->pk_created[h] = created;
    ck->pk_flags[h] = flags;
}

AFTER_THE_WALK static i64 finish_packet(CK *ck, i64 h, i64 received);

/* Tail ejected: tally the packet, write what the wrapper takes of it
 * (finish_packet) and release its handle (nothing in the kernel state names
 * a delivered packet).  Returns 0 or finish_packet's error code. */
static inline i64 complete_packet(CK *ck, i64 h, i64 cycle) {
    ck->take[TAKE_ROWS]++;
    ck->take[TAKE_FLITS] += ck->pk_nflits[h];
    if (ck->pk_flags[h]) {
        i64 rc = finish_packet(ck, h, cycle);
        if (rc)
            return rc;
    }
    ck->pk_live[h] = 0;
    ck->hfree[ck->hfree_len++] = h;
    return 0;
}

/* ---- source queues ------------------------------------------------------ */
i64 ck_source_push(CK *ck, i64 node, i64 h) {
    if (ring_push(&ck->srcq[node], h))
        return -1;
    ck->srcw[node >> 6] |= 1ull << (node & 63);
    return 0;
}

/* ---- active-lane insertion-ordered lists -------------------------------- */
static inline void act_push(CK *ck, i64 rid, i64 lane) {
    if (ck->act_pos[lane] >= 0)
        return;
    i64 *row = ck->act_arr + rid * ck->P * ck->V;
    row[ck->act_len[rid]] = lane;
    ck->act_pos[lane] = ck->act_len[rid]++;
}

static void act_del(CK *ck, i64 rid, i64 lane) {
    i64 *row = ck->act_arr + rid * ck->P * ck->V;
    i64 i = ck->act_pos[lane];
    i64 n = --ck->act_len[rid];
    for (; i < n; i++) {
        i64 l2 = row[i + 1];
        row[i] = l2;
        ck->act_pos[l2] = i;
    }
    ck->act_pos[lane] = -1;
}

/* ---- calendars ---------------------------------------------------------- */
/* An event `delay` cycles after the running one lands in bucket bslot +
 * delay wrapped once (bslot: that cycle's own bucket); a delay outside
 * [0, cal_sz) is E_CALENDAR. */
static inline i64 sched_arrival(CK *ck, i64 bslot, i64 delay, i64 rid,
                                i64 port, i64 vc, i64 pkt, i64 seq) {
    if (delay < 0 || delay >= ck->cal_sz)
        return E_CALENDAR;
    i64 *ev = vec_extend(&ck->arr_b[wrap_once(bslot + delay, ck->cal_sz)], 5);
    if (!ev)
        return E_NOMEM;
    ev[0] = rid;
    ev[1] = port;
    ev[2] = vc;
    ev[3] = pkt;
    ev[4] = seq;
    ck->pend++;
    return 0;
}

static inline i64 sched_credit(CK *ck, i64 bslot, i64 delay, i64 rid,
                               i64 port, i64 vc, i64 release) {
    if (delay < 0 || delay >= ck->cal_sz)
        return E_CALENDAR;
    i64 *ev = vec_extend(&ck->cred_b[wrap_once(bslot + delay, ck->cal_sz)],
                         4);
    if (!ev)
        return E_NOMEM;
    ev[0] = rid;
    ev[1] = port;
    ev[2] = vc;
    ev[3] = release;
    ck->pend++;
    return 0;
}

/* ---- misc --------------------------------------------------------------- */
void ck_wake(CK *ck, i64 rid) { ck->actw[rid >> 6] |= 1ull << (rid & 63); }

i64 ck_total_buffered(CK *ck) {
    i64 t = 0;
    for (i64 i = 0; i < ck->R; i++)
        t += ck->occupied[i];
    return t;
}

/* ---- one clock cycle ---------------------------------------------------- */
/* The first requester at or after nxt, round robin over n: nxt < n and
 * the rotated mask r is nonzero within n bits, so nxt + ctz(r) < 2n. */
static inline i64 rot_pick(i64 mask, i64 nxt, i64 n) {
    u64 m = (u64)mask;
    u64 r = ((m >> nxt) | (m << (n - nxt))) & ((1ull << n) - 1);
    return wrap_once(nxt + (i64)__builtin_ctzll(r), n);
}

#define ERR3(code, a, b, c)                                                  \
    do {                                                                     \
        ck->err = (code);                                                    \
        ck->err_a = (a);                                                     \
        ck->err_b = (b);                                                     \
        ck->err_c = (c);                                                     \
        return (code);                                                       \
    } while (0)

OUT_OF_LINE i64 cycle_body(CK *ck) {
    const i64 P = ck->P, V = ck->V, D = ck->D;
    const i64 cycle = ck->cycle;
    const i64 po = ck->po, cd = ck->cd, merging = ck->merging;
    i64 *a_bw = ck->a_bw, *a_br = ck->a_br, *a_xb = ck->a_xb,
        *a_rc = ck->a_rc, *a_va = ck->a_va, *a_arb = ck->a_arb,
        *a_cf = ck->a_cf, *a_cs = ck->a_cs, *a_mg = ck->a_mg,
        *a_oc = ck->a_oc;
    i64 *lf = ck->lf, *lb = ck->lb;
    const i64 *ovc_cnt = ck->ovc_cnt, *nvcs = ck->nvcs;
    i64 *st_pid = ck->st_pid, *st_route = ck->st_route,
        *st_outvc = ck->st_outvc;
    i64 *need = ck->need, *nva = ck->nva, *cred = ck->cred,
        *owner = ck->owner;
    i64 *occ = ck->occ, *am = ck->am, *credok = ck->credok;
    i64 *occupied = ck->occupied;
    i64 *qs_pkt = ck->qs_pkt, *qs_seq = ck->qs_seq, *qs_ready = ck->qs_ready;
    i64 *qhead = ck->qhead, *qlen = ck->qlen;
    i64 *depth = ck->depth;
    i64 *pk_id = ck->pk_id, *pk_nflits = ck->pk_nflits,
        *pk_dst = ck->pk_dst;
    i64 *pk_minlanes = ck->pk_minlanes, *pk_hops = ck->pk_hops,
        *pk_inj = ck->pk_inj;
    u64 *actw = ck->actw;
    const i64 bslot = cycle % ck->cal_sz;

    /* -- phase 1: link arrivals scheduled for this cycle ------------------ */
    {
        Vec *b = &ck->arr_b[bslot];
        i64 n = b->len / 5;
        for (i64 e = 0; e < n; e++) {
            i64 *ev = b->buf + e * 5;
            i64 rid = ev[0], port = ev[1], vc = ev[2], pkt = ev[3],
                seq = ev[4];
            i64 rp = rid * P + port;
            i64 lane = rp * V + vc;
            if (qlen[lane] >= depth[rid])
                ERR3(E_BUF_OVERFLOW, rid, port, vc);
            if (qlen[lane] == 0) {
                occ[rp] |= 1ll << vc;
                act_push(ck, rid, lane);
                if (st_pid[lane] != pk_id[pkt] || st_outvc[lane] == -2) {
                    if (!need[lane]) {
                        need[lane] = 1;
                        nva[rid]++;
                    }
                }
            }
            /* qhead < D, qlen < depth <= D */
            i64 slot = lane * D + wrap_once(qhead[lane] + qlen[lane], D);
            qs_pkt[slot] = pkt;
            qs_seq[slot] = seq;
            qs_ready[slot] = cycle + po;
            qlen[lane]++;
            occupied[rid]++;
            a_bw[rid]++;
            actw[rid >> 6] |= 1ull << (rid & 63);
        }
        ck->pend -= n;
        b->len = 0;
    }

    /* -- phase 2: credit returns ------------------------------------------ */
    {
        Vec *b = &ck->cred_b[bslot];
        i64 n = b->len / 4;
        for (i64 e = 0; e < n; e++) {
            i64 *ev = b->buf + e * 4;
            i64 rid = ev[0], port = ev[1], vc = ev[2], release = ev[3];
            i64 rp = rid * P + port;
            i64 lane = rp * V + vc;
#ifdef CK_TEST_LEAK_CREDIT
            /* Test instrument, never in a product build: the first
             * credit return of a run is lost (its VC release is not). */
            if (!ck->leaked) {
                ck->leaked = 1;
                if (release)
                    owner[lane] = -1;
                continue;
            }
#endif
            i64 c = cred[lane] + 1;
            if (c > ck->ceil_[rp])
                ERR3(E_CREDIT_OVERFLOW, rid, port, vc);
            cred[lane] = c;
            credok[rp] |= 1ll << vc;
            if (release)
                owner[lane] = -1;
        }
        ck->pend -= n;
        b->len = 0;
    }

    /* -- phase 3: injection from active sources --------------------------- */
    {
        u64 *srcw = ck->srcw;
        i64 *src_pkt = ck->src_pkt, *src_next = ck->src_next,
            *src_vc = ck->src_vc;
        i64 ready = cycle + po;
        for (i64 w = 0; w < ck->nw_n; w++) {
            u64 bits = srcw[w];
            while (bits) {
                i64 bpos = (i64)__builtin_ctzll(bits);
                bits &= bits - 1;
                i64 node = w * 64 + bpos;
                Ring *sq = &ck->srcq[node];
                if (src_pkt[node] < 0 && sq->len == 0) {
                    srcw[w] &= ~(1ull << bpos);
                    continue;
                }
                i64 rid = ck->node_rid[node];
                i64 port = ck->node_port[node];
                i64 lanes = ck->node_lanes[node];
                i64 rp = rid * P + port;
                i64 lane0 = rp * V;
                i64 cap = depth[rid];
                i64 budget = lanes;
                while (budget > 0) {
                    if (src_pkt[node] < 0) {
                        if (sq->len == 0)
                            break;
                        i64 vc = -1, fallback = -1, fallback_free = 0;
                        for (i64 cand = 0; cand < nvcs[rid]; cand++) {
                            i64 l = lane0 + cand;
                            i64 free_ = cap - qlen[l];
                            if (free_ == 0)
                                continue;
                            if (qlen[l] == 0 && st_pid[l] == -1) {
                                vc = cand;
                                break;
                            }
                            if (free_ > fallback_free) {
                                fallback = cand;
                                fallback_free = free_;
                            }
                        }
                        if (vc < 0)
                            vc = fallback;
                        if (vc < 0)
                            break;
                        i64 h = ring_pop(sq);
                        src_pkt[node] = h;
                        src_next[node] = 0;
                        src_vc[node] = vc;
                        pk_inj[h] = cycle;
                        pk_minlanes[h] = lanes;
                    }
                    i64 vc = src_vc[node];
                    i64 lane = lane0 + vc;
                    if (qlen[lane] >= cap)
                        break;
                    i64 h = src_pkt[node];
                    i64 seq = src_next[node];
                    if (qlen[lane] == 0) {
                        occ[rp] |= 1ll << vc;
                        act_push(ck, rid, lane);
                        if (st_pid[lane] != pk_id[h] ||
                            st_outvc[lane] == -2) {
                            if (!need[lane]) {
                                need[lane] = 1;
                                nva[rid]++;
                            }
                        }
                    }
                    /* qhead < D, qlen < cap <= D */
                    i64 slot =
                        lane * D + wrap_once(qhead[lane] + qlen[lane], D);
                    qs_pkt[slot] = h;
                    qs_seq[slot] = seq;
                    qs_ready[slot] = ready;
                    qlen[lane]++;
                    occupied[rid]++;
                    a_bw[rid]++;
                    actw[rid >> 6] |= 1ull << (rid & 63);
                    src_next[node]++;
                    budget--;
                    if (src_next[node] >= pk_nflits[h]) {
                        src_pkt[node] = -1;
                        src_next[node] = 0;
                        src_vc[node] = -1;
                    }
                }
            }
        }
    }

    /* -- phases 4+5: RC/VA, switch allocation, traversal ------------------ */
    {
        i64 *in_next = ck->in_next, *out_next = ck->out_next,
            *sec_next = ck->sec_next;
        i64 *bid_vc = ck->bid_vc, *obid = ck->obid, *elig = ck->elig;
        i64 *bid_ports = ck->bid_ports, *out_order = ck->out_order;
        i64 *grants = ck->grants;
        u64 *snap = ck->scratch_w;
        memcpy(snap, actw, (size_t)ck->nw_r * sizeof(u64));
        for (i64 w = 0; w < ck->nw_r; w++) {
            u64 bits = snap[w];
            while (bits) {
                i64 bpos = (i64)__builtin_ctzll(bits);
                bits &= bits - 1;
                i64 rid = w * 64 + bpos;
                if (!occupied[rid]) {
                    actw[w] &= ~(1ull << bpos);
                    continue;
                }
                i64 base = rid * P;
                i64 ejp = ck->ej_pmask[rid];
                i64 *aarr = ck->act_arr + rid * P * V;
                i64 alen = ck->act_len[rid];

                /* ---- RC + VC allocation (needy lanes only) ------------- */
                i64 off = ck->va_off[rid];
                ck->va_off[rid] = off + 1;
                i64 needy = nva[rid];
                if (needy) {
                    i64 start = 0, count = 0;
                    if (needy == 1) {
                        for (i64 i = 0; i < alen; i++) {
                            if (need[aarr[i]]) {
                                start = i;
                                count = 1;
                                break;
                            }
                        }
                    } else {
                        start = off % alen;
                        count = alen;
                    }
                    const i64 *rt = ck->route_tab + rid * ck->nnodes;
                    /* start < alen and k < count <= alen; the VA loop
                     * leaves the active list as it is */
                    for (i64 k = 0; k < count; k++) {
                        i64 lane = aarr[wrap_once(start + k, alen)];
                        if (!need[lane])
                            continue;
                        if (qlen[lane] == 0)
                            continue;
                        i64 hslot = lane * D + qhead[lane];
                        i64 pkt = qs_pkt[hslot];
                        i64 seq = qs_seq[hslot];
                        i64 pid = pk_id[pkt];
                        if (st_pid[lane] != pid) {
                            if (seq != 0)
                                ERR3(E_WORMHOLE, rid, pid, 0);
                            st_pid[lane] = pid;
                            st_route[lane] = rt[pk_dst[pkt]];
                            st_outvc[lane] = -2;
                            a_rc[rid]++;
                        }
                        if (st_outvc[lane] != -2 || qs_ready[hslot] > cycle)
                            continue;
                        i64 op = st_route[lane];
                        if ((ejp >> op) & 1) {
                            st_outvc[lane] = -1;
                            am[lane / V] |= 1ll << (lane % V);
                            need[lane] = 0;
                            nva[rid]--;
                            continue;
                        }
                        if (seq != 0)
                            continue;
                        i64 rp2 = base + op;
                        i64 lane2 = rp2 * V;
                        for (i64 cvc = 0; cvc < ovc_cnt[rp2]; cvc++) {
                            if (owner[lane2 + cvc] == -1) {
                                owner[lane2 + cvc] = pid;
                                st_outvc[lane] = cvc;
                                am[lane / V] |= 1ll << (lane % V);
                                a_va[rid]++;
                                need[lane] = 0;
                                nva[rid]--;
                                break;
                            }
                        }
                    }
                }

                /* ---- switch allocation --------------------------------- */
                i64 n_out = 0, nbid = 0;
                i64 np_ = ck->nports[rid];
                i64 nv = nvcs[rid];
                i64 wide = ck->has_wide[rid];
                for (i64 port = 0; port < np_; port++) {
                    i64 rp = base + port;
                    i64 em = occ[rp] & am[rp];
                    if (!em)
                        continue;
                    i64 lane = rp * V;
                    i64 embit = 0, necount = 0;
                    i64 mm = em;
                    while (mm) {
                        i64 vc = (i64)__builtin_ctzll((u64)mm);
                        mm &= mm - 1;
                        i64 l = lane + vc;
                        if (qs_ready[l * D + qhead[l]] > cycle)
                            continue;
                        i64 op = st_route[l];
                        if ((ejp >> op) & 1) {
                            embit |= 1ll << vc;
                            necount++;
                        } else if ((credok[base + op] >> st_outvc[l]) & 1) {
                            embit |= 1ll << vc;
                            necount++;
                        } else {
                            a_cs[rid]++;
                        }
                    }
                    if (!embit)
                        continue;
                    i64 bid, nxt;
                    if (necount == 1) {
                        bid = (i64)__builtin_ctzll((u64)embit);
                        nxt = bid + 1;
                        in_next[rp] = nxt < nv ? nxt : 0;
                    } else {
                        bid = rot_pick(embit, in_next[rp], nv);
                        nxt = bid + 1;
                        in_next[rp] = nxt < nv ? nxt : 0;
                        a_cf[rid] += necount - 1;
                    }
                    a_arb[rid]++;
                    bid_vc[port] = bid;
                    bid_ports[nbid++] = port;
                    if (wide)
                        elig[port] = embit;
                    i64 op = st_route[lane + bid];
                    if (!obid[op])
                        out_order[n_out++] = op;
                    obid[op] |= 1ll << port;
                }
                if (!n_out) {
                    a_oc[rid] += occupied[rid];
                    continue;
                }
                i64 ngr = 0;
                for (i64 oi = 0; oi < n_out; oi++) {
                    i64 op = out_order[oi];
                    i64 m2 = obid[op];
                    obid[op] = 0;
                    i64 rpo = base + op;
                    i64 wp, nxt;
                    if (!(m2 & (m2 - 1))) {
                        wp = (i64)__builtin_ctzll((u64)m2);
                        nxt = wp + 1;
                        out_next[rpo] = nxt < np_ ? nxt : 0;
                    } else {
                        wp = rot_pick(m2, out_next[rpo], np_);
                        nxt = wp + 1;
                        out_next[rpo] = nxt < np_ ? nxt : 0;
                        a_cf[rid] += (i64)__builtin_popcountll((u64)m2) - 1;
                    }
                    a_arb[rid]++;
                    i64 wvc = bid_vc[wp];
                    i64 lane = (base + wp) * V + wvc;
                    i64 is_ej = (ejp >> op) & 1;
                    i64 gov = is_ej ? -1 : st_outvc[lane];
                    i64 hslot = lane * D + qhead[lane];
                    i64 *g = grants + ngr * 6;
                    g[0] = wp;
                    g[1] = wvc;
                    g[2] = op;
                    g[3] = gov;
                    g[4] = qs_pkt[hslot];
                    g[5] = qs_seq[hslot];
                    ngr++;
                    if (!merging || ck->slanes[rpo] < 2)
                        continue;
                    /* ---- second parallel arbiter (wide output) --------- */
                    i64 have_second = 0;
                    i64 s_ip = 0, s_ivc = 0, s_gov = 0, s_pkt = 0, s_seq = 0;
                    if (qlen[lane] > 1) {
                        /* qhead < D */
                        i64 slot2 = lane * D + wrap_once(qhead[lane] + 1, D);
                        if (qs_pkt[slot2] >= 0 &&
                            pk_id[qs_pkt[slot2]] == st_pid[lane] &&
                            qs_ready[slot2] <= cycle) {
                            if (!is_ej && cred[rpo * V + gov] >= 2) {
                                have_second = 1;
                                s_ip = wp;
                                s_ivc = wvc;
                                s_gov = gov;
                                s_pkt = qs_pkt[slot2];
                                s_seq = qs_seq[slot2];
                            } else if (is_ej) {
                                have_second = 1;
                                s_ip = wp;
                                s_ivc = wvc;
                                s_gov = -1;
                                s_pkt = qs_pkt[slot2];
                                s_seq = qs_seq[slot2];
                            }
                        }
                    }
                    if (!have_second) {
                        /* candidate set: winner port's other eligible VCs
                         * routed to op, then other bidding ports' winners */
                        i64 cand_mask = 0;
                        i64 cand_vc[64];
                        i64 cm = elig[wp] & ~(1ll << wvc);
                        i64 lane0 = (base + wp) * V;
                        while (cm) {
                            i64 vc = (i64)__builtin_ctzll((u64)cm);
                            cm &= cm - 1;
                            if (st_route[lane0 + vc] == op) {
                                cand_mask |= 1ll << wp;
                                cand_vc[wp] = vc;
                                break;
                            }
                        }
                        for (i64 bi = 0; bi < nbid; bi++) {
                            i64 p2 = bid_ports[bi];
                            if (p2 == wp)
                                continue;
                            i64 vcb = bid_vc[p2];
                            if (st_route[(base + p2) * V + vcb] == op) {
                                if (!((cand_mask >> p2) & 1)) {
                                    cand_mask |= 1ll << p2;
                                    cand_vc[p2] = vcb;
                                }
                            }
                        }
                        if (cand_mask) {
                            i64 cp;
                            if (!(cand_mask & (cand_mask - 1))) {
                                cp = (i64)__builtin_ctzll((u64)cand_mask);
                                nxt = cp + 1;
                                sec_next[rpo] = nxt < np_ ? nxt : 0;
                            } else {
                                cp = rot_pick(cand_mask, sec_next[rpo],
                                              np_);
                                nxt = cp + 1;
                                sec_next[rpo] = nxt < np_ ? nxt : 0;
                            }
                            a_arb[rid]++;
                            i64 cvc = cand_vc[cp];
                            i64 lane2 = (base + cp) * V + cvc;
                            i64 hs2 = lane2 * D + qhead[lane2];
                            have_second = 1;
                            s_ip = cp;
                            s_ivc = cvc;
                            s_gov = is_ej ? -1 : st_outvc[lane2];
                            s_pkt = qs_pkt[hs2];
                            s_seq = qs_seq[hs2];
                        }
                    }
                    if (have_second) {
                        i64 *g2 = grants + ngr * 6;
                        g2[0] = s_ip;
                        g2[1] = s_ivc;
                        g2[2] = op;
                        g2[3] = s_gov;
                        g2[4] = s_pkt;
                        g2[5] = s_seq;
                        ngr++;
                        a_mg[rid]++;
                    }
                }

                /* ---- switch traversal ---------------------------------- */
                i64 used_mask = 0;
                for (i64 gi = 0; gi < ngr; gi++) {
                    i64 *g = grants + gi * 6;
                    i64 ip = g[0], ivc = g[1], op = g[2], gov = g[3];
                    i64 rp_in = base + ip;
                    i64 lane = rp_in * V + ivc;
                    i64 hslot = lane * D + qhead[lane];
                    i64 pkt = qs_pkt[hslot];
                    i64 seq = qs_seq[hslot];
                    if (pkt != g[4] || seq != g[5])
                        ERR3(E_BAD_POP, rid, ip, ivc);
                    qhead[lane] = wrap_once(qhead[lane] + 1, D); /* < D */
                    qlen[lane]--;
                    occupied[rid]--;
                    a_br[rid]++;
                    a_xb[rid]++;
                    if (qlen[lane] == 0) {
                        occ[rp_in] &= ~(1ll << ivc);
                        act_del(ck, rid, lane);
                    }
                    if (gov >= 0) {
                        i64 cidx = (base + op) * V + gov;
                        i64 c = cred[cidx] - 1;
                        cred[cidx] = c;
                        if (c == 0)
                            credok[base + op] &= ~(1ll << gov);
                        else if (c < 0)
                            ERR3(E_NEG_CREDIT, rid, op, gov);
                    }
                    i64 is_tail = (seq == pk_nflits[pkt] - 1);
                    i64 is_head = (seq == 0);
                    if ((ejp >> op) & 1) {
                        if (is_head && pk_minlanes[pkt] != -1) {
                            i64 el = ck->ej_lanes[rid];
                            if (el < pk_minlanes[pkt])
                                pk_minlanes[pkt] = el;
                        }
                        if (is_tail) {
                            i64 rc = complete_packet(ck, pkt, cycle);
                            if (rc)
                                return rc;
                        }
                    } else {
                        i64 rpo2 = base + op;
                        if (is_head) {
                            pk_hops[pkt]++;
                            if (pk_minlanes[pkt] != -1) {
                                i64 width =
                                    merging ? ck->link_lanes[rpo2] : 1;
                                if (width < pk_minlanes[pkt])
                                    pk_minlanes[pkt] = width;
                            }
                        }
                        i64 rc = sched_arrival(
                            ck, bslot, ck->link_delay[rpo2],
                            ck->link_r[rpo2], ck->link_p[rpo2], gov, pkt,
                            seq);
                        if (rc)
                            ERR3(rc, rid, op, 0);
                        used_mask |= 1ll << op;
                        lf[rpo2]++;
                    }
                    if (is_tail) {
                        st_pid[lane] = -1;
                        st_route[lane] = -1;
                        st_outvc[lane] = -2;
                        am[rp_in] &= ~(1ll << ivc);
                        if (qlen[lane] && !need[lane]) {
                            need[lane] = 1;
                            nva[rid]++;
                        }
                    }
                    if (!((ejp >> ip) & 1)) {
                        if (ck->up_r[rp_in] != -1) {
                            i64 rc = sched_credit(
                                ck, bslot, cd, ck->up_r[rp_in],
                                ck->up_p[rp_in], ivc, is_tail);
                            if (rc)
                                ERR3(rc, rid, ip, ivc);
                        }
                    }
                }
                while (used_mask) {
                    i64 port = (i64)__builtin_ctzll((u64)used_mask);
                    used_mask &= used_mask - 1;
                    lb[base + port]++;
                }
                a_oc[rid] += occupied[rid];
            }
        }
    }

    ck->cycle = cycle + 1;
    return 0;
}

/* One cycle, traffic offered by the caller; returns the packets finished
 * since the wrapper last took them (or a negative error code). */
i64 ck_step(CK *ck) {
    i64 rc = cycle_body(ck);
    return rc < 0 ? rc : ck->take[TAKE_ROWS];
}

/* ---- a span of whole cycles with the open-loop source inside ------------ */
enum { INJ_BERNOULLI = 0, INJ_PARETO = 1 };
enum { PAT_UNIFORM = 0, PAT_CHOICE = 1, PAT_FIXED = 2 };

/* Runs cycles until max_cycles have passed, or the next cycle could take
 * the `created` packets that exist on entry past birth_budget (every node
 * firing), or need_measured measured packets have completed; -1 disables
 * either of the last two.  Births from creation index measure_from on are
 * marked measured (-1: none are).  Per cycle, per node in ascending order
 * -- exactly runner._offer_load: fires, then the destination draw, then the
 * packet record (ids from next_pid up) and the source-queue push; then the
 * cycle itself.  The birth of creation index measure_from returns the call
 * after that cycle's injections and before its body with S_BODY_PENDING
 * set, so the caller can open the measurement window; the next call
 * starts with that body.  The RNG streams and the ON/OFF machines are left
 * where the last draw put them.  Returns the whole cycles run (or a
 * negative error code); S_BORN holds the packets made. */
i64 ck_run(CK *ck, i64 max_cycles, i64 created,
           i64 measure_from, i64 birth_budget, i64 need_measured,
           i64 next_pid, i64 nflits, i64 inj_kind, i64 pat_kind) {
    const i64 n = ck->nnodes;
    const double rate = ck->src_f64[0];
    uint32_t *rng = ck->rng;
    i64 done = 0;
    ck->born = 0;
    while (done < max_cycles) {
        if (!ck->body_pending) {
            if ((birth_budget >= 0 && created + n > birth_budget) ||
                (need_measured >= 0 &&
                 ck->take[TAKE_RECORDS] >= need_measured))
                break;
            i64 opens = 0;
            for (i64 node = 0; node < n; node++) {
                if (inj_kind == INJ_BERNOULLI) {
                    if (!(mt_random(rng) < rate))
                        continue;
                } else {
                    uint32_t *own = ck->node_rng + node * MT_WORDS;
                    const double *c = ck->src_f64 + 1 + 5 * node;
                    if (ck->ss_remaining[node] <= 0) {
                        i64 on = ck->ss_on[node] = !ck->ss_on[node];
                        i64 period = on ? pareto_period(own, c[1], c[2])
                                        : pareto_period(own, c[3], c[4]);
                        if (period < 0)
                            ERR3(period, node, 0, 0);
                        ck->ss_remaining[node] = period;
                    }
                    ck->ss_remaining[node]--;
                    if (!(ck->ss_on[node] && mt_random(own) < c[0]))
                        continue;
                }
                i64 dst;
                if (pat_kind == PAT_UNIFORM) {
                    dst = mt_randbelow(rng, n - 1);
                    if (dst >= node)
                        dst++;
                } else {
                    const i64 *row = ck->dst_tab + ck->dst_off[node];
                    dst = pat_kind == PAT_FIXED
                              ? row[0]
                              : row[mt_randbelow(rng,
                                                 ck->dst_off[node + 1] -
                                                     ck->dst_off[node])];
                }
                i64 h = ck_handle_new(ck);
                if (h < 0 || ring_push(&ck->srcq[node], h))
                    ERR3(E_NOMEM, node, 0, 0);
                i64 measured = measure_from >= 0 && created >= measure_from;
                ck_set_packet(ck, h, next_pid++, node, dst, nflits, -1, -1, 0,
                              ck->cycle, measured);
                ck->srcw[node >> 6] |= 1ull << (node & 63);
                opens |= created == measure_from;
                ck->born++;
                created++;
            }
            if (opens) {
                ck->body_pending = 1;
                return done;
            }
        }
        ck->body_pending = 0;
        i64 rc = cycle_body(ck);
        if (rc < 0)
            return rc;
        done++;
    }
    return done;
}

/* ---- arena image: the whole dynamic state as one int64 buffer ----------- */
/* Layout: the header (key, R, P, V, nnodes, D, cal_sz), the scalars
 * (cycle, pend, pk_top, hfree_len), the dyn_len ints st_pid .. lb, each
 * source ring (length, then its handles oldest first), each calendar
 * bucket (arrival length and ints, then credit length and ints), the
 * PK_FIELDS packet-record arrays up to pk_top, the free-handle stack.
 * The static tensors are not in it (ck_load expects the shape's image
 * to be written already); neither is the span source, which is handed
 * back to Python before an image is taken, nor the finished packets'
 * take, which the wrapper empties after every call, nor body_pending,
 * which never outlives one CKernel.run. */
enum { IMG_HEADER = 7, IMG_SCALARS = 4, PK_FIELDS = 10 };

/* memcpy of n ints that may come from (or go to) a buffer never grown */
static void copy_ints(i64 *dst, const i64 *src, i64 n) {
    if (n)
        memcpy(dst, src, (size_t)n * sizeof(i64));
}

static void pk_fields(CK *ck, i64 **f) {
    f[0] = ck->pk_id; f[1] = ck->pk_src; f[2] = ck->pk_dst;
    f[3] = ck->pk_nflits; f[4] = ck->pk_minlanes; f[5] = ck->pk_hops;
    f[6] = ck->pk_inj; f[7] = ck->pk_created; f[8] = ck->pk_flags;
    f[9] = ck->pk_live;
}

i64 ck_image_size(CK *ck) {
    i64 n = IMG_HEADER + IMG_SCALARS + ck->dyn_len + ck->nnodes +
            2 * ck->cal_sz + PK_FIELDS * ck->pk_top + ck->hfree_len;
    for (i64 i = 0; i < ck->nnodes; i++)
        n += ck->srcq[i].len;
    for (i64 i = 0; i < ck->cal_sz; i++)
        n += ck->arr_b[i].len + ck->cred_b[i].len;
    return n;
}

/* Writes ck_image_size() ints to out; key names the kernel source. */
void ck_dump(CK *ck, i64 key, i64 *out) {
    const i64 head[] = {key, ck->R, ck->P, ck->V, ck->nnodes, ck->D,
                        ck->cal_sz, ck->cycle, ck->pend, ck->pk_top,
                        ck->hfree_len};
    memcpy(out, head, sizeof head);
    out += IMG_HEADER + IMG_SCALARS;
    copy_ints(out, ck->dyn, ck->dyn_len);
    out += ck->dyn_len;
    for (i64 i = 0; i < ck->nnodes; i++) {
        Ring *r = &ck->srcq[i];
        *out++ = r->len;
        for (i64 k = 0; k < r->len; k++)
            *out++ = r->buf[(r->head + k) % r->cap];
    }
    for (i64 i = 0; i < 2 * ck->cal_sz; i++) {
        Vec *b = i % 2 ? &ck->cred_b[i / 2] : &ck->arr_b[i / 2];
        *out++ = b->len;
        copy_ints(out, b->buf, b->len);
        out += b->len;
    }
    i64 *f[PK_FIELDS];
    pk_fields(ck, f);
    for (int k = 0; k < PK_FIELDS; k++, out += ck->pk_top)
        copy_ints(out, f[k], ck->pk_top);
    copy_ints(out, ck->hfree, ck->hfree_len);
}

/* Restores what ck_dump wrote into a fresh arena of the same shape;
 * E_IMAGE (word index, value read or ints left, value or ints expected)
 * when the header does not match this arena and key, or the n ints end
 * early or run over. */
i64 ck_load(CK *ck, i64 key, const i64 *in, i64 n) {
    const i64 want[] = {key, ck->R, ck->P, ck->V, ck->nnodes, ck->D,
                        ck->cal_sz};
    const i64 *at = in, *end = in + n;
#define TAKE(count)                                                          \
    do {                                                                     \
        if ((count) < 0 || end - at < (count))                               \
            ERR3(E_IMAGE, at - in, end - at, (count));                       \
    } while (0)
    TAKE(IMG_HEADER + IMG_SCALARS);
    for (int k = 0; k < IMG_HEADER; k++)
        if (at[k] != want[k])
            ERR3(E_IMAGE, k, at[k], want[k]);
    at += IMG_HEADER;
    ck->cycle = at[0];
    ck->pend = at[1];
    i64 top = at[2], nfree = at[3];
    at += IMG_SCALARS;
    TAKE(ck->dyn_len);
    copy_ints(ck->dyn, at, ck->dyn_len);
    at += ck->dyn_len;
    for (i64 i = 0; i < ck->nnodes; i++) {
        TAKE(1);
        i64 len = *at++;
        TAKE(len);
        for (i64 k = 0; k < len; k++)
            if (ring_push(&ck->srcq[i], *at++))
                ERR3(E_NOMEM, 0, 0, 0);
    }
    for (i64 i = 0; i < 2 * ck->cal_sz; i++) {
        Vec *b = i % 2 ? &ck->cred_b[i / 2] : &ck->arr_b[i / 2];
        TAKE(1);
        i64 len = *at++;
        TAKE(len);
        if (len) {
            i64 *ints = vec_extend(b, len);
            if (!ints)
                ERR3(E_NOMEM, 0, 0, 0);
            copy_ints(ints, at, len);
            at += len;
        }
    }
    if (top < 0 || nfree < 0 || nfree > top ||
        end - at != PK_FIELDS * top + nfree)
        ERR3(E_IMAGE, at - in, end - at, PK_FIELDS * top + nfree);
#undef TAKE
    if (ensure_packets(ck, top))
        ERR3(E_NOMEM, 0, 0, 0);
    ck->pk_top = top;
    ck->hfree_len = nfree;
    i64 *f[PK_FIELDS];
    pk_fields(ck, f);
    for (int k = 0; k < PK_FIELDS; k++, at += top)
        copy_ints(f[k], at, top);
    copy_ints(ck->hfree, at, nfree);
    return 0;
}

/* ---- the runtime checks' lane view ------------------------------------- */
/* What the runtime checks read beyond the arena arrays: per lane, the
 * packet id of the head flit (-1: empty) and whether the lane is on its
 * router's active list, written to head and indexed; the flits on links
 * (by downstream lane) and the credits on their way back (by upstream
 * lane), added onto on_link and returning; per node, the packets queued
 * at its source, added onto queued.  The last three come zeroed (L, L
 * and nnodes ints). */
void ck_lane_view(CK *ck, i64 *head, i64 *indexed, i64 *on_link,
                  i64 *returning, i64 *queued) {
    const i64 P = ck->P, V = ck->V, D = ck->D;
    for (i64 lane = 0; lane < ck->L; lane++) {
        head[lane] = ck->qlen[lane]
                         ? ck->pk_id[ck->qs_pkt[lane * D + ck->qhead[lane]]]
                         : -1;
        indexed[lane] = ck->act_pos[lane] >= 0;
    }
    for (i64 i = 0; i < ck->cal_sz; i++) {
        const Vec *a = &ck->arr_b[i], *c = &ck->cred_b[i];
        for (i64 e = 0; e < a->len; e += 5)
            on_link[(a->buf[e] * P + a->buf[e + 1]) * V + a->buf[e + 2]]++;
        for (i64 e = 0; e < c->len; e += 4)
            returning[(c->buf[e] * P + c->buf[e + 1]) * V + c->buf[e + 2]]++;
    }
    for (i64 i = 0; i < ck->nnodes; i++)
        queued[i] += ck->srcq[i].len;
}

/* ---- finished packets: latency records and held rows ------------------ */
/* floor division for b > 0, as Python's // */
static inline i64 floor_div(i64 a, i64 b) {
    i64 q = a / b;
    return q - (a % b < 0);
}

/* Packet h, finished at cycle `received`: if measured, its latency record
 * -- the twin of repro.noc.stats.NetworkStats.record_completions, Fig
 * 8(a)'s queuing / transfer / blocking split with its negative-slack clamp,
 * and E_BOUND (packet id, in-network cycles, the per-hop minimum) for a
 * packet faster than the pipeline -- then, if Python holds it, its held
 * row.  Returns 0 or the error code. */
AFTER_THE_WALK static i64 finish_packet(CK *ck, i64 h, i64 received) {
    i64 *take = ck->take;
    i64 stride = take[TAKE_STRIDE];
    if (take[TAKE_RECORDS] == stride || take[TAKE_HELD] == stride) {
        i64 nc = stride ? 2 * stride : 1024;
        i64 *nb = (i64 *)malloc((size_t)(TAKE_COLS * nc) * sizeof(i64));
        if (!nb)
            ERR3(E_NOMEM, 0, 0, 0);
        for (i64 k = 0; ck->cols && k < TAKE_COLS; k++)
            copy_ints(nb + k * nc, ck->cols + k * stride,
                      take[k < HELD_HANDLE ? TAKE_RECORDS : TAKE_HELD]);
        free(ck->cols);
        ck->cols = nb;
        take[TAKE_STRIDE] = stride = nc;
    }
    i64 record = -1;
    if (ck->pk_flags[h] & PK_MEASURED) {
        const i64 base = ck->po, minimum = ck->hop * ck->pk_hops[h] + base;
        const i64 lanes = ck->pk_minlanes[h] > 0 ? ck->pk_minlanes[h] : 1;
        i64 total = received - ck->pk_created[h];
        i64 queuing = ck->pk_inj[h] - ck->pk_created[h];
        i64 transfer = minimum - floor_div(1 - ck->pk_nflits[h], lanes);
        i64 blocking = total - queuing - transfer;
        if (blocking < 0) {
            if (total - queuing < minimum)
                ERR3(E_BOUND, ck->pk_id[h], total - queuing, minimum);
            transfer = total - queuing;
            blocking = 0;
        }
        const i64 row[] = {
            ck->pk_id[h], ck->pk_src[h], ck->pk_dst[h], ck->pk_nflits[h],
            ck->pk_hops[h], total, queuing, transfer, blocking,
        };
        record = take[TAKE_RECORDS]++;
        for (i64 k = REC_ID; k < HELD_HANDLE; k++)
            ck->cols[k * stride + record] = row[k];
    }
    if (ck->pk_flags[h] & PK_HELD) {
        const i64 row[] = {
            h, record, ck->pk_hops[h], ck->pk_minlanes[h], ck->pk_inj[h],
            received,
        };
        i64 n = take[TAKE_HELD]++;
        for (i64 k = HELD_HANDLE; k < TAKE_COLS; k++)
            ck->cols[k * stride + n] = row[k - HELD_HANDLE];
    }
    return 0;
}

/* finish_packet for a test: rows of its own through the record formula */
AFTER_THE_WALK i64 ck_finish(CK *ck, i64 h, i64 received) {
    return finish_packet(ck, h, received);
}
