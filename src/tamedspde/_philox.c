/* Rows of standard normals from per-path Philox4x64-10 streams, drawn by
   numpy's own ziggurat (random_standard_normal_fill, libnpyrandom.a) from a
   bitgen_t that runs Philox exactly as numpy's Philox does.  Row (step, j)
   is keyed (seed, ids[j]) at counter step * 2^128 with an empty buffer, so
   it holds the bits of numpy.random.Generator(Philox(key, counter))
   .standard_normal(n_modes).  Built and loaded by noise.py. */
#include <stddef.h>
#include <stdint.h>
#include "numpy/random/bitgen.h"

void random_standard_normal_fill(bitgen_t *bitgen, ptrdiff_t n, double *out);

typedef struct { uint64_t ctr[4], key[2], buf[4]; int pos; } philox_t;

static uint64_t next_uint64(void *st) {
    philox_t *s = st;
    if (s->pos < 4) return s->buf[s->pos++];
    if (++s->ctr[0] == 0 && ++s->ctr[1] == 0 && ++s->ctr[2] == 0) ++s->ctr[3];
    uint64_t c0 = s->ctr[0], c1 = s->ctr[1], c2 = s->ctr[2], c3 = s->ctr[3];
    uint64_t k0 = s->key[0], k1 = s->key[1];
#pragma GCC unroll 10  /* at -O2: rolled ~4% slower than numpy's Philox, unrolled ~3% faster */
    for (int round = 0; round < 10; round++, k0 += 0x9E3779B97F4A7C15u, k1 += 0xBB67AE8584CAA73Bu) {
        unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93u * c0;
        unsigned __int128 p2 = (unsigned __int128)0xCA5A826395121157u * c2;
        c0 = (uint64_t)(p2 >> 64) ^ c1 ^ k0, c1 = (uint64_t)p2;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1, c3 = (uint64_t)p0;
    }
    s->buf[0] = c0, s->buf[1] = c1, s->buf[2] = c2, s->buf[3] = c3, s->pos = 1;
    return c0;
}

static double next_double(void *st) { return (next_uint64(st) >> 11) * (1.0 / 9007199254740992.0); }

/* out: n_steps x n_paths rows of n_modes doubles, C order; steps step, step + 1, ... */
void philox_normals(uint64_t seed, const uint64_t *ids, ptrdiff_t n_paths, uint64_t step,
                    ptrdiff_t n_steps, ptrdiff_t n_modes, double *out) {
    philox_t s;
    /* no next_uint32: the normal fill never calls it */
    bitgen_t bitgen = {&s, next_uint64, NULL, next_double, next_uint64};
    for (ptrdiff_t i = 0; i < n_steps; i++, step++)
        for (ptrdiff_t j = 0; j < n_paths; j++, out += n_modes) {
            s.ctr[0] = s.ctr[1] = s.ctr[3] = 0, s.ctr[2] = step;
            s.key[0] = seed, s.key[1] = ids[j], s.pos = 4;
            random_standard_normal_fill(&bitgen, n_modes, out);
        }
}
