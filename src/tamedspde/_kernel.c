/* The package's compiled kernel, an extension module built and loaded by
   kernel.py.  Each entry takes numpy arrays through the buffer protocol,
   which rejects a read-only or non-contiguous one, and releases the GIL
   around its loop.

   philox_normals: rows of standard normals from per-path Philox4x64-10
   streams, drawn by numpy's own ziggurat (random_standard_normal_fill,
   libnpyrandom.a) from a bitgen_t that runs Philox exactly as numpy's
   Philox does.  Row (step, j) is keyed (seed, ids[j]) at counter
   step * 2^128 with an empty buffer, so it holds the bits of
   numpy.random.Generator(Philox(key, counter)).standard_normal(n_modes).

   dpttrf, dptts2: LAPACK's tridiagonal LDL^T factor and solve (reference
   dpttrf.f and dptts2.f), op for op and in the same order, so they give
   the bits of scipy's dpttrf/dpttrs.  -ffp-contract=off keeps the compiler
   from fusing b - b' * e into one FMA. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
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

/* v[i] = obj as a contiguous buffer, C- or F-ordered and writable as flags
   ask, of float64 ("d") items, or of any 8-byte items if any8: 1, or 0 with
   an exception set and v[0..i-1] released too. */
static int view(PyObject *obj, Py_buffer *v, int i, int flags, int any8) {
    if (PyObject_GetBuffer(obj, &v[i], flags | PyBUF_FORMAT) == 0) {
        if (v[i].itemsize == 8 && (any8 || strcmp(v[i].format, "d") == 0)) return 1;
        PyBuffer_Release(&v[i]);
        PyErr_SetString(PyExc_TypeError, any8 ? "8-byte items expected" : "float64 array expected");
    }
    while (i--) PyBuffer_Release(&v[i]);
    return 0;
}

static void release(Py_buffer *v, int n) { while (n--) PyBuffer_Release(&v[n]); }

static PyObject *invalid(Py_buffer *v, int n, const char *message) {
    release(v, n);
    PyErr_SetString(PyExc_ValueError, message);
    return NULL;
}

static int nargs_is(const char *name, Py_ssize_t nargs, Py_ssize_t n) {
    if (nargs == n) return 1;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, n, nargs);
    return 0;
}

/* philox_normals(seed, ids, step, out): out, C-ordered, holds rows of its last
   axis's length, for steps step, step + 1, ... and in each the paths ids. */
static PyObject *philox_normals(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    Py_buffer v[2], *ids = v, *out = v + 1;
    if (!nargs_is("philox_normals", nargs, 4)) return NULL;
    uint64_t seed = PyLong_AsUnsignedLongLong(args[0]), step = PyLong_AsUnsignedLongLong(args[2]);
    if (PyErr_Occurred() || !view(args[1], v, 0, PyBUF_C_CONTIGUOUS, 1)
        || !view(args[3], v, 1, PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE, 0)) return NULL;
    ptrdiff_t n_paths = ids->len / 8, n_modes = out->ndim ? out->shape[out->ndim - 1] : 1;
    ptrdiff_t n_steps = n_paths && n_modes ? out->len / 8 / n_modes / n_paths : 0;
    const uint64_t *id = ids->buf;
    double *row = out->buf;
    Py_BEGIN_ALLOW_THREADS
    philox_t s;
    /* no next_uint32: the normal fill never calls it */
    bitgen_t bitgen = {&s, next_uint64, NULL, next_double, next_uint64};
    for (ptrdiff_t i = 0; i < n_steps; i++, step++)
        for (ptrdiff_t j = 0; j < n_paths; j++, row += n_modes) {
            s.ctr[0] = s.ctr[1] = s.ctr[3] = 0, s.ctr[2] = step;
            s.key[0] = seed, s.key[1] = id[j], s.pos = 4;
            random_standard_normal_fill(&bitgen, n_modes, row);
        }
    Py_END_ALLOW_THREADS
    release(v, 2);
    Py_RETURN_NONE;
}

/* dpttrf(d, e) -> info: factors the system of n = len(d) nodes in place, e
   holding n - 1 entries; info = i > 0 when pivot i is not positive
   (LAPACK's .LE. 0 test, which a NaN passes), else 0. */
static PyObject *dpttrf(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    Py_buffer v[2];
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE;
    if (!nargs_is("dpttrf", nargs, 2) || !view(args[0], v, 0, flags, 0)
        || !view(args[1], v, 1, flags, 0)) return NULL;
    double *d = v[0].buf, *e = v[1].buf;
    ptrdiff_t n = v[0].len / 8, info = 0;
    if (v[1].len / 8 != (n ? n - 1 : 0)) return invalid(v, 2, "e must hold one entry fewer than d");
    Py_BEGIN_ALLOW_THREADS
    for (ptrdiff_t i = 0; i < n; i++) {
        if (d[i] <= 0.0) {
            info = i + 1;
            break;
        }
        if (i + 1 < n) {
            double ei = e[i];
            e[i] = ei / d[i];
            d[i + 1] = d[i + 1] - e[i] * ei;
        }
    }
    Py_END_ALLOW_THREADS
    release(v, 2);
    return PyLong_FromSsize_t(info);
}

/* dptts2(d, e, b): with the factor (d, e), solves in place for each column
   of b, an F-ordered array of len(d) rows. */
static PyObject *dptts2(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    Py_buffer v[3];
    if (!nargs_is("dptts2", nargs, 3) || !view(args[0], v, 0, PyBUF_C_CONTIGUOUS, 0)
        || !view(args[1], v, 1, PyBUF_C_CONTIGUOUS, 0)
        || !view(args[2], v, 2, PyBUF_F_CONTIGUOUS | PyBUF_WRITABLE, 0)) return NULL;
    const double *d = v[0].buf, *e = v[1].buf;
    double *b = v[2].buf;
    ptrdiff_t n = v[0].len / 8, nrhs = n ? v[2].len / 8 / n : 0;
    if (v[1].len / 8 != (n ? n - 1 : 0)) return invalid(v, 3, "e must hold one entry fewer than d");
    if (v[2].ndim < 1 || v[2].shape[0] != n) return invalid(v, 3, "b must have len(d) rows");
    Py_BEGIN_ALLOW_THREADS
    if (n == 1) {  /* LAPACK's DSCAL by 1 / d */
        double r = 1.0 / d[0];
        for (ptrdiff_t j = 0; j < nrhs; j++) b[j] *= r;
    } else {
        for (ptrdiff_t j = 0; j < nrhs; j++, b += n) {
            for (ptrdiff_t i = 1; i < n; i++) b[i] = b[i] - b[i - 1] * e[i - 1];
            b[n - 1] = b[n - 1] / d[n - 1];
            for (ptrdiff_t i = n - 2; i >= 0; i--) b[i] = b[i] / d[i] - b[i + 1] * e[i];
        }
    }
    Py_END_ALLOW_THREADS
    release(v, 3);
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"philox_normals", (PyCFunction)(void (*)(void))philox_normals, METH_FASTCALL, NULL},
    {"dpttrf", (PyCFunction)(void (*)(void))dpttrf, METH_FASTCALL, NULL},
    {"dptts2", (PyCFunction)(void (*)(void))dptts2, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_kernel", NULL, -1, methods};

PyMODINIT_FUNC PyInit__kernel(void) { return PyModule_Create(&module); }
