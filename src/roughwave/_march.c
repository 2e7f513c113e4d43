/* The compiled kernels of roughwave, loaded by ``_kernels.load``: the march of
``solver.evolve`` (a block of explicit steps in one call), the cell means of
``mesh.restrict`` and the two halves of a draw chunk of fBm, around numpy's log, cos
and sin.  Each repeats the operations of the numpy code it replaces, in the same
order, so the bits are the same.

Each step of the march fills the two ghost cells, evaluates the numerical flux at
every face and writes v - ratio * (F[i+1] - F[i]) with the operations, and their
order, of ``solver._advance`` and ``flux.numerical_flux``, so the bits are those of
the numpy march; a block of steps leaves its state in the first of its three rows,
where the numpy march keeps it.  Rusanov and Lax-Friedrichs are one template each
over the law's f; the cubic f is evaluated once per cell, into the scratch row.
numpy's NaN-propagating maximum and minimum are written out.  After every 64th time
point the march checks, in a pass of its own, that the state is finite, and stops
there if it is not, so that ``evolve`` returns to Python only where it reads a state.
Built with ``gcc -O3 -ffp-contract=off -mprefer-vector-width=512 -shared -fPIC``: a
contracted multiply-add would round once where numpy rounds twice.  The step and
pairwise-sum templates have one clone per x86-64 level, picked when the library
loads, so that one cached library serves every CPU; their vector loops keep the
order of every floating-point operation.
*/

#include <math.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && __GNUC__ >= 11 /* the x86-64-v3 and -v4 names */
#define CLONES __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define CLONES
#endif

/* the declaration order of flux.NumFluxKind and flux.FluxSpec */
enum { GODUNOV, RUSANOV, LAX_FRIEDRICHS, ENGQUIST_OSHER, UPWIND, N_KINDS };
enum { BURGERS, CUBIC, LINEAR, N_LAWS };

static inline double np_maximum(double x, double y) { return (x >= y || isnan(x)) ? x : y; }
static inline double np_minimum(double x, double y) { return (x <= y || isnan(x)) ? x : y; }

static inline double burgers(double u) { return (0.5 * u) * u; }
static inline double cubic(double u) { return ((u * u) * u) / 3.0; }
static inline double linear(double u) { return u; }

/* F(a, b) of each pair; two_lam is 2 * lam, read by Lax-Friedrichs only */
static inline double godunov_burgers(double a, double b, double two_lam)
{
    return np_maximum(burgers(np_maximum(a, 0.0)), burgers(np_minimum(b, 0.0)));
}

static inline double engquist_osher_burgers(double a, double b, double two_lam)
{
    double pos = np_maximum(a, 0.0), neg = np_minimum(b, 0.0);
    return 0.5 * (pos * pos) + 0.5 * (neg * neg);
}

static inline double cubic_of_a(double a, double b, double two_lam) { return cubic(a); }
static inline double linear_of_a(double a, double b, double two_lam) { return a; }

/* Rusanov's endpoint speed s = max(|f'(a)|, |f'(b)|) is the larger of each cell's */
static inline double burgers_speed(double u) { return fabs(u); }
static inline double cubic_speed(double u) { return u * u; }
static inline double linear_speed(double u) { return 1.0; }

typedef void step_fn(const double *w, double *out, double *f, int64_t n, double ratio,
                     double two_lam);

/* out[1..n] = w[1..n] - (F[i] - F[i-1]) * ratio, face i between w[i] and w[i+1]: the
   CELL pass over w[0..n+1] into the scratch row f, the faces into out[0..n], then the
   update downward, reading out[i - 1] before it is overwritten.  out[0] keeps a face:
   a ghost cell, refilled before it is read. */
#define STEP(NAME, CELL, FACE)                                                       \
    CLONES static void step_##NAME(const double *restrict w, double *restrict out,   \
                                   double *restrict f, int64_t n, double ratio,      \
                                   double two_lam)                                   \
    {                                                                                \
        for (int64_t i = 0; i <= n + 1; i++) {                                       \
            CELL;                                                                    \
        }                                                                            \
        for (int64_t i = 0; i <= n; i++)                                             \
            out[i] = FACE;                                                           \
        for (int64_t i = n; i >= 1; i--)                                             \
            out[i] = w[i] - (out[i] - out[i - 1]) * ratio;                           \
    }

/* a flux that evaluates each of its cells' terms once per face needs no cell pass */
#define FACE_STEP(FLUX) STEP(FLUX, , FLUX(w[i], w[i + 1], two_lam))

FACE_STEP(godunov_burgers)
FACE_STEP(engquist_osher_burgers)
FACE_STEP(cubic_of_a)
FACE_STEP(linear_of_a)

/* Rusanov and Lax-Friedrichs, one template each over the law's f, read as F(i) for
   cell i: 0.5 * (f(a) + f(b)) - (0.5 * s) * (b - a) and 0.5 * (f(a) + f(b)) - (b - a) /
   two_lam at each face, in the operation order of flux.numerical_flux.  The cubic f,
   whose division costs more than a store and a load, is evaluated once per cell into
   the row f; Burgers' and the linear f, cheaper than that, at each face. */
#define RUSANOV_AND_LAX_FRIEDRICHS(LAW, CELL, F)                                     \
    STEP(rusanov_##LAW, CELL,                                                        \
         0.5 * (F(i) + F(i + 1))                                                     \
             - (0.5 * np_maximum(LAW##_speed(w[i]), LAW##_speed(w[i + 1])))          \
                   * (w[i + 1] - w[i]))                                              \
    STEP(lax_friedrichs_##LAW, CELL, 0.5 * (F(i) + F(i + 1)) - (w[i + 1] - w[i]) / two_lam)

#define BURGERS_AT_FACE(i) burgers(w[i])
#define CUBIC_FROM_ROW(i) f[i]
#define LINEAR_AT_FACE(i) w[i]

RUSANOV_AND_LAX_FRIEDRICHS(burgers, , BURGERS_AT_FACE)
RUSANOV_AND_LAX_FRIEDRICHS(cubic, f[i] = cubic(w[i]), CUBIC_FROM_ROW)
RUSANOV_AND_LAX_FRIEDRICHS(linear, , LINEAR_AT_FACE)

static step_fn *const STEPS[N_KINDS][N_LAWS] = {
    [GODUNOV] = {step_godunov_burgers, step_cubic_of_a, step_linear_of_a},
    [RUSANOV] = {step_rusanov_burgers, step_rusanov_cubic, step_rusanov_linear},
    [LAX_FRIEDRICHS] = {step_lax_friedrichs_burgers, step_lax_friedrichs_cubic,
                        step_lax_friedrichs_linear},
    [ENGQUIST_OSHER] = {step_engquist_osher_burgers, step_cubic_of_a, step_linear_of_a},
    [UPWIND] = {NULL, NULL, step_linear_of_a},
};

/* numpy's pairwise sum (pairwise_sum_DOUBLE) of TERM(v, i) for i < count: sequential
   below 8 terms, eight accumulators up to 128, else halves split at a multiple of 8 */
#define PAIRWISE_SUM(NAME, TERM)                                                     \
    CLONES static double NAME(const double *v, int64_t count)                        \
    {                                                                                \
        if (count < 8) {                                                             \
            double res = 0.0;                                                        \
            for (int64_t i = 0; i < count; i++)                                      \
                res += TERM(v, i);                                                   \
            return res;                                                              \
        }                                                                            \
        if (count <= 128) {                                                          \
            double r[8];                                                             \
            int64_t i;                                                               \
            for (int j = 0; j < 8; j++)                                              \
                r[j] = TERM(v, j);                                                   \
            for (i = 8; i < count - (count % 8); i += 8)                             \
                for (int j = 0; j < 8; j++)                                          \
                    r[j] += TERM(v, i + j);                                          \
            double res = ((r[0] + r[1]) + (r[2] + r[3]))                            \
                         + ((r[4] + r[5]) + (r[6] + r[7]));                          \
            for (; i < count; i++)                                                   \
                res += TERM(v, i);                                                   \
            return res;                                                              \
        }                                                                            \
        int64_t half = count / 2;                                                    \
        half -= half % 8;                                                            \
        return NAME(v, half) + NAME(v + half, count - half);                         \
    }

#define ABS_DIFF(v, i) fabs((v)[(i) + 1] - (v)[i])
#define VALUE(v, i) ((v)[i])

PAIRWISE_SUM(pairwise_abs_diff, ABS_DIFF)
PAIRWISE_SUM(pairwise_sum, VALUE)

/* diagnostics._variation of the n values v: np.sum of the n - 1 jumps, whose
   reduction starts from 0.0, and the wrap-around jump if periodic */
double variation(const double *v, int64_t n, int periodic)
{
    double tv = 0.0 + pairwise_abs_diff(v, n - 1);
    if (periodic && n > 1)
        tv += fabs(v[0] - v[n - 1]);
    return tv;
}

/* 1 if none of the n values is inf or nan: a pass of its own, since the same test in
   the update pass would keep gcc from vectorizing that.  x - x is +0 for finite x and
   nan for inf and nan, a test gcc vectorizes in every clone, the baseline too */
CLONES static int all_finite(const double *v, int64_t n)
{
    int finite = 1;
    for (int64_t i = 0; i < n; i++)
        finite &= (v[i] - v[i]) == 0.0;
    return finite;
}

/* Up to ``steps`` steps from the state cells[1..n] of three (n + 2)-cell rows: the
   first two are the states, between which the steps alternate, and the third the
   scratch row of the step.  ``first`` is the number of steps before this call; after each
   step that ends on a time point 63 (mod 64) the state is checked, and the march stops
   there if a cell is not finite.  The state always ends in row 0.  ``tv``, if not NULL,
   receives the variation after each step.  Returns the number of steps taken. */
int64_t march(double *cells, int64_t n, int64_t first, int64_t steps, int kind, int law,
              int periodic, double ratio, double two_lam, double *tv)
{
    step_fn *step = STEPS[kind][law];
    double *w = cells, *w_next = cells + (n + 2), *f = cells + 2 * (n + 2);
    int64_t s = 0;
    while (s < steps) {
        w[0] = periodic ? w[n] : w[1];
        w[n + 1] = periodic ? w[1] : w[n];
        step(w, w_next, f, n, ratio, two_lam);
        if (tv)
            tv[s] = variation(w_next + 1, n, periodic);
        double *swap = w;
        w = w_next;
        w_next = swap;
        s++;
        if ((first + s) % 64 == 63 && !all_finite(w + 1, n))
            break;
    }
    if (w != cells)
        memcpy(cells + 1, w + 1, (size_t)n * sizeof *w);
    return s;
}

/* mesh._cell_means: out[i] = the mean of v[i * factor .. (i + 1) * factor), as numpy's
   v.reshape(-1, factor).mean(axis=1) gives it: the row's pairwise sum, whose reduction
   starts from 0.0, divided by factor */
void cell_means(const double *v, double *out, int64_t rows, int64_t factor)
{
    for (int64_t i = 0; i < rows; i++)
        out[i] = (0.0 + pairwise_sum(v + i * factor, factor)) / (double)factor;
}

/* The first half of a draw chunk of initial_data._midpoint_points: the ``count``
   uniforms of SplitMix64.normals from the stream at state ``s``, u = (u64 >> 11) *
   2^-53 with a zero draw made 2^-53, each angle slot (odd index) times 2 pi.  Returns
   the state past them. */
uint64_t uniforms(uint64_t s, double *z, int64_t count)
{
    for (int64_t i = 0; i < count; i++) {
        uint64_t x = s += 0x9E3779B97F4A7C15u;
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9u;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBu;
        x ^= x >> 31;
        double u = (double)(x >> 11) * 0x1p-53;
        u = u > 0x1p-53 ? u : 0x1p-53;
        z[i] = i % 2 ? u * (2.0 * 3.141592653589793) : u;
    }
    return s;
}

/* The second half, after numpy has put log(u) in the even slots of z, sin(angle) in
   the odd ones and cos(angle) in c: the normals r cos and r sin of each pair, with
   r = sqrt(log(u) * -2.0), as SplitMix64.normals forms them, and then the ``count``
   midpoints pts[j * stride + stride / 2] = (left + right) * 0.5 + noise * scale of
   the intervals [j * stride, (j + 1) * stride] of pts. */
void displace(double *pts, int64_t stride, int64_t count, const double *z, const double *c,
              double scale)
{
    int64_t half = stride / 2;
    for (int64_t j = 0; j < count; j += 2) {
        double r = sqrt(z[j] * -2.0);
        double noise[2] = {r * c[j / 2], r * z[j + 1]};
        for (int m = 0; m < 2; m++) {
            double *mid = pts + (j + m) * stride + half;
            *mid = (mid[-half] + mid[half]) * 0.5 + noise[m] * scale;
        }
    }
}
