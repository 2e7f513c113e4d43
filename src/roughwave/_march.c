/* The compiled kernels of roughwave, loaded by ``_kernels.load``: the march of
``solver.evolve`` (its steps up to a read, in one call) and its clock, the cell
means of ``mesh.restrict``, the draw of one midpoint level of fBm, with a log and
a sincos of its own, and the text of the per-cell CSV tables.  Each numerical kernel
repeats the operations of its numpy twin (``numpy_kernels`` of the tests, numpy's own
row mean), in the same order, so the bits are the same.

Each step of the march, of ``step_length`` (dt, or a last one shortened to land on
t_final), fills the two ghost cells, evaluates the numerical flux at every face and
writes v - ratio * (F[i+1] - F[i]), ratio = its length / dx, with the operations, and
their order, of the twin's ``advance`` and of ``flux.numerical_flux``, so the bits are
those of the numpy march; a march leaves its state in the first of its three rows,
where the numpy march keeps it.  Rusanov and Lax-Friedrichs are one template each
over the law's f; the cubic f is evaluated once per cell, into the scratch row.
numpy's NaN-propagating maximum and minimum are written out.  After every 64th time
point the march checks, in a pass of its own, that the state is finite, and stops
there if it is not, so that ``evolve`` returns to Python only where it reads a state.
The draw's log and sincos are fdlibm's, in + - * /, sqrt and bit operations only,
and ``numpy_kernels`` repeats them, so the normals' bits depend on no libm and no CPU.
Built with ``gcc -O3 -fno-math-errno -ffp-contract=off -mprefer-vector-width=512
-shared -fPIC``: a contracted multiply-add would round once where numpy rounds twice,
and a sqrt that need not set errno vectorizes.  The step and pairwise-sum templates
and the uniforms and normals of the draw have one clone per x86-64 level, picked
when the library loads, so that one cached library serves every CPU; their vector
loops keep the order of every floating-point operation.
The text kernel, ``cell_lines``, writes each double as Python's ``repr`` does: the
shortest digits that read back as it, the nearest if several (Schubfach), in
``repr``'s layout.  It is integer code, on gcc's 128-bit integers (64-bit targets),
and has no clones.
*/

#include <math.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && __GNUC__ >= 11 /* the x86-64-v3 and -v4 names */
#define CLONES __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define CLONES
#endif

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

/* the step of each (numflux, law) pair, in the order of flux.PAIRS */
static step_fn *const STEPS[] = {
    step_godunov_burgers, step_cubic_of_a, step_linear_of_a,
    step_rusanov_burgers, step_rusanov_cubic, step_rusanov_linear,
    step_lax_friedrichs_burgers, step_lax_friedrichs_cubic, step_lax_friedrichs_linear,
    step_engquist_osher_burgers, step_cubic_of_a, step_linear_of_a,
    step_linear_of_a,
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

/* numpy_kernels.variation of the n values v: np.sum of the n - 1 jumps, whose
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

/* The step from t in steps of dt to t_final: dt, or the rest if shorter.  t + it needs
   no clamp to t_final: a step of the rest starts from 0 or from t >= dt > rest, so t >=
   t_final / 2, the rest is exact (Sterbenz) and t + it is t_final; a whole step whose
   rest is inexact starts below t_final / 2, and t + dt <= 2 t < t_final. */
static inline double step_length(double t, double dt, double t_final)
{
    double rest = t_final - t;
    return rest < dt ? rest : dt;
}

/* Steps of flux.PAIRS[pair] from the state cells[1..n] of three (n + 2)-cell rows, at
   time times[first] after ``first`` steps: the first two rows are the states, between
   which the steps alternate, and the third the step's scratch row.  It steps while
   first + s == 0 or t < until, writing each new time to times[first + s] and, if tv is
   not NULL, the variation to tv[first + s]; after a step ending on a time point 63
   (mod 64) it stops if a cell is not finite.  The state ends in row 0.  Returns s, the
   number of steps taken. */
int64_t march(double *cells, int64_t n, double *times, int64_t first, double until,
              double dt, double t_final, double dx, int pair, int periodic, double two_lam,
              double *tv)
{
    step_fn *step = STEPS[pair];
    double *w = cells, *w_next = cells + (n + 2), *f = cells + 2 * (n + 2);
    double t = times[first];
    int64_t s = 0;
    while (first + s == 0 || t < until) {
        double dt_i = step_length(t, dt, t_final);
        w[0] = periodic ? w[n] : w[1];
        w[n + 1] = periodic ? w[1] : w[n];
        step(w, w_next, f, n, dt_i / dx, two_lam);
        double *swap = w;
        w = w_next;
        w_next = swap;
        t += dt_i;
        s++;
        times[first + s] = t;
        if (tv)
            tv[first + s] = variation(w + 1, n, periodic);
        if ((first + s) % 64 == 63 && !all_finite(w + 1, n))
            break;
    }
    if (w != cells)
        memcpy(cells + 1, w + 1, (size_t)n * sizeof *w);
    return s;
}

/* The number of time points after 0 of a march in steps of dt to t_final, which
   steps while t < t_final - guard. */
int64_t schedule(double dt, double t_final, double guard)
{
    int64_t count = 0;
    for (double t = 0.0; t < t_final - guard; count++)
        t += step_length(t, dt, t_final);
    return count;
}

/* mesh._cell_means: out[i] = the mean of v[i * factor .. (i + 1) * factor), as numpy's
   v.reshape(-1, factor).mean(axis=1) gives it: the row's pairwise sum, whose reduction
   starts from 0.0, divided by factor */
void cell_means(const double *v, double *out, int64_t rows, int64_t factor)
{
    for (int64_t i = 0; i < rows; i++)
        out[i] = (0.0 + pairwise_sum(v + i * factor, factor)) / (double)factor;
}

static inline uint64_t bits_of(double x)
{
    uint64_t b;
    memcpy(&b, &x, sizeof b);
    return b;
}

static inline double double_of(uint64_t b)
{
    double x;
    memcpy(&x, &b, sizeof x);
    return x;
}

/* fdlibm's log (e_log.c) on every positive finite double, within 1 ulp; inf and nan
   are returned as they are.  x = 2^k (1 + f) with sqrt(2)/2 < 1 + f < sqrt(2), and
   log(1 + f) = 2s + s R(s^2), s = f / (2 + f), R a degree-7 polynomial.  Branch-free,
   so that its loop vectorizes: a subnormal x is scaled by 2^54 first, k is made a
   double exactly through the bits of 2^52 + k + 2048, and fdlibm's two closing forms
   are both evaluated and one picked.  fdlibm's shortcut for |f| < 2^-20 is left out:
   the closing forms hold there too. */
static inline double ieee_log(double x)
{
    int64_t sub = x < 0x1p-1022;
    uint64_t b = bits_of(x * (sub ? 0x1p54 : 1.0));
    int64_t hx = (int64_t)(b >> 32) & 0xfffff, i = (hx + 0x95f64) & 0x100000;
    int64_t k = (int64_t)(b >> 52) - 1023 - (sub ? 54 : 0) + (i >> 20);
    double f = double_of((b & 0xfffffffffffffu) | (uint64_t)(i ^ 0x3ff00000) << 32) - 1.0;
    double dk = double_of(0x4330000000000000u + (uint64_t)(k + 2048)) - 0x1.00000000008p52;
    double s = f / (2.0 + f), z = s * s, w = z * z;
    double r = z * (0x1.5555555555593p-1
                    + w * (0x1.2492494229359p-2 + w * (0x1.7466496cb03dep-3
                                                       + w * 0x1.2f112df3e5244p-3)))
               + w * (0x1.999999997fa04p-2 + w * (0x1.c71c51d8e78afp-3
                                                  + w * 0x1.39a09d078c69fp-3));
    double hfsq = 0.5 * f * f, ln2_lo = 0x1.a39ef35793c76p-33;
    double tail = ((hx - 0x6147a) | (0x6b851 - hx)) > 0
                      ? hfsq - (s * (hfsq + r) + dk * ln2_lo)
                      : s * (f - r) - dk * ln2_lo;
    double log_x = dk * 0x1.62e42fee00000p-1 - (tail - f);
    return x < INFINITY ? log_x : x;
}

/* sin and cos of x in [0, 2 pi), within 1 ulp: x = n pi/2 + y + yy with n =
   round(x 2/pi) <= 4 by a two-step Cody-Waite reduction (pi/2 in pieces of 33, 33
   and 53 bits, so each n * piece is exact), then fdlibm's __kernel_sin and
   __kernel_cos on y + yy, in the branch-free form of FreeBSD's k_sin.c and k_cos.c,
   swapped and negated by the quadrant n mod 4.  n is rounded by adding 1.5 * 2^52. */
static inline void ieee_sincos(double x, double *sin_x, double *cos_x)
{
    double t = x * 0x1.45f306dc9c883p-1 + 0x1.8p52;
    uint64_t q = bits_of(t);
    double n = t - 0x1.8p52;
    double r1 = x - n * 0x1.921fb54400000p+0, w = n * 0x1.0b4611a600000p-34;
    double r = r1 - w;
    w = n * 0x1.3198a2e037073p-69 - ((r1 - r) - w);
    double y = r - w, yy = (r - y) - w;
    double z = y * y, v = z * y, zz = z * z;
    double rs = 0x1.111111110f8a6p-7
                + z * (-0x1.a01a019c161d5p-13 + z * 0x1.71de357b1fe7dp-19)
                + z * zz * (-0x1.ae5e68a2b9cebp-26 + z * 0x1.5d93a5acfd57cp-33);
    double sin_y = y - ((z * (0.5 * yy - v * rs) - yy) - v * -0x1.5555555555549p-3);
    double rc = z * (0x1.555555555554cp-5 + z * (-0x1.6c16c16c15177p-10
                                                 + z * 0x1.a01a019cb1590p-16))
                + zz * zz * (-0x1.27e4f809c52adp-22 + z * (0x1.1ee9ebdb4b1c4p-29
                                                           + z * -0x1.8fae9be8838d4p-37));
    double hz = 0.5 * z, one_hz = 1.0 - hz;
    double cos_y = one_hz + (((1.0 - one_hz) - hz) + (z * rc - y * yy));
    double s = q & 1 ? cos_y : sin_y, c = q & 1 ? sin_y : cos_y;
    *sin_x = q & 2 ? -s : s;
    *cos_x = (q + 1) & 2 ? -c : c;
}

/* The ``count`` uniforms of SplitMix64.normals from the stream at state ``s``: u =
   (u64 >> 11) * 2^-53 with a zero draw made 2^-53, each angle slot (odd index) times
   2 pi.  Returns the state past them. */
CLONES uint64_t uniforms(uint64_t s, double *z, int64_t count)
{
    for (int64_t i = 0; i < count; i++) {
        uint64_t x = s + (uint64_t)(i + 1) * 0x9E3779B97F4A7C15u;
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9u;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBu;
        x ^= x >> 31;
        double u = (double)(int64_t)(x >> 11) * 0x1p-53;
        u = u > 0x1p-53 ? u : 0x1p-53;
        z[i] = u * (i & 1 ? 2.0 * 3.141592653589793 : 1.0);
    }
    return s + (uint64_t)count * 0x9E3779B97F4A7C15u;
}

/* SplitMix64.normals: the ``count`` (even) normals from the stream at state ``s``,
   r cos a and r sin a of each pair of ``uniforms``, with r = sqrt(log(u) * -2.0).
   Returns the state past them. */
CLONES uint64_t normals(uint64_t s, double *z, int64_t count)
{
    s = uniforms(s, z, count);
    for (int64_t j = 0; j < count; j += 2) {
        double r = sqrt(ieee_log(z[j]) * -2.0), sin_a, cos_a;
        ieee_sincos(z[j + 1], &sin_a, &cos_a);
        z[j] = r * cos_a;
        z[j + 1] = r * sin_a;
    }
    return s;
}

/* normals drawn at a time, on the stack */
#define DRAW_BLOCK 512

/* One midpoint level of initial_data._midpoint_points: ``count`` (even) normals from
   the stream at state ``s``, and the midpoints pts[j * stride + stride / 2] = (left +
   right) * 0.5 + noise * scale of the intervals [j * stride, (j + 1) * stride] of
   pts.  Returns the state past the draws. */
uint64_t draw(uint64_t s, double *pts, int64_t stride, int64_t count, double scale)
{
    double z[DRAW_BLOCK];
    int64_t half = stride / 2;
    for (int64_t a = 0; a < count; a += DRAW_BLOCK) {
        int64_t m = count - a < DRAW_BLOCK ? count - a : DRAW_BLOCK;
        s = normals(s, z, m);
        for (int64_t j = 0; j < m; j++) {
            double *mid = pts + (a + j) * stride + half;
            *mid = (mid[-half] + mid[half]) * 0.5 + z[j] * scale;
        }
    }
    return s;
}

/* log, sin and cos of the n values x, as the draw takes them, for the tests of their
   accuracy */
void log_sincos(const double *x, int64_t n, double *log_x, double *sin_x, double *cos_x)
{
    for (int64_t i = 0; i < n; i++) {
        log_x[i] = ieee_log(x[i]);
        ieee_sincos(x[i], sin_x + i, cos_x + i);
    }
}

/* floor(log10(2^e)), floor(log10(3/4 2^e)) and floor(log2(10^e)), exact for every
   e that shortest_digits passes (the first two for -1100 <= e < 1000, the third for
   |e| < 400) */
static inline int floor_log10_pow2(int e) { return (e * 1262611) >> 22; }
static inline int floor_log10_three_quarters_pow2(int e) { return (e * 1262611 - 524031) >> 22; }
static inline int floor_log2_pow10(int e) { return (e * 1741647) >> 19; }

/* the least k whose 10^k the table of shortest_digits holds: 10^-292 .. 10^324 */
#define TENS_MIN (-292)

/* g cp / 2^128 rounded to odd, g the 128-bit (high, low) table entry, from bits 64
   and up of g cp.  g exceeds 10^-k 2^(127 - floor(log2 10^-k)) by at most 1, and for
   the cp that shortest_digits passes, bits 64 to 127 are 0 or 1 exactly when the
   quotient with that exact scale is an integer (Giulietti's lemma). */
static inline uint64_t round_to_odd(const uint64_t *g, uint64_t cp)
{
    unsigned __int128 low = (unsigned __int128)g[1] * cp;
    unsigned __int128 y = (unsigned __int128)g[0] * cp + (uint64_t)(low >> 64);
    return (uint64_t)(y >> 64) | ((uint64_t)y > 1);
}

/* The digits d and exponent *exp10 of the shortest decimal d 10^*exp10 that reads
   back as the positive finite double of significand field m and exponent field e,
   the nearest to it if there are several: Schubfach (Giulietti, 2020).  A double's
   rounding interval holds its ends when its significand c is even (a read rounds a
   tie to even), and its lower half is half as wide when c is a power of two above
   the subnormals.  tens holds g = floor(10^k 2^(127 - floor(log2 10^k))) + 1 for
   each k from TENS_MIN, as (high, low) pairs.  d may end in zeros. */
static uint64_t shortest_digits(uint64_t m, int e, const uint64_t *tens, int *exp10)
{
    uint64_t c = e ? m | 1ull << 52 : m;
    int q = e ? e - 1075 : -1074;
    if (q <= 0 && q > -53 && (c & ((1ull << -q) - 1)) == 0) { /* an integer below 2^53 */
        *exp10 = 0;
        return c >> -q;
    }
    int even = (c & 1) == 0, closer = m == 0 && e > 1;
    int k = closer ? floor_log10_three_quarters_pow2(q) : floor_log10_pow2(q);
    int h = q + floor_log2_pow10(-k) + 1; /* 1 .. 4 */
    const uint64_t *g = tens + 2 * (-k - TENS_MIN);
    /* the double and its interval's ends, times 10^-k, in quarters */
    uint64_t vb = round_to_odd(g, c << 2 << h);
    uint64_t lower = round_to_odd(g, ((c << 2) - 2 + closer) << h) + !even;
    uint64_t upper = round_to_odd(g, ((c << 2) + 2) << h) - !even;
    uint64_t s = vb >> 2;
    if (s >= 10) { /* one digit fewer: at most one multiple of 10^(k+1) is inside */
        uint64_t sp = s / 10;
        int sp_in = lower <= 40 * sp, sp_next_in = 40 * sp + 40 <= upper;
        if (sp_in != sp_next_in) {
            *exp10 = k + 1;
            return sp + sp_next_in;
        }
    }
    int s_in = lower <= 4 * s, s_next_in = 4 * s + 4 <= upper;
    *exp10 = k;
    if (s_in != s_next_in)
        return s + s_next_in;
    return s + (vb > 4 * s + 2 || (vb == 4 * s + 2 && (s & 1))); /* the nearer, ties even */
}

/* the longest repr of a double: "-2.2250738585072014e-308" */
#define REPR_MAX 24

/* repr(x) written at p, in at most REPR_MAX bytes; returns its end.  The shortest
   digits print positional for a decimal exponent in [-4, 16), with ".0" on an
   integral value, and as d.ddde+XX with at least two exponent digits otherwise. */
static char *write_repr(char *p, double x, const uint64_t *tens)
{
    uint64_t b = bits_of(x), m = b & 0xfffffffffffffu;
    int e = (int)(b >> 52) & 0x7ff;
    if (e == 0x7ff && m) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (b >> 63)
        *p++ = '-';
    if (e == 0x7ff || (e == 0 && m == 0)) {
        memcpy(p, e ? "inf" : "0.0", 3);
        return p + 3;
    }
    int exp10;
    uint64_t d = shortest_digits(m, e, tens, &exp10);
    for (; d % 10 == 0; d /= 10)
        exp10++;
    char digits[20];
    int n = 0;
    for (; d; d /= 10)
        digits[19 - n++] = (char)('0' + d % 10);
    const char *first = digits + 20 - n;
    int point = exp10 + n; /* digits before the decimal point */
    if (point < -3 || point > 16) {
        int sci = point - 1;
        *p++ = first[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, first + 1, (size_t)n - 1);
            p += n - 1;
        }
        *p++ = 'e';
        *p++ = sci < 0 ? '-' : '+';
        sci = sci < 0 ? -sci : sci;
        if (sci >= 100)
            *p++ = (char)('0' + sci / 100);
        *p++ = (char)('0' + sci / 10 % 10);
        *p++ = (char)('0' + sci % 10);
    } else if (point <= 0) { /* 0.000ddd */
        memcpy(p, "0.", 2);
        memset(p + 2, '0', (size_t)-point);
        p += 2 - point;
        memcpy(p, first, (size_t)n);
        p += n;
    } else if (point >= n) { /* ddd000.0 */
        memcpy(p, first, (size_t)n);
        memset(p + n, '0', (size_t)(point - n));
        p += point;
        memcpy(p, ".0", 2);
        p += 2;
    } else { /* dd.ddd */
        memcpy(p, first, (size_t)point);
        p[point] = '.';
        memcpy(p + point + 1, first + point, (size_t)(n - point));
        p += n + 1;
    }
    return p;
}

/* The lines "<prefix><repr(x[i])>,<repr(u[i])>\n" of the ``rows`` cells of a block
   of ``write_csv``, written into buf; returns their length, or -1, having written
   part of them, if a line of the longest form would pass ``cap`` bytes.  tens is
   the table of shortest_digits. */
int64_t cell_lines(const char *prefix, int64_t prefix_len, const double *x, const double *u,
                   int64_t rows, char *buf, int64_t cap, const uint64_t *tens)
{
    char *p = buf;
    for (int64_t i = 0; i < rows; i++) {
        if (cap - (p - buf) < prefix_len + 2 * REPR_MAX + 2)
            return -1;
        memcpy(p, prefix, (size_t)prefix_len);
        p = write_repr(p + prefix_len, x[i], tens);
        *p++ = ',';
        p = write_repr(p, u[i], tens);
        *p++ = '\n';
    }
    return p - buf;
}
