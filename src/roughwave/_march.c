/* The compiled march of ``solver.evolve``: a block of explicit steps in one call.

Each step fills the two ghost cells, evaluates the numerical flux at every face and
writes v - ratio * (F[i+1] - F[i]) with the operations, and their order, of
``solver._advance`` and ``flux.numerical_flux``, so the bits are those of the numpy
march.  numpy's NaN-propagating maximum and minimum are written out.  Built with
``gcc -O2 -ffp-contract=off -shared -fPIC``: a contracted multiply-add would round
once where numpy rounds twice.
*/

#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* the declaration order of flux.NumFluxKind and flux.FluxSpec */
enum { GODUNOV, RUSANOV, LAX_FRIEDRICHS, ENGQUIST_OSHER, UPWIND, N_KINDS };
enum { BURGERS, CUBIC, LINEAR, N_LAWS };

static inline double np_maximum(double x, double y) { return (x >= y || isnan(x)) ? x : y; }
static inline double np_minimum(double x, double y) { return (x <= y || isnan(x)) ? x : y; }

static inline double burgers(double u) { return (0.5 * u) * u; }
static inline double cubic(double u) { return ((u * u) * u) / 3.0; }

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

static inline double rusanov_burgers(double a, double b, double two_lam)
{
    double half_s = 0.5 * np_maximum(fabs(a), fabs(b));
    return 0.5 * (burgers(a) + burgers(b)) - half_s * (b - a);
}

static inline double rusanov_cubic(double a, double b, double two_lam)
{
    double aa = a * a, bb = b * b;
    double half_s = 0.5 * np_maximum(aa, bb);
    return 0.5 * ((aa * a) / 3.0 + (bb * b) / 3.0) - half_s * (b - a);
}

static inline double rusanov_linear(double a, double b, double two_lam)
{
    return 0.5 * (a + b) - 0.5 * (b - a);
}

static inline double lax_friedrichs_burgers(double a, double b, double two_lam)
{
    return 0.5 * (burgers(a) + burgers(b)) - (b - a) / two_lam;
}

static inline double lax_friedrichs_cubic(double a, double b, double two_lam)
{
    return 0.5 * (cubic(a) + cubic(b)) - (b - a) / two_lam;
}

static inline double lax_friedrichs_linear(double a, double b, double two_lam)
{
    return 0.5 * (a + b) - (b - a) / two_lam;
}

typedef void step_fn(const double *w, double *out, int64_t n, double ratio, double two_lam);

/* out[1..n] = w[1..n] - ratio * (F[i+1] - F[i]), face i between w[i] and w[i+1] */
#define STEP(FLUX)                                                                   \
    static void step_##FLUX(const double *w, double *out, int64_t n, double ratio,   \
                            double two_lam)                                          \
    {                                                                                \
        double lo = FLUX(w[0], w[1], two_lam);                                       \
        for (int64_t i = 1; i <= n; i++) {                                           \
            double hi = FLUX(w[i], w[i + 1], two_lam);                               \
            out[i] = w[i] - (hi - lo) * ratio;                                       \
            lo = hi;                                                                 \
        }                                                                            \
    }

STEP(godunov_burgers)
STEP(engquist_osher_burgers)
STEP(cubic_of_a)
STEP(linear_of_a)
STEP(rusanov_burgers)
STEP(rusanov_cubic)
STEP(rusanov_linear)
STEP(lax_friedrichs_burgers)
STEP(lax_friedrichs_cubic)
STEP(lax_friedrichs_linear)

static step_fn *const STEPS[N_KINDS][N_LAWS] = {
    [GODUNOV] = {step_godunov_burgers, step_cubic_of_a, step_linear_of_a},
    [RUSANOV] = {step_rusanov_burgers, step_rusanov_cubic, step_rusanov_linear},
    [LAX_FRIEDRICHS] = {step_lax_friedrichs_burgers, step_lax_friedrichs_cubic,
                        step_lax_friedrichs_linear},
    [ENGQUIST_OSHER] = {step_engquist_osher_burgers, step_cubic_of_a, step_linear_of_a},
    [UPWIND] = {NULL, NULL, step_linear_of_a},
};

/* numpy's pairwise sum (pairwise_sum_DOUBLE) of |v[i+1] - v[i]| for i < count */
static double pairwise_abs_diff(const double *v, int64_t count)
{
    if (count < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < count; i++)
            res += fabs(v[i + 1] - v[i]);
        return res;
    }
    if (count <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = fabs(v[j + 1] - v[j]);
        for (i = 8; i < count - (count % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += fabs(v[i + j + 1] - v[i + j]);
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < count; i++)
            res += fabs(v[i + 1] - v[i]);
        return res;
    }
    int64_t half = count / 2;
    half -= half % 8;
    return pairwise_abs_diff(v, half) + pairwise_abs_diff(v + half, count - half);
}

/* diagnostics._variation of the n values v: np.sum of the n - 1 jumps, whose
   reduction starts from 0.0, and the wrap-around jump if periodic */
double variation(const double *v, int64_t n, int periodic)
{
    double tv = 0.0 + pairwise_abs_diff(v, n - 1);
    if (periodic && n > 1)
        tv += fabs(v[0] - v[n - 1]);
    return tv;
}

/* ``steps`` steps from the state w[1..n] of two (n + 2)-cell buffers, alternating:
   the state ends in ``w`` if ``steps`` is even, else in ``w_next``.  ``tv``, if not
   NULL, receives the variation after each step. */
void march(double *w, double *w_next, int64_t n, int64_t steps, int kind, int law,
           int periodic, double ratio, double two_lam, double *tv)
{
    step_fn *step = STEPS[kind][law];
    for (int64_t s = 0; s < steps; s++) {
        w[0] = periodic ? w[n] : w[1];
        w[n + 1] = periodic ? w[1] : w[n];
        step(w, w_next, n, ratio, two_lam);
        if (tv)
            tv[s] = variation(w_next + 1, n, periodic);
        double *swap = w;
        w = w_next;
        w_next = swap;
    }
}
