/* The compiled GP of repro.gp.regression: the fit's negative log marginal
 * likelihood and the candidate scorer.
 *
 * lml_step is the L-BFGS-B loop's objective: GaussianProcessRegressor.
 * _make_analytic_objective in one call, with the same float operations in
 * the same order, behind a repeat cache:
 *
 *   l = exp(theta_0), v = exp(theta_1), as Matern52.set_theta
 *   r = r0 / l, nu = -sqrt(5) r, E = exp(nu), and K and G from them, as
 *   Matern52.eval_and_gradient_state
 *   K + noise I copied into an F-order buffer (the copy scipy's potrf
 *   makes of a C-order matrix) and dpotrf on it; nothing reads the
 *   factor's upper triangle, so it is not zeroed as potrf's clean=1 would
 *   log(diag(L)) summed in ndarray.sum's pairwise order
 *   dpotrs on [y | I], ddot(-0.5 y, alpha) for `-0.5 * y @ alpha`,
 *   W = alpha alpha^T - K^-1 in C order, and 0.5 ddot(W, G_j) for each
 *   np.vdot(W, G_j).
 *
 * It reads theta from the loop's x and writes the gradient into the
 * loop's g.  The fit keeps its last evaluation (theta, f, g); a request
 * at an equal theta (by ==, as SciPy's array_equal compares, so a NaN
 * never matches) is answered from it, as SciPy's loop answers setulb's
 * repeated requests.  A failed dpotrf is never cached: that call goes
 * to the Python objective and its jitter path.
 *
 * Every exp and log is libm's, which the spec takes through math.exp and
 * math.log.  Where r0 is symmetric (checked at a fit's first call) K and G
 * are computed on the lower triangle and mirrored, halving the exp calls.
 * lml_factor is lml_step followed by zeroing the factor's upper
 * triangle, as potrf's clean=1 leaves it: A then holds the factor the fit
 * keeps.
 *
 * pcg64_uniform draws the fit's random start as NumPy's
 * Generator(PCG64(seed)).random does, without the ~10 us of seeding a
 * Generator.
 *
 * gp_score is GaussianProcessRegressor._predict_spec and
 * acquisition.expected_improvement in one pass over the candidates, each
 * row on its own in the spec's fixed order: the distances to the training
 * rows with each dot product summed left to right, the Matern 5/2 row
 * (libm exp), the mean with K* alpha summed over j in order, forward
 * substitution row by row, sum v^2 in order, the floored variance, and EI
 * with SciPy's ndtr.
 *
 * dpotrf, dpotrs and ddot are the routines scipy.linalg's cython_lapack
 * and cython_blas export, passed in as function pointers, so this file
 * links against libm only.  Build flags must keep -ffp-contract=off (no
 * fused multiply-add reordering).
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

typedef void potrf_fn(char *uplo, int *n, double *a, int *lda, int *info);
typedef void potrs_fn(char *uplo, int *n, int *nrhs, double *a, int *lda,
                      double *b, int *ldb, int *info);
typedef double ddot_fn(int *n, double *x, int *incx, double *y, int *incy);
/* scipy.special.cython_special's double ndtr; the int is Cython's
 * skip-dispatch flag, passed as 0. */
typedef double ndtr_fn(double x, int skip_dispatch);

/* One fit's problem.  work holds, in this order (n x n matrices in C
 * order unless noted):
 *   r0   n x n   the training distances        } written by the caller
 *   y    n       the normalized targets        }
 *   ny   n       -0.5 y
 *   K, G, W      n x n each
 *   A    n x n   F order: K + noise I, then L
 *   B    n x (n + 1), F order: [y | I], then solved
 *   d    n       log(diag(L)) */
struct lml_fit {
    int64_t n, sym;     /* sym: -1 until the first call checks r0 == r0^T */
    double noise, cnst; /* sigma_n^2 and 0.5 n log(2 pi) */
    potrf_fn *potrf;
    potrs_fn *potrs;
    ddot_fn *ddot;
    double *work;
    int64_t evals; /* lml_step calls not answered from the cache */
    int64_t seen;  /* 1 while last holds an evaluation */
    double last[5]; /* theta_0, theta_1, f, g_0, g_1 of the last one */
};

/* NumPy's pairwise summation of a contiguous float64 array (the inner
 * loop of np.add.reduce): a plain loop below 8 entries, eight
 * accumulators up to 128, halves on multiples of 8 above. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* The negated lml at theta = (log_l, log_v) and its negated gradient in
 * g; 1e25 and a zero gradient where the lml is not finite.  NaN, with g
 * untouched, where K + noise I is not positive definite: the caller takes
 * the jitter path. */
static double lml_eval(struct lml_fit *f, double log_l, double log_v,
                       double *g)
{
    int64_t n = f->n;
    double *r0 = f->work, *y = r0 + n * n, *ny = y + n, *K = ny + n;
    double *G = K + n * n, *W = G + n * n, *A = W + n * n, *B = A + n * n;
    double *d = B + n * (n + 1);
    if (f->sym < 0) {
        f->sym = 1;
        for (int64_t i = 0; i < n; i++) {
            ny[i] = -0.5 * y[i];
            for (int64_t j = 0; j < i; j++)
                if (r0[i * n + j] != r0[j * n + i])
                    f->sym = 0;
        }
    }
    double l = exp(log_l), variance = exp(log_v);
    double neg_sqrt5 = -sqrt(5.0);
    for (int64_t i = 0; i < n; i++) {
        for (int64_t j = 0; j < (f->sym ? i + 1 : n); j++) {
            double r = r0[i * n + j] / l;
            double nu = neg_sqrt5 * r;
            double e = exp(nu);
            double one_plus_u = 1.0 - nu;
            double t = r * r; /* np.power(r, 2) is the exact square */
            t = 5.0 * t;
            t = t / 3.0;
            t = one_plus_u + t;
            double k = variance * t;
            k = k * e;
            double dk = nu * nu;
            dk = dk * one_plus_u;
            dk = dk / 3.0;
            dk = variance * dk;
            dk = dk * e;
            K[i * n + j] = K[j * n + i] = k;
            G[i * n + j] = G[j * n + i] = dk;
        }
    }
    /* K + noise * eye(n): the off-diagonal adds noise * 0.0 == +0.0. */
    for (int64_t j = 0; j < n; j++)
        for (int64_t i = 0; i < n; i++)
            A[i + j * n] = K[i * n + j] + (i == j ? f->noise : 0.0);
    char uplo = 'L';
    int m = (int)n, nrhs = m + 1, info, one = 1, mm = m * m;
    f->potrf(&uplo, &m, A, &m, &info);
    if (info != 0)
        return NAN;
    for (int64_t i = 0; i < n; i++)
        d[i] = log(A[i + i * n]);
    double logdet = pairwise_sum(d, n);

    for (int64_t i = 0; i < n; i++)
        B[i] = y[i];
    for (int64_t j = 0; j < n; j++)
        for (int64_t i = 0; i < n; i++)
            B[i + (j + 1) * n] = i == j ? 1.0 : 0.0;
    f->potrs(&uplo, &m, &nrhs, A, &m, B, &m, &info);
    double lml = f->ddot(&m, ny, &one, B, &one);
    lml = lml - logdet;
    lml = lml - f->cnst;
    if (!isfinite(lml)) {
        g[0] = 0.0;
        g[1] = 0.0;
        return 1e25;
    }
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < n; j++)
            W[i * n + j] = B[i] * B[j] - B[i + (j + 1) * n];
    g[0] = -(0.5 * f->ddot(&mm, W, &one, G, &one));
    g[1] = -(0.5 * f->ddot(&mm, W, &one, K, &one));
    return -lml;
}

/* The loop's objective at theta = x[0..2): the negated lml, with its
 * negated gradient written to g, from the cache on a repeated theta. */
double lml_step(struct lml_fit *f, const double *x, double *g)
{
    double *last = f->last;
    if (f->seen && x[0] == last[0] && x[1] == last[1]) {
        g[0] = last[3];
        g[1] = last[4];
        return last[2];
    }
    f->evals++;
    double out = lml_eval(f, x[0], x[1], g);
    f->seen = out == out;
    if (f->seen) {
        last[0] = x[0];
        last[1] = x[1];
        last[2] = out;
        last[3] = g[0];
        last[4] = g[1];
    }
    return out;
}

/* lml_step at theta = (log_l, log_v), then the upper triangle of A
 * zeroed: the fit's factor.  While the cache holds an evaluation, A holds
 * the factor at its theta, so a theta the loop evaluated last is not
 * evaluated again. */
double lml_factor(struct lml_fit *f, double log_l, double log_v)
{
    double x[2] = {log_l, log_v}, g[2];
    double out = lml_step(f, x, g);
    int64_t n = f->n;
    double *A = f->work + 4 * n * n + 2 * n;
    for (int64_t j = 1; j < n; j++)
        for (int64_t i = 0; i < j; i++)
            A[i + j * n] = 0.0;
    return out;
}

/* NumPy's SeedSequence and PCG64 (numpy/random/bit_generator.pyx and
 * pcg64.h, whose streams NumPy keeps fixed), for the fit's random start:
 * the hash constants of SeedSequence's entropy pool and output, and the
 * 128-bit LCG multiplier of PCG64 as (high, low) halves. */
#define SS_INIT_A 0x43b0d7e5u
#define SS_MULT_A 0x931e8875u
#define SS_INIT_B 0x8b51f9ddu
#define SS_MULT_B 0x58f38dedu
#define SS_MIX_L 0xca01f9ddu
#define SS_MIX_R 0x4973f715u
#define PCG_MULT_HI 2549297995355413924ULL
#define PCG_MULT_LO 4865540595714422341ULL

static uint32_t ss_hashmix(uint32_t v, uint32_t *h)
{
    v ^= *h;
    *h *= SS_MULT_A;
    v *= *h;
    return v ^ (v >> 16);
}

/* s = s * PCG_MULT + inc modulo 2^128, on (high, low) halves. */
static void pcg_step(uint64_t s[2], const uint64_t inc[2])
{
    uint64_t a0 = s[1] & 0xffffffffu, a1 = s[1] >> 32;
    uint64_t m0 = PCG_MULT_LO & 0xffffffffu, m1 = PCG_MULT_LO >> 32;
    uint64_t p00 = a0 * m0, p01 = a0 * m1, p10 = a1 * m0;
    uint64_t mid = (p00 >> 32) + (p01 & 0xffffffffu) + (p10 & 0xffffffffu);
    uint64_t lo = (p00 & 0xffffffffu) | (mid << 32);
    uint64_t hi = a1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) +
                  s[1] * PCG_MULT_HI + s[0] * PCG_MULT_LO;
    s[1] = lo + inc[1];
    s[0] = hi + inc[0] + (s[1] < lo);
}

/* Entry i of Generator(PCG64(seed)).random(i + 1): SeedSequence's pool
 * of four words mixed from seed's one or two 32-bit words, eight output
 * words as PCG64's 128-bit seed and increment, then output i + 1 of the
 * generator as a double, (next64 >> 11) * 2^-53. */
double pcg64_uniform(uint64_t seed, int64_t i)
{
    uint32_t words[2] = {(uint32_t)seed, (uint32_t)(seed >> 32)};
    int n_words = seed >> 32 ? 2 : 1;
    uint32_t pool[4], h = SS_INIT_A;
    for (int j = 0; j < 4; j++)
        pool[j] = ss_hashmix(j < n_words ? words[j] : 0, &h);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst) {
                uint32_t r = SS_MIX_L * pool[dst] -
                             SS_MIX_R * ss_hashmix(pool[src], &h);
                pool[dst] = r ^ (r >> 16);
            }
    uint64_t st[4] = {0, 0, 0, 0};
    h = SS_INIT_B;
    for (int j = 0; j < 8; j++) {
        uint32_t v = pool[j % 4] ^ h;
        h *= SS_MULT_B;
        v *= h;
        v ^= v >> 16;
        st[j / 2] |= (uint64_t)v << (32 * (j % 2));
    }
    /* pcg64_set_seed: state 0, inc = (st[2], st[3]) << 1 | 1, a step,
     * the seed (st[0], st[1]) added, another step. */
    uint64_t inc[2] = {st[2] << 1 | st[3] >> 63, st[3] << 1 | 1};
    uint64_t s[2] = {0, 0};
    pcg_step(s, inc);
    s[1] += st[1];
    s[0] += st[0] + (s[1] < st[1]);
    pcg_step(s, inc);
    for (int64_t j = 0; j <= i; j++)
        pcg_step(s, inc);
    uint64_t x = s[0] ^ s[1];
    unsigned rot = (unsigned)(s[0] >> 58);
    x = (x >> rot) | (x << ((64 - rot) & 63));
    return (double)(x >> 11) * (1.0 / 9007199254740992.0);
}

/* Candidates are scored this many at a time: their forward substitutions
 * run side by side, each in its own fixed order, so the CPU overlaps
 * their dependency chains. */
#define SCORE_BLOCK 4

/* One GP's posterior at candidate rows.  xt (n x d, C order) and sqt are
 * the training rows and their squared norms, alpha the weights, L the
 * training factor (n x n, F order), kss the prior variance k(x, x); xc
 * (nc x d, C order) and sqc are the candidate rows and their norms, of
 * which rows[0..m) are scored (all nc of them, m == nc, if rows is NULL).
 * out_mean gets the posterior mean; unless out_std is NULL, out_std the
 * posterior std; unless out_ei is NULL, out_ei EI over best.  work holds
 * 2 SCORE_BLOCK n doubles.  Returns 0, or -1 (nothing written) if a row
 * is out of range. */
int gp_score(int64_t m, int64_t n, int64_t d, int64_t nc, const double *xc,
             const double *sqc, const int64_t *rows, const double *xt,
             const double *sqt, double length_scale, double variance,
             double kss, const double *alpha, const double *L, double y_std,
             double y_mean, double best, ndtr_fn *ndtr, double *out_mean,
             double *out_std, double *out_ei, double *work)
{
    const double sqrt5 = sqrt(5.0), pdf_c = sqrt(2.0 * 3.141592653589793);
    /* Kernel rows and v, entry j of block lane b at [j * SCORE_BLOCK + b]. */
    double *k = work, *v = work + SCORE_BLOCK * n;
    if (rows != NULL)
        for (int64_t c = 0; c < m; c++)
            if (rows[c] < 0 || rows[c] >= nc)
                return -1;
    for (int64_t c0 = 0; c0 < m; c0 += SCORE_BLOCK) {
        int lanes = m - c0 < SCORE_BLOCK ? (int)(m - c0) : SCORE_BLOCK;
        double mean[SCORE_BLOCK], ssq[SCORE_BLOCK], a[SCORE_BLOCK];
        for (int b = 0; b < SCORE_BLOCK; b++) {
            if (b >= lanes) { /* a spare lane: zeros, never written out */
                for (int64_t j = 0; j < n; j++)
                    k[j * SCORE_BLOCK + b] = 0.0;
                continue;
            }
            int64_t row = rows != NULL ? rows[c0 + b] : c0 + b;
            const double *x = xc + row * d;
            double sq = sqc[row], acc = 0.0;
            for (int64_t j = 0; j < n; j++) {
                const double *t = xt + j * d;
                double dot = x[0] * t[0];
                for (int64_t q = 1; q < d; q++)
                    dot = dot + x[q] * t[q];
                double d2 = (sq + sqt[j]) - 2.0 * dot;
                if (d2 < 0.0)
                    d2 = 0.0;
                double r = sqrt(d2 + 1e-12) / length_scale;
                double s = sqrt5 * r;
                double kv = variance * ((1.0 + s) + (5.0 * (r * r)) / 3.0);
                kv = kv * exp(-s);
                k[j * SCORE_BLOCK + b] = kv;
                acc = acc + kv * alpha[j];
            }
            mean[b] = acc * y_std + y_mean;
            out_mean[c0 + b] = mean[b];
        }
        if (out_std == NULL)
            continue;
        for (int b = 0; b < SCORE_BLOCK; b++)
            ssq[b] = 0.0;
        for (int64_t i = 0; i < n; i++) {
            for (int b = 0; b < SCORE_BLOCK; b++)
                a[b] = 0.0;
            for (int64_t j = 0; j < i; j++) {
                double l = L[i + j * n];
                for (int b = 0; b < SCORE_BLOCK; b++)
                    a[b] = a[b] + l * v[j * SCORE_BLOCK + b];
            }
            for (int b = 0; b < SCORE_BLOCK; b++) {
                double vi = (k[i * SCORE_BLOCK + b] - a[b]) / L[i + i * n];
                v[i * SCORE_BLOCK + b] = vi;
                ssq[b] = ssq[b] + vi * vi;
            }
        }
        for (int b = 0; b < lanes; b++) {
            double var = kss - ssq[b];
            if (var < 1e-12)
                var = 1e-12;
            double std = sqrt(var) * y_std;
            out_std[c0 + b] = std;
            if (out_ei == NULL)
                continue;
            double improve = mean[b] - best, ei;
            if (std > 0.0) {
                double z = improve / std;
                ei = improve * ndtr(z, 0) +
                     std * (exp(-(z * z) / 2.0) / pdf_c);
            } else {
                ei = improve < 0.0 ? 0.0 : improve;
            }
            out_ei[c0 + b] = ei < 0.0 ? 0.0 : ei;
        }
    }
    return 0;
}
