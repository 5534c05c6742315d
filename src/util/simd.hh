/**
 * @file
 * Vector kernels for the analysis hot loops.
 *
 * Each kernel has one body, written with 4-lane GCC/Clang vector
 * types, and that body is compiled twice: once for AVX2 and once for
 * the baseline ISA.  The AVX2 build is used when the host supports it
 * (decided once, at start-up, with __builtin_cpu_supports); otherwise
 * the baseline build runs.  Because both builds come from one source
 * with no FMA contraction and one fixed reduction tree, they produce
 * bit-identical results, and the detection pipeline's golden streams
 * do not depend on the host CPU.  The one reduction kernel
 * (squaredDistance) fixes a 4-lane accumulator tree; every other
 * kernel is elementwise.
 */

#ifndef CCHUNTER_UTIL_SIMD_HH
#define CCHUNTER_UTIL_SIMD_HH

#include <complex>
#include <cstddef>

namespace cchunter
{

namespace simd
{

/**
 * Sum of squared differences between two length-n arrays with a fixed
 * 4-lane accumulator tree: lane l accumulates indices congruent to l
 * mod 4 over the aligned body, the total is (l0+l2)+(l1+l3), and the
 * tail (n mod 4 elements) is added sequentially afterwards.  Note the
 * tree differs from a plain sequential sum.
 */
double squaredDistance(const double* a, const double* b,
                       std::size_t n);

/** v[i] /= denom for i in [0, n). */
void divideInPlace(double* v, std::size_t n, double denom);

/** v[i] *= s for i in [0, n). */
void scaleInPlace(double* v, std::size_t n, double s);

/** out[i] = x[i] - c for i in [0, n). */
void subtractScalar(const double* x, std::size_t n, double c,
                    double* out);

/**
 * Power spectrum of a half-spectrum, expanded to full length by
 * conjugate symmetry: power[k] = re^2 + im^2 for k in [0, m1), then
 * power[padded-k] = power[k] for k in [1, m1) with k != padded-k.
 * Requires m1 == padded/2 + 1; every entry of power[0..padded) is
 * written.
 */
void powerSpectrumExpand(const std::complex<double>* spectrum,
                         std::size_t m1, double* power,
                         std::size_t padded);

/**
 * One radix-2 butterfly block over a span of 2*half complex values:
 *
 *   v = a[j+half] * tw[j]   (tw conjugated when inverse)
 *   a[j]      = a[j] + v
 *   a[j+half] = a[j] - v        for j in [0, half)
 *
 * The complex product is (br*wr - bi*wi, br*wi + bi*wr) with no FMA
 * contraction, matching std::complex::operator*= exactly.
 */
void butterflyBlock(std::complex<double>* a,
                    const std::complex<double>* tw, std::size_t half,
                    bool inverse);

/** One ISA build of the six kernels above (same signatures). */
struct KernelSet
{
    double (*squaredDistance)(const double*, const double*,
                              std::size_t);
    void (*divideInPlace)(double*, std::size_t, double);
    void (*scaleInPlace)(double*, std::size_t, double);
    void (*subtractScalar)(const double*, std::size_t, double,
                           double*);
    void (*powerSpectrumExpand)(const std::complex<double>*,
                                std::size_t, double*, std::size_t);
    void (*butterflyBlock)(std::complex<double>*,
                           const std::complex<double>*, std::size_t,
                           bool);
};

/** The baseline-ISA build; runs on every host. */
const KernelSet& baselineKernels();

/** The AVX2 build, or nullptr when the build targets no x86 or the
 *  host lacks AVX2.  The functions above call it when it exists. */
const KernelSet* avx2Kernels();

} // namespace simd

} // namespace cchunter

#endif // CCHUNTER_UTIL_SIMD_HH
