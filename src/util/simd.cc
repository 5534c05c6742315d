#include "util/simd.hh"

#include <cstdint>
#include <cstring>

namespace cchunter
{

namespace simd
{

namespace
{

// Each body below is compiled once per ISA by being inlined into that
// ISA's wrapper (Variants).  No function passes or returns a vector by
// value, so no wrapper's ABI depends on the ISA.

typedef double V4 __attribute__((vector_size(32)));
typedef std::uint64_t U4 __attribute__((vector_size(32)));

constexpr std::uint64_t kSign = std::uint64_t{1} << 63;

[[gnu::always_inline]] inline void
load(V4& out, const double* p)
{
    std::memcpy(&out, p, sizeof out);
}

[[gnu::always_inline]] inline void
store(double* p, const V4& v)
{
    std::memcpy(p, &v, sizeof v);
}

[[gnu::always_inline]] inline double
squaredDistanceBody(const double* a, const double* b, std::size_t n)
{
    V4 acc = {0.0, 0.0, 0.0, 0.0};
    const std::size_t n4 = n & ~std::size_t{3};
    for (std::size_t i = 0; i < n4; i += 4) {
        V4 x, y;
        load(x, a + i);
        load(y, b + i);
        const V4 d = x - y;
        acc += d * d;
    }
    double total = (acc[0] + acc[2]) + (acc[1] + acc[3]);
    for (std::size_t i = n4; i < n; ++i) {
        const double d = a[i] - b[i];
        total += d * d;
    }
    return total;
}

[[gnu::always_inline]] inline void
divideInPlaceBody(double* v, std::size_t n, double denom)
{
    const std::size_t n4 = n & ~std::size_t{3};
    for (std::size_t i = 0; i < n4; i += 4) {
        V4 x;
        load(x, v + i);
        store(v + i, x / denom);
    }
    for (std::size_t i = n4; i < n; ++i)
        v[i] /= denom;
}

[[gnu::always_inline]] inline void
scaleInPlaceBody(double* v, std::size_t n, double s)
{
    const std::size_t n4 = n & ~std::size_t{3};
    for (std::size_t i = 0; i < n4; i += 4) {
        V4 x;
        load(x, v + i);
        store(v + i, x * s);
    }
    for (std::size_t i = n4; i < n; ++i)
        v[i] *= s;
}

[[gnu::always_inline]] inline void
subtractScalarBody(const double* x, std::size_t n, double c,
                   double* out)
{
    const std::size_t n4 = n & ~std::size_t{3};
    for (std::size_t i = 0; i < n4; i += 4) {
        V4 y;
        load(y, x + i);
        store(out + i, y - c);
    }
    for (std::size_t i = n4; i < n; ++i)
        out[i] = x[i] - c;
}

[[gnu::always_inline]] inline void
powerSpectrumExpandBody(const std::complex<double>* spectrum,
                        std::size_t m1, double* power,
                        std::size_t padded)
{
    // Four complex values (r0 i0 r1 i1 | r2 i2 r3 i3) -> four
    // re^2 + im^2 per iteration.
    const double* s = reinterpret_cast<const double*>(spectrum);
    const std::size_t m4 = m1 & ~std::size_t{3};
    for (std::size_t k = 0; k < m4; k += 4) {
        V4 z0, z1;
        load(z0, s + 2 * k);
        load(z1, s + 2 * k + 4);
        const V4 sq0 = z0 * z0;
        const V4 sq1 = z1 * z1;
        const V4 re2 = {sq0[0], sq0[2], sq1[0], sq1[2]};
        const V4 im2 = {sq0[1], sq0[3], sq1[1], sq1[3]};
        store(power + k, re2 + im2);
    }
    for (std::size_t k = m4; k < m1; ++k) {
        const double re = spectrum[k].real();
        const double im = spectrum[k].imag();
        power[k] = re * re + im * im;
    }
    for (std::size_t k = 1; k < m1; ++k) {
        if (k != padded - k)
            power[padded - k] = power[k];
    }
}

[[gnu::always_inline]] inline void
butterflyBlockBody(std::complex<double>* a,
                   const std::complex<double>* tw, std::size_t half,
                   bool inverse)
{
    double* ap = reinterpret_cast<double*>(a);
    double* bp = reinterpret_cast<double*>(a + half);
    const double* wp = reinterpret_cast<const double*>(tw);
    // Conjugation flips the sign bit of each twiddle's imaginary lane.
    const U4 conj = inverse ? U4{0, kSign, 0, kSign} : U4{0, 0, 0, 0};
    const std::size_t half2 = half & ~std::size_t{1};
    for (std::size_t j = 0; j < half2; j += 2) {
        V4 w, b, u;
        load(w, wp + 2 * j); // wr0 wi0 wr1 wi1
        load(b, bp + 2 * j); // br0 bi0 br1 bi1
        load(u, ap + 2 * j);
        w = (V4)((U4)w ^ conj);
        const V4 wr = {w[0], w[0], w[2], w[2]};
        const V4 wi = {w[1], w[1], w[3], w[3]};
        const V4 bswap = {b[1], b[0], b[3], b[2]};
        // (br*wr - bi*wi, bi*wr + br*wi) per complex value.
        const V4 p = b * wr;
        const V4 q = bswap * wi;
        const V4 diff = p - q;
        const V4 sum = p + q;
        const V4 v = {diff[0], sum[1], diff[2], sum[3]};
        store(ap + 2 * j, u + v);
        store(bp + 2 * j, u - v);
    }
    for (std::size_t j = half2; j < half; ++j) {
        const double wr = tw[j].real();
        const double wi = inverse ? -tw[j].imag() : tw[j].imag();
        const double br = a[j + half].real();
        const double bi = a[j + half].imag();
        const double vr = br * wr - bi * wi;
        const double vi = bi * wr + br * wi;
        const double ur = a[j].real();
        const double ui = a[j].imag();
        a[j] = std::complex<double>(ur + vr, ui + vi);
        a[j + half] = std::complex<double>(ur - vr, ui - vi);
    }
}

// One ISA variant of a body: a function with the body's signature,
// built with or without AVX2, into which the body is inlined.
template <auto Body>
struct Variants;

template <typename R, typename... Args, R (*Body)(Args...)>
struct Variants<Body>
{
    static R baseline(Args... args) { return Body(args...); }

#if defined(__x86_64__) || defined(__i386__)
    __attribute__((target("avx2"))) static R avx2(Args... args)
    {
        return Body(args...);
    }
#endif
};

const KernelSet kBaseline = {
    Variants<squaredDistanceBody>::baseline,
    Variants<divideInPlaceBody>::baseline,
    Variants<scaleInPlaceBody>::baseline,
    Variants<subtractScalarBody>::baseline,
    Variants<powerSpectrumExpandBody>::baseline,
    Variants<butterflyBlockBody>::baseline,
};

#if defined(__x86_64__) || defined(__i386__)
const KernelSet kAvx2 = {
    Variants<squaredDistanceBody>::avx2,
    Variants<divideInPlaceBody>::avx2,
    Variants<scaleInPlaceBody>::avx2,
    Variants<subtractScalarBody>::avx2,
    Variants<powerSpectrumExpandBody>::avx2,
    Variants<butterflyBlockBody>::avx2,
};

const KernelSet*
detectAvx2()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? &kAvx2 : nullptr;
}

const KernelSet* const g_avx2 = detectAvx2();
#else
const KernelSet* const g_avx2 = nullptr;
#endif

const KernelSet g_active = g_avx2 ? *g_avx2 : kBaseline;

} // namespace

const KernelSet&
baselineKernels()
{
    return kBaseline;
}

const KernelSet*
avx2Kernels()
{
    return g_avx2;
}

double
squaredDistance(const double* a, const double* b, std::size_t n)
{
    return g_active.squaredDistance(a, b, n);
}

void
divideInPlace(double* v, std::size_t n, double denom)
{
    g_active.divideInPlace(v, n, denom);
}

void
scaleInPlace(double* v, std::size_t n, double s)
{
    g_active.scaleInPlace(v, n, s);
}

void
subtractScalar(const double* x, std::size_t n, double c, double* out)
{
    g_active.subtractScalar(x, n, c, out);
}

void
powerSpectrumExpand(const std::complex<double>* spectrum,
                    std::size_t m1, double* power, std::size_t padded)
{
    g_active.powerSpectrumExpand(spectrum, m1, power, padded);
}

void
butterflyBlock(std::complex<double>* a, const std::complex<double>* tw,
               std::size_t half, bool inverse)
{
    g_active.butterflyBlock(a, tw, half, inverse);
}

} // namespace simd

} // namespace cchunter
