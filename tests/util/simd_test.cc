/**
 * @file
 * Vector-kernel equivalence tests.
 *
 * Every kernel in util/simd.hh is one source compiled for two ISAs
 * (AVX2 and the baseline), and both builds must give bit-identical
 * output (the golden incident streams depend on it).  These tests run
 * each build that the host can execute, plus the dispatched entry
 * point, against a sequential reference loop kept here, over sizes
 * that cover empty, tiny, unaligned-tail and large inputs, and compare
 * with exact equality.
 */

#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "util/rng.hh"
#include "util/simd.hh"

namespace cchunter
{
namespace
{

const std::vector<std::size_t> kSizes = {0,  1,  2,  3,   4,   5,
                                         7,  8,  9,  15,  16,  17,
                                         31, 64, 100, 255, 1024};

/** A kernel set under test and the name to report it by. */
struct Variant
{
    std::string name;
    simd::KernelSet kernels;
};

/** The baseline build, the AVX2 build when the host runs it, and the
 *  dispatched entry points. */
std::vector<Variant>
variants()
{
    std::vector<Variant> out = {{"baseline", simd::baselineKernels()}};
    if (const simd::KernelSet* avx2 = simd::avx2Kernels())
        out.push_back({"avx2", *avx2});
    out.push_back({"dispatched",
                   {simd::squaredDistance, simd::divideInPlace,
                    simd::scaleInPlace, simd::subtractScalar,
                    simd::powerSpectrumExpand, simd::butterflyBlock}});
    return out;
}

std::vector<double>
randomDoubles(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<double> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(rng.nextGaussian(0.0, 1.0));
    return v;
}

std::vector<std::complex<double>>
randomComplex(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<std::complex<double>> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        v.emplace_back(rng.nextGaussian(0.0, 1.0),
                       rng.nextGaussian(0.0, 1.0));
    return v;
}

bool
sameBits(const std::vector<std::complex<double>>& a,
         const std::vector<std::complex<double>>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) ==
                0);
}

// ---- sequential references ------------------------------------------

/** The documented 4-lane tree, one lane at a time. */
double
referenceSquaredDistance(const double* a, const double* b,
                         std::size_t n)
{
    double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
    const std::size_t n4 = n & ~std::size_t{3};
    for (std::size_t i = 0; i < n4; i += 4) {
        const double d0 = a[i] - b[i];
        const double d1 = a[i + 1] - b[i + 1];
        const double d2 = a[i + 2] - b[i + 2];
        const double d3 = a[i + 3] - b[i + 3];
        l0 += d0 * d0;
        l1 += d1 * d1;
        l2 += d2 * d2;
        l3 += d3 * d3;
    }
    double total = (l0 + l2) + (l1 + l3);
    for (std::size_t i = n4; i < n; ++i) {
        const double d = a[i] - b[i];
        total += d * d;
    }
    return total;
}

void
referencePowerSpectrum(const std::complex<double>* spectrum,
                       std::size_t m1, double* power, std::size_t padded)
{
    for (std::size_t k = 0; k < m1; ++k) {
        const double re = spectrum[k].real();
        const double im = spectrum[k].imag();
        power[k] = re * re + im * im;
    }
    for (std::size_t k = 1; k < m1; ++k) {
        if (k != padded - k)
            power[padded - k] = power[k];
    }
}

void
referenceButterfly(std::complex<double>* a,
                   const std::complex<double>* tw, std::size_t half,
                   bool inverse)
{
    for (std::size_t j = 0; j < half; ++j) {
        const double wr = tw[j].real();
        const double wi = inverse ? -tw[j].imag() : tw[j].imag();
        const double br = a[j + half].real();
        const double bi = a[j + half].imag();
        const double vr = br * wr - bi * wi;
        const double vi = br * wi + bi * wr;
        const double ur = a[j].real();
        const double ui = a[j].imag();
        a[j] = std::complex<double>(ur + vr, ui + vi);
        a[j + half] = std::complex<double>(ur - vr, ui - vi);
    }
}

// ---- tests ------------------------------------------------------------

TEST(SimdVariantTest, Avx2BuildRunsWhereverTheHostHasAvx2)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    EXPECT_EQ(simd::avx2Kernels() != nullptr,
              __builtin_cpu_supports("avx2") != 0);
#else
    EXPECT_EQ(simd::avx2Kernels(), nullptr);
#endif
}

TEST(SimdKernelTest, SquaredDistanceBitIdenticalAcrossBackends)
{
    for (const Variant& v : variants()) {
        for (const std::size_t n : kSizes) {
            const auto a = randomDoubles(100 + n, n);
            const auto b = randomDoubles(200 + n, n);
            EXPECT_EQ(v.kernels.squaredDistance(a.data(), b.data(), n),
                      referenceSquaredDistance(a.data(), b.data(), n))
                << v.name << " n=" << n;
        }
    }
}

TEST(SimdKernelTest, SquaredDistanceMatchesDefinitionClosely)
{
    // The fixed 4-lane tree may differ from a sequential sum in the
    // last bits, but it must still compute the same mathematical value.
    const auto a = randomDoubles(7, 100);
    const auto b = randomDoubles(8, 100);
    double reference = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        reference += (a[i] - b[i]) * (a[i] - b[i]);
    EXPECT_NEAR(simd::squaredDistance(a.data(), b.data(), a.size()),
                reference, 1e-12 * reference);
}

TEST(SimdKernelTest, DivideInPlaceBitIdenticalAcrossBackends)
{
    const double denom = 3.7;
    for (const Variant& v : variants()) {
        for (const std::size_t n : kSizes) {
            const auto base = randomDoubles(300 + n, n);
            auto got = base;
            v.kernels.divideInPlace(got.data(), n, denom);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(got[i], base[i] / denom)
                    << v.name << " n=" << n << " i=" << i;
        }
    }
}

TEST(SimdKernelTest, ScaleInPlaceBitIdenticalAcrossBackends)
{
    const double s = 1.0 / 48.0;
    for (const Variant& v : variants()) {
        for (const std::size_t n : kSizes) {
            const auto base = randomDoubles(400 + n, n);
            auto got = base;
            v.kernels.scaleInPlace(got.data(), n, s);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(got[i], base[i] * s)
                    << v.name << " n=" << n << " i=" << i;
        }
    }
}

TEST(SimdKernelTest, SubtractScalarBitIdenticalAcrossBackends)
{
    const double c = 0.4375;
    for (const Variant& v : variants()) {
        for (const std::size_t n : kSizes) {
            const auto x = randomDoubles(500 + n, n);
            std::vector<double> got(n, -1.0);
            v.kernels.subtractScalar(x.data(), n, c, got.data());
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(got[i], x[i] - c)
                    << v.name << " n=" << n << " i=" << i;
        }
    }
}

TEST(SimdKernelTest, PowerSpectrumExpandBitIdenticalAcrossBackends)
{
    for (const Variant& v : variants()) {
        // Each size is the padded transform length; its half spectrum
        // has padded/2 + 1 entries.
        for (const std::size_t padded : kSizes) {
            const std::size_t m1 = padded == 0 ? 0 : padded / 2 + 1;
            const auto spectrum = randomComplex(600 + padded, m1);
            std::vector<double> got(padded, -1.0);
            std::vector<double> want(padded, -2.0);
            v.kernels.powerSpectrumExpand(spectrum.data(), m1,
                                          got.data(), padded);
            referencePowerSpectrum(spectrum.data(), m1, want.data(),
                                   padded);
            for (std::size_t k = 0; k < padded; ++k)
                EXPECT_EQ(got[k], want[k])
                    << v.name << " padded=" << padded << " k=" << k;
        }
    }
}

TEST(SimdKernelTest, ButterflyBlockBitIdenticalAcrossBackends)
{
    for (const Variant& v : variants()) {
        // Each size is `half`; the kernel does not require the
        // twiddles to be roots of unity.
        for (const std::size_t half : kSizes) {
            const auto base = randomComplex(700 + half, 2 * half);
            const auto tw = randomComplex(800 + half, half);
            for (const bool inverse : {false, true}) {
                auto got = base;
                auto want = base;
                v.kernels.butterflyBlock(got.data(), tw.data(), half,
                                         inverse);
                referenceButterfly(want.data(), tw.data(), half,
                                   inverse);
                EXPECT_TRUE(sameBits(got, want))
                    << v.name << " half=" << half
                    << " inverse=" << inverse;
            }
        }
    }
}

} // namespace
} // namespace cchunter
